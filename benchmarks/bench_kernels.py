"""Compiled-kernel benchmark: table validation, fallback path, speedup.

Exercises the three contracts of :mod:`repro.kernels` and records the
numbers to ``BENCH_kernels.json`` at the repo root:

* **Validation** -- for every searchable design, the tabulated discharge
  endpoints must agree with the scalar RK4 reference to ``<= 1e-9``
  relative error (:meth:`KernelEngine.validate` re-integrates every
  tabulated class).
* **Fallback** -- a kernel compiled with a deliberately small
  ``max_driven`` must serve in-grid keys from the tables and route the
  rest through the RK4 reference path, with outcomes bit-identical to
  the scalar ``search()`` loop either way.
* **Speedup** -- with warm tables, the kernel batch against the scalar
  reference loop on the ``bench_perf_search`` configuration.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_kernels.py --check    # assert

``--check`` asserts the validation bound, that both the table-hit and
RK4-fallback paths actually ran, and scalar/kernel bit-identity; these
hold on any host.  The timing section is informational on shared
runners (the kernel-vs-scalar CI gate lives in ``bench_perf_search``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.core import all_designs, build_array, get_design
from repro.kernels import KernelEngine
from repro.tcam import ArrayGeometry
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import random_word

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "fefet2t"  # precharge-style sensing, same as bench_perf_search
SEED = 616161


def _build_loaded(design: str, rows: int, cols: int, seed: int):
    array = build_array(get_design(design), ArrayGeometry(rows=rows, cols=cols))
    rng = np.random.default_rng(seed)
    for row in range(rows):
        array.write(row, random_word(cols, rng, x_fraction=0.2))
    return array


def _keys(cols: int, n_keys: int, x_fraction: float, seed: int):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction=x_fraction) for _ in range(n_keys)]


def _assert_identical(scalar, kernel, label: str) -> None:
    for a, b in zip(scalar, kernel):
        assert np.array_equal(a.match_mask, b.match_mask), label
        assert a.first_match == b.first_match, label
        assert a.search_delay == b.search_delay, label
        assert a.cycle_time == b.cycle_time, label
        assert a.miss_histogram == b.miss_histogram, label
        assert a.energy.as_dict() == b.energy.as_dict(), (
            f"{label}: kernel ledger diverged from the scalar reference"
        )


def run_validation(designs: list[str], rows: int, cols: int, n_keys: int) -> list[dict]:
    """Table-vs-RK4 validation per design; asserts the 1e-9 budget."""
    records = []
    for design in designs:
        array = _build_loaded(design, rows, cols, SEED)
        engine = array.kernel
        keys = _keys(cols, n_keys, x_fraction=0.3, seed=SEED + 1)
        array.search_batch(keys)  # builds the rows this workload touches
        worst = engine.validate(rtol=1e-9)  # raises KernelError over budget
        assert worst <= 1e-9, f"{design}: validation error {worst} over budget"
        records.append(
            {
                "design": design,
                "sensing": array.sensing,
                "rows_built": engine.rows_built,
                "classes_tabulated": engine.counters()["classes_tabulated"],
                "worst_relative_error": worst,
            }
        )
    return records


def run_fallback(rows: int, cols: int, n_keys: int) -> dict:
    """Mixed table/RK4 batch: both paths must run and stay bit-identical."""
    scalar_array = _build_loaded(DESIGN, rows, cols, SEED)
    kernel_array = _build_loaded(DESIGN, rows, cols, SEED)
    # Keys carry ~30% X columns, so driven_cols spreads around 0.7*cols;
    # capping the grid near the middle of that spread forces a mix.
    keys = _keys(cols, n_keys, x_fraction=0.3, seed=SEED + 2)
    drivens = [int(np.count_nonzero(k.as_array() != 2)) for k in keys]
    engine = KernelEngine(kernel_array, max_driven=int(np.median(drivens)))
    kernel_array.kernel = engine

    scalar = [scalar_array.search(k) for k in keys]
    kernel = kernel_array.search_batch(keys)
    _assert_identical(scalar, kernel, "fallback batch")
    assert engine.table_hits > 0, "no key was served from the tables"
    assert engine.rk4_fallbacks > 0, "no key exercised the RK4 fallback"
    return {
        "max_driven": engine.max_driven,
        "table_hits": engine.table_hits,
        "rk4_fallbacks": engine.rk4_fallbacks,
    }


def run_timing(rows: int, cols: int, n_keys: int, scalar_keys: int) -> dict:
    """Scalar reference loop vs warm compiled kernel, bit-identity asserted.

    The scalar loop is timed on the first ``scalar_keys`` keys (it is a
    few orders of magnitude slower) and its rate extrapolated.
    """
    scalar_array = _build_loaded(DESIGN, rows, cols, SEED)
    kernel_array = _build_loaded(DESIGN, rows, cols, SEED)
    keys = _keys(cols, n_keys, x_fraction=0.2, seed=SEED + 3)
    engine = kernel_array.kernel
    engine.precompute(sorted({int(np.count_nonzero(k.as_array() != 2)) for k in keys}))

    t0 = time.perf_counter()
    scalar = [scalar_array.search(k) for k in keys[:scalar_keys]]
    t_scalar = (time.perf_counter() - t0) * n_keys / scalar_keys

    t0 = time.perf_counter()
    kernel = kernel_array.search_batch(keys)
    t_kernel = time.perf_counter() - t0

    _assert_identical(scalar, kernel, "timing batch")
    return {
        "rows": rows,
        "cols": cols,
        "n_keys": n_keys,
        "scalar_keys_timed": scalar_keys,
        "scalar_seconds": round(t_scalar, 4),
        "kernel_seconds": round(t_kernel, 4),
        "speedup_vs_scalar": round(t_scalar / t_kernel, 2),
        "keys_per_sec": round(n_keys / t_kernel, 2),
    }


def run_bench(smoke: bool) -> dict:
    searchable = [spec.name for spec in all_designs() if spec.sensing != "nand"]
    if smoke:
        validation = run_validation([DESIGN], rows=32, cols=24, n_keys=32)
        fallback = run_fallback(rows=32, cols=24, n_keys=32)
        timing = run_timing(rows=64, cols=32, n_keys=128, scalar_keys=16)
    else:
        validation = run_validation(searchable, rows=64, cols=32, n_keys=64)
        fallback = run_fallback(rows=64, cols=32, n_keys=64)
        timing = run_timing(rows=256, cols=64, n_keys=1024, scalar_keys=64)
    return {
        "schema_version": SCHEMA_VERSION,
        "design": DESIGN,
        "validation_rtol": 1e-9,
        "validation": validation,
        "fallback": fallback,
        "timing": timing,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (no BENCH_kernels.json update)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit non-zero unless the validation bound holds, both the "
            "table and RK4-fallback paths ran, and kernel outcomes are "
            "bit-identical to the scalar loop (all asserted on every "
            "run; --check makes the intent explicit in CI)"
        ),
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_kernels.json",
        help="where to write the JSON record (full runs only)",
    )
    args = parser.parse_args()

    record = run_bench(smoke=args.smoke)
    print(json.dumps(record, indent=2))
    if not args.smoke:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        worst = max(v["worst_relative_error"] for v in record["validation"])
        assert worst <= 1e-9
        assert record["fallback"]["table_hits"] > 0
        assert record["fallback"]["rk4_fallbacks"] > 0
        print(
            f"OK: validation <= 1e-9 (worst {worst:.3e}), table and "
            "fallback paths exercised, kernel bit-identical to scalar"
        )


if __name__ == "__main__":
    main()
