"""Fault-density reliability benchmark (Fig. 19-style robustness sweep).

Sweeps cell-fault density over seeded campaigns for each repair policy
and records {false-match rate, false-miss rate, search-energy delta,
post-repair yield} per density point to ``BENCH_faults.json`` at the
repo root.  The companion figure in the FeTCAM reliability literature
plots exactly these curves: error rates climbing with defect density
and the repair mechanisms buying yield back.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fig19_faults.py            # full
    PYTHONPATH=src python benchmarks/bench_fig19_faults.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_fig19_faults.py --check    # assert

``--check`` asserts the subsystem's structural contracts on the run's
own numbers (valid on any host, CPU count does not matter):

* density 0 is bit-free: zero false matches/misses and zero search
  energy delta (the empty-map equivalence contract);
* combined false-match + false-miss counts are non-decreasing in
  density (guaranteed by the nested fault plans);
* a 2-worker campaign reproduces the serial campaign bit-identically;
* spare-row repair never yields worse than no repair;
* at the highest density, a fault-injected ``search_batch`` equals the
  per-key ``search()`` loop outcome for outcome, ledger booking order
  included, under both sensing styles.
"""

from __future__ import annotations

import argparse
import json
import pathlib

import numpy as np

from repro.analysis.faultcampaign import run_fault_campaign
from repro.core import build_array, get_design
from repro.faults import FaultCampaign
from repro.tcam import ArrayGeometry
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import random_word

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "fefet2t"
SEED = 19820
REPAIRS = ("none", "spare-rows", "mask")


def _campaign_config(smoke: bool) -> dict:
    if smoke:
        return {
            "rows": 16,
            "cols": 16,
            "densities": (0.0, 0.02, 0.05),
            "n_trials": 2,
            "n_keys": 8,
            "n_spare": 2,
        }
    return {
        "rows": 32,
        "cols": 32,
        "densities": (0.0, 0.005, 0.01, 0.02, 0.05, 0.1),
        "n_trials": 6,
        "n_keys": 24,
        "n_spare": 4,
    }


def run_bench(smoke: bool, workers: int) -> dict:
    config = _campaign_config(smoke)
    sweeps = {}
    for repair in REPAIRS:
        result = run_fault_campaign(
            design=DESIGN,
            mode="random",
            repair=repair,
            seed=SEED,
            workers=workers,
            **config,
        )
        sweeps[repair] = result.to_dict()
    return {
        "schema_version": SCHEMA_VERSION,
        "design": DESIGN,
        "seed": SEED,
        "workers": workers,
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in config.items()},
        "sweeps": sweeps,
    }


def check_contracts(record: dict, workers: int) -> None:
    config = {k: tuple(v) if isinstance(v, list) else v for k, v in record["config"].items()}
    config["densities"] = tuple(config["densities"])

    for repair, sweep in record["sweeps"].items():
        points = sweep["points"]
        zero = [p for p in points if p["density"] == 0.0]
        for p in zero:
            assert p["false_matches"] == 0 and p["false_misses"] == 0, (
                f"{repair}: errors at density 0 -- empty-map equivalence broken"
            )
            assert p["energy_delta"] == 0.0, (
                f"{repair}: energy delta {p['energy_delta']} at density 0"
            )
        combined = [p["false_matches"] + p["false_misses"] for p in points]
        assert combined == sorted(combined), (
            f"{repair}: error counts not monotone in density: {combined}"
        )
    print("check: density-0 equivalence and monotonicity OK")

    serial = run_fault_campaign(
        design=DESIGN, mode="random", repair="spare-rows", seed=SEED, workers=1, **config
    )
    parallel = run_fault_campaign(
        design=DESIGN,
        mode="random",
        repair="spare-rows",
        seed=SEED,
        workers=max(2, workers),
        **config,
    )
    assert serial.to_dict() == parallel.to_dict(), (
        "serial and multi-worker campaigns diverged"
    )
    print("check: serial vs 2-worker bit-identity OK")

    none_points = record["sweeps"]["none"]["points"]
    spare_points = record["sweeps"]["spare-rows"]["points"]
    for n, s in zip(none_points, spare_points):
        assert s["post_repair_yield"] >= n["post_repair_yield"], (
            f"spare-rows yield {s['post_repair_yield']} below no-repair "
            f"{n['post_repair_yield']} at density {n['density']}"
        )
    print("check: spare-row repair never below no-repair yield OK")

    check_batch_equals_scalar(config)
    print("check: faulty search_batch == per-key search() OK")


def check_batch_equals_scalar(config: dict) -> None:
    """At the highest density, a faulty batch equals the scalar loop."""
    rows, cols = config["rows"], config["cols"]
    density = max(config["densities"])
    for design in (DESIGN, "fefet_cr"):
        rng = np.random.default_rng(SEED)
        words = [random_word(cols, rng, x_fraction=0.1) for _ in range(rows)]
        campaign = FaultCampaign(rows, cols)
        fmap = campaign.draw("random", rng).at_density(density)
        fmap = campaign.with_dead_rows(fmap, 0.1, rng)
        fmap = campaign.with_sa_offsets(fmap, 0.02, rng)
        keys = [random_word(cols, rng, x_fraction=0.1) for _ in range(4 * config["n_keys"])]
        keys += words[: config["n_keys"]]
        arrays = []
        for _ in range(2):
            array = build_array(get_design(design), ArrayGeometry(rows, cols))
            array.load(words)
            array.attach_faults(fmap.copy())
            arrays.append(array)
        scalar, batch = arrays
        for s, b in zip([scalar.search(k) for k in keys], batch.search_batch(keys)):
            same = (
                np.array_equal(s.match_mask, b.match_mask)
                and s.first_match == b.first_match
                and s.search_delay == b.search_delay
                and s.cycle_time == b.cycle_time
                and s.miss_histogram == b.miss_histogram
                and s.functional_errors == b.functional_errors
                and list(s.energy) == list(b.energy)
            )
            assert same, f"{design}: faulty search_batch diverged from search()"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (no BENCH_faults.json update)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="assert the structural reliability contracts on the run",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="process count for the trial fan-out (default: serial)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_faults.json",
        help="where to write the JSON record (full runs only)",
    )
    args = parser.parse_args()

    record = run_bench(smoke=args.smoke, workers=args.workers)
    print(json.dumps(record, indent=2))
    if not args.smoke:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")

    if args.check:
        check_contracts(record, workers=args.workers)


if __name__ == "__main__":
    main()
