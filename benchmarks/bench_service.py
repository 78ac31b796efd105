"""Serving frontier: throughput vs tail latency vs energy per request.

Sweeps offered load x batching policy through the serving layer
(:mod:`repro.serve`) and records one frontier point per combination to
``BENCH_service.json``: goodput, modeled p50/p95/p99 latency, energy
per request, batch statistics and exact conservation counts.  All
latency/energy numbers are *modeled* (deterministic discrete-event
simulation), so the frontier is bit-reproducible on any host.

The gates ``--check`` asserts:

* **Conservation** -- every point satisfies
  ``offered == completed + rejected`` exactly (the engine also raises
  internally if not).
* **Throughput** -- the best batching policy sustains at least 5x the
  no-batching baseline's goodput (sustained = best goodput among swept
  loads whose rejection rate stays under 1%)...
* **Tail latency** -- ...with modeled p99 at its sustained point no
  worse than the baseline's p99 at the baseline's own sustained point.
* **Energy** -- at every swept load, every batching policy's energy per
  request undercuts the baseline's (dispatch-overhead amortization).

Run directly::

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI
    PYTHONPATH=src python benchmarks/bench_service.py --check    # assert
"""

from __future__ import annotations

import argparse
import json
import pathlib

import numpy as np

from repro.core import build_array, get_design
from repro.serve import (
    AdmissionControl,
    ArrayBackend,
    ServiceModel,
    make_policy,
    poisson_trace,
    run_trace,
)
from repro.tcam import ArrayGeometry
from repro.tcam.outcome import SCHEMA_VERSION
from repro.tcam.trit import random_word

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DESIGN = "fefet2t"
ROWS, COLS = 32, 32
SEED = 717171
QUEUE_CAP = 256
MAX_BATCH = 64
MAX_WAIT = 5e-6  # coalescing window [s]
MODEL = ServiceModel(t_overhead=200e-9, e_overhead=20e-12)

#: A load point counts toward sustained throughput only below this
#: rejection rate.
REJECTION_BUDGET = 0.01

#: Offered loads, as multiples of the no-batching port capacity
#: ``1 / (t_overhead + cycle_time)``.  The 0.9 point puts the baseline
#: near saturation (its best sustainable load); the top points probe
#: where batching saturates.
LOAD_FACTORS = (0.5, 0.9, 2.0, 5.0, 10.0, 20.0, 40.0)
LOAD_FACTORS_SMOKE = (0.5, 0.9, 5.0, 20.0)

POLICIES = ("none", "fixed", "adaptive")


def _backend() -> ArrayBackend:
    """Fresh backend; same seed at every sweep point, so stored content
    (and hence search physics) is identical everywhere."""
    array = build_array(get_design(DESIGN), ArrayGeometry(rows=ROWS, cols=COLS))
    rng = np.random.default_rng(SEED)
    array.load([random_word(COLS, rng, x_fraction=0.1) for _ in range(ROWS)])
    return ArrayBackend(array)


def baseline_capacity() -> float:
    """No-batching port capacity [req/s] from the modeled cycle time."""
    backend = _backend()
    rng = np.random.default_rng(SEED + 1)
    probe = [random_word(COLS, rng) for _ in range(64)]
    outcomes = backend.search_batch(probe, [0] * len(probe))
    mean_cycle = float(np.mean([o.cycle_time for o in outcomes]))
    return 1.0 / (MODEL.t_overhead + mean_cycle)


def run_point(policy_name: str, rate: float, n_requests: int) -> dict:
    """One frontier point: fresh backend, fresh trace, one policy."""
    trace = poisson_trace(n_requests, rate=rate, cols=COLS, seed=SEED + 2)
    report = run_trace(
        _backend(),
        trace,
        make_policy(policy_name, max_batch=MAX_BATCH, max_wait=MAX_WAIT),
        admission=AdmissionControl(queue_capacity=QUEUE_CAP),
        model=MODEL,
    )
    point = {"offered_rate": rate, "policy_name": policy_name, **report.to_dict()}
    assert point["offered"] == point["completed"] + point["rejected"], (
        f"conservation violated at {policy_name} @ {rate:.3g}/s"
    )
    return point


def sustained(points: list[dict]) -> dict:
    """The best point whose rejection rate stays within budget."""
    ok = [
        p
        for p in points
        if p["rejected"] <= REJECTION_BUDGET * p["offered"] and p["completed"]
    ]
    if not ok:  # nothing sustainable: fall back to the lowest load
        ok = points[:1]
    return max(ok, key=lambda p: p["throughput"])


def run_bench(smoke: bool) -> dict:
    cap = baseline_capacity()
    factors = LOAD_FACTORS_SMOKE if smoke else LOAD_FACTORS
    n_requests = 500 if smoke else 3000
    points = [
        run_point(policy, factor * cap, n_requests)
        for policy in POLICIES
        for factor in factors
    ]

    by_policy = {
        name: [p for p in points if p["policy_name"] == name] for name in POLICIES
    }
    base = sustained(by_policy["none"])
    best_name, best = max(
        ((name, sustained(by_policy[name])) for name in POLICIES if name != "none"),
        key=lambda item: item[1]["throughput"],
    )
    energy_ok = all(
        p["energy_per_request"] < b["energy_per_request"]
        for name in POLICIES
        if name != "none"
        for p, b in zip(by_policy[name], by_policy["none"])
    )
    summary = {
        "baseline_capacity": cap,
        "rejection_budget": REJECTION_BUDGET,
        "sustained_none": base["throughput"],
        "sustained_none_p99": base["latency_p99"],
        "best_policy": best_name,
        "sustained_best": best["throughput"],
        "sustained_best_p99": best["latency_p99"],
        "throughput_speedup": best["throughput"] / base["throughput"],
        "p99_no_worse": best["latency_p99"] <= base["latency_p99"],
        "energy_lower_at_every_load": energy_ok,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "design": DESIGN,
        "rows": ROWS,
        "cols": COLS,
        "seed": SEED,
        "n_requests": n_requests,
        "queue_capacity": QUEUE_CAP,
        "max_batch": MAX_BATCH,
        "max_wait": MAX_WAIT,
        "service_model": {
            "t_overhead": MODEL.t_overhead,
            "e_overhead": MODEL.e_overhead,
        },
        "load_factors": list(factors),
        "summary": summary,
        "points": points,
    }


def check(record: dict) -> None:
    """Assert the frontier gates (used by CI and ``--check``)."""
    assert record["schema_version"] == SCHEMA_VERSION
    for p in record["points"]:
        assert p["offered"] == p["completed"] + p["rejected"], (
            f"conservation violated at {p['policy_name']} @ "
            f"{p['offered_rate']:.3g}/s"
        )
    s = record["summary"]
    assert s["throughput_speedup"] >= 5.0, (
        f"batching speedup {s['throughput_speedup']:.2f}x below the 5x gate"
    )
    assert s["p99_no_worse"], (
        f"batched p99 {s['sustained_best_p99']:.3g}s worse than baseline "
        f"{s['sustained_none_p99']:.3g}s at the sustained points"
    )
    assert s["energy_lower_at_every_load"], (
        "a batching policy failed to undercut baseline energy/request "
        "at some swept load"
    )
    print(
        f"OK: conservation exact on {len(record['points'])} points, "
        f"{s['best_policy']} sustains {s['throughput_speedup']:.1f}x baseline "
        f"(p99 {s['sustained_best_p99']:.3g}s <= {s['sustained_none_p99']:.3g}s), "
        "energy/request lower at every load"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small configuration for CI (no BENCH_service.json update)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless the frontier gates hold "
             "(conservation, >= 5x sustained throughput at no-worse p99, "
             "lower energy/request at every load)",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=REPO_ROOT / "BENCH_service.json",
        help="where to write the JSON record (full runs only)",
    )
    args = parser.parse_args()

    record = run_bench(smoke=args.smoke)
    print(json.dumps(record["summary"], indent=2))
    if not args.smoke:
        args.output.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.output}")
    if args.check:
        check(record)


if __name__ == "__main__":
    main()
