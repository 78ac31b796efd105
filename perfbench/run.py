"""Wall-clock benchmark of the FeTCAM simulator.

Run from the repository root::

    python3 perfbench/run.py --workload fabric_churn --seed 1 --seconds 10 --trace 0

Workloads: ``fabric_churn``, ``fabric_worn``, ``retrieval_topk``,
``mc_margin`` (see perfbench/README.md).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics.  The line
before the last is an info object (host fingerprint, modeled outputs,
output digest); the last line is the result::

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

The simulator is imported from ``src/`` of the checkout this script
sits in, never from an installed copy; without it the script exits
with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the simulator from {SRC}: {exc}")
    where = pathlib.Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: imported repro from {where}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", action="store_true",
                        help="internal: measure one process's share of an "
                             "end-to-end run and print its raw figures")
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.bench import run, run_part
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.part:
        print(json.dumps(run_part(args.workload, args.seed, args.seconds)))
        return 0
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"perfbench": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
