"""Command-line interface.

Exposes the library's main analyses without writing Python::

    python -m repro designs
    python -m repro compare --rows 64 --cols 64 --searches 8
    python -m repro margin --design fefet2t_lv --swing 0.55
    python -m repro mc --design fefet2t --samples 500 --sigma-scale 2
    python -m repro lpm --routes 100 --lookups 200 --design fefet2t_lv
    python -m repro disturb --scheme V/2 --pulses 10000
    python -m repro trace lpm --routes 100 --lookups 200

Every command prints a table / report to stdout and returns a process
exit code of 0 on success.  Flags are uniform across subcommands:
``--design``, ``--rows``, ``--cols`` and ``--seed`` mean the same thing
wherever they apply, and every analysis command accepts ``--json`` to
emit a machine-readable dict (the same shapes as the outcomes'
``to_dict()`` / the ledgers' ``as_dict()``) instead of tables.

``trace <subcommand> ...`` runs any other subcommand under the
observability layer (:mod:`repro.obs`): the span tree and metrics
registry are printed after the command's own output, and
``--trace-out PATH`` additionally writes the trace as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from .analysis.disturb import V_HALF, V_THIRD, DisturbAnalysis
from .analysis.montecarlo import run_margin_mc
from .analysis.retention import YEAR_SECONDS, RetentionModel
from .devices.material import HZO_10NM
from .core import all_designs, build_array, get_design
from .core.ml_voltage import margin_at_vml
from .devices.variability import NOMINAL_VARIATION
from .energy.accounting import EnergyLedger
from .errors import ReproError
from .reporting.table import Table
from .tcam import ArrayGeometry
from .tcam.cells import all_cell_specs
from .tcam.cells.fefet2t import default_fefet_cell_params
from .tcam.trit import random_word
from .units import eng
from .workloads.iproute import synthetic_routing_table, trace_addresses

#: Subcommands the ``trace`` wrapper may run (everything but itself).
TRACEABLE_COMMANDS = (
    "designs",
    "compare",
    "margin",
    "mc",
    "lpm",
    "disturb",
    "retention",
    "report",
    "advise",
    "faults",
    "serve",
    "dse",
    "retrieval",
    "cluster",
)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _cmd_designs(args: argparse.Namespace) -> int:
    cells = []
    for cspec in all_cell_specs():
        cell = cspec.build()
        cells.append(
            {
                "key": cspec.name,
                "display_name": cspec.display_name,
                "transistors": cell.transistor_count,
                "area_f2": cell.area_f2,
                "bits_per_cell": cell.bits_per_cell,
                "proposed": cspec.proposed,
                "description": cspec.description,
            }
        )
    if getattr(args, "json", False):
        _emit_json(
            {
                "command": "designs",
                "designs": [
                    {
                        "key": s.name,
                        "cell": s.cell_name,
                        "sensing": s.sensing,
                        "description": s.description,
                    }
                    for s in all_designs()
                ],
                "cells": cells,
            }
        )
        return 0
    table = Table(
        title="Registered TCAM designs",
        columns=["key", "cell", "sensing", "description"],
    )
    for spec in all_designs():
        table.add_row(spec.name, spec.cell_name or "-", spec.sensing, spec.description)
    print(table)
    cell_table = Table(
        title="Registered TCAM cells",
        columns=["key", "T", "area [F^2]", "bits/cell", "description"],
    )
    for c in cells:
        cell_table.add_row(
            c["key"],
            c["transistors"],
            f"{c['area_f2']:g}",
            f"{c['bits_per_cell']:g}",
            c["description"],
        )
    print()
    print(cell_table)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    geometry = ArrayGeometry(args.rows, args.cols)
    words = [random_word(args.cols, rng, x_fraction=args.x_fraction) for _ in range(args.rows)]
    keys = [random_word(args.cols, rng) for _ in range(args.searches)]
    specs = [get_design(args.design)] if args.design else list(all_designs())
    table = Table(
        title=f"Design comparison ({args.rows}x{args.cols}, {args.searches} searches)",
        columns=["design", "E/search", "E/bit", "delay", "cycle", "errors"],
    )
    results = []
    for spec in specs:
        array = build_array(spec, geometry)
        array.load(words)
        ledger = EnergyLedger()
        delay = 0.0
        cycle = 0.0
        errors = 0
        if hasattr(array, "search_batch"):
            outcomes = array.search_batch(keys)
        else:  # NAND-string arrays have no batched engine
            outcomes = [array.search(key) for key in keys]
        for out in outcomes:
            ledger.merge(out.energy)
            delay = max(delay, out.search_delay)
            cycle = max(cycle, out.cycle_time)
            errors += out.functional_errors
        mean = ledger.total / args.searches
        results.append(
            {
                "design": spec.name,
                "energy_per_search": mean,
                "energy_per_bit": mean / (args.rows * args.cols),
                "search_delay": delay,
                "cycle_time": cycle,
                "functional_errors": errors,
                "energy": ledger.as_dict(),
            }
        )
        table.add_row(
            spec.name,
            eng(mean, "J"),
            eng(mean / (args.rows * args.cols), "J"),
            eng(delay, "s"),
            eng(cycle, "s"),
            errors,
        )
    if args.json:
        _emit_json(
            {
                "command": "compare",
                "rows": args.rows,
                "cols": args.cols,
                "searches": args.searches,
                "seed": args.seed,
                "designs": results,
            }
        )
        return 0
    print(table)
    return 0


def _cmd_margin(args: argparse.Namespace) -> int:
    spec = get_design(args.design)
    geometry = ArrayGeometry(args.rows, args.cols)
    report = margin_at_vml(spec, geometry, args.swing)
    if args.json:
        _emit_json(
            {
                "command": "margin",
                "design": spec.name,
                "rows": args.rows,
                "cols": args.cols,
                "v_ml": report.v_ml,
                "margin": report.margin,
                "guardband_sigmas": report.guardband_sigmas,
                "energy_per_search": report.energy_per_search,
                "functional": report.functional,
            }
        )
        return 0
    print(f"design          : {spec.name}")
    print(f"ML swing        : {report.v_ml:.3f} V")
    print(f"sense margin    : {report.margin:.4f} V")
    print(f"guardband       : {report.guardband_sigmas:.1f} sigma")
    print(f"energy/search   : {eng(report.energy_per_search, 'J')}")
    print(f"functional      : {report.functional}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    spec = get_design(args.design)
    array = build_array(spec, ArrayGeometry(args.rows, args.cols))
    variation = NOMINAL_VARIATION.scaled(args.sigma_scale)
    mc = run_margin_mc(
        array, variation, n_samples=args.samples, seed=args.seed, workers=args.workers
    )
    if args.json:
        _emit_json(
            {
                "command": "mc",
                "design": spec.name,
                "rows": args.rows,
                "cols": args.cols,
                "seed": args.seed,
                "samples": mc.n_samples,
                "margin_mean": mc.margin_mean,
                "margin_sigma": mc.margin_sigma,
                "margin_p1": mc.margin_percentile(1),
                "failure_rate": mc.failure_rate,
            }
        )
        return 0
    print(f"design          : {spec.name}")
    print(f"samples         : {mc.n_samples}")
    print(f"margin mean     : {mc.margin_mean:.4f} V")
    print(f"margin sigma    : {mc.margin_sigma:.4f} V")
    print(f"margin p1       : {mc.margin_percentile(1):.4f} V")
    print(f"line failures   : {mc.failure_rate:.4f}")
    return 0


def _cmd_lpm(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    table = synthetic_routing_table(args.routes, rng)
    rows = args.rows if args.rows is not None else 1 << (args.routes - 1).bit_length()
    array = build_array(get_design(args.design), ArrayGeometry(rows, 32))
    table.deploy(array)
    agreements = 0
    addresses = trace_addresses(table, args.lookups, rng)
    ledger = EnergyLedger()
    last_outcome = None
    for address, (route, outcome) in zip(
        addresses, table.lookup_tcam_batch(array, addresses)
    ):
        oracle = table.lookup_reference(address)
        ledger.merge(outcome.energy)
        last_outcome = outcome
        ok = (route is None and oracle is None) or (
            route is not None and oracle is not None and route.length == oracle.length
        )
        agreements += ok
    if args.json:
        _emit_json(
            {
                "command": "lpm",
                "design": args.design,
                "routes": len(table),
                "rows": rows,
                "seed": args.seed,
                "lookups": len(addresses),
                "oracle_agreement": agreements,
                "energy_per_lookup": ledger.total / len(addresses),
                "energy": ledger.as_dict(),
                "last_outcome": last_outcome.to_dict(),
            }
        )
        return 0 if agreements == len(addresses) else 1
    print(f"design          : {args.design}")
    print(f"routes          : {len(table)} (array {rows}x32)")
    print(f"lookups         : {len(addresses)}")
    print(f"oracle agreement: {agreements}/{len(addresses)}")
    print(f"energy/lookup   : {eng(ledger.total / len(addresses), 'J')}")
    return 0 if agreements == len(addresses) else 1


def _cmd_disturb(args: argparse.Namespace) -> int:
    scheme = {"V/2": V_HALF, "V/3": V_THIRD}[args.scheme]
    analysis = DisturbAnalysis(default_fefet_cell_params(), scheme)
    point = analysis.point(args.pulses)
    if args.json:
        _emit_json(
            {
                "command": "disturb",
                "scheme": scheme.name,
                "pulses": point.n_pulses,
                "retention_fraction": point.retention_fraction,
                "vt_shift": point.vt_shift,
            }
        )
        return 0
    print(f"scheme          : {scheme.name}")
    print(f"disturb pulses  : {point.n_pulses}")
    print(f"retention       : {point.retention_fraction:.4f}")
    print(f"VT shift        : {point.vt_shift:.4f} V")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .core.advisor import WorkloadProfile, advise

    profile = WorkloadProfile(
        rows=args.rows,
        cols=args.cols,
        x_fraction=args.x_fraction,
        searches_per_second=args.rate,
        max_latency=args.max_latency,
        nonvolatile_required=args.nonvolatile,
    )
    rec = advise(profile)
    if args.json:
        _emit_json(
            {
                "command": "advise",
                "rows": args.rows,
                "cols": args.cols,
                "recommended": rec.best.design,
                "candidates": [
                    {
                        "design": c.design,
                        "total_energy_per_search": c.total_energy_per_search,
                        "search_delay": c.search_delay,
                        "feasible": c.feasible,
                        "excluded_reason": c.excluded_reason,
                    }
                    for c in rec.candidates
                ],
            }
        )
        return 0
    table = Table(
        title="Design advisor",
        columns=["design", "E_total/search", "delay", "status"],
    )
    for c in rec.candidates:
        status = "OK" if c.feasible else f"excluded: {c.excluded_reason}"
        table.add_row(
            c.design,
            eng(c.total_energy_per_search, "J"),
            eng(c.search_delay, "s"),
            status,
        )
    print(table)
    print(f"\nrecommended: {rec.best.design}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .analysis.faultcampaign import run_fault_campaign

    densities = tuple(args.density) if args.density else (0.01, 0.02, 0.05)
    result = run_fault_campaign(
        design=args.design,
        rows=args.rows,
        cols=args.cols,
        densities=densities,
        mode=args.mode,
        repair=args.repair,
        n_spare=args.spare_rows,
        n_trials=args.trials,
        n_keys=args.keys,
        seed=args.seed,
        workers=args.workers,
    )
    if args.json:
        _emit_json({"command": "faults", **result.to_dict()})
        return 0
    table = Table(
        title=(
            f"Fault campaign: {result.design}, {result.rows}x{result.cols}, "
            f"mode={result.mode}, repair={result.repair}"
        ),
        columns=[
            "density",
            "faulty cells",
            "false match",
            "false miss",
            "dE search",
            "yield",
        ],
    )
    for p in result.points:
        table.add_row(
            f"{p.density:g}",
            str(p.n_faulty_cells),
            f"{p.false_match_rate:.2e}",
            f"{p.false_miss_rate:.2e}",
            f"{p.energy_delta:+.2%}",
            f"{p.post_repair_yield:.3f}",
        )
    print(table)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import (
        ARRIVAL_PROCESSES,
        AdmissionControl,
        ArrayBackend,
        ChipBackend,
        make_policy,
        serve_trace,
    )

    spec = get_design(args.design)
    rng = np.random.default_rng(args.seed)
    if args.banks > 1:
        from .tcam.chip import TCAMChip

        chip = TCAMChip(
            lambda: build_array(spec, ArrayGeometry(args.rows, args.cols)),
            n_banks=args.banks,
        )
        chip.load(
            [random_word(args.cols, rng) for _ in range(args.rows * args.banks)]
        )
        backend = ChipBackend(chip)
    else:
        array = build_array(spec, ArrayGeometry(args.rows, args.cols))
        array.load([random_word(args.cols, rng) for _ in range(args.rows)])
        backend = ArrayBackend(array)

    trace = ARRIVAL_PROCESSES[args.process](
        args.requests, rate=args.rate, cols=args.cols, seed=args.seed,
        n_banks=args.banks,
    )
    policy = make_policy(
        args.policy, max_batch=args.max_batch, max_wait=args.max_wait_us * 1e-6
    )
    admission = AdmissionControl(args.queue_cap if args.queue_cap > 0 else None)
    report = asyncio.run(serve_trace(backend, trace, policy, admission=admission))
    if args.json:
        _emit_json({"command": "serve", **report.to_dict()})
        return 0
    print(f"design          : {spec.name} ({args.banks} bank(s))")
    print(f"arrivals        : {args.process}, {report.offered} offered "
          f"at {eng(args.rate, 'req/s')}")
    print(f"policy          : {report.policy}")
    print(f"completed       : {report.completed}  rejected: {report.rejected}")
    print(f"batches         : {report.batches} "
          f"(mean size {report.mean_batch_size:.2f})")
    print(f"throughput      : {eng(report.throughput, 'req/s')}")
    print(f"latency p50     : {eng(report.latency_p50, 's')}")
    print(f"latency p95     : {eng(report.latency_p95, 's')}")
    print(f"latency p99     : {eng(report.latency_p99, 's')}")
    print(f"energy/request  : {eng(report.energy_per_request, 'J')}")
    print(f"port utilization: {report.utilization:.3f}")
    return 0


def _cmd_dse(args: argparse.Namespace) -> int:
    from .analysis.dse import default_space, run_dse

    space = default_space(
        cells=args.cell,
        rows=tuple(args.rows) if args.rows else (32,),
        cols=tuple(args.cols) if args.cols else (16, 32),
        segments=tuple(args.segments) if args.segments else (0,),
        vdds=tuple(args.vdd) if args.vdd else (None,),
    )
    result = run_dse(
        space,
        searches=args.searches,
        seed=args.seed,
        workers=args.workers,
    )
    if args.json:
        _emit_json({"command": "dse", "seed": args.seed, **result.to_dict()})
        return 0
    table = Table(
        title=(
            f"Pareto frontier ({len(result.frontier_indices)} of "
            f"{len(result.points)} points)"
        ),
        columns=["design point", "E/bit", "delay", "area/bit", "accuracy"],
    )
    for row in result.frontier:
        table.add_row(
            row["label"],
            eng(row["energy_per_bit"], "J"),
            eng(row["search_delay"], "s"),
            f"{row['area_f2_per_bit']:.1f} F^2",
            f"{row['accuracy']:.6f}",
        )
    print(table)
    print(f"\nfrontier cells: {', '.join(result.frontier_cells())}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting.aggregate import validate_bench_artifacts, write_report

    artifacts = validate_bench_artifacts(args.bench_dir)
    if artifacts:
        print(f"validated {len(artifacts)} benchmark artifact(s)")
    path = write_report(args.output_dir, args.out)
    print(f"wrote {path}")
    return 0


def _cmd_retention(args: argparse.Namespace) -> int:
    from .units import celsius_to_kelvin

    model = RetentionModel(HZO_10NM)
    t_k = celsius_to_kelvin(args.celsius)
    fraction = model.retention_fraction(args.years * YEAR_SECONDS, t_k)
    t_loss = model.time_to_loss(0.10, t_k)
    if args.json:
        _emit_json(
            {
                "command": "retention",
                "celsius": args.celsius,
                "years": args.years,
                "retention_fraction": fraction,
                "years_to_10pct_loss": (
                    None if t_loss == float("inf") else t_loss / YEAR_SECONDS
                ),
            }
        )
        return 0
    print(f"temperature     : {args.celsius:.0f} C")
    print(f"storage time    : {args.years:g} years")
    print(f"retention       : {fraction:.4f}")
    if t_loss == float("inf"):
        print("time to 10% loss: beyond the model horizon")
    else:
        print(f"time to 10% loss: {t_loss / YEAR_SECONDS:.3g} years")
    return 0


def _cmd_retrieval(args: argparse.Namespace) -> int:
    from .workloads.retrieval import run_retrieval

    thresholds = tuple(int(t) for t in args.thresholds.split(","))
    record = run_retrieval(
        n_entries=args.entries,
        dims=args.cols,
        n_queries=args.queries,
        k=args.k,
        thresholds=thresholds,
        design=args.design,
        bank_rows=args.rows,
        banks_per_chip=args.banks,
        seed=args.seed,
    )
    if args.json:
        _emit_json({"command": "retrieval", **record})
        return 0
    print(
        f"corpus          : {record['n_entries']} x {record['dims']} bits, "
        f"{record['n_banks']} banks / {record['n_chips']} chips"
    )
    print(f"design          : {record['design']}")
    print(f"load energy     : {eng(record['load_energy_total'], 'J')}")
    base = record["exact_baseline"]
    print(
        f"exact baseline  : {eng(base['energy_per_query'], 'J')}/query, "
        f"{eng(base['latency_mean'], 's')} mean latency"
    )
    top = record["topk"]
    print(
        f"top-{record['k']} (merged) : recall {top['recall_at_k']:.3f}, "
        f"{eng(top['energy_per_query'], 'J')}/query"
    )
    table = Table(
        title=f"Tolerance sweep ({record['n_queries']} queries, k={record['k']})",
        columns=["t", "recall@k", "candidates", "E/query", "latency", "E vs exact"],
    )
    for row in record["threshold_sweep"]:
        table.add_row(
            row["max_distance"],
            f"{row['recall_at_k']:.3f}",
            f"{row['mean_candidates']:.1f}",
            eng(row["energy_per_query"], "J"),
            eng(row["latency_mean"], "s"),
            f"{row['energy_vs_exact_baseline']:.4f}",
        )
    print()
    print(table)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .cluster import run_cluster_campaign
    from .cluster.distributor import DISTRIBUTOR_POLICIES

    chips = tuple(int(c) for c in args.chips.split(","))
    policies = (
        tuple(p for p in args.policy.split(","))
        if args.policy
        else DISTRIBUTOR_POLICIES
    )
    unknown = [p for p in policies if p not in DISTRIBUTOR_POLICIES]
    if unknown:
        print(
            f"error: unknown policy {', '.join(unknown)}; "
            f"expected a comma list from {', '.join(DISTRIBUTOR_POLICIES)}"
        )
        return 2
    record = run_cluster_campaign(
        design=args.design,
        n_rules=args.rules,
        cols=args.cols,
        banks_per_chip=args.banks,
        spare_rows=args.spares,
        chip_counts=chips,
        policies=policies,
        topology=args.topology,
        n_requests=args.requests,
        rate_factor=args.rate_factor,
        process=args.process,
        churn_updates=args.churn,
        wear_density=args.wear_density,
        seed=args.seed,
    )
    if args.json:
        _emit_json({"command": "cluster", **record})
        return 0
    cfg = record["config"]
    print(
        f"rule table      : {cfg['n_rules']} rules x {cfg['cols']} cols, "
        f"design {cfg['design']}"
    )
    print(
        f"fabric          : {cfg['topology']} interconnect, "
        f"{cfg['banks_per_chip']} bank(s)/chip, {cfg['spare_rows']} spare rows"
    )
    print(
        f"workload        : {cfg['n_requests']} {cfg['process']} requests, "
        f"{cfg['churn_updates']} churn updates, wear density "
        f"{cfg['wear_density']}"
    )
    table = Table(
        title="Cluster scaling frontier",
        columns=[
            "policy", "chips", "throughput", "p99", "E/query",
            "link %", "probes/q", "E/update", "yield",
        ],
    )
    for p in record["points"]:
        table.add_row(
            p["policy"],
            p["n_chips"],
            f"{p['throughput']:.3g}/s",
            eng(p["latency_p99"], "s"),
            eng(p["energy_per_query"], "J"),
            f"{100 * p['link_fraction']:.1f}",
            f"{p['probes_per_query']:.2f}",
            eng(p["churn"]["energy_per_op"], "J"),
            f"{p['availability']:.3f}",
        )
    print()
    print(table)
    bad = [
        p for p in record["points"]
        if not (p["conserved"] and p["churn_integrity"])
    ]
    if bad:
        print(f"WARNING: {len(bad)} point(s) broke conservation/integrity")
        return 1
    return 0


def _split_trace_out(rest: list[str]) -> tuple[str | None, list[str]]:
    """Pull ``--trace-out PATH`` out of a REMAINDER argument list.

    argparse's REMAINDER captures everything after the wrapped
    subcommand's name, including trace's own option when it is given
    last (``repro trace lpm ... --trace-out t.jsonl``), so it is
    extracted by hand here and both orderings work.
    """
    path = None
    passthrough: list[str] = []
    i = 0
    while i < len(rest):
        arg = rest[i]
        if arg == "--trace-out":
            if i + 1 >= len(rest):
                raise SystemExit("--trace-out needs a PATH argument")
            path = rest[i + 1]
            i += 2
            continue
        if arg.startswith("--trace-out="):
            path = arg.split("=", 1)[1]
            i += 1
            continue
        passthrough.append(arg)
        i += 1
    return path, passthrough


def _cmd_trace(args: argparse.Namespace) -> int:
    from . import obs
    from .obs.sinks import JsonLinesSink, StdoutSummarySink

    trailing_out, rest = _split_trace_out(list(args.rest))
    trace_out = args.trace_out or trailing_out
    sinks: list = [StdoutSummarySink()]
    if trace_out:
        sinks.append(JsonLinesSink(path=trace_out))
    sub_argv = [args.trace_command, *rest]
    with obs.observe(sinks=sinks):
        code = main(sub_argv)
    if trace_out:
        print(f"trace written to {trace_out}")
    return code


# -- shared flag groups -------------------------------------------------------
# Parent parsers for the flags that mean the same thing on every
# subcommand.  Each factory returns a fresh ``add_help=False`` parser so
# per-command defaults stay independent; a subcommand opts in by listing
# the parents it needs and only declares its own flags inline.


def _int_at_least(lower: int):
    """argparse ``type``: an integer no smaller than ``lower``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be >= {lower}, got {value}")
        return value

    return parse


#: Geometry and count flags (rows, columns, banks, rules, searches).
_positive_int = _int_at_least(1)


def _design_flags(
    default: str | None, help: str = "design registry key"
) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--design", default=default, help=help)
    return parent


def _shape_flags(rows: int, cols: int) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--rows", type=_positive_int, default=rows)
    parent.add_argument("--cols", type=_positive_int, default=cols)
    return parent


def _seed_flags(default: int = 0) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--seed", type=int, default=default)
    return parent


def _workers_flags(what: str) -> argparse.ArgumentParser:
    """``--workers``: trial-level process fan-out (results are
    bit-identical at every worker count)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers",
        type=int,
        default=0,
        help=f"process count for {what} (default: serial)",
    )
    return parent


def _service_flags() -> argparse.ArgumentParser:
    """``--banks`` / ``--process``: the multi-bank service-shape knobs."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--banks", type=_positive_int, default=1,
        help="bank count; > 1 serves a TCAMChip with bank routing",
    )
    parent.add_argument(
        "--process", choices=["poisson", "mmpp", "diurnal"], default="poisson",
        help="arrival process shape",
    )
    return parent


def _json_flags(instead_of: str = "text") -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json", action="store_true", help=f"emit JSON instead of {instead_of}"
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Energy-aware ferroelectric TCAM design library",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    designs = sub.add_parser(
        "designs",
        help="list the design and cell registries",
        parents=[_json_flags("a table")],
    )
    designs.set_defaults(func=_cmd_designs)

    compare = sub.add_parser(
        "compare",
        help="compare designs on one workload",
        parents=[
            _design_flags(None, help="restrict to one design"),
            _shape_flags(rows=64, cols=64),
            _seed_flags(),
            _json_flags("a table"),
        ],
    )
    compare.add_argument("--searches", type=_positive_int, default=8)
    compare.add_argument("--x-fraction", type=float, default=0.3)
    compare.set_defaults(func=_cmd_compare)

    margin = sub.add_parser(
        "margin",
        help="sense margin at one ML swing",
        parents=[
            _design_flags("fefet2t_lv"),
            _shape_flags(rows=16, cols=64),
            _json_flags(),
        ],
    )
    margin.add_argument("--swing", type=float, default=0.55)
    margin.set_defaults(func=_cmd_margin)

    mc = sub.add_parser(
        "mc",
        help="Monte-Carlo margin analysis",
        parents=[
            _design_flags("fefet2t"),
            _shape_flags(rows=16, cols=64),
            _seed_flags(),
            _workers_flags("the sample chunks"),
            _json_flags(),
        ],
    )
    mc.add_argument("--samples", type=int, default=500)
    mc.add_argument("--sigma-scale", type=float, default=1.0)
    mc.set_defaults(func=_cmd_mc)

    lpm = sub.add_parser(
        "lpm",
        help="IP longest-prefix-match demo",
        parents=[
            _design_flags("fefet2t_lv"),
            _seed_flags(),
            _json_flags(),
        ],
    )
    lpm.add_argument("--routes", type=int, default=100)
    lpm.add_argument("--lookups", type=int, default=200)
    lpm.add_argument(
        "--rows",
        type=_positive_int,
        default=None,
        help="array rows (default: routes rounded up to a power of two)",
    )
    lpm.set_defaults(func=_cmd_lpm)

    disturb = sub.add_parser(
        "disturb", help="write-disturb accumulation", parents=[_json_flags()]
    )
    disturb.add_argument("--scheme", choices=["V/2", "V/3"], default="V/2")
    disturb.add_argument("--pulses", type=int, default=10000)
    disturb.set_defaults(func=_cmd_disturb)

    retention = sub.add_parser(
        "retention", help="thermal retention projection", parents=[_json_flags()]
    )
    retention.add_argument("--celsius", type=float, default=85.0)
    retention.add_argument("--years", type=float, default=10.0)
    retention.set_defaults(func=_cmd_retention)

    report = sub.add_parser("report", help="aggregate benchmark artifacts")
    report.add_argument("--output-dir", default="benchmarks/output")
    report.add_argument("--out", default="REPORT.md")
    report.add_argument(
        "--bench-dir",
        default=".",
        help="directory whose BENCH_*.json records are schema-validated",
    )
    report.set_defaults(func=_cmd_report)

    advise_cmd = sub.add_parser(
        "advise",
        help="recommend a design for a workload",
        parents=[_shape_flags(rows=128, cols=64), _json_flags("a table")],
    )
    advise_cmd.add_argument("--x-fraction", type=float, default=0.3)
    advise_cmd.add_argument("--rate", type=float, default=1e8)
    advise_cmd.add_argument("--max-latency", type=float, default=2e-9)
    advise_cmd.add_argument("--nonvolatile", action="store_true")
    advise_cmd.set_defaults(func=_cmd_advise)

    faults = sub.add_parser(
        "faults",
        help="fault-density reliability campaign",
        parents=[
            _design_flags("fefet2t"),
            _shape_flags(rows=32, cols=32),
            _seed_flags(20260805),
            _workers_flags("the trial fan-out"),
            _json_flags("a table"),
        ],
    )
    faults.add_argument(
        "--density",
        type=float,
        action="append",
        default=None,
        metavar="D",
        help="cell-fault density; repeat for a sweep (default: 0.01 0.02 0.05)",
    )
    faults.add_argument(
        "--mode", choices=["random", "clustered", "wear"], default="random"
    )
    faults.add_argument(
        "--repair", choices=["none", "spare-rows", "mask"], default="spare-rows"
    )
    faults.add_argument(
        "--spare-rows",
        type=int,
        default=4,
        help="rows reserved for the spare-row policy",
    )
    faults.add_argument("--trials", type=int, default=4)
    faults.add_argument("--keys", type=int, default=24)
    faults.set_defaults(func=_cmd_faults)

    serve = sub.add_parser(
        "serve",
        help="TCAM-as-a-service: batched lookup serving simulation",
        parents=[
            _design_flags("fefet2t"),
            _shape_flags(rows=32, cols=32),
            _service_flags(),
            _seed_flags(),
            _json_flags(),
        ],
    )
    serve.add_argument("--requests", type=int, default=2000)
    serve.add_argument(
        "--rate", type=float, default=1e6, help="offered arrival rate [req/s]"
    )
    serve.add_argument(
        "--policy", choices=["none", "fixed", "adaptive"], default="adaptive"
    )
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument(
        "--max-wait-us", type=float, default=10.0,
        help="coalescing wait budget [microseconds]",
    )
    serve.add_argument(
        "--queue-cap", type=int, default=256,
        help="admission queue bound; 0 means unbounded",
    )
    serve.set_defaults(func=_cmd_serve)

    dse = sub.add_parser(
        "dse",
        help="design-space exploration: energy-delay-area-accuracy frontier",
        parents=[
            _seed_flags(),
            _workers_flags("the design-point sweep"),
            _json_flags("a table"),
        ],
    )
    dse.add_argument(
        "--cell",
        action="append",
        default=None,
        metavar="NAME",
        help="cell registry key; repeat to restrict (default: every cell)",
    )
    dse.add_argument(
        "--rows", type=_positive_int, action="append", default=None, metavar="N",
        help="row count; repeat for a sweep (default: 32)",
    )
    dse.add_argument(
        "--cols", type=_positive_int, action="append", default=None, metavar="N",
        help="column count; repeat for a sweep (default: 16 32)",
    )
    dse.add_argument(
        "--vdd", type=float, action="append", default=None, metavar="V",
        help="supply voltage; repeat for a sweep (default: node nominal)",
    )
    dse.add_argument(
        "--segments", type=_int_at_least(0), action="append", default=None, metavar="K",
        help="probe-column segmentation; repeat for a sweep (default: 0 = off)",
    )
    dse.add_argument(
        "--searches", type=_positive_int, default=8,
        help="random search keys per design point (>= 1)",
    )
    dse.set_defaults(func=_cmd_dse)

    retrieval = sub.add_parser(
        "retrieval",
        help="corpus-scale associative retrieval over sharded TCAM banks",
        parents=[
            _design_flags("fefet2t"),
            _shape_flags(rows=256, cols=64),
            _seed_flags(),
            _json_flags("a table"),
        ],
    )
    retrieval.add_argument(
        "--entries", type=int, default=20_000, help="corpus size (rows)"
    )
    retrieval.add_argument("--queries", type=int, default=32, help="query batch size")
    retrieval.add_argument("--k", type=int, default=10, help="neighbors per query")
    retrieval.add_argument(
        "--thresholds",
        default="2,4,6,8,10,12,14,16",
        help="comma-separated Hamming tolerances to sweep",
    )
    retrieval.add_argument(
        "--banks", type=_positive_int, default=16, help="banks tiled per chip"
    )
    retrieval.set_defaults(func=_cmd_retrieval)

    cluster = sub.add_parser(
        "cluster",
        help="sharded multi-chip fabric scaling campaign",
        parents=[
            _design_flags("fefet2t"),
            _seed_flags(),
            _json_flags("a table"),
        ],
    )
    cluster.add_argument(
        "--chips", default="1,2,4,8", help="comma-separated chip counts"
    )
    cluster.add_argument(
        "--policy",
        default=None,
        help="comma-separated distributor policies (default: all three)",
    )
    cluster.add_argument(
        "--topology", choices=["p2p", "bus"], default="p2p",
        help="interconnect topology",
    )
    cluster.add_argument("--rules", type=_positive_int, default=256, help="rule-table size")
    cluster.add_argument("--cols", type=_positive_int, default=32, help="rule width")
    cluster.add_argument("--banks", type=_positive_int, default=1, help="banks per chip")
    cluster.add_argument(
        "--spares", type=int, default=2, help="spare rows per bank"
    )
    cluster.add_argument(
        "--requests", type=int, default=400, help="serving-trace length"
    )
    cluster.add_argument(
        "--rate-factor", type=float, default=3.0,
        help="offered rate as a multiple of estimated capacity",
    )
    cluster.add_argument(
        "--process", choices=["poisson", "mmpp", "diurnal"], default="poisson",
        help="arrival process shape",
    )
    cluster.add_argument(
        "--churn", type=int, default=120, help="BGP-style update count"
    )
    cluster.add_argument(
        "--wear-density", type=float, default=0.02,
        help="fault density of the post-churn aging pass",
    )
    cluster.set_defaults(func=_cmd_cluster)

    trace = sub.add_parser(
        "trace", help="run any subcommand under the observability layer"
    )
    trace.add_argument("trace_command", choices=list(TRACEABLE_COMMANDS))
    trace.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="also write the trace as JSON lines to PATH",
    )
    trace.add_argument("rest", nargs=argparse.REMAINDER)
    trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A rejected model input (any :class:`~repro.errors.ReproError`) ends
    the command like a rejected flag does: the message on stderr and
    exit status 2, not a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
