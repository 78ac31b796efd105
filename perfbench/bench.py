"""Run one workload, time it, check it, and assemble the result.

``--trace 0`` reports the end-to-end metrics.  The run is split over
``PROCESSES`` fresh interpreter processes run one after another, each
setting the workload up once and repeating it for its share of
``--seconds``: the same code runs several percent faster or slower
from one process to the next (memory layout), so every figure is a
median across processes -- set-up time, warm throughput, median host
time per batch and peak memory -- except the batch tail, which pools
the batches of all processes.  End-to-end timings are scaled to a
reference host speed (see :mod:`perfbench.calibration`); the raw
values go to the info line.

``--trace 1`` reports the per-layer metrics from one process: it
alternates untraced and traced repetitions, so that
``trace.overhead_share`` compares like with like, and folds only the
traced ones into the layer tables.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from .calibration import ScaledClock
from .tracer import ARRAY_PATHS, LayerTracer
from .workloads import WORKLOADS, Rep, Workload, _bank_counters

#: Processes an end-to-end run is split over (one set-up each).
PROCESSES = 3
#: Repetitions run even when a process's share of time has elapsed.
MIN_REPS = 3
RUN_PY = pathlib.Path(__file__).resolve().parent / "run.py"


def host_fingerprint() -> dict:
    """What the numbers were measured on; compare only like with like."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark [MB]."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_setup(wl: Workload, clock: ScaledClock):
    """Set the workload up once, timing it as one lap of ``clock``."""
    gc.collect()
    t0 = perf_counter()
    state = wl.setup()
    clock.add("setup", perf_counter() - t0)
    clock.lap()
    return state


class _Outputs:
    """Checks repetitions against the first one as they finish.

    Only the first repetition keeps its outputs, so memory does not grow
    with the number of repetitions a run fits in.
    """

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.reps: list[Rep] = []
        self.failed = 0

    def add(self, rep: Rep) -> Rep:
        if self.reps:
            self.failed += self.wl.compare(rep, self.reps[0])
            rep.out = None
        self.reps.append(rep)
        return rep

    def check(self, state) -> int:
        """Failed ops over all repetitions: those that differ from the
        first, plus the first's oracle failures once per repetition."""
        return self.failed + len(self.reps) * self.wl.check(self.reps[0], state)


def _until(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` have passed (at least MIN_REPS times).

    Garbage is collected before each call: the previous repetition's
    copy of the state holds reference cycles, and collecting it here,
    untimed, keeps the collector's pauses out of the timed laps and the
    peak memory independent of when the collector happens to run.
    """
    t_end = perf_counter() + seconds
    n = 0
    while n < MIN_REPS or perf_counter() < t_end:
        gc.collect()
        step()
        n += 1


def _median(values) -> float:
    return float(statistics.median(values))


def measure_part(wl: Workload, seconds: float) -> dict:
    """One process's share of an end-to-end run: set up once, then
    repeat for ``seconds``; returns raw material for :func:`_combine`."""
    setup_clock = ScaledClock()
    state = _timed_setup(wl, setup_clock)
    outputs = _Outputs(wl)
    clocks: list[ScaledClock] = []

    def step() -> None:
        fresh = wl.fresh(state)
        clock = ScaledClock(wl.calibration_probe)
        rep = wl.rep(fresh, clock)
        clock.lap()
        clocks.append(clock)
        outputs.add(rep)

    _until(seconds, step)
    failed = outputs.check(state)
    reps = outputs.reps
    model, digest = wl.modeled(reps[0])
    part = {
        "attempted": sum(r.attempted for r in reps),
        "failed": int(failed),
        "reps": len(reps),
        "digest": digest,
        "modeled": model,
        "peak_rss_mb": peak_rss_mb(),
        "slowness": _median(s for c in clocks for s in c.slowness),
    }
    for view in ("raw", "scaled"):
        times = [getattr(c, view) for c in clocks]
        part[view] = {
            "setup_s": getattr(setup_clock, view)["setup"][0],
            "ops_per_s": _median(r.ops / sum(t["op"]) for r, t in zip(reps, times)),
            "batch_ms": [1e3 * b for t in times for b in t["batch"]],
        }
        if any(r.updates for r in reps):
            part[view]["updates_per_s"] = _median(
                r.updates / sum(t["update"]) for r, t in zip(reps, times)
                if r.updates)
    return part


def run_part(workload: str, seed: int, seconds: float, small: bool = False) -> dict:
    """:func:`measure_part` in this process."""
    wl = WORKLOADS[workload](seed, small=small)
    try:
        return measure_part(wl, seconds)
    finally:
        wl.close()


def _run_part(workload: str, seed: int, seconds: float) -> dict:
    """One part in a fresh interpreter (``run.py --part``)."""
    cmd = [sys.executable, str(RUN_PY), "--workload", workload, "--seed",
           str(seed), "--seconds", repr(seconds), "--trace", "0", "--part"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"part process failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _combine(parts: list[dict], tail_pct: int, view: str) -> dict:
    """Set-up, throughput and batch timings of one view across parts."""
    views = [p[view] for p in parts]
    pooled = np.array([b for v in views for b in v["batch_ms"]])
    out = {
        "setup_s": _median(v["setup_s"] for v in views),
        "ops_per_s": _median(v["ops_per_s"] for v in views),
        "batch_ms_p50": _median(np.percentile(v["batch_ms"], 50) for v in views),
        "batch_ms_tail": float(np.percentile(pooled, tail_pct)),
    }
    if "updates_per_s" in views[0]:
        out["updates_per_s"] = _median(v["updates_per_s"] for v in views)
    return out


def _end_to_end(workload: str, seed: int, seconds: float, small: bool,
                processes: int):
    if processes == 1:
        parts = [run_part(workload, seed, seconds, small)]
    else:
        parts = [_run_part(workload, seed, seconds / processes)
                 for _ in range(processes)]
    tail_pct = WORKLOADS[workload].tail_pct
    scaled = _combine(parts, tail_pct, "scaled")
    metrics = {
        "setup_s": (scaled["setup_s"], "s"),
        "ops_per_s": (scaled["ops_per_s"], "1/s"),
        "batch_ms_p50": (scaled["batch_ms_p50"], "ms"),
        "batch_ms_tail": (scaled["batch_ms_tail"], "ms"),
        "peak_rss_mb": (_median(p["peak_rss_mb"] for p in parts), "MB"),
    }
    # Every part ran the same inputs from the same seed, so any part
    # whose outputs differ from the first part's failed all its ops.
    first = parts[0]
    failed = sum(
        p["failed"] if (p["digest"], p["modeled"]) == (first["digest"], first["modeled"])
        else p["attempted"]
        for p in parts
    )
    n_batches = sum(len(p["scaled"]["batch_ms"]) for p in parts)
    info = {
        "digest": first["digest"],
        "modeled": first["modeled"],
        "processes": len(parts),
        "reps": [p["reps"] for p in parts],
        "host_slowness": [p["slowness"] for p in parts],
        "raw": _combine(parts, tail_pct, "raw"),
        "scaled": scaled,
        "batches": n_batches,
        "tail_percentile": tail_pct,
        "tail_batches_beyond": int(n_batches - np.ceil(n_batches * tail_pct / 100)),
    }
    return metrics, sum(p["attempted"] for p in parts), failed, info


def _per_layer(wl: Workload, seconds: float):
    tracer = LayerTracer()
    with tracer.tracing():
        state = wl.setup()
    setup_stats = {
        "compile_s": tracer.total_s["kernels"],
        "repair_s": tracer.total_s["cluster.repair"],
        "rows_built": _bank_counters(_state_banks(state))["rows_built"],
    }
    tracer.reset()

    outputs = _Outputs(wl)
    traced: list[Rep] = []
    untraced_wall: list[float] = []
    traced_wall: list[float] = []
    serial_wall: list[float] = []

    def cycle() -> None:
        # No calibration here: the layer tables are raw host time.
        fresh = wl.fresh(state)
        t0 = perf_counter()
        outputs.add(wl.rep(fresh, ScaledClock(None)))
        untraced_wall.append(perf_counter() - t0)
        fresh = wl.fresh(state)
        before = tracer.wall_s
        with tracer.tracing():
            rep = wl.rep(fresh, ScaledClock(None))
        traced_wall.append(tracer.wall_s - before)
        traced.append(outputs.add(rep))
        if getattr(wl, "workers", 1) > 1:
            fresh = wl.fresh(state)
            t0 = perf_counter()
            outputs.add(wl.rep(fresh, ScaledClock(None), workers=0))
            serial_wall.append(perf_counter() - t0)

    _until(seconds, cycle)
    failed = outputs.check(state)
    metrics = _layer_metrics(wl, tracer, outputs.reps[0], traced, setup_stats,
                             untraced_wall, traced_wall, serial_wall)
    model, digest = wl.modeled(outputs.reps[0])
    info = {"digest": digest, "modeled": model, "reps": len(outputs.reps)}
    return metrics, sum(r.attempted for r in outputs.reps), failed, info


def _state_banks(state) -> list:
    chips = getattr(state, "chips", None)
    if chips is None:
        return [state] if hasattr(state, "geometry") else []
    return [b for chip in chips for b in chip.banks]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(wl, tracer, first, traced, setup_stats, untraced_wall,
                   traced_wall, serial_wall) -> dict:
    wall = tracer.wall_s
    own = tracer.self_s
    calls, keys, total = tracer.calls, tracer.keys, tracer.total_s
    counters: dict[str, int] = {}
    for rep in traced:
        for k, v in rep.counters.items():
            counters[k] = counters.get(k, 0) + v
    served = sum(rep.ops for rep in traced if "serve_batches" in rep.counters)
    batches = counters.get("serve_batches", 0)
    updates = sum(rep.updates for rep in traced)
    rejected = counters.get("rejected_updates", 0)
    queries = counters.get("queries_offered", 0)
    hits, falls = counters.get("table_hits", 0), counters.get("rk4_fallbacks", 0)
    ml_hits, ml_misses = counters.get("ml_hits", 0), counters.get("ml_misses", 0)
    wear = getattr(wl, "wear_report", None)
    workers = getattr(wl, "workers", 0)
    model = wl.modeled(first)[0]

    m = {
        "trace.wall_s": (wall, "s"),
        "trace.overhead_share": (
            statistics.median(traced_wall) / statistics.median(untraced_wall) - 1.0,
            "ratio"),
        "bench.self_s": (own["bench"], "s"),
        "serve.self_s": (own["serve"], "s"),
        "serve.self_share": (_ratio(own["serve"], wall), "ratio"),
        "serve.batches": (batches, "count"),
        "serve.batch_size_mean": (_ratio(served, batches), "count"),
        "cluster.search.calls": (calls["cluster.search"], "count"),
        "cluster.search.keys": (keys["cluster.search"], "count"),
        "cluster.self_s": (own["cluster"], "s"),
        "cluster.probes_per_query": (
            _ratio(counters.get("probes_issued", 0), queries), "count"),
        "cluster.fallback_share": (
            _ratio(counters.get("fallback_queries", 0), queries), "ratio"),
        "cluster.update.calls": (calls["cluster.update"], "count"),
        "cluster.update.s": (total["cluster.update"], "s"),
        "cluster.update.rejected_share": (_ratio(rejected, updates), "ratio"),
        "cluster.repair_s": (setup_stats["repair_s"], "s"),
        "tcam.chip.calls": (calls["tcam.chip"], "count"),
        "tcam.chip.keys": (keys["tcam.chip"], "count"),
        "tcam.chip.self_s": (own["tcam.chip"], "s"),
        "tcam.array.calls": (calls["tcam.array"], "count"),
        "tcam.array.keys": (keys["tcam.array"], "count"),
        "tcam.array.self_s": (own["tcam.array"], "s"),
        "tcam.array.us_per_key": (
            _ratio(total["tcam.array"] * 1e6, keys["tcam.array"]), "us"),
        "tcam.array.ml_cache_hit_ratio": (
            _ratio(ml_hits, ml_hits + ml_misses), "ratio"),
    }
    for path in ARRAY_PATHS:
        m[f"tcam.array.path.{path}"] = (tracer.counts["path." + path], "count")
    m.update({
        "faults.faulty_key_share": (
            _ratio(tracer.counts["keys.faulty"], keys["tcam.array"]), "ratio"),
        "faults.rows_repaired": (wear.repaired_rows if wear else 0, "count"),
        "faults.availability": (wear.availability if wear else 1.0, "ratio"),
        "kernels.table_hits": (hits, "count"),
        "kernels.rk4_fallbacks": (falls, "count"),
        "kernels.fallback_ratio": (_ratio(falls, hits + falls), "ratio"),
        "kernels.rows_built.setup": (setup_stats["rows_built"], "count"),
        "kernels.rows_built.timed": (counters.get("rows_built", 0), "count"),
        "kernels.compile_s": (setup_stats["compile_s"], "s"),
        "kernels.self_s": (own["kernels"], "s"),
        "workloads.retrieval.topk_s": (total["workloads.retrieval.topk"], "s"),
        "workloads.retrieval.threshold_s": (
            total["workloads.retrieval.threshold"], "s"),
        "workloads.retrieval.merge_self_s": (own["workloads.retrieval"], "s"),
        "workloads.retrieval.bank_calls": (
            tracer.calls_from[("tcam.array", "workloads.retrieval")], "count"),
        "workloads.retrieval.candidates_mean": (
            model.get("candidates_mean", 0.0), "count"),
        "analysis.mc.s": (own["analysis"], "s"),
        "parallel.workers": (workers, "count"),
        "parallel.efficiency": (
            _ratio(statistics.median(serial_wall),
                   workers * statistics.median(untraced_wall))
            if serial_wall else 0.0, "ratio"),
    })
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, processes: int = PROCESSES) -> tuple[dict, dict]:
    """Run ``workload``; returns ``(result, info)``.

    ``result`` is the JSON object the benchmark prints last; ``info``
    carries the host fingerprint, the model outputs and their digest.
    """
    if trace:
        wl = WORKLOADS[workload](seed, small=small)
        try:
            metrics, attempted, failed, extra = _per_layer(wl, seconds)
        finally:
            wl.close()
    else:
        metrics, attempted, failed, extra = _end_to_end(
            workload, seed, seconds, small, processes)
    failed = int(min(failed, attempted))
    info = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "host": host_fingerprint(),
        "ops_failed_share": failed / attempted,
        **extra,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return result, info
