"""The four benchmark workloads.

Each workload is built from its seed alone: ``__init__`` draws every
input (rule tables, arrival traces, churn streams, corpora, queries)
and computes the oracle answers before anything is timed.  Then:

* :meth:`Workload.setup` goes from nothing to warm (build, load, table
  compile, warm-up on fresh keys, repair, pool start) and is what
  ``setup_s`` times;
* :meth:`Workload.fresh` copies the warm state (untimed) so that every
  repetition starts from the same state and does the same work;
* :meth:`Workload.rep` runs one repetition and reports the host time
  of each timed call (operations, dispatched batches, updates) to a
  :class:`~perfbench.calibration.ScaledClock`;
* :meth:`Workload.compare` counts the outputs of a repetition that
  differ from the first repetition's (run between repetitions, outside
  the timed laps), and :meth:`Workload.check` counts the first
  repetition's outputs that disagree with the oracle (run after the
  timed phase);
* :meth:`Workload.modeled` reads the deterministic model outputs and
  the output digest from the first repetition.

Why these four: each layer of the stack does most of the work in one
workload and little or none in another (see README.md for the
predictions each later change is judged against).
"""

from __future__ import annotations

import copy
import hashlib
import inspect
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.analysis import montecarlo
from repro.cluster import updates as cluster_updates
from repro.cluster.campaign import (
    FabricBackend,
    FabricServiceModel,
    synthetic_rule_table,
)
from repro.cluster.distributor import get_distributor
from repro.cluster.fabric import TCAMFabric
from repro.cluster.updates import RuleUpdate, UpdateEngine
from repro.core import build_array, get_design
from repro.devices.variability import VariationSpec
from repro.parallel import available_cpus, scatter_gather, shutdown_pools
from repro.serve.admission import AdmissionControl
from repro.serve.arrivals import poisson_trace
from repro.serve.engine import ServeEngine
from repro.serve.policy import make_policy
from repro.tcam import ArrayGeometry
from repro.tcam.trit import Trit, TernaryWord, prefix_word, random_word
from repro.workloads.retrieval import (
    CorpusConfig,
    RetrievalIndex,
    hamming_distances,
    make_queries,
    recall_at_k,
    synthetic_corpus,
)

from .calibration import calibrate

_X = int(Trit.X)


def _accepted(fn, **kwargs) -> dict:
    """The subset of ``kwargs`` that ``fn`` accepts.

    Opt-in switches such as ``use_kernel`` are slated to become the
    default and disappear; dropping them when the callee no longer
    takes them keeps the benchmark runnable on both sides of that
    change.
    """
    params = inspect.signature(fn).parameters
    return {k: v for k, v in kwargs.items() if k in params}


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _kernel_engines(banks) -> list:
    return [e for e in (getattr(b, "kernel", None) for b in banks) if e is not None]


def _bank_counters(banks) -> dict[str, int]:
    """Summed kernel and trajectory-cache counters over ``banks``.

    ``rows_built`` counts each shared table set once (banks that adopt
    a donor's tables share its waveform table object).
    """
    out = {"table_hits": 0, "rk4_fallbacks": 0, "rows_built": 0,
           "ml_hits": 0, "ml_misses": 0}
    seen: set[int] = set()
    for eng in _kernel_engines(banks):
        c = eng.counters()
        out["table_hits"] += c["table_hits"]
        out["rk4_fallbacks"] += c["rk4_fallbacks"]
        table_id = id(getattr(eng, "waveform", None) or eng)
        if table_id not in seen:
            seen.add(table_id)
            out["rows_built"] += c["rows_built"]
    for bank in banks:
        stats = getattr(bank, "ml_cache_stats", None)
        if stats is not None:
            s = stats()
            out["ml_hits"] += int(s["hits"])
            out["ml_misses"] += int(s["misses"])
    return out


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


@dataclass
class Rep:
    """What one repetition did and produced (its times are in the clock)."""

    ops: int
    attempted: int
    out: dict
    updates: int = 0
    counters: dict = field(default_factory=dict)


def _timed(clock, fn, *args):
    """``fn(*args)``, its host time recorded as one ``op`` and one batch."""
    t0 = perf_counter()
    out = fn(*args)
    dt = perf_counter() - t0
    clock.add("op", dt)
    clock.add("batch", dt, counts=False)
    clock.tick()
    return out


class Workload:
    """Base class: see the module docstring for the protocol."""

    name = ""
    #: Percentile reported as ``batch_ms_tail``: the highest one with at
    #: least ten batches beyond it in a default 20 s run.
    tail_pct = 95

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = int(seed)

    def fresh(self, state):
        return copy.deepcopy(state)

    def calibration_probe(self) -> float:
        """Calibration seconds where this workload's repetitions run."""
        return calibrate()

    def close(self) -> None:
        """Release what setup started (worker pools)."""


# ---------------------------------------------------------------------------
# Fabric workloads (serve -> cluster -> chip -> array -> kernel)
# ---------------------------------------------------------------------------


class _FabricWorkload(Workload):
    """A range-sharded 4-chip fabric served from a Poisson trace."""

    N_CHIPS = 4
    COLS = 32
    N_RULES = 512
    SPARE_ROWS = 8
    #: Rows per bank: a range shard holds ~N_RULES / N_CHIPS rules; the
    #: rest leaves room for spares and for a repetition's balanced churn.
    #: Fixed rather than fitted to the fullest shard, because the faulty
    #: search path senses every row and its cost would follow the seed.
    BANK_ROWS = 224
    #: Rows a repetition's churn can add to one shard at most.
    BURST_ROOM = 48
    MAX_BATCH = 32
    #: Modeled offered rate [requests/s], ~0.8x the fabric's modeled
    #: capacity at this table size.
    RATE = 64e6
    N_WARM = 256
    N_REQUESTS = 1024

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        n_rules = 128 if small else self.N_RULES
        self.n_requests = 256 if small else self.N_REQUESTS
        self.table = synthetic_rule_table(n_rules, self.COLS, seed=self.seed)
        load = get_distributor("range").place(self.table, self.N_CHIPS).max_shard_load
        # A shard far above its share (rare) still fits, with headroom.
        self.bank_rows = max(self.BANK_ROWS if not small else 96,
                             load + self.SPARE_ROWS + self.BURST_ROOM)
        rng = np.random.default_rng([self.seed, 1])
        n_warm = 64 if small else self.N_WARM
        self.warm_keys = [random_word(self.COLS, rng) for _ in range(n_warm)]
        trace = poisson_trace(self.n_requests, self.RATE, self.COLS, seed=self.seed + 2)
        self.times = [float(t) for t in trace.times]
        self.keys = list(trace.keys)

    def _build(self) -> TCAMFabric:
        fabric = TCAMFabric(
            self.table,
            n_chips=self.N_CHIPS,
            policy="range",
            spare_rows=self.SPARE_ROWS,
            bank_rows=self.bank_rows,
            **_accepted(TCAMFabric, use_kernel=True),
        )
        engines = _kernel_engines(b for chip in fabric.chips for b in chip.banks)
        if engines:
            engines[0].precompute()
        return fabric

    def _warm(self, fabric: TCAMFabric) -> None:
        for lo in range(0, len(self.warm_keys), self.MAX_BATCH):
            fabric.search_batch(self.warm_keys[lo : lo + self.MAX_BATCH])

    def _engine(self, fabric: TCAMFabric) -> ServeEngine:
        return ServeEngine(
            FabricBackend(fabric),
            make_policy("fixed", max_batch=self.MAX_BATCH,
                        max_wait=self.MAX_BATCH / self.RATE),
            admission=AdmissionControl(queue_capacity=4 * self.MAX_BATCH),
            model=FabricServiceModel(),
        )

    def _serve(self, engine: ServeEngine, lo: int, hi: int, records: list,
               clock) -> None:
        """Offer trace requests ``[lo, hi)``, then drain.

        Every ``offer``/``drain`` call is timed as an ``op``.  A batch's
        host time is the duration of the call that dispatched it (split
        evenly when one call dispatched several).
        """
        for seq in range(lo, hi + 1):
            before = engine.batches
            t0 = perf_counter()
            if seq < hi:
                done = engine.offer(seq, self.times[seq], self.keys[seq], 0)
            else:
                done = engine.drain()
            dt = perf_counter() - t0
            clock.add("op", dt)
            fired = engine.batches - before
            for _ in range(fired):
                clock.add("batch", dt / fired, counts=False)
            records.extend(done)
            clock.tick()

    @staticmethod
    def _fabric_counters(fabric: TCAMFabric) -> dict:
        banks = [b for chip in fabric.chips for b in chip.banks]
        out = dict(fabric.counters())
        out.update(_bank_counters(banks))
        return out

    @staticmethod
    def _record_arrays(records) -> dict:
        records = sorted(records, key=lambda r: r.seq)
        return {
            "seq": np.array([r.seq for r in records], dtype=np.int64),
            "row": np.array([-1 if r.row is None else r.row for r in records],
                            dtype=np.int64),
            "energy": np.array([r.energy for r in records], dtype=np.float64),
            "arrival": np.array([r.arrival for r in records], dtype=np.float64),
            "finish": np.array([r.finish for r in records], dtype=np.float64),
        }

    def _serve_out(self, engine: ServeEngine, records) -> dict:
        out = self._record_arrays(records)
        out["offered"] = engine.offered
        out["rejected"] = engine.rejected
        return out

    def compare(self, rep: Rep, first: Rep) -> int:
        """Records of ``rep`` that differ from the first repetition's."""
        out, ref = rep.out, first.out
        if not np.array_equal(out["seq"], ref["seq"]):
            return rep.ops
        same = (
            (out["row"] == ref["row"])
            & (out["energy"] == ref["energy"])
            & (out["finish"] == ref["finish"])
        )
        return int(np.count_nonzero(~same)) + abs(
            out.get("rejected_updates", 0) - ref.get("rejected_updates", 0))

    def modeled(self, rep: Rep) -> tuple[dict, str]:
        out = rep.out
        n = out["seq"].size
        latency = out["finish"] - out["arrival"]
        makespan = float(out["finish"].max() - out["arrival"].min()) if n else 0.0
        model = {
            "energy_per_op_pj": float(out["energy"].mean() * 1e12) if n else 0.0,
            "latency_p99_ns": float(np.percentile(latency, 99) * 1e9) if n else 0.0,
            "throughput_mops": n / makespan / 1e6 if makespan > 0 else 0.0,
            "shed_share": out["rejected"] / out["offered"] if out["offered"] else 0.0,
        }
        digest = _digest(out["seq"], out["row"], out["energy"], out["finish"])
        return model, digest


def _ternary_winners(rule_ids: np.ndarray, rules: np.ndarray,
                     keys: np.ndarray) -> np.ndarray:
    """Vectorised oracle: lowest matching rule id per key (-1 if none).

    A column passes when either side is X or the trits agree; ``rule_ids``
    must be ascending so the first match is the highest priority.
    """
    if rule_ids.size == 0:
        return np.full(keys.shape[0], -1, dtype=np.int64)
    ok = (
        (rules[None, :, :] == keys[:, None, :])
        | (rules[None, :, :] == _X)
        | (keys[:, None, :] == _X)
    ).all(axis=2)
    hit = ok.any(axis=1)
    return np.where(hit, rule_ids[ok.argmax(axis=1)], -1)


class FabricChurn(_FabricWorkload):
    """Healthy fabric: serve trace segments with churn bursts between."""

    name = "fabric_churn"
    tail_pct = 95
    N_SEGMENTS = 4
    #: Updates per burst: alternating withdraw/add pairs, so the live
    #: rule count is constant.
    BURST = 32

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        rng = np.random.default_rng([self.seed, 3])
        live = dict(enumerate(self.table.rules))
        next_id = len(self.table)
        seg = self.n_requests // self.N_SEGMENTS
        self.segments = [(i * seg, (i + 1) * seg if i < self.N_SEGMENTS - 1
                          else self.n_requests) for i in range(self.N_SEGMENTS)]
        key_mat = np.stack([k.as_array() for k in self.keys])
        self.oracle = np.empty(self.n_requests, dtype=np.int64)
        self.bursts: list[list[RuleUpdate]] = []
        for i, (lo, hi) in enumerate(self.segments):
            ids = np.array(sorted(live), dtype=np.int64)
            rules = np.stack([live[g].as_array() for g in ids])
            self.oracle[lo:hi] = _ternary_winners(ids, rules, key_mat[lo:hi])
            if i == len(self.segments) - 1:
                break
            burst = []
            for _ in range(self.BURST // 2):
                ids_now = sorted(live)
                victim = ids_now[int(rng.integers(len(ids_now)))]
                del live[victim]
                burst.append(RuleUpdate("withdraw", rule_id=victim))
                plen = int(rng.integers(4, self.COLS + 1))
                value = int(rng.integers(1 << self.COLS))
                word = prefix_word(value, plen, self.COLS)
                burst.append(RuleUpdate("add", rule=word))
                live[next_id] = word
                next_id += 1
            self.bursts.append(burst)

    def setup(self) -> TCAMFabric:
        fabric = self._build()
        self._warm(fabric)
        return fabric

    def rep(self, fabric: TCAMFabric, clock) -> Rep:
        before = self._fabric_counters(fabric)
        engine = self._engine(fabric)
        updater = UpdateEngine(fabric)
        records: list = []
        n_updates = rejected = 0
        for i, (lo, hi) in enumerate(self.segments):
            self._serve(engine, lo, hi, records, clock)
            if i < len(self.bursts):
                t0 = perf_counter()
                report = updater.apply(self.bursts[i])
                clock.add("update", perf_counter() - t0)
                clock.tick()
                n_updates += len(self.bursts[i])
                rejected += report.rejected_adds + report.rejected_withdrawals
        out = self._serve_out(engine, records)
        out["rejected_updates"] = rejected
        counters = _delta(self._fabric_counters(fabric), before)
        counters.update(serve_batches=engine.batches, rejected_updates=rejected)
        return Rep(ops=len(records), attempted=self.n_requests + n_updates,
                   out=out, updates=n_updates, counters=counters)

    def check(self, first: Rep, fabric: TCAMFabric) -> int:
        out = first.out
        wrong = int(np.count_nonzero(out["row"] != self.oracle[out["seq"]]))
        return wrong + out["rejected_updates"]


class FabricWorn(_FabricWorkload):
    """The same fabric after wear-mode aging and spare-row repair."""

    name = "fabric_worn"
    tail_pct = 95
    N_REQUESTS = 512
    WEAR_DENSITY = 0.005
    #: Every ORACLE_STRIDE-th request of the first repetition is checked
    #: against the per-bank scalar ``search()`` reference.
    ORACLE_STRIDE = 8

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.wear_report = None

    def setup(self) -> TCAMFabric:
        fabric = self._build()
        self.wear_report = cluster_updates.age_and_repair(
            fabric, density=self.WEAR_DENSITY, seed=self.seed + 4, mode="wear"
        )
        self._warm(fabric)
        return fabric

    def rep(self, fabric: TCAMFabric, clock) -> Rep:
        before = self._fabric_counters(fabric)
        engine = self._engine(fabric)
        records: list = []
        self._serve(engine, 0, self.n_requests, records, clock)
        counters = _delta(self._fabric_counters(fabric), before)
        counters["serve_batches"] = engine.batches
        return Rep(ops=len(records), attempted=self.n_requests,
                   out=self._serve_out(engine, records), counters=counters)

    @staticmethod
    def _scalar_winner(fabric: TCAMFabric, key: TernaryWord) -> int:
        """Fabric winner rebuilt from per-bank scalar ``search()`` calls."""
        best = -1
        rows = fabric.bank_rows
        for s in fabric.distributor.probe_shards(key, fabric.placement):
            chip = fabric.chips[s]
            for b in fabric.occupied_banks(s):
                mask = chip.banks[b].search(key).match_mask
                gids = fabric.row_rule[s][b * rows + np.flatnonzero(mask)]
                gids = gids[gids >= 0]
                if gids.size and (best < 0 or int(gids.min()) < best):
                    best = int(gids.min())
        return best

    def check(self, first: Rep, fabric: TCAMFabric) -> int:
        reference = copy.deepcopy(fabric)
        out = first.out
        return sum(
            int(self._scalar_winner(reference, self.keys[int(out["seq"][pos])])
                != out["row"][pos])
            for pos in range(0, out["seq"].size, self.ORACLE_STRIDE)
        )


# ---------------------------------------------------------------------------
# Retrieval (workloads.retrieval -> array distance kernel)
# ---------------------------------------------------------------------------


class RetrievalTopK(Workload):
    """Batched top-k plus a tolerance pass over a sharded signature index."""

    name = "retrieval_topk"
    tail_pct = 90
    N_ENTRIES = 8192
    DIMS = 64
    BANK_ROWS = 256
    BANKS_PER_CHIP = 16
    K = 10
    TOLERANCE = 12
    BATCH = 32
    N_BATCHES = 4

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        n_entries = 2048 if small else self.N_ENTRIES
        config = CorpusConfig(n_entries=n_entries, dims=self.DIMS)
        self.signatures = synthetic_corpus(config, seed=self.seed)
        n_batches = 2 if small else self.N_BATCHES
        queries, _ = make_queries(self.signatures, (n_batches + 1) * self.BATCH,
                                  config.query_noise, seed=self.seed + 1)
        self.warm_queries = queries[: self.BATCH]
        self.batches = [queries[(i + 1) * self.BATCH : (i + 2) * self.BATCH]
                        for i in range(n_batches)]
        # Oracle: exact Hamming distances, top-k in (distance, row) order
        # and the tolerance sets.
        self.truth_rows, self.truth_dists, self.truth_sets = [], [], []
        for q in self.batches:
            dist = hamming_distances(self.signatures, q)
            order = np.argsort(dist, axis=1, kind="stable")[:, : self.K]
            self.truth_rows.append(order)
            self.truth_dists.append(np.take_along_axis(dist, order, axis=1))
            self.truth_sets.append(
                [set(np.flatnonzero(d <= self.TOLERANCE).tolist()) for d in dist]
            )

    def setup(self) -> RetrievalIndex:
        index = RetrievalIndex(
            self.signatures,
            bank_rows=self.BANK_ROWS,
            banks_per_chip=self.BANKS_PER_CHIP,
            **_accepted(RetrievalIndex, use_kernel=True),
        )
        index.query_topk(self.warm_queries, self.K)
        index.query_threshold(self.warm_queries, self.TOLERANCE)
        return index

    @staticmethod
    def _banks(index: RetrievalIndex):
        return [b for chip in index.chips for b in chip.banks]

    def _query(self, index: RetrievalIndex, q: np.ndarray):
        rows, dists, topk_stats = index.query_topk(q, self.K)
        cands, thr_stats = index.query_threshold(q, self.TOLERANCE)
        return rows, dists, cands, topk_stats.energy_total + thr_stats.energy_total

    def rep(self, index: RetrievalIndex, clock) -> Rep:
        before = _bank_counters(self._banks(index))
        rows, dists, cands = [], [], []
        energy = 0.0
        for q in self.batches:
            r, d, c, e = _timed(clock, self._query, index, q)
            rows.append(r)
            dists.append(d)
            cands.append(c)
            energy += e
        n = len(self.batches) * self.BATCH
        counters = _delta(_bank_counters(self._banks(index)), before)
        return Rep(ops=n, attempted=n,
                   out={"rows": rows, "dists": dists, "cands": cands, "energy": energy},
                   counters=counters)

    @staticmethod
    def _wrong(out: dict, rows, dists, sets) -> int:
        """Queries whose top-k or tolerance set differs from the given ones."""
        wrong = 0
        for b in range(len(rows)):
            bad = ~(
                (out["rows"][b] == rows[b]).all(axis=1)
                & (out["dists"][b] == dists[b]).all(axis=1)
            )
            bad |= np.array([c != t for c, t in zip(out["cands"][b], sets[b])])
            wrong += int(np.count_nonzero(bad))
        return wrong

    def compare(self, rep: Rep, first: Rep) -> int:
        ref = first.out
        if rep.out["energy"] != ref["energy"]:
            return rep.ops
        return self._wrong(rep.out, ref["rows"], ref["dists"], ref["cands"])

    def check(self, first: Rep, index: RetrievalIndex) -> int:
        return self._wrong(first.out, self.truth_rows, self.truth_dists,
                           self.truth_sets)

    def modeled(self, rep: Rep) -> tuple[dict, str]:
        out = rep.out
        recall = float(np.mean([
            recall_at_k(c, t) for c, t in zip(out["cands"], self.truth_rows)
        ]))
        cand_rows = np.array(
            [r for batch in out["cands"] for c in batch for r in sorted(c)]
            or [-1], dtype=np.int64)
        cand_sizes = np.array([len(c) for batch in out["cands"] for c in batch],
                              dtype=np.int64)
        model = {
            "energy_per_op_pj": out["energy"] / rep.ops * 1e12,
            "recall_at_k": recall,
            "candidates_mean": float(cand_sizes.mean()),
        }
        digest = _digest(np.concatenate(out["rows"]), np.concatenate(out["dists"]),
                         cand_sizes, cand_rows)
        return model, digest


# ---------------------------------------------------------------------------
# Monte-Carlo margin (analysis + parallel)
# ---------------------------------------------------------------------------


class MCMargin(Workload):
    """Process-parallel margin Monte-Carlo over a warm worker pool."""

    name = "mc_margin"
    #: About 16 MC calls fit in a default run, too few for any
    #: percentile above the median to have ten calls beyond it.
    tail_pct = 50
    DESIGN = "fefet2t"
    ROWS, COLS = 16, 64
    N_SAMPLES = 512

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.workers = min(2, available_cpus())
        self.spec = VariationSpec()

    def _mc(self, array, workers: int, n_samples: int = N_SAMPLES, seed=None):
        return montecarlo.run_margin_mc(
            array, self.spec,
            n_samples=n_samples,
            seed=self.seed if seed is None else seed,
            workers=workers,
        )

    def setup(self):
        array = build_array(get_design(self.DESIGN),
                            ArrayGeometry(rows=self.ROWS, cols=self.COLS))
        # Start the pool and run every worker once, on a seed the timed
        # phase never uses.
        self._mc(array, self.workers, seed=self.seed + 10_000)
        return array

    def fresh(self, state):
        return state

    def calibration_probe(self) -> float:
        # The samples run in the pool's workers and a call lasts as long
        # as its slowest worker, so that is where and how the host speed
        # is measured.
        return max(scatter_gather(calibrate, list(range(self.workers)),
                                  workers=self.workers))

    def rep(self, array, clock, workers: int | None = None) -> Rep:
        workers = self.workers if workers is None else workers
        result = _timed(clock, self._mc, array, workers)
        return Rep(ops=result.n_samples, attempted=result.n_samples,
                   out={"margins": result.margins, "failures": result.failures})

    def compare(self, rep: Rep, first: Rep) -> int:
        return int(np.count_nonzero(rep.out["margins"] != first.out["margins"]))

    def check(self, first: Rep, array) -> int:
        # Worker-count invariance on the first chunk: a serial run of one
        # chunk draws the same seed child as the parallel run.
        n = montecarlo.MC_CHUNK_SAMPLES
        serial = self._mc(array, 0, n_samples=n).margins
        return int(np.count_nonzero(serial != first.out["margins"][:n]))

    def modeled(self, rep: Rep) -> tuple[dict, str]:
        margins = rep.out["margins"]
        model = {
            "margin_mean_mv": float(margins.mean() * 1e3),
            "margin_p1_mv": float(np.percentile(margins, 1) * 1e3),
            "failure_rate": float(rep.out["failures"].mean()),
        }
        return model, _digest(margins, rep.out["failures"])

    def close(self) -> None:
        shutdown_pools(wait=True)


WORKLOADS = {
    w.name: w for w in (FabricChurn, FabricWorn, RetrievalTopK, MCMargin)
}
