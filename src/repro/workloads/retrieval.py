"""Corpus-scale associative retrieval over sharded TCAM banks.

RAG-style nearest-neighbor search with tunable approximate matching:
a corpus is encoded into fixed-width binary signatures (the same
random-projection idiom as the :mod:`~repro.workloads.hdc` workload,
vectorized for 100k+ entries), sharded row-major across the banks of
one or more :class:`~repro.tcam.chip.TCAMChip` instances, and queried
through the distance-mode search APIs:

* :meth:`RetrievalIndex.query_topk` -- per-shard ``topk_match_batch``
  merged on ``(distance, global row)``, which reproduces the exact
  global top-k (each shard's local top-k is a superset of its
  contribution to the global answer).
* :meth:`RetrievalIndex.query_threshold` -- per-shard
  ``threshold_match_batch`` at a tunable Hamming tolerance.  This is
  the TAP-CAM trade: the match-line strobe fires when the first
  *rejected* mismatch class crosses the sense reference, so looser
  tolerances strobe earlier and spend less evaluation-window leakage
  -- tolerance buys both recall and energy, at the cost of a coarser
  (unranked) candidate set.

Recall is scored against an exact numpy Hamming oracle
(:func:`exact_topk`), and energy against the exhaustive exact-search
baseline (:meth:`RetrievalIndex.exact_search_baseline`): the energy a
conventional deployment would pay scanning every shard with the
exact-match engine.

All banks of an index are electrically identical, so the compiled
class/window tables are built once and adopted by every bank
(:meth:`~repro.kernels.KernelEngine.adopt_tables`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core import build_array, get_design
from ..errors import WorkloadError
from ..tcam import ArrayGeometry
from ..tcam.chip import GatingPolicy, TCAMChip
from ..tcam.trit import TernaryWord


# ---------------------------------------------------------------------------
# Corpus synthesis + numpy oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusConfig:
    """Shape of a synthetic signature corpus.

    Attributes:
        n_entries: Corpus size (TCAM rows across all shards).
        dims: Signature width in bits (the TCAM word width).
        n_clusters: Number of cluster centers; entries are noisy copies
            of their center, so every entry has near neighbors.
        cluster_spread: Bits flipped between an entry and its center.
        query_noise: Bits flipped between a query and its source entry.
    """

    n_entries: int
    dims: int = 64
    n_clusters: int = 200
    cluster_spread: int = 6
    query_noise: int = 3

    def __post_init__(self) -> None:
        if self.n_entries < 1:
            raise WorkloadError(f"n_entries must be >= 1, got {self.n_entries}")
        if self.dims < 8:
            raise WorkloadError(f"dims must be >= 8, got {self.dims}")
        if self.n_clusters < 1:
            raise WorkloadError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if not 0 <= self.cluster_spread <= self.dims:
            raise WorkloadError("cluster_spread outside [0, dims]")
        if not 0 <= self.query_noise <= self.dims:
            raise WorkloadError("query_noise outside [0, dims]")


def _flip_bits(vectors: np.ndarray, n_flips: int, rng: np.random.Generator) -> np.ndarray:
    """Flip ``n_flips`` distinct random bits in every row (vectorized)."""
    out = vectors.copy()
    if n_flips == 0:
        return out
    n, dims = out.shape
    # Row-wise distinct columns: argpartition of one uniform draw per cell.
    scores = rng.random((n, dims))
    cols = np.argpartition(scores, n_flips - 1, axis=1)[:, :n_flips]
    rows = np.repeat(np.arange(n), n_flips)
    out[rows, cols.ravel()] ^= 1
    return out


def synthetic_corpus(config: CorpusConfig, seed: int = 0) -> np.ndarray:
    """Clustered binary signature corpus, ``(n_entries, dims)`` int8 in {0, 1}."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(0, 2, size=(config.n_clusters, config.dims), dtype=np.int8)
    assignment = rng.integers(0, config.n_clusters, size=config.n_entries)
    return _flip_bits(centers[assignment], config.cluster_spread, rng)


def make_queries(
    signatures: np.ndarray, n_queries: int, noise_bits: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded queries: noisy copies of sampled corpus entries.

    Returns ``(queries, source_idx)`` -- the ``(n_queries, dims)`` query
    matrix and the corpus row each query was perturbed from.
    """
    rng = np.random.default_rng(seed)
    source_idx = rng.integers(0, signatures.shape[0], size=n_queries)
    queries = _flip_bits(signatures[source_idx], noise_bits, rng)
    return queries, source_idx


def hamming_distances(signatures: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Exact ``(n_queries, n_entries)`` Hamming distance matrix.

    One float32 matmul pair (XOR of binary vectors expands to
    ``q (1-s) + (1-q) s``); every partial sum is an exact small integer,
    so the result is exact for any BLAS summation order.
    """
    s = np.ascontiguousarray(signatures.T, dtype=np.float32)
    q1 = queries.astype(np.float32)
    q0 = 1.0 - q1
    return (q1 @ (1.0 - s) + q0 @ s).astype(np.int64)


def exact_topk(signatures: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Numpy oracle: ``(n_queries, k)`` nearest corpus rows per query.

    Ordered by ascending distance with ties broken by ascending row
    index -- the same total order the TCAM top-k merge produces.
    """
    if k < 1:
        raise WorkloadError(f"k must be >= 1, got {k}")
    dist = hamming_distances(signatures, queries)
    k = min(k, signatures.shape[0])
    return np.argsort(dist, axis=1, kind="stable")[:, :k]


def recall_at_k(candidates: list[set[int]] | np.ndarray, truth: np.ndarray) -> float:
    """Mean fraction of each query's true top-k found in its candidates."""
    hits = 0
    total = truth.shape[0] * truth.shape[1]
    for q in range(truth.shape[0]):
        cand = candidates[q]
        cand = set(int(r) for r in cand) if not isinstance(cand, set) else cand
        hits += sum(1 for r in truth[q] if int(r) in cand)
    return hits / total if total else 0.0


# ---------------------------------------------------------------------------
# Sharded index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryStats:
    """Aggregate cost of one query batch over every shard.

    Attributes:
        n_queries: Batch size.
        energy_total: Summed search energy across shards and queries [J].
        energy_per_query: ``energy_total / n_queries`` [J].
        latency_mean: Mean per-query latency [s]; shards operate in
            parallel, so one query's latency is its *slowest* shard.
        latency_max: Worst per-query latency [s].
    """

    n_queries: int
    energy_total: float
    energy_per_query: float
    latency_mean: float
    latency_max: float


def _stats(n_queries: int, energy: np.ndarray, latency: np.ndarray) -> QueryStats:
    return QueryStats(
        n_queries=n_queries,
        energy_total=float(energy.sum()),
        energy_per_query=float(energy.sum() / n_queries),
        latency_mean=float(latency.mean()),
        latency_max=float(latency.max()),
    )


class RetrievalIndex:
    """Binary signatures sharded row-major across identical TCAM banks.

    Args:
        signatures: ``(n_entries, dims)`` binary matrix (int, values in
            {0, 1}); row ``i`` becomes chip-global row ``i``.
        design: Design registry key (precharge-style sensing required
            by the distance search APIs).
        bank_rows: Rows per bank (shard size).
        banks_per_chip: Banks tiled per chip.
        gating: Optional chip gating policy.
    """

    def __init__(
        self,
        signatures: np.ndarray,
        *,
        design: str = "fefet2t",
        bank_rows: int = 256,
        banks_per_chip: int = 16,
        gating: GatingPolicy | None = None,
    ) -> None:
        signatures = np.asarray(signatures, dtype=np.int8)
        if signatures.ndim != 2:
            raise WorkloadError(f"signatures must be 2-D, got {signatures.shape}")
        if signatures.size and not np.isin(signatures, (0, 1)).all():
            raise WorkloadError("signatures must be binary (0/1)")
        self.n_entries, self.dims = signatures.shape
        self.design = design
        self.bank_rows = bank_rows
        spec = get_design(design)
        geometry = ArrayGeometry(rows=bank_rows, cols=self.dims)

        n_banks = -(-self.n_entries // bank_rows)
        n_chips = -(-n_banks // banks_per_chip)
        #: Shards that actually hold entries; fully-empty tail banks of
        #: the last chip stay power-gated and are never scanned.
        self._active_banks = n_banks
        with obs.span(
            "workload.retrieval.build",
            n_entries=self.n_entries,
            n_banks=n_banks,
            n_chips=n_chips,
        ):
            self.chips = [
                TCAMChip(
                    lambda: build_array(spec, geometry),
                    n_banks=banks_per_chip,
                    gating=gating,
                )
                for _ in range(n_chips)
            ]
            self.load_energy = self._load(signatures)
            donor = self._banks()[0].kernel
            # Binary signatures drive every column, so the whole workload
            # lives on one driven value; compile it eagerly and share the
            # tables with every other bank.
            donor.precompute([self.dims])
            donor.window_row(self.dims)
            for bank in self._banks()[1:]:
                bank.kernel.adopt_tables(donor)

    def _banks(self):
        return [bank for chip in self.chips for bank in chip.banks]

    @property
    def n_banks(self) -> int:
        """Active shard count (banks holding at least one entry)."""
        return self._active_banks

    def _load(self, signatures: np.ndarray):
        from ..energy.accounting import EnergyLedger

        ledger = EnergyLedger()
        rows_per_chip = self.chips[0].rows_total if self.chips else 0
        for c, chip in enumerate(self.chips):
            block = signatures[c * rows_per_chip : (c + 1) * rows_per_chip]
            words = [TernaryWord(row) for row in block]
            ledger.merge(chip.load_rows(words))
        return ledger

    def _keys(self, queries: np.ndarray) -> list[TernaryWord]:
        queries = np.asarray(queries, dtype=np.int8)
        if queries.ndim != 2 or queries.shape[1] != self.dims:
            raise WorkloadError(
                f"queries must be (n, {self.dims}), got {queries.shape}"
            )
        return [TernaryWord(row) for row in queries]

    def _shard_rows(self):
        """Yield ``(bank, global_row_base)`` over every *active* shard."""
        base = 0
        emitted = 0
        for chip in self.chips:
            for bank in chip.banks:
                if emitted >= self._active_banks:
                    return
                yield bank, base
                base += self.bank_rows
                emitted += 1

    # -- query paths --------------------------------------------------------

    def query_topk(
        self, queries: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, QueryStats]:
        """Exact global top-k by per-shard top-k + merge.

        Returns ``(rows, distances, stats)``: ``(n_queries, k)`` global
        row indices in ``(distance, row)`` order, their distances, and
        the batch's cost statistics.
        """
        keys = self._keys(queries)
        n_q = len(keys)
        with obs.span("workload.retrieval.topk", n_queries=n_q, k=k):
            energy = np.zeros(n_q)
            latency = np.zeros(n_q)
            cand_rows: list[list[int]] = [[] for _ in range(n_q)]
            cand_dist: list[list[int]] = [[] for _ in range(n_q)]
            for bank, base in self._shard_rows():
                for q, out in enumerate(bank.topk_match_batch(keys, k)):
                    energy[q] += out.energy.total
                    latency[q] = max(latency[q], out.search_delay)
                    cand_rows[q].extend(base + r for r in out.rows)
                    cand_dist[q].extend(out.distances)
            k_eff = min(k, self.n_entries)
            rows = np.empty((n_q, k_eff), dtype=np.int64)
            dists = np.empty((n_q, k_eff), dtype=np.int64)
            for q in range(n_q):
                r = np.asarray(cand_rows[q], dtype=np.int64)
                d = np.asarray(cand_dist[q], dtype=np.int64)
                order = np.lexsort((r, d))[:k_eff]
                rows[q] = r[order]
                dists[q] = d[order]
            return rows, dists, _stats(n_q, energy, latency)

    def query_threshold(
        self, queries: np.ndarray, max_distance: int
    ) -> tuple[list[set[int]], QueryStats]:
        """Tolerance-``max_distance`` match: global candidate row sets.

        Returns ``(candidates, stats)`` where ``candidates[q]`` is the
        set of global rows within the Hamming tolerance of query ``q``.
        """
        keys = self._keys(queries)
        n_q = len(keys)
        with obs.span(
            "workload.retrieval.threshold",
            n_queries=n_q,
            max_distance=max_distance,
        ):
            energy = np.zeros(n_q)
            latency = np.zeros(n_q)
            candidates: list[set[int]] = [set() for _ in range(n_q)]
            for bank, base in self._shard_rows():
                for q, out in enumerate(bank.threshold_match_batch(keys, max_distance)):
                    energy[q] += out.energy.total
                    latency[q] = max(latency[q], out.search_delay)
                    if out.n_matches:
                        candidates[q].update(
                            (base + np.flatnonzero(out.match_mask)).tolist()
                        )
            return candidates, _stats(n_q, energy, latency)

    def exact_search_baseline(self, queries: np.ndarray) -> QueryStats:
        """Exhaustive exact-match scan of every shard (the energy bar).

        What a conventional exact-match deployment pays per query:
        every bank's full search pipeline, evaluation window and
        restore, with no tolerance to trade.
        """
        keys = self._keys(queries)
        n_q = len(keys)
        with obs.span("workload.retrieval.exact_baseline", n_queries=n_q):
            energy = np.zeros(n_q)
            latency = np.zeros(n_q)
            for bank, _base in self._shard_rows():
                for q, out in enumerate(bank.search_batch(keys)):
                    energy[q] += out.energy.total
                    latency[q] = max(latency[q], out.search_delay)
            return _stats(n_q, energy, latency)


# ---------------------------------------------------------------------------
# End-to-end campaign (shared by the CLI and the benchmark)
# ---------------------------------------------------------------------------


def run_retrieval(
    *,
    n_entries: int = 100_000,
    dims: int = 64,
    n_queries: int = 64,
    k: int = 10,
    thresholds: tuple[int, ...] = (2, 4, 6, 8, 10, 12),
    design: str = "fefet2t",
    bank_rows: int = 256,
    banks_per_chip: int = 16,
    seed: int = 0,
) -> dict:
    """Build a corpus + index, sweep the tolerance, score the frontier.

    Returns a JSON-ready record: corpus/shard shape, the exact top-k
    path (recall is 1.0 by construction -- asserted against the numpy
    oracle), the per-threshold recall/energy/latency frontier, and the
    exhaustive exact-search energy baseline.
    """
    config = CorpusConfig(n_entries=n_entries, dims=dims)
    signatures = synthetic_corpus(config, seed=seed)
    queries, _source = make_queries(
        signatures, n_queries, config.query_noise, seed=seed + 1
    )
    truth = exact_topk(signatures, queries, k)

    index = RetrievalIndex(
        signatures,
        design=design,
        bank_rows=bank_rows,
        banks_per_chip=banks_per_chip,
    )

    rows, _dists, topk_stats = index.query_topk(queries, k)
    topk_recall = recall_at_k(rows, truth)

    baseline = index.exact_search_baseline(queries)

    sweep = []
    for t in thresholds:
        candidates, stats = index.query_threshold(queries, t)
        sweep.append(
            {
                "max_distance": int(t),
                "recall_at_k": recall_at_k(candidates, truth),
                "mean_candidates": float(
                    np.mean([len(c) for c in candidates])
                ),
                "energy_per_query": stats.energy_per_query,
                "latency_mean": stats.latency_mean,
                "energy_vs_exact_baseline": (
                    stats.energy_per_query / baseline.energy_per_query
                ),
            }
        )

    return {
        "design": design,
        "n_entries": int(n_entries),
        "dims": int(dims),
        "n_queries": int(n_queries),
        "k": int(k),
        "seed": int(seed),
        "n_banks": index.n_banks,
        "n_chips": len(index.chips),
        "bank_rows": int(bank_rows),
        "load_energy_total": index.load_energy.total,
        "topk": {
            "recall_at_k": topk_recall,
            "energy_per_query": topk_stats.energy_per_query,
            "latency_mean": topk_stats.latency_mean,
        },
        "exact_baseline": {
            "energy_per_query": baseline.energy_per_query,
            "latency_mean": baseline.latency_mean,
        },
        "threshold_sweep": sweep,
    }
