"""The sharded multi-chip TCAM fabric.

:class:`TCAMFabric` composes N :class:`~repro.tcam.chip.TCAMChip`
instances into one logical search engine.  A
:class:`~repro.cluster.distributor.Distributor` decides which chip(s)
store each rule and which chip(s) a key probes; an
:class:`~repro.cluster.interconnect.Interconnect` prices the query and
result movement; the fabric merges the per-shard verdicts back into a
single :class:`FabricSearchOutcome` whose winner is bit-identical to an
unsharded reference chip holding the same table.

**Priority merge.**  Priorities are *global rule indices* (0 wins).
Each chip carries a ``row -> global rule`` map maintained through bulk
load, live churn and spare-row repair, so the merge is simply the
minimum mapped index over every matched valid row of every probed
shard.  This stays exact even after churn breaks the load-time
coincidence of local row order and global priority order, and after a
repair relocates a rule into the spare region.

**Tie-breaks.**  Two shards can both report a match but never the same
global rule from different rows on equal footing: a rule is stored
once per replica shard and maps to one global index, so ``min()`` over
indices is a total order and the merge has no residual ties -- the
same argument that makes the hardware priority encoder's lowest-row
convention exact on a single array.

**Span-sum invariant.**  Every chip probe books its energy through the
normal ``chip.search_batch`` spans nested under the fabric's
``cluster.search_batch`` span; the fabric adds only the link +
distribution energy as its *own* span energy.  The span tree therefore
sums exactly to the outcome ledgers, preserving the obs-layer
invariant introduced in PR 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core import build_array, get_design
from ..energy.accounting import EnergyLedger, EnergyMatrix
from ..errors import CapacityError, ClusterError
from ..tcam import ArrayGeometry
from ..tcam.chip import GatingPolicy, TCAMChip
from ..tcam.outcome import BaseOutcome, BatchOutcome
from ..tcam.trit import TernaryWord
from .distributor import Distributor, Placement, RuleTable, get_distributor
from .interconnect import (
    DISTRIBUTION_COMPONENT,
    LINK_COMPONENT,
    Interconnect,
    LinkModel,
)


@dataclass(frozen=True)
class FabricSearchOutcome(BaseOutcome):
    """One fabric search, merged across shards.

    Attributes:
        rule: Winning global rule index (0 = highest priority), or
            ``None`` when no probed shard matched.
        matched_rules: All matched global rule indices seen on probed
            shards, ascending.  Exhaustive for the broadcast policies
            (``hash``, ``range``); for ``replicated`` it may be pruned
            to the probed subset, but the *winner* is always global.
        shards_probed: Chips this query visited, in probe order.
        fallback: Whether a second broadcast round was needed
            (``replicated`` policy only).
        energy: Shard search energy + link + distribution components.
        latency: Key-to-result delay including link hops [s].
        cycle: Minimum time before the fabric ingress can accept the
            next query [s] (shard cycle + medium occupancy).
        shard_cycles: Per probed shard, the time this query occupied
            that shard's port (bank cycle, plus the dedicated-link
            transfer on ``p2p``).  This is what lets a batch-level
            service model see that queries on different shards overlap
            -- the source of the fabric's throughput scaling.
        link_occupancy: Time this query occupied the *shared* medium
            (``bus`` topology; 0 on ``p2p``, where transfers ride the
            per-shard links already counted in ``shard_cycles``).
    """

    rule: int | None
    matched_rules: tuple[int, ...]
    shards_probed: tuple[int, ...]
    fallback: bool
    energy: EnergyLedger
    latency: float
    cycle: float
    shard_cycles: tuple[tuple[int, float], ...] = ()
    link_occupancy: float = 0.0

    @property
    def match_mask(self):
        """Physical per-row masks do not survive the shard merge."""
        return None

    @property
    def first_match(self) -> int | None:
        return self.rule

    @property
    def search_delay(self) -> float:
        return self.latency

    @property
    def cycle_time(self) -> float:
        return self.cycle

    def _extra_dict(self) -> dict:
        return {
            "rule": None if self.rule is None else int(self.rule),
            "matched_rules": [int(r) for r in self.matched_rules],
            "shards_probed": [int(s) for s in self.shards_probed],
            "fallback": bool(self.fallback),
            "latency": self.latency,
        }


class TCAMFabric:
    """N TCAM chips behind one distributor, serving one rule table.

    Args:
        table: The global rule set; position is priority.
        n_chips: Shard count.
        policy: Distributor policy name (used when ``distributor`` is
            not given).
        distributor: Pre-built distributor instance (overrides
            ``policy``).
        design: Cell/design name for the shard arrays.
        banks_per_chip: Banks per chip.
        bank_rows: Rows per bank; defaults to the smallest count that
            fits the fullest shard plus the spare region.
        spare_rows: Rows reserved at the bottom of every bank for
            spare-row repair (kept empty by the loader).
        topology: Interconnect topology (``"p2p"`` / ``"bus"``).
        link: Electrical link model.
        result_bits: Verdict flit width for the interconnect.
        gating: Bank power-gating policy for the chips.

    Every shard bank is electrically identical, so the banks share one
    set of compiled kernel tables (adopted from the first bank).
    """

    def __init__(
        self,
        table: RuleTable,
        *,
        n_chips: int,
        policy: str = "hash",
        distributor: Distributor | None = None,
        design: str = "fefet2t",
        banks_per_chip: int = 1,
        bank_rows: int | None = None,
        spare_rows: int = 0,
        topology: str = "p2p",
        link: LinkModel | None = None,
        result_bits: int = 64,
        gating: GatingPolicy | None = None,
    ) -> None:
        if n_chips < 1:
            raise ClusterError(f"n_chips must be >= 1, got {n_chips}")
        if banks_per_chip < 1:
            raise ClusterError(f"banks_per_chip must be >= 1, got {banks_per_chip}")
        if spare_rows < 0:
            raise ClusterError(f"spare_rows must be >= 0, got {spare_rows}")
        self.table = table
        self.distributor = (
            distributor if distributor is not None else get_distributor(policy)
        )
        self.placement: Placement = self.distributor.place(table, n_chips)
        self.spare_rows = spare_rows

        load = self.placement.max_shard_load
        min_rows = -(-load // banks_per_chip) + spare_rows
        if bank_rows is None:
            bank_rows = max(min_rows, 2)
        if bank_rows < min_rows:
            raise CapacityError(
                f"bank_rows={bank_rows} cannot hold the fullest shard "
                f"({load} rules over {banks_per_chip} banks + "
                f"{spare_rows} spares needs >= {min_rows})"
            )
        self.bank_rows = bank_rows
        self.banks_per_chip = banks_per_chip

        spec = get_design(design)
        geometry = ArrayGeometry(rows=bank_rows, cols=table.width)
        self.interconnect = Interconnect(
            topology,
            link,
            key_bits=2 * table.width,
            result_bits=result_bits,
        )

        with obs.span(
            "cluster.build",
            n_chips=n_chips,
            policy=self.placement.policy,
            topology=topology,
            bank_rows=bank_rows,
        ) as sp:
            self.chips = [
                TCAMChip(
                    lambda: build_array(spec, geometry),
                    n_banks=banks_per_chip,
                    gating=gating,
                )
                for _ in range(n_chips)
            ]
            #: Per chip: chip-global row -> global rule index (-1 free).
            self.row_rule: list[np.ndarray] = [
                np.full(chip.rows_total, -1, dtype=np.int64) for chip in self.chips
            ]
            #: Global rule index -> [(chip, chip_global_row), ...].
            self.rule_sites: dict[int, list[tuple[int, int]]] = {}
            #: Global rule index -> word, for every *live* rule
            #: (including churn-added ones; withdrawn rules drop out).
            self.rule_words: dict[int, TernaryWord] = dict(enumerate(table.rules))
            self.next_rule_id = len(table)
            self.load_energy = self._load_shards()
            if sp is not None:
                sp.add_energy(self.load_energy)
            banks = [bank for chip in self.chips for bank in chip.banks]
            for bank in banks[1:]:
                bank.kernel.adopt_tables(banks[0].kernel)

        #: Conservation counters checked by the campaign smoke gate.
        self.queries_offered = 0
        self.probes_issued = 0
        self.fallback_queries = 0

    # -- construction ------------------------------------------------

    def _load_shards(self) -> EnergyLedger:
        """Bulk-load every shard, skipping the per-bank spare regions."""
        ledger = EnergyLedger()
        cap = self.bank_rows - self.spare_rows
        if cap < 1:
            raise CapacityError(
                f"spare_rows={self.spare_rows} leaves no data rows in "
                f"{self.bank_rows}-row banks"
            )
        for c, gids in enumerate(self.placement.shard_rules):
            for pos0 in range(0, len(gids), cap):
                block = gids[pos0 : pos0 + cap]
                bank = pos0 // cap
                start = bank * self.bank_rows
                words = [self.table[g] for g in block]
                ledger.merge(self.chips[c].load_rows(words, start_row=start))
                for j, gid in enumerate(block):
                    row = start + j
                    self.row_rule[c][row] = gid
                    self.rule_sites.setdefault(gid, []).append((c, row))
        return ledger

    # -- introspection ------------------------------------------------

    @property
    def n_chips(self) -> int:
        return len(self.chips)

    def occupied_banks(self, chip: int) -> list[int]:
        """Banks of ``chip`` holding at least one live rule."""
        rows = self.bank_rows
        mapped = self.row_rule[chip]
        return [
            b
            for b in range(self.banks_per_chip)
            if (mapped[b * rows : (b + 1) * rows] >= 0).any()
        ]

    def live_rules(self) -> set[int]:
        """Global indices of rules currently stored somewhere."""
        return set(self.rule_sites)

    def free_row(self, chip: int) -> int | None:
        """First unmapped non-spare row of ``chip``, or ``None`` if full."""
        rows = self.bank_rows
        cap = rows - self.spare_rows
        mapped = self.row_rule[chip]
        for b in range(self.banks_per_chip):
            base = b * rows
            for local in range(cap):
                if mapped[base + local] < 0:
                    return base + local
        return None

    def counters(self) -> dict:
        return {
            "queries_offered": int(self.queries_offered),
            "probes_issued": int(self.probes_issued),
            "fallback_queries": int(self.fallback_queries),
        }

    # -- search -------------------------------------------------------

    def search(self, key: TernaryWord) -> FabricSearchOutcome:
        """Search one key (see :meth:`search_batch`)."""
        return self.search_batch([key])[0]

    def search_batch(self, keys) -> BatchOutcome:
        """Search a key batch across the fabric.

        Keys routed to the same shard keep their relative order, so
        each shard's drive state evolves exactly as if that key
        subsequence had been offered to it directly --
        which is what makes the one-chip fabric bit-identical to a
        plain :meth:`~repro.tcam.chip.TCAMChip.search_batch` call,
        ledgers included, once the link components are stripped.

        The merge is columnar: every probe's chip energy matrix merges
        into the probed keys' rows in probe order (shard, then bank),
        and each probe's winners are one vectorised min over the
        shard's ``row_rule`` map.  The items of the returned
        :class:`~repro.tcam.outcome.BatchOutcome` are the
        :class:`FabricSearchOutcome` of each key.

        Args:
            keys: Search keys (table width).
        """
        keys = list(keys)
        for i, key in enumerate(keys):
            if len(key) != self.table.width:
                raise ClusterError(
                    f"key {i} width {len(key)} != table width {self.table.width}"
                )
        if not keys:
            return []
        n = len(keys)

        with obs.span(
            "cluster.search_batch",
            n_keys=n,
            n_chips=self.n_chips,
            policy=self.placement.policy,
            topology=self.interconnect.topology,
        ) as sp:
            probes: list[tuple[int, ...]] = [
                tuple(self.distributor.probe_shards(k, self.placement))
                for k in keys
            ]
            acc = _ProbeMerge(n, self.n_chips)
            self._probe_round(keys, probes, acc)

            extra: list[tuple[int, ...]] = [()] * n
            needs = [
                self.distributor.needs_fallback(None if b == _NONE else b, self.placement)
                for b in acc.best.tolist()
            ]
            if any(needs):
                extra = [
                    tuple(s for s in range(self.n_chips) if s not in probes[i])
                    if needs[i]
                    else ()
                    for i in range(n)
                ]
                self._probe_round(keys, extra, acc)
            fallback = np.array([bool(e) for e in extra], dtype=bool)

            n_first = np.array([len(p) for p in probes])
            n_extra = np.array([len(e) for e in extra])
            # Per probe count: (link energy, routing energy, latency,
            # occupancy); a key without a fallback round adds an exact 0.0.
            price = np.zeros((self.n_chips + 1, 4))
            for c in np.union1d(n_first, n_extra).tolist():
                cost = self.interconnect.query_cost(c)
                price[c] = (cost.energy, cost.routing_energy, cost.latency, cost.occupancy)
            first_cost = price[n_first]
            extra_cost = np.where(fallback[:, np.newaxis], price[n_extra], 0.0)
            link_e, routing, _, occupancy = (first_cost + extra_cost).T
            latency = (acc.delay + first_cost[:, 2]) + extra_cost[:, 2]
            link = EnergyMatrix.booking((LINK_COMPONENT, DISTRIBUTION_COMPONENT), n)
            link.values[:, link.column(LINK_COMPONENT)] = link_e
            link.values[:, link.column(DISTRIBUTION_COMPONENT)] = routing
            # On p2p every probe rides a dedicated link, so its transfer
            # time folds into that shard's port occupancy; on a bus the
            # transfers serialize on the one medium.
            cycles = np.where(acc.probed, acc.cycle, 0.0)
            if self.interconnect.topology == "p2p":
                shard_cycles = np.where(
                    acc.probed, acc.cycle + self.interconnect.transfer_time(), 0.0
                )
                link_occ = np.zeros(n)
            else:
                shard_cycles = cycles
                link_occ = occupancy
            total_probes = int(n_first.sum() + n_extra.sum())

            self.queries_offered += n
            self.probes_issued += total_probes
            self.fallback_queries += int(fallback.sum())
            m = obs.metrics()
            if sp is not None or m is not None:
                link_ledger = link.summed()
            if sp is not None:
                sp.add_energy(link_ledger)
                sp.annotate(probes=total_probes, fallbacks=int(fallback.sum()))
            if m is not None:
                m.counter("cluster.queries").inc(n)
                m.counter("cluster.probes").inc(total_probes)
                for component, joules in link_ledger:
                    m.counter("energy." + component).inc(joules)
            return BatchOutcome(
                first=np.where(acc.best == _NONE, -1, acc.best),
                search_delay=latency,
                cycle_time=cycles.max(axis=1) + occupancy,
                energy=acc.energy.merged(link),
                view=_fabric_view,
                matched=acc.matched,
                shards_probed=[p + e for p, e in zip(probes, extra)],
                fallback=fallback,
                probed=acc.probed,
                shard_cycles=shard_cycles,
                link_occupancy=link_occ,
            )

    def _probe_round(self, keys, probes, acc: "_ProbeMerge") -> None:
        """Run one probe round and fold the shard verdicts into ``acc``."""
        by_chip: dict[int, list[int]] = {}
        for i, shards in enumerate(probes):
            for s in shards:
                by_chip.setdefault(s, []).append(i)

        rows = self.bank_rows
        for s, idxs in sorted(by_chip.items()):
            banks = self.occupied_banks(s)
            if not banks:
                continue  # an empty shard cannot match and is not probed
            chip = self.chips[s]
            shard_keys = [keys[i] for i in idxs]
            per_bank = [chip.search_batch(shard_keys, banks=b) for b in banks]
            idxs = np.array(idxs, dtype=np.intp)
            mapped = self.row_rule[s]
            shard_delay = np.zeros(idxs.size)
            shard_cycle = np.zeros(idxs.size)
            for b, out in zip(banks, per_bank):
                acc.energy = acc.energy.merged(out.energy, rows=idxs)
                shard_delay = np.maximum(shard_delay, out.search_delay)
                shard_cycle = np.maximum(shard_cycle, out.cycle_time)
                if out.match is None:
                    continue
                rule = mapped[b * rows : (b + 1) * rows]
                matched = np.where(out.match & (rule >= 0), rule, _NONE)
                acc.matched.append((idxs, matched))
                acc.best[idxs] = np.minimum(acc.best[idxs], matched.min(axis=1))
            acc.delay[idxs] = np.maximum(acc.delay[idxs], shard_delay)
            acc.cycle[idxs, s] = np.maximum(acc.cycle[idxs, s], shard_cycle)
            acc.probed[idxs, s] = True


#: Winner sentinel of the vectorised merge (no matched rule).
_NONE = np.iinfo(np.int64).max


class _ProbeMerge:
    """Per-key accumulators of a fabric batch's probe rounds."""

    def __init__(self, n: int, n_chips: int) -> None:
        self.energy = EnergyMatrix.empty(n)
        self.best = np.full(n, _NONE, dtype=np.int64)
        self.delay = np.zeros(n)
        self.cycle = np.zeros((n, n_chips))
        self.probed = np.zeros((n, n_chips), dtype=bool)
        #: Per probed bank: its key indices and their ``(key, row)``
        #: matched global rule indices (``_NONE`` where a row missed).
        self.matched: list[tuple[np.ndarray, np.ndarray]] = []


def _fabric_view(batch: BatchOutcome, i: int) -> FabricSearchOutcome:
    """Key ``i`` of a :meth:`TCAMFabric.search_batch` result."""
    cols = batch.columns
    rule = int(batch.first[i])
    shards = np.flatnonzero(cols["probed"][i]).tolist()
    cycles = cols["shard_cycles"][i]
    matched = [m[idxs == i] for idxs, m in cols["matched"]]
    matched = np.unique(np.concatenate([np.empty(0, dtype=np.int64), *matched], axis=None))
    return FabricSearchOutcome(
        rule=None if rule < 0 else rule,
        matched_rules=tuple(matched[matched != _NONE].tolist()),
        shards_probed=cols["shards_probed"][i],
        fallback=bool(cols["fallback"][i]),
        energy=batch.energy.ledger(i),
        latency=float(batch.search_delay[i]),
        cycle=float(batch.cycle_time[i]),
        shard_cycles=tuple((s, float(cycles[s])) for s in shards),
        link_occupancy=float(cols["link_occupancy"][i]),
    )


def ternary_matches(stored: TernaryWord, key: TernaryWord) -> bool:
    """Logical TCAM match: a column passes when either side is X or the
    trits agree (an undriven search line cannot discharge, a stored X
    conducts for neither drive)."""
    from ..tcam.trit import Trit

    s = stored.as_array()
    k = key.as_array()
    x = int(Trit.X)
    return bool(np.all((s == k) | (s == x) | (k == x)))


def logical_winner(rules, key: TernaryWord) -> int | None:
    """Oracle winner over a ``{global index -> word}`` rule map: the
    lowest index whose word matches ``key`` -- the answer a healthy
    fabric (and the unsharded reference) must return."""
    for gid in sorted(rules):
        if ternary_matches(rules[gid], key):
            return gid
    return None


def build_reference_chip(
    table: RuleTable,
    *,
    design: str = "fefet2t",
) -> TCAMChip:
    """The unsharded reference: one bank holding the whole table in
    priority order.  ``chip.search_batch(keys, banks=0)`` on it is the
    golden answer the fabric must reproduce (global row == global rule
    index)."""
    spec = get_design(design)
    geometry = ArrayGeometry(rows=len(table), cols=table.width)
    chip = TCAMChip(lambda: build_array(spec, geometry), n_banks=1)
    chip.load_rows(list(table.rules))
    return chip
