"""Live rule churn for the fabric: adds, withdrawals and wear.

Routing tables and signature sets are not static -- BGP alone delivers
a steady stream of route add/withdraw events, and every one of them is
a physical write whose energy the paper's estimator surface (PR 8) can
price.  :class:`UpdateEngine` applies such streams to a live
:class:`~repro.cluster.fabric.TCAMFabric`:

* **adds** route through the fabric's distributor (new rules join the
  priority tail), land on the first free row of every replica shard
  via the normal ``chip.write`` path -- so the per-cell trit-transition
  costs and SoA snapshot rebuilds happen exactly as they would on a
  standalone array;
* **withdrawals** erase every replica to all-X (a real write, priced
  by the estimator) before clearing the valid bit;
* both directions ship their flits over the interconnect, booking
  ``link``/``distribution`` energy next to the ``write`` component.

Sustained churn raises per-cell write counts, and
:func:`age_and_repair` closes the loop with the PR 5 fault subsystem:
a wear-mode :class:`~repro.faults.campaign.FaultCampaign` makes the
most-written cells fail first, spare-row repair relocates broken rows
(consuming the per-bank spare budget), and the fabric's
``row -> rule`` map follows the relocations so searches stay exact.
When churn has burned through the spares, rows go unrepaired and the
report's availability drops -- the spare-row-exhaustion story the
scaling campaign charts as yield.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..energy.accounting import EnergyLedger
from ..errors import ClusterError
from ..faults.campaign import FaultCampaign
from ..faults.repair import SpareRowPolicy
from ..tcam.trit import TernaryWord, Trit, prefix_word
from .fabric import TCAMFabric


@dataclass(frozen=True)
class RuleUpdate:
    """One churn event.

    Attributes:
        op: ``"add"`` (carries ``rule``) or ``"withdraw"`` (carries
            ``rule_id``).
        rule: The new rule word (adds).
        rule_id: Global index of the rule to remove (withdrawals).
    """

    op: str
    rule: TernaryWord | None = None
    rule_id: int | None = None

    def __post_init__(self) -> None:
        if self.op not in ("add", "withdraw"):
            raise ClusterError(f"update op must be add/withdraw, got {self.op!r}")
        if self.op == "add" and self.rule is None:
            raise ClusterError("add updates need a rule word")
        if self.op == "withdraw" and self.rule_id is None:
            raise ClusterError("withdraw updates need a rule id")


def synthesize_churn(
    n_initial: int,
    width: int,
    n_updates: int,
    seed: int = 0,
    add_fraction: float = 0.55,
    min_prefix: int = 4,
) -> list[RuleUpdate]:
    """A BGP-flavoured add/withdraw stream.

    Adds are route-prefix words (``min_prefix``..``width`` specified
    MSBs, the rest X); withdrawals pick a uniformly random live rule.
    The generator tracks the live id set the way the engine will assign
    ids (adds take sequential ids from ``n_initial`` up), so withdraw
    targets are valid as long as every add is accepted.
    """
    if n_initial < 0 or n_updates < 0:
        raise ClusterError("n_initial and n_updates must be non-negative")
    if not 0.0 <= add_fraction <= 1.0:
        raise ClusterError(f"add_fraction must be in [0, 1], got {add_fraction}")
    if not 1 <= min_prefix <= width:
        raise ClusterError(f"min_prefix must be in [1, {width}]")
    rng = np.random.default_rng(seed)
    live = list(range(n_initial))
    next_id = n_initial
    updates: list[RuleUpdate] = []
    for _ in range(n_updates):
        if live and rng.random() >= add_fraction:
            victim = live.pop(int(rng.integers(len(live))))
            updates.append(RuleUpdate("withdraw", rule_id=victim))
        else:
            plen = int(rng.integers(min_prefix, width + 1))
            value = int(rng.integers(1 << min(width, 62)))
            updates.append(
                RuleUpdate("add", rule=prefix_word(value, plen, width))
            )
            live.append(next_id)
            next_id += 1
    return updates


def bulk_signature_push(
    signatures, width: int | None = None
) -> list[RuleUpdate]:
    """A signature-set push: one add per word, applied as one batch."""
    updates = []
    for word in signatures:
        if width is not None and len(word) != width:
            raise ClusterError(
                f"signature width {len(word)} != expected {width}"
            )
        updates.append(RuleUpdate("add", rule=word))
    return updates


@dataclass
class ChurnReport:
    """What one update batch did and what it cost.

    Attributes:
        adds: Accepted adds.
        withdrawals: Accepted withdrawals.
        rejected_adds: Adds refused for capacity (no free row on some
            replica shard; nothing is partially placed).
        rejected_withdrawals: Withdrawals of unknown/dead rule ids.
        replicas_written: Physical rows written across all shards.
        energy: Write + erase + link + distribution ledger.
        latency: Summed update-path latency [s].
    """

    adds: int = 0
    withdrawals: int = 0
    rejected_adds: int = 0
    rejected_withdrawals: int = 0
    replicas_written: int = 0
    energy: EnergyLedger = field(default_factory=EnergyLedger)
    latency: float = 0.0

    def to_dict(self) -> dict:
        return {
            "adds": self.adds,
            "withdrawals": self.withdrawals,
            "rejected_adds": self.rejected_adds,
            "rejected_withdrawals": self.rejected_withdrawals,
            "replicas_written": self.replicas_written,
            "energy": self.energy.as_dict(),
            "energy_total": self.energy.total,
            "latency": self.latency,
        }


class UpdateEngine:
    """Applies churn streams to a live fabric."""

    def __init__(self, fabric: TCAMFabric) -> None:
        self.fabric = fabric

    def apply(self, updates) -> ChurnReport:
        """Apply an update stream in order; returns the batch report.

        Books the whole batch's energy on a ``cluster.update_batch``
        span (the write path does not open spans of its own, so the
        span-sum invariant holds with the batch as one leaf).
        """
        updates = list(updates)
        report = ChurnReport()
        with obs.span(
            "cluster.update_batch", n_updates=len(updates)
        ) as sp:
            for update in updates:
                if update.op == "add":
                    self._add(update.rule, report)
                else:
                    self._withdraw(update.rule_id, report)
            if sp is not None:
                sp.add_energy(report.energy)
                sp.annotate(
                    adds=report.adds,
                    withdrawals=report.withdrawals,
                    rejected=report.rejected_adds + report.rejected_withdrawals,
                )
        m = obs.metrics()
        if m is not None:
            m.counter("cluster.updates").inc(
                report.adds + report.withdrawals
            )
            m.counter("cluster.updates_rejected").inc(
                report.rejected_adds + report.rejected_withdrawals
            )
        return report

    # ------------------------------------------------------------------

    def _add(self, rule: TernaryWord, report: ChurnReport) -> None:
        fabric = self.fabric
        if len(rule) != fabric.table.width:
            raise ClusterError(
                f"rule width {len(rule)} != fabric width {fabric.table.width}"
            )
        gid = fabric.next_rule_id
        shards = fabric.distributor.route_rule(rule, gid, fabric.placement)
        rows = [fabric.free_row(s) for s in shards]
        if any(r is None for r in rows):
            report.rejected_adds += 1  # all-or-nothing: no partial placement
            return
        fabric.next_rule_id = gid + 1
        sites = []
        for s, row in zip(shards, rows):
            report.energy.merge(fabric.chips[s].write(row, rule))
            fabric.row_rule[s][row] = gid
            sites.append((s, row))
        fabric.rule_sites[gid] = sites
        fabric.rule_words[gid] = rule
        cost = fabric.interconnect.update_cost(len(shards))
        fabric.interconnect.book(report.energy, cost)
        report.latency += cost.latency
        report.adds += 1
        report.replicas_written += len(shards)

    def _withdraw(self, rule_id: int, report: ChurnReport) -> None:
        fabric = self.fabric
        sites = fabric.rule_sites.pop(rule_id, None)
        if sites is None:
            report.rejected_withdrawals += 1
            return
        fabric.rule_words.pop(rule_id, None)
        erase = TernaryWord([Trit.X] * fabric.table.width)
        for chip_idx, row in sites:
            chip = fabric.chips[chip_idx]
            # A withdrawal physically erases the row to all-X (priced by
            # the estimator's trit-transition table) before the valid
            # bit clears -- leaving stale trits powered would leak and
            # shadow-match.
            report.energy.merge(chip.write(row, erase))
            bank, local = divmod(row, fabric.bank_rows)
            chip.banks[bank].invalidate(local)
            fabric.row_rule[chip_idx][row] = -1
        cost = fabric.interconnect.update_cost(len(sites))
        fabric.interconnect.book(report.energy, cost)
        report.latency += cost.latency
        report.withdrawals += 1
        report.replicas_written += len(sites)


# ----------------------------------------------------------------------
# Wear, faults and spare-row repair
# ----------------------------------------------------------------------


@dataclass
class FabricWearReport:
    """One aging + repair pass over every bank of the fabric.

    Attributes:
        faults_injected: Faulty cells attached across all banks.
        repaired_rows: Broken valid rows relocated into spares.
        unrepaired_rows: Broken valid rows left in place (spares
            exhausted) -- each one degrades its shard's answers.
        banks_exhausted: Banks whose spare budget ran out with broken
            rows remaining.
        degraded_rules: Global rule ids with at least one unrepaired
            replica.
        availability: Fraction of live (rule, shard) placements still
            served correctly -- the fabric's yield under churn wear.
        energy: Repair ledger (``repair`` component).
    """

    faults_injected: int = 0
    repaired_rows: int = 0
    unrepaired_rows: int = 0
    banks_exhausted: int = 0
    degraded_rules: set[int] = field(default_factory=set)
    availability: float = 1.0
    energy: EnergyLedger = field(default_factory=EnergyLedger)

    def to_dict(self) -> dict:
        return {
            "faults_injected": self.faults_injected,
            "repaired_rows": self.repaired_rows,
            "unrepaired_rows": self.unrepaired_rows,
            "banks_exhausted": self.banks_exhausted,
            "degraded_rules": sorted(self.degraded_rules),
            "availability": self.availability,
            "repair_energy": self.energy.total,
        }


def age_and_repair(
    fabric: TCAMFabric,
    *,
    density: float,
    seed: int = 0,
    mode: str = "wear",
) -> FabricWearReport:
    """Inject faults bank by bank and repair with the spare-row policy.

    In ``"wear"`` mode the fault order is wear-proportional
    (Efraimidis-Spirakis over ``write_counts + 1``), so the cells churn
    hammered hardest fail first -- the PR 5 interaction the issue asks
    for.  Repairs relocate broken rows into each bank's spare region
    and the fabric's ``row -> rule`` map and site index follow, so a
    relocated rule keeps winning at its original priority.
    """
    if not 0.0 <= density <= 1.0:
        raise ClusterError(f"density must be in [0, 1], got {density}")
    report = FabricWearReport()
    policy = SpareRowPolicy(n_spare=fabric.spare_rows)
    rows = fabric.bank_rows
    with obs.span(
        "cluster.age_and_repair", density=density, mode=mode
    ) as sp:
        for c, chip in enumerate(fabric.chips):
            for b, bank in enumerate(chip.banks):
                campaign = FaultCampaign(rows, fabric.table.width)
                rng = np.random.default_rng([seed, c, b])
                wear = bank.wear_counts() if mode == "wear" else None
                plan = campaign.draw(mode, rng, wear_counts=wear)
                fmap = plan.at_density(density)
                bank.attach_faults(fmap)
                report.faults_injected += int(np.count_nonzero(fmap.kind))
                rep = policy.repair(bank, fmap)
                report.energy.merge(rep.energy)
                base = b * rows
                mapped = fabric.row_rule[c]
                for broken, spare in rep.row_map.items():
                    gid = int(mapped[base + broken])
                    mapped[base + spare] = gid
                    mapped[base + broken] = -1
                    if gid >= 0:
                        sites = fabric.rule_sites[gid]
                        sites[sites.index((c, base + broken))] = (c, base + spare)
                report.repaired_rows += len(rep.row_map)
                report.unrepaired_rows += len(rep.unrepaired_rows)
                if rep.unrepaired_rows:
                    report.banks_exhausted += 1
                    for row in rep.unrepaired_rows:
                        gid = int(mapped[base + row])
                        if gid >= 0:
                            report.degraded_rules.add(gid)
        if sp is not None:
            sp.add_energy(report.energy)
            sp.annotate(
                repaired=report.repaired_rows,
                unrepaired=report.unrepaired_rows,
            )
    live_sites = sum(len(s) for s in fabric.rule_sites.values())
    if live_sites:
        report.availability = 1.0 - report.unrepaired_rows / live_sites
    return report
