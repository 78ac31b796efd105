"""The 1 -> 64 chip scaling campaign.

For every ``(chip count, distributor policy)`` point the campaign
builds a fabric over one fixed rule table, drives it with the
``repro.serve`` open-loop workload at a saturating offered rate
(so measured throughput reads as fabric capacity), then applies a
BGP-style churn stream and a wear-proportional aging + spare-row
repair pass.  The resulting record -- throughput, tail latency,
energy per query with its link/distribution share, probes per query,
update energy and post-wear availability -- is the
throughput/energy/yield frontier ``BENCH_cluster.json`` charts and
the CI smoke gate asserts over.

Two invariants are checked on every point rather than trusted:

* **conservation** -- the serving layer's exact request accounting
  (``offered == completed + rejected``) plus the fabric's own probe
  accounting (every query's probe set sums to the probe counter);
* **churn integrity** -- after the update stream, fabric winners on a
  probe batch equal the logical oracle over the surviving rule set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .. import obs
from ..energy.accounting import EnergyLedger
from ..errors import ClusterError
from ..serve.admission import AdmissionControl
from ..serve.arrivals import ARRIVAL_PROCESSES
from ..serve.backend import ServiceModel
from ..serve.policy import make_policy
from ..serve.service import run_trace
from ..tcam.outcome import SCHEMA_VERSION, BatchOutcome
from ..tcam.trit import TernaryWord, prefix_word, random_word
from .distributor import DISTRIBUTOR_POLICIES, RuleTable
from .fabric import TCAMFabric, logical_winner
from .interconnect import (
    DISTRIBUTION_COMPONENT,
    LINK_COMPONENT,
    LinkModel,
    TOPOLOGIES,
)
from .updates import UpdateEngine, age_and_repair, synthesize_churn

#: Chip counts of the full scaling sweep.
DEFAULT_CHIP_COUNTS = (1, 2, 4, 8, 16, 32, 64)


class FabricBackend:
    """Adapt a :class:`~repro.cluster.fabric.TCAMFabric` to the serve
    backend protocol (bank indices are the distributor's business, so
    the trace's bank column is ignored)."""

    def __init__(self, fabric: TCAMFabric) -> None:
        self.fabric = fabric

    @property
    def cols(self) -> int:
        return self.fabric.table.width

    def search_batch(self, keys, banks):
        return self.fabric.search_batch(list(keys))


class FabricServiceModel(ServiceModel):
    """Batch service time for a fabric of parallel shard ports.

    The base model serializes a batch through one search port
    (``t_overhead + sum(cycles)``), which would hide the whole point
    of sharding.  A fabric dispatches the batch to every shard at
    once, so the batch occupies the fabric for the *bottleneck
    resource's* busy time: each shard port serves its own queries
    back to back, and on a shared bus the link transfers additionally
    serialize on the medium.  Queries on different shards overlap --
    which is exactly how capacity grows with chip count for the
    single-probe policies while broadcast placement stays flat.
    """

    def batch_service_time(self, outcomes) -> float:
        if isinstance(outcomes, BatchOutcome):
            # The loop below, down the columns: cumsum adds sequentially,
            # and a shard a query skipped adds an exact 0.0.
            busy = np.cumsum(outcomes.columns["shard_cycles"], axis=0)[-1].tolist()
            medium = float(np.cumsum(outcomes.columns["link_occupancy"])[-1])
            return self.t_overhead + max([medium, *busy])
        busy: dict[int, float] = {}
        medium = 0.0
        for o in outcomes:
            for s, c in getattr(o, "shard_cycles", ()):
                busy[s] = busy.get(s, 0.0) + c
            medium += getattr(o, "link_occupancy", 0.0)
        return self.t_overhead + max([medium, *busy.values()], default=0.0)


def synthetic_rule_table(
    n_rules: int, cols: int, seed: int = 0, min_prefix: int = 4
) -> RuleTable:
    """A route-table-shaped rule set: random prefixes of mixed length,
    higher-priority (earlier) rules tending more specific -- the LPM
    convention that makes priority order meaningful."""
    if n_rules < 1 or cols < 1:
        raise ClusterError("n_rules and cols must be >= 1")
    if not 1 <= min_prefix <= cols:
        raise ClusterError(f"min_prefix must be in [1, {cols}]")
    rng = np.random.default_rng(seed)
    lens = np.sort(rng.integers(min_prefix, cols + 1, size=n_rules))[::-1]
    rules = []
    for plen in lens:
        value = int(rng.integers(1 << min(cols, 62)))
        rules.append(prefix_word(value, int(plen), cols))
    return RuleTable(tuple(rules))


@dataclass
class ClusterScalePoint:
    """One ``(chip count, policy)`` point of the frontier."""

    n_chips: int
    policy: str
    topology: str
    bank_rows: int
    replication_factor: float
    offered_rate: float
    throughput: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    energy_per_query: float
    link_fraction: float
    probes_per_query: float
    fallback_fraction: float
    offered: int
    completed: int
    rejected: int
    conserved: bool
    churn: dict = field(default_factory=dict)
    churn_integrity: bool = True
    availability: float = 1.0
    post_repair_accuracy: float = 1.0
    wear: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        out["churn"] = dict(self.churn)
        out["wear"] = dict(self.wear)
        return out


def _probe_keys(cols: int, n: int, seed: int) -> list[TernaryWord]:
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng) for _ in range(n)]


def _run_point(
    table: RuleTable,
    *,
    n_chips: int,
    policy: str,
    topology: str,
    design: str,
    banks_per_chip: int,
    spare_rows: int,
    link: LinkModel | None,
    n_requests: int,
    rate_factor: float,
    process: str,
    max_batch: int,
    churn_updates: int,
    wear_density: float,
    seed: int,
) -> ClusterScalePoint:
    fabric = TCAMFabric(
        table,
        n_chips=n_chips,
        policy=policy,
        design=design,
        banks_per_chip=banks_per_chip,
        spare_rows=spare_rows,
        topology=topology,
        link=link,
    )
    cols = table.width

    # Saturating offered rate: estimate per-request service by pushing
    # a probe batch through the fabric service model itself, so the
    # measured throughput reads as capacity at every chip count.
    model = FabricServiceModel()
    probe = fabric.search_batch(
        _probe_keys(cols, max(16, max_batch // 2), seed + 11)
    )
    capacity = len(probe) / model.batch_service_time(probe)
    rate = rate_factor * capacity

    trace = ARRIVAL_PROCESSES[process](n_requests, rate, cols, seed=seed + 1)
    backend = FabricBackend(fabric)
    base_offered, base_probes = (
        fabric.queries_offered,
        fabric.probes_issued,
    )
    # max_wait scaled to the batch-fill time at the offered rate: long
    # enough that batches fill under load, short enough that the final
    # partial batch's wait does not pollute the measured makespan.
    report = run_trace(
        backend,
        trace,
        make_policy("fixed", max_batch=max_batch, max_wait=max_batch / rate),
        admission=AdmissionControl(queue_capacity=4 * max_batch),
        model=model,
    )
    served = fabric.queries_offered - base_offered
    probes = fabric.probes_issued - base_probes
    conserved = (
        report.offered == report.completed + report.rejected
        and served == report.completed
    )

    # Energy split: link + distribution share of the serving energy,
    # read from a fresh probe batch (the service report folds dispatch
    # overhead in, which is neither link nor array physics).
    split = fabric.search_batch(_probe_keys(cols, 8, seed + 12))
    probe_sum = EnergyLedger.sum(o.energy for o in split)
    link_fraction = (
        probe_sum.get(LINK_COMPONENT) + probe_sum.get(DISTRIBUTION_COMPONENT)
    ) / probe_sum.total if probe_sum.total else 0.0

    # Churn phase: BGP-style add/withdraw stream, then an integrity
    # probe against the logical oracle over the surviving rules.
    engine = UpdateEngine(fabric)
    updates = synthesize_churn(
        len(table), cols, churn_updates, seed=seed + 2
    )
    churn_report = engine.apply(updates)
    integrity_keys = _probe_keys(cols, 32, seed + 13)
    answers = fabric.search_batch(integrity_keys)
    churn_integrity = all(
        out.rule == logical_winner(fabric.rule_words, key)
        for out, key in zip(answers, integrity_keys)
    )

    # Wear phase: churn-proportional aging + spare-row repair, then a
    # post-repair accuracy probe (1.0 whenever every broken row found
    # a spare; degraded shards drag it down).
    wear_report = age_and_repair(
        fabric, density=wear_density, seed=seed + 3, mode="wear"
    )
    post = fabric.search_batch(integrity_keys)
    accuracy = sum(
        out.rule == logical_winner(fabric.rule_words, key)
        for out, key in zip(post, integrity_keys)
    ) / len(integrity_keys)

    n_ops = churn_report.adds + churn_report.withdrawals
    churn_dict = churn_report.to_dict()
    churn_dict["energy_per_op"] = (
        churn_report.energy.total / n_ops if n_ops else 0.0
    )
    return ClusterScalePoint(
        n_chips=n_chips,
        policy=policy,
        topology=topology,
        bank_rows=fabric.bank_rows,
        replication_factor=fabric.placement.replication_factor(),
        offered_rate=rate,
        throughput=report.throughput,
        latency_p50=report.latency_p50,
        latency_p95=report.latency_p95,
        latency_p99=report.latency_p99,
        energy_per_query=report.energy_per_request,
        link_fraction=link_fraction,
        probes_per_query=probes / served if served else 0.0,
        fallback_fraction=(
            fabric.fallback_queries / fabric.queries_offered
            if fabric.queries_offered
            else 0.0
        ),
        offered=report.offered,
        completed=report.completed,
        rejected=report.rejected,
        conserved=conserved,
        churn=churn_dict,
        churn_integrity=churn_integrity,
        availability=wear_report.availability,
        post_repair_accuracy=accuracy,
        wear=wear_report.to_dict(),
    )


def run_cluster_campaign(
    *,
    design: str = "fefet2t",
    n_rules: int = 256,
    cols: int = 32,
    banks_per_chip: int = 1,
    spare_rows: int = 2,
    chip_counts: Sequence[int] = DEFAULT_CHIP_COUNTS,
    policies: Sequence[str] = DISTRIBUTOR_POLICIES,
    topology: str = "p2p",
    link: LinkModel | None = None,
    n_requests: int = 600,
    rate_factor: float = 3.0,
    process: str = "poisson",
    max_batch: int = 64,
    churn_updates: int = 120,
    wear_density: float = 0.02,
    seed: int = 0,
) -> dict:
    """Sweep chip counts x policies; returns the JSON-ready record."""
    if topology not in TOPOLOGIES:
        raise ClusterError(f"topology must be one of {TOPOLOGIES}")
    for p in policies:
        if p not in DISTRIBUTOR_POLICIES:
            raise ClusterError(f"unknown policy {p!r}")
    table = synthetic_rule_table(n_rules, cols, seed=seed)
    points: list[ClusterScalePoint] = []
    with obs.span(
        "cluster.campaign",
        chip_counts=list(chip_counts),
        policies=list(policies),
    ):
        for policy in policies:
            for n_chips in chip_counts:
                points.append(
                    _run_point(
                        table,
                        n_chips=n_chips,
                        policy=policy,
                        topology=topology,
                        design=design,
                        banks_per_chip=banks_per_chip,
                        spare_rows=spare_rows,
                        link=link,
                        n_requests=n_requests,
                        rate_factor=rate_factor,
                        process=process,
                        max_batch=max_batch,
                        churn_updates=churn_updates,
                        wear_density=wear_density,
                        seed=seed,
                    )
                )
    return {
        "schema_version": SCHEMA_VERSION,
        "campaign": "cluster-scaling",
        "config": {
            "design": design,
            "n_rules": n_rules,
            "cols": cols,
            "banks_per_chip": banks_per_chip,
            "spare_rows": spare_rows,
            "chip_counts": list(chip_counts),
            "policies": list(policies),
            "topology": topology,
            "n_requests": n_requests,
            "rate_factor": rate_factor,
            "process": process,
            "max_batch": max_batch,
            "churn_updates": churn_updates,
            "wear_density": wear_density,
            "seed": seed,
        },
        "points": [p.to_dict() for p in points],
    }
