"""The fabric's columnar merge against the per-key ledger reference.

``TCAMFabric.search_batch`` merges every probe's chip energy matrix into
the probed keys' rows and ``ServeEngine`` totals each request's row in
booking order.  The reference rebuilds the same answers the slow way:
the fabric's probe schedule replayed as scalar ``TCAMChip.search`` calls
on a copy of the hardware, each key's ledgers merged with
:class:`~repro.energy.accounting.EnergyLedger` in probe order.

The hard case is a key-dependent booking order: behind gated multi-bank
chips the first key of a bank's batch books the wake-up ``clock``, so a
key whose first probed bank woke books ``clock`` first while a key woken
only by a fallback probe books it after its first probe's components.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.cluster import RuleTable, TCAMFabric, logical_winner
from repro.cluster.campaign import FabricBackend, FabricServiceModel
from repro.energy.accounting import EnergyLedger
from repro.serve.admission import AdmissionControl
from repro.serve.arrivals import poisson_trace
from repro.serve.backend import DISPATCH_COMPONENT, ChipBackend, ServiceModel
from repro.serve.engine import ServeEngine
from repro.serve.policy import FixedPolicy
from repro.tcam.chip import GatingPolicy
from repro.tcam.trit import TernaryWord, Trit, prefix_word, random_word

COLS = 12


def _table(seed: int = 2, n: int = 30) -> RuleTable:
    rng = np.random.default_rng(seed)
    words = [
        prefix_word(int(rng.integers(1 << COLS)), int(rng.integers(2, COLS + 1)), COLS)
        for _ in range(n)
    ]
    words.sort(key=lambda w: -sum(1 for t in w if t != 2))
    return RuleTable(tuple(words))


def _gated_fabric(policy: str = "replicated") -> TCAMFabric:
    return TCAMFabric(
        _table(),
        n_chips=3,
        policy=policy,
        banks_per_chip=2,
        gating=GatingPolicy(gate_idle_banks=True),
    )


def _keys(n: int, seed: int = 6):
    """Random keys, every third one a hit on one of the top rules (which
    the ``replicated`` policy places on every shard)."""
    rng = np.random.default_rng(seed)
    table = _table()
    keys = []
    for i in range(n):
        key = random_word(COLS, rng, x_fraction=0.1)
        if i % 3 == 0:
            rule = table.rules[i % 4]
            key = TernaryWord([k if r == Trit.X else r for r, k in zip(rule, key)])
        keys.append(key)
    return keys


def _reference_ledgers(fabric: TCAMFabric, keys, batch) -> list[EnergyLedger]:
    """Per-key fabric ledgers from scalar chip searches on ``fabric``
    (a copy of the hardware as it stood before ``batch`` ran)."""
    first = [tuple(fabric.distributor.probe_shards(k, fabric.placement)) for k in keys]
    extra = [item.shards_probed[len(p):] for p, item in zip(first, batch)]
    ledgers = [EnergyLedger() for _ in keys]
    for probes in (first, extra):
        for s in sorted({s for shards in probes for s in shards}):
            for b in fabric.occupied_banks(s):
                for i, shards in enumerate(probes):
                    if s in shards:
                        ledgers[i].merge(fabric.chips[s].search(keys[i], b).energy)
    for i, (p, e) in enumerate(zip(first, extra)):
        cost = fabric.interconnect.query_cost(len(p))
        link, routing = cost.energy, cost.routing_energy
        if e:
            cost2 = fabric.interconnect.query_cost(len(e))
            link += cost2.energy
            routing += cost2.routing_energy
        ledgers[i].add("link", link)
        ledgers[i].add("distribution", routing)
    return ledgers


class TestFabricMerge:
    @pytest.mark.parametrize("policy", ["replicated", "hash", "range"])
    def test_ledgers_equal_scalar_reference(self, policy):
        fabric = _gated_fabric(policy)
        keys = _keys(16)
        reference = copy.deepcopy(fabric)
        batch = fabric.search_batch(keys)
        expected = _reference_ledgers(reference, keys, batch)
        totals = batch.energy.totals()
        for i, (item, ledger) in enumerate(zip(batch, expected)):
            assert list(item.energy) == list(ledger)  # floats and booking order
            assert totals[i] == ledger.total
            assert item.rule == logical_winner(dict(enumerate(fabric.table.rules)), keys[i])

    def test_mixed_booking_order_within_one_batch(self):
        fabric = _gated_fabric("replicated")
        fabric.search_batch(_keys(8, seed=1))  # leaves every bank 0 gated
        keys = _keys(16)
        reference = copy.deepcopy(fabric)
        batch = fabric.search_batch(keys)
        assert batch.columns["fallback"].any() and not batch.columns["fallback"].all()
        clock_at = {
            item.energy.components().index("clock")
            for item in batch
            if "clock" in item.energy.components()
        }
        assert 0 in clock_at  # woke on its first probe: clock booked first
        assert max(clock_at) > 0  # woke on a later probe: clock booked after
        expected = _reference_ledgers(reference, keys, batch)
        assert [list(item.energy) for item in batch] == [list(led) for led in expected]
        assert batch.energy.totals().tolist() == [led.total for led in expected]

    def test_service_time_equals_per_query_loop(self):
        batch = _gated_fabric().search_batch(_keys(16))
        model = FabricServiceModel()
        assert model.batch_service_time(batch) == model.batch_service_time(list(batch))


class _Recording:
    """A backend wrapper keeping every dispatched batch."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.batches: list = []

    @property
    def cols(self) -> int:
        return self.backend.cols

    def search_batch(self, keys, banks):
        out = self.backend.search_batch(keys, banks)
        self.batches.append((list(keys), list(banks), out))
        return out


def _serve(backend, trace, model):
    engine = ServeEngine(
        backend, FixedPolicy(max_batch=6, max_wait=4e-8),
        admission=AdmissionControl(None), model=model,
    )
    records = []
    for seq, (t, key, bank) in enumerate(zip(trace.times, trace.keys, trace.banks)):
        records.extend(engine.offer(seq, float(t), key, int(bank)))
    records.extend(engine.drain())
    return sorted(records, key=lambda r: r.seq)


def _with_dispatch(ledger: EnergyLedger, model: ServiceModel, size: int) -> float:
    out = EnergyLedger()
    out.merge(ledger)
    out.add(DISPATCH_COMPONENT, model.e_overhead / size)
    return out.total


class TestServeEnergy:
    def test_fabric_request_energy_equals_scalar_ledger_total(self):
        fabric = _gated_fabric("replicated")
        reference = copy.deepcopy(fabric)
        backend = _Recording(FabricBackend(fabric))
        model = FabricServiceModel()
        trace = poisson_trace(30, 5e7, COLS, seed=3, x_fraction=0.1)
        records = _serve(backend, trace, model)
        expected = []
        for keys, _, batch in backend.batches:
            ledgers = _reference_ledgers(reference, keys, batch)
            expected.extend(_with_dispatch(led, model, len(keys)) for led in ledgers)
        assert [r.energy for r in records] == expected

    def test_chip_request_energy_equals_scalar_ledger_total(self):
        fabric = _gated_fabric("range")
        chip = fabric.chips[0]
        reference = copy.deepcopy(chip)
        backend = _Recording(ChipBackend(chip))
        model = ServiceModel()
        trace = poisson_trace(30, 5e7, COLS, seed=4, n_banks=2, x_fraction=0.1)
        records = _serve(backend, trace, model)
        expected = []
        for keys, banks, _ in backend.batches:
            expected.extend(
                _with_dispatch(reference.search(k, b).energy, model, len(keys))
                for k, b in zip(keys, banks)
            )
        assert [r.energy for r in records] == expected
        assert any(r.row is not None for r in records)
