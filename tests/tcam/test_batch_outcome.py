"""Columnar batch outcomes: the arrays and the lazy per-key views.

``search_batch`` returns one :class:`~repro.tcam.outcome.BatchOutcome`
whose columns (first matches, delays, the ``(key x component)`` energy
matrix) feed the layers above without building per-key objects, and
whose items are built on access.  Both must reproduce the scalar
reference exactly: every item's ``to_dict()`` (ledger floats and their
booking order included) and every column entry.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.cluster.interconnect import DISTRIBUTION_COMPONENT, LINK_COMPONENT
from repro.energy.accounting import LAYOUT, EnergyComponent, EnergyLedger, EnergyMatrix
from repro.errors import ReproError
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry
from repro.tcam.bank import SegmentedBank
from repro.tcam.chip import GatingPolicy, TCAMChip
from repro.serve.backend import DISPATCH_COMPONENT
from repro.tcam.outcome import BatchOutcome
from repro.tcam.trit import random_word

ROWS, COLS = 12, 16
DESIGNS = {"precharge": "fefet2t", "current_race": "fefet_cr"}


def _faults(fm: FaultMap) -> None:
    fm.set_cell(1, 2, FaultKind.STUCK_MATCH)
    fm.set_cell(4, 7, FaultKind.STUCK_MISS)
    fm.set_cell(2, 3, FaultKind.RETENTION, value=0.4)
    fm.set_cell(2, 11, FaultKind.RETENTION, value=0.15)
    fm.set_dead_row(3)
    fm.set_sa_offset(5, 0.03)
    fm.set_sa_offset(9, -0.02)


def _array(design: str, faulty: bool):
    rng = np.random.default_rng(11)
    array = build_array(get_design(design), ArrayGeometry(ROWS, COLS))
    array.load([random_word(COLS, rng, x_fraction=0.2) for _ in range(ROWS - 2)])
    if faulty:
        fm = FaultMap(ROWS, COLS)
        _faults(fm)
        array.attach_faults(fm)
    return array


def _keys(n: int = 10, seed: int = 4):
    rng = np.random.default_rng(seed)
    return [random_word(COLS, rng, x_fraction=0.15) for _ in range(n)]


def _assert_columns_match_items(batch: BatchOutcome) -> None:
    totals = batch.energy.totals()
    for i, item in enumerate(batch):
        first = -1 if item.first_match is None else item.first_match
        assert batch.first[i] == first
        assert batch.search_delay[i] == item.search_delay
        assert batch.cycle_time[i] == item.cycle_time
        assert totals[i] == item.energy.total


@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faulty"])
@pytest.mark.parametrize("sensing", sorted(DESIGNS))
class TestArrayBatch:
    def test_views_equal_scalar_reference(self, sensing, faulty):
        scalar = _array(DESIGNS[sensing], faulty)
        batched = copy.deepcopy(scalar)
        keys = _keys()
        batch = batched.search_batch(keys)
        assert isinstance(batch, BatchOutcome)
        for key, item in zip(keys, batch):
            ref = scalar.search(key)
            assert item.to_dict() == ref.to_dict()
            # to_dict compares the component map; the booking order too:
            assert list(item.energy) == list(ref.energy)

    def test_columns_equal_views(self, sensing, faulty):
        batch = _array(DESIGNS[sensing], faulty).search_batch(_keys())
        _assert_columns_match_items(batch)
        assert batch.match.shape == (len(batch), ROWS)
        errors = batch.columns["functional_errors"]
        assert [int(e) for e in errors] == [o.functional_errors for o in batch]

    def test_no_row_sensed_leaves_sensing_components_unbooked(self, sensing, faulty):
        """Keys routed through the reference body keep its ledgers: with
        every row masked off only SL, encoder and leakage book."""
        scalar = _array(DESIGNS[sensing], faulty)
        batched = copy.deepcopy(scalar)
        mask = np.zeros(ROWS, dtype=bool)
        keys = _keys(4)
        batch = batched.search_batch(keys, row_mask=mask)
        for key, item in zip(keys, batch):
            ref = scalar.search(key, row_mask=mask)
            assert list(item.energy) == list(ref.energy)
            assert item.to_dict() == ref.to_dict()
        assert batch.energy.totals().tolist() == [o.energy.total for o in batch]


class TestBatchOutcomeSequence:
    def test_items_are_built_once(self):
        batch = _array("fefet2t", False).search_batch(_keys(3))
        assert batch[1] is batch[1]
        assert batch[-1] is batch[2]
        with pytest.raises(IndexError):
            batch[3]

    def test_slices_and_concatenation_give_lists(self):
        batch = _array("fefet2t", False).search_batch(_keys(4))
        assert batch[1:3] == [batch[1], batch[2]]
        assert [batch[0]] + batch == [batch[0], *batch]
        assert batch + [batch[0]] == [*batch, batch[0]]

    def test_of_a_plain_list_keeps_its_items(self):
        array = _array("fefet2t", False)
        items = [array.search(k) for k in _keys(3)]
        batch = BatchOutcome.of(items)
        assert list(batch) == items
        _assert_columns_match_items(batch)


def _ledger(*pairs) -> EnergyLedger:
    ledger = EnergyLedger()
    for name, joules in pairs:
        ledger.add(name, joules)
    return ledger


class TestEnergyMatrix:
    """The matrix arithmetic against the ledger arithmetic it replaces."""

    LEDGERS = [
        _ledger(("sl", 1e-15), ("ml_precharge", 3.3e-15), ("leakage", 7e-18)),
        _ledger(("clock", 5e-14), ("sl", 2e-15), ("leakage", 1e-17)),
        _ledger(("leakage", 2e-17), ("sl", 0.1e-15), ("clock", 5e-14), ("link", 1e-13)),
        _ledger(),
    ]

    def test_rows_round_trip_with_their_booking_order(self):
        matrix = EnergyMatrix.from_ledgers(self.LEDGERS)
        for i, ledger in enumerate(self.LEDGERS):
            assert list(matrix.ledger(i)) == list(ledger)

    def test_totals_sum_in_booking_order(self):
        # The same three floats, booked in two orders that round apart.
        ledgers = [
            _ledger(("sl", 1.0), ("sa", 1e-16), ("leakage", 1e-16)),
            _ledger(("leakage", 1e-16), ("sa", 1e-16), ("sl", 1.0)),
        ]
        totals = EnergyMatrix.from_ledgers(ledgers).totals()
        assert totals.tolist() == [led.total for led in ledgers]
        assert totals[0] != totals[1]

    def test_merged_books_new_components_after_the_row(self):
        first, second = self.LEDGERS[:2], self.LEDGERS[2:4]
        merged = EnergyMatrix.from_ledgers(first).merged(EnergyMatrix.from_ledgers(second))
        for i, (a, b) in enumerate(zip(first, second)):
            assert list(merged.ledger(i)) == list(a + b)

    def test_merged_into_selected_rows(self):
        base = EnergyMatrix.from_ledgers(self.LEDGERS)
        part = EnergyMatrix.from_ledgers(self.LEDGERS[2:4])
        merged = base.merged(part, rows=np.array([3, 0]))
        expected = [self.LEDGERS[0] + self.LEDGERS[3], *self.LEDGERS[1:3],
                    self.LEDGERS[3] + self.LEDGERS[2]]
        for i, ledger in enumerate(expected):
            assert list(merged.ledger(i)) == list(ledger)

    def test_summed_equals_ledger_sum(self):
        matrix = EnergyMatrix.from_ledgers(self.LEDGERS)
        assert list(matrix.summed()) == list(EnergyLedger.sum(self.LEDGERS))

    def test_layout_holds_every_component_a_batch_books(self):
        assert {c.value for c in EnergyComponent} <= set(LAYOUT)
        assert {LINK_COMPONENT, DISTRIBUTION_COMPONENT, DISPATCH_COMPONENT} <= set(LAYOUT)
        with pytest.raises(ReproError, match="custom"):
            EnergyMatrix.from_ledgers([_ledger(("sl", 1e-15), ("custom", 2e-15))])

    def test_booking_order_of_a_fresh_matrix(self):
        matrix = EnergyMatrix.booking(("clock", "leakage"), 2)
        matrix.values[:, matrix.column("leakage")] = 1e-15
        matrix.booked[1, matrix.column("clock")] = False
        assert list(matrix.ledger(0)) == [("clock", 0.0), ("leakage", 1e-15)]
        assert list(matrix.ledger(1)) == [("leakage", 1e-15)]


class TestChipBatch:
    """Gated multi-bank chips book ``clock`` and idle ``leakage`` before
    the bank's components; both vary from key to key."""

    def _chip(self, gate: bool, segmented: bool = False):
        spec = get_design("fefet2t")
        geometry = ArrayGeometry(ROWS, COLS)
        if segmented:
            def build():
                return SegmentedBank(spec.build_cell(), geometry, probe_cols=4)
        else:
            def build():
                return build_array(spec, geometry)
        chip = TCAMChip(build, n_banks=3, gating=GatingPolicy(gate_idle_banks=gate))
        rng = np.random.default_rng(8)
        for bank in chip.banks:
            bank.load([random_word(COLS, rng, x_fraction=0.2) for _ in range(ROWS - 1)])
        return chip

    # Segmented banks have no standby power, so they idle at 0 s only.
    @pytest.mark.parametrize(
        "idle_time, segmented", [(0.0, False), (3e-9, False), (0.0, True)],
        ids=["flat", "flat-idle", "segmented"],
    )
    @pytest.mark.parametrize("gate", [False, True], ids=["ungated", "gated"])
    def test_views_equal_scalar_loop(self, gate, idle_time, segmented):
        scalar = self._chip(gate, segmented)
        batched = copy.deepcopy(scalar)
        keys = _keys(9)
        banks = [0, 0, 2, 1, 1, 0, 2, 2, 1]
        batch = batched.search_batch(keys, banks, idle_time=idle_time)
        orders = set()
        for key, bank, item in zip(keys, banks, batch):
            ref = scalar.search(key, bank, idle_time=idle_time)
            assert item.to_dict() == ref.to_dict()
            assert list(item.energy) == list(ref.energy)
            assert item.outcome.to_dict() == ref.outcome.to_dict()
            orders.add(item.energy.components())
        _assert_columns_match_items(batch)
        if gate:
            assert len(orders) > 1  # some keys woke their bank, some did not
