"""Fault-injected batches: bit-identical to the scalar reference loop.

A non-empty fault map sends ``search_batch`` through the per-key faulty
loop, whose nominal classes come from the compiled kernel rows and whose
retention-degraded classes live in a memo tied to the fault-map version.
Every outcome -- masks, delays, histograms, error counts and each ledger
float in booking order -- must equal a per-key scalar ``search()`` on an
identically built array, for every fault kind and both sensing styles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import build_array, get_design
from repro.faults.faultmap import FaultKind, FaultMap
from repro.tcam import ArrayGeometry
from repro.tcam.trit import random_word

ROWS, COLS = 16, 20


def _stuck(fm):
    fm.set_cell(1, 2, FaultKind.STUCK_MATCH)
    fm.set_cell(4, 7, FaultKind.STUCK_MISS)
    fm.set_cell(9, 0, FaultKind.STUCK_TRIT, value=1)


def _retention(fm):
    fm.set_cell(2, 3, FaultKind.RETENTION, value=0.4)
    fm.set_cell(2, 11, FaultKind.RETENTION, value=0.15)
    fm.set_cell(7, 5, FaultKind.RETENTION, value=5.0)


def _dead_row(fm):
    fm.set_dead_row(3)
    fm.set_dead_row(12)


def _sa_offset(fm):
    fm.set_sa_offset(5, 0.03)
    fm.set_sa_offset(10, -0.02)


def _everything(fm):
    for inject in (_stuck, _retention, _dead_row, _sa_offset):
        inject(fm)


MAPS = {
    "stuck": _stuck,
    "retention": _retention,
    "dead_row": _dead_row,
    "sa_offset": _sa_offset,
    "all": _everything,
}
DESIGNS = {"precharge": "fefet2t", "current_race": "fefet_cr"}


def _pair(design, inject):
    """Two identically written arrays carrying equal fault maps."""
    spec = get_design(design)
    rng = np.random.default_rng(3)
    words = [random_word(COLS, rng, x_fraction=0.2) for _ in range(ROWS - 2)]
    arrays = []
    for _ in range(2):
        array = build_array(spec, ArrayGeometry(ROWS, COLS))
        array.load(words)
        fm = FaultMap(ROWS, COLS)
        inject(fm)
        array.attach_faults(fm)
        arrays.append(array)
    return arrays


def _keys(n=14, seed=5):
    rng = np.random.default_rng(seed)
    return [random_word(COLS, rng, x_fraction=0.15) for _ in range(n)]


def _assert_identical(reference, batch):
    assert len(reference) == len(batch)
    for s, b in zip(reference, batch):
        assert np.array_equal(s.match_mask, b.match_mask)
        assert s.first_match == b.first_match
        assert s.search_delay == b.search_delay
        assert s.cycle_time == b.cycle_time
        assert s.miss_histogram == b.miss_histogram
        assert s.functional_errors == b.functional_errors
        # Item lists compare the booking order as well as the floats.
        assert list(s.energy) == list(b.energy)


@pytest.mark.parametrize("sensing", sorted(DESIGNS))
@pytest.mark.parametrize("fault", sorted(MAPS))
def test_faulty_batch_equals_scalar_loop(sensing, fault):
    scalar, batch = _pair(DESIGNS[sensing], MAPS[fault])
    keys = _keys()
    reference = [scalar.search(k) for k in keys]
    _assert_identical(reference, batch.search_batch(keys))
    assert scalar._last_drive == batch._last_drive


@pytest.mark.parametrize("sensing", sorted(DESIGNS))
def test_faulty_batch_with_row_mask(sensing):
    scalar, batch = _pair(DESIGNS[sensing], _everything)
    mask = np.arange(ROWS) % 3 != 0
    keys = _keys(8, seed=7)
    _assert_identical(
        [scalar.search(k, row_mask=mask) for k in keys],
        batch.search_batch(keys, row_mask=mask),
    )


def _retention_integrations(array, keys) -> int:
    """Number of retention-class RK4 passes one batch triggers."""
    with obs.observe() as session:
        array.search_batch(keys)
    return sum(
        1
        for root in session.tracer.roots
        for _, sp in root.walk()
        if sp.name == "array.integrate_faulty"
    )


class TestRetentionMemo:
    def test_memo_survives_write(self):
        _, array = _pair("fefet2t", _retention)
        keys = _keys(6, seed=11)
        assert _retention_integrations(array, keys) > 0
        memo = dict(array._retention_memo)
        assert memo
        array.write(0, random_word(COLS, np.random.default_rng(13)))
        assert array._retention_memo == memo
        assert _retention_integrations(array, keys) == 0

    def test_fault_map_mutation_invalidates_memo(self):
        scalar, array = _pair("fefet2t", _retention)
        keys = _keys(6, seed=11)
        _retention_integrations(array, keys)
        assert array._retention_memo
        for a in (scalar, array):
            a.faults.set_cell(2, 3, FaultKind.RETENTION, value=0.9)
        assert _retention_integrations(array, keys) > 0
        # The rebuilt memo serves the new map: still equal to the scalar
        # path (which replays the same key sequence first).
        for k in keys + keys:
            scalar.search(k)
        _assert_identical([scalar.search(k) for k in keys], array.search_batch(keys))

    def test_reattach_clears_memo(self):
        _, array = _pair("fefet2t", _retention)
        _retention_integrations(array, _keys(4, seed=17))
        assert array._retention_memo
        fm = FaultMap(ROWS, COLS)
        _retention(fm)
        array.attach_faults(fm)
        assert not array._retention_memo
