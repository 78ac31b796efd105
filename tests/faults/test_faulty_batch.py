"""Fault-injected batches: bit-identical to the scalar reference loop.

A fault-injected ``search_batch`` runs on the compiled kernel like a
healthy one: nominal (key, row) pairs gather from the compiled class
rows, pairs whose retention-weakened pull-downs conduct or whose sense
amp is offset read the engine's signature memo.  Every outcome -- masks,
delays, histograms, error counts and each ledger float in booking order
-- must equal a per-key scalar ``search()`` on an identically built
array, for every fault kind and both sensing styles.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import build_array, get_design
from repro.faults.faultmap import FaultKind, FaultMap
from repro.kernels import KernelEngine
from repro.tcam import ArrayGeometry
from repro.tcam.trit import TernaryWord, random_word

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
    """Number of stacked signature integrations one batch triggers."""
    with obs.observe() as session:
        array.search_batch(keys)
    return sum(
        1
        for root in session.tracer.roots
        for _, sp in root.walk()
        if sp.name == "kernels.integrate_signatures"
    )


def _fresh_reference(array, keys):
    """Per-key scalar searches on an engine-less copy of ``array``."""
    fresh = copy.deepcopy(array)
    fresh._kernel = None
    return [fresh.search(k) for k in keys]


class TestRetentionMemo:
    def test_memo_survives_write(self):
        _, array = _pair("fefet2t", _retention)
        keys = _keys(6, seed=11)
        assert _retention_integrations(array, keys) > 0
        array.write(0, random_word(COLS, np.random.default_rng(13)))
        assert _retention_integrations(array, keys) == 0
        expected = _fresh_reference(array, keys)
        _assert_identical(expected, array.search_batch(keys))

    def test_fault_map_mutation_invalidates_memo(self):
        _, array = _pair("fefet2t", _retention)
        keys = _keys(6, seed=11)
        _retention_integrations(array, keys)
        array.faults.set_cell(2, 3, FaultKind.RETENTION, value=0.9)
        array.faults.set_sa_offset(2, 0.05)
        assert _retention_integrations(array, keys) > 0
        expected = _fresh_reference(array, keys)
        _assert_identical(expected, array.search_batch(keys))

    def test_reattach_matches_fresh_reference(self):
        _, array = _pair("fefet2t", _retention)
        keys = _keys(4, seed=17)
        _retention_integrations(array, keys)
        fm = FaultMap(ROWS, COLS)
        _retention(fm)
        fm.set_cell(2, 3, FaultKind.STUCK_MISS)
        fm.set_dead_row(7)
        array.attach_faults(fm)
        expected = _fresh_reference(array, keys)
        _assert_identical(expected, array.search_batch(keys))

    def test_deep_copy_shares_memo(self):
        _, array = _pair("fefet2t", _retention)
        keys = _keys(6, seed=11)
        assert _retention_integrations(array, keys) > 0
        twin = copy.deepcopy(array)
        assert _retention_integrations(twin, keys) == 0
        _assert_identical(_fresh_reference(array, keys), twin.search_batch(keys))


class TestFaultyKernelEdges:
    @pytest.mark.parametrize("sensing", sorted(DESIGNS))
    def test_pinned_grid_mixes_fallback_and_kernel(self, sensing):
        scalar, batch = _pair(DESIGNS[sensing], _everything)
        keys = _keys(16, seed=23)
        drivens = [int(np.count_nonzero(k.as_array() != 2)) for k in keys]
        engine = KernelEngine(batch, max_driven=int(np.median(drivens)))
        batch.kernel = engine
        _assert_identical([scalar.search(k) for k in keys], batch.search_batch(keys))
        assert engine.table_hits > 0
        assert engine.rk4_fallbacks > 0

    @pytest.mark.parametrize("sensing", sorted(DESIGNS))
    def test_every_sensed_row_dead(self, sensing):
        scalar, batch = _pair(DESIGNS[sensing], lambda fm: None)
        stored = [scalar.word_at(r) for r in range(ROWS - 2)]
        for a in (scalar, batch):
            fm = FaultMap(ROWS, COLS)
            for r in range(ROWS):
                fm.set_dead_row(r)
            a.attach_faults(fm)
        keys = stored[:4] + _keys(4, seed=29)
        reference = [scalar.search(k) for k in keys]
        _assert_identical(reference, batch.search_batch(keys))
        assert all(o.functional_errors > 0 for o in reference[:4])

    @pytest.mark.parametrize("sensing", sorted(DESIGNS))
    def test_row_mask_over_dead_rows(self, sensing):
        scalar, batch = _pair(DESIGNS[sensing], _dead_row)
        keys = [scalar.word_at(3), scalar.word_at(5)] + _keys(6, seed=31)
        for mask in (np.arange(ROWS) >= 3, np.isin(np.arange(ROWS), [3, 12])):
            _assert_identical(
                [scalar.search(k, row_mask=mask) for k in keys],
                batch.search_batch(keys, row_mask=mask),
            )

    def test_fault_metrics_match_scalar_loop(self):
        scalar, batch = _pair("fefet2t", _everything)
        keys = _keys(10, seed=37)
        totals = []
        for run in (lambda: [scalar.search(k) for k in keys],
                    lambda: batch.search_batch(keys)):
            with obs.observe() as session:
                run()
            snap = session.metrics.snapshot()
            totals.append(
                (snap["faults.searches"], snap["faults.functional_errors"])
            )
        assert totals[0] == totals[1]
        assert totals[0][0] == len(keys)


_KINDS = (
    FaultKind.STUCK_MATCH,
    FaultKind.STUCK_MISS,
    FaultKind.STUCK_TRIT,
    FaultKind.RETENTION,
)


@st.composite
def _fault_maps(draw):
    fm = FaultMap(ROWS, COLS)
    for _ in range(draw(st.integers(0, 24))):
        kind = draw(st.sampled_from(_KINDS))
        value = (
            draw(st.sampled_from([0.0, 1.0, 2.0]))
            if kind is FaultKind.STUCK_TRIT
            else draw(st.sampled_from([0.05, 0.15, 0.4, 1.0]))
        )
        fm.set_cell(draw(st.integers(0, ROWS - 1)), draw(st.integers(0, COLS - 1)),
                    kind, value)
    for r in draw(st.lists(st.integers(0, ROWS - 1), max_size=3)):
        fm.set_dead_row(r)
    for r in draw(st.lists(st.integers(0, ROWS - 1), max_size=3)):
        fm.set_sa_offset(r, draw(st.sampled_from([-0.03, 0.02, 0.04])))
    return fm


@pytest.mark.parametrize("sensing", sorted(DESIGNS))
@settings(max_examples=15, deadline=None)
@given(fm=_fault_maps(), seed=st.integers(0, 2**16))
def test_random_fault_maps_equal_scalar_loop(sensing, fm, seed):
    spec = get_design(DESIGNS[sensing])
    rng = np.random.default_rng(seed)
    words = [random_word(COLS, rng, x_fraction=0.2) for _ in range(ROWS - 1)]
    arrays = []
    for _ in range(2):
        array = build_array(spec, ArrayGeometry(ROWS, COLS))
        array.load(words)
        array.attach_faults(fm.copy())
        arrays.append(array)
    scalar, batch = arrays
    # Stored words (X columns driven to 0) hit the match classes the
    # faults disturb; random keys cover the miss classes.
    keys = [TernaryWord(np.where(w.as_array() == 2, 0, w.as_array())) for w in words[:4]]
    keys += [random_word(COLS, rng, x_fraction=0.15) for _ in range(6)]
    _assert_identical([scalar.search(k) for k in keys], batch.search_batch(keys))
