"""Kernel search path: bit-identity with the scalar reference loop.

``search_batch`` runs on the compiled kernel and must never change a
single bit of any outcome: match masks, first match, delays, histograms,
and every per-component ledger float must equal the sequential scalar
``search()`` loop -- across designs, row masks, rewrites, fault maps,
and the RK4 fallback mix of a pinned engine grid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import all_designs, build_array, get_design
from repro.errors import TCAMError
from repro.faults.faultmap import FaultKind, FaultMap
from repro.kernels import KernelEngine
from repro.tcam import ArrayGeometry
from repro.tcam.trit import random_word

SEARCHABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]


def _loaded_pair(design_name, rows=16, cols=24, seed=7, x_fraction=0.2):
    """Two identically-written arrays: scalar reference, kernel batch."""
    spec = get_design(design_name)
    geo = ArrayGeometry(rows=rows, cols=cols)
    arrays = [build_array(spec, geo) for _ in range(2)]
    rng = np.random.default_rng(seed)
    words = [random_word(cols, rng, x_fraction) for _ in range(rows)]
    for i, w in enumerate(words):
        for a in arrays:
            a.write(i, w)
    return arrays


def _pin_grid(array, keys):
    """Install an engine whose grid stops at the median key's driven
    count, so the batch mixes table hits with RK4 fallbacks."""
    drivens = [int(np.count_nonzero(k.as_array() != 2)) for k in keys]
    array.kernel = KernelEngine(array, max_driven=int(np.median(drivens)))
    return array.kernel


def _keys(cols, n, seed, x_fraction=0.15):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction) for _ in range(n)]


def _assert_outcomes_identical(reference, kernel):
    assert len(reference) == len(kernel)
    for s, b in zip(reference, kernel):
        assert np.array_equal(s.match_mask, b.match_mask)
        assert s.first_match == b.first_match
        assert s.search_delay == b.search_delay
        assert s.cycle_time == b.cycle_time
        assert s.miss_histogram == b.miss_histogram
        assert s.functional_errors == b.functional_errors
        s_breakdown = s.energy.breakdown()
        b_breakdown = b.energy.breakdown()
        assert set(s_breakdown) == set(b_breakdown)
        for component, value in s_breakdown.items():
            # Exact float equality: the kernel must book the very same
            # numbers, not merely close ones.
            assert b_breakdown[component] == value, component
        assert s.energy.total == b.energy.total


class TestKernelEquivalence:
    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_bit_identical_to_scalar(self, design):
        scalar, kernel = _loaded_pair(design)
        keys = _keys(24, 24, seed=11)
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > 0
        assert kernel.kernel.rk4_fallbacks == 0

    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_row_mask(self, design):
        scalar, kernel = _loaded_pair(design)
        mask = np.zeros(16, dtype=bool)
        mask[::3] = True
        keys = _keys(24, 12, seed=13)
        _assert_outcomes_identical(
            [scalar.search(k, row_mask=mask) for k in keys],
            kernel.search_batch(keys, row_mask=mask),
        )

    def test_all_x_keys_and_repeats(self):
        """driven == 0 classes and back-to-back repeated keys."""
        scalar, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 6, seed=29)
        keys = [keys[0], keys[0]] + keys[1:] + _keys(24, 2, seed=31, x_fraction=1.0)
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )

    def test_rewrite_rebuilds_snapshot(self):
        """A write between batches must be visible to the kernel path."""
        scalar, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 8, seed=17)
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )
        rng = np.random.default_rng(19)
        new_word = random_word(24, rng, x_fraction=0.1)
        for a in (scalar, kernel):
            a.write(5, new_word)
            a.invalidate(2)
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )

    def test_engine_is_built_lazily(self):
        """No engine until first use; then one per array, never None."""
        scalar, kernel = _loaded_pair("fefet2t")
        scalar.search(_keys(24, 1, seed=3)[0])
        assert scalar._kernel is None
        engine = kernel.kernel
        assert engine is not None and kernel.kernel is engine


class TestKernelFallback:
    def test_max_driven_mix_is_bit_identical(self):
        """In-grid keys use the tables, the rest the RK4 reference path."""
        scalar, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 24, seed=37, x_fraction=0.3)
        engine = _pin_grid(kernel, keys)
        got = kernel.search_batch(keys)
        _assert_outcomes_identical([scalar.search(k) for k in keys], got)
        assert engine.table_hits > 0
        assert engine.rk4_fallbacks > 0

    def test_engine_of_another_array_is_rejected(self):
        scalar, kernel = _loaded_pair("fefet2t")
        with pytest.raises(TCAMError):
            kernel.kernel = KernelEngine(scalar)


class TestKernelWithFaults:
    def test_empty_fault_map_keeps_kernel_path(self):
        scalar, kernel = _loaded_pair("fefet2t")
        for a in (scalar, kernel):
            a.attach_faults(FaultMap(16, 24))
        keys = _keys(24, 10, seed=41)
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > 0

    def test_sa_offset_runs_on_kernel(self):
        """An offset SA takes its row off the nominal class; the batch
        still runs on the kernel and matches the scalar loop exactly."""
        scalar, kernel = _loaded_pair("fefet2t")
        for a in (scalar, kernel):
            fm = FaultMap(16, 24)
            fm.set_sa_offset(4, 0.03)
            a.attach_faults(fm)
        keys = _keys(24, 10, seed=43)
        before = kernel.kernel.table_hits
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )
        assert kernel.kernel.table_hits > before
        assert kernel.kernel.rk4_fallbacks == 0

    def test_cell_faults_run_on_kernel(self):
        scalar, kernel = _loaded_pair("fefet2t")
        for a in (scalar, kernel):
            fm = FaultMap(16, 24)
            fm.set_cell(3, 7, FaultKind.STUCK_MISS)
            fm.set_dead_row(9)
            a.attach_faults(fm)
        keys = _keys(24, 10, seed=47)
        _assert_outcomes_identical(
            [scalar.search(k) for k in keys], kernel.search_batch(keys)
        )


class TestKernelMetrics:
    def test_counters_reach_registry(self):
        _, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 16, seed=53, x_fraction=0.3)
        _pin_grid(kernel, keys)
        with obs.observe() as session:
            kernel.search_batch(keys)
            snapshot = session.metrics.snapshot()
        assert snapshot["kernels.table_hits"] == kernel.kernel.table_hits
        assert snapshot["kernels.rk4_fallbacks"] == kernel.kernel.rk4_fallbacks
        assert snapshot["kernels.table_hits"] > 0
        assert snapshot["kernels.rk4_fallbacks"] > 0

    def test_counters_are_deltas_per_batch(self):
        """A second observed batch books only its own increments."""
        _, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 8, seed=59)
        kernel.search_batch(keys)  # accrue un-observed counts first
        before = kernel.kernel.table_hits
        with obs.observe() as session:
            kernel.search_batch(keys)
            snapshot = session.metrics.snapshot()
        assert snapshot["kernels.table_hits"] == kernel.kernel.table_hits - before
        assert snapshot["kernels.table_hits"] > 0

    def test_path_counters(self):
        """One path count per array call; RK4 fallbacks per out-of-grid key."""
        scalar, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 16, seed=61, x_fraction=0.3)
        _pin_grid(kernel, keys)
        drivens = np.array([np.count_nonzero(k.as_array() != 2) for k in keys])
        fm = FaultMap(16, 24)
        fm.set_dead_row(1)
        with obs.observe() as session:
            kernel.search_batch(keys)
            kernel.search_batch(keys[:3])
            scalar.search(keys[0])
            scalar.attach_faults(fm)
            scalar.search_batch(keys[:2])
            scalar.search(keys[0])
            snapshot = session.metrics.snapshot()
        assert snapshot["tcam.path.kernel"] == 3
        assert snapshot["tcam.path.scalar"] == 2
        assert "tcam.path.faulty" not in snapshot
        expected = int(np.count_nonzero(drivens > kernel.kernel.max_driven))
        expected += int(np.count_nonzero(drivens[:3] > kernel.kernel.max_driven))
        assert expected > 0
        assert snapshot["tcam.path.rk4_fallback"] == expected

    def test_row_compilation_is_spanned(self):
        _, kernel = _loaded_pair("fefet2t")
        keys = _keys(24, 4, seed=67, x_fraction=0.0)
        with obs.observe() as session:
            kernel.search_batch(keys)
            kernel.search_batch(keys)
        names = [sp.name for root in session.tracer.roots for _, sp in root.walk()]
        assert names.count("kernels.build_row") == kernel.kernel.rows_built == 1
