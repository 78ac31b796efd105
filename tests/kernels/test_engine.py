"""KernelEngine: compiled class rows, counters, sequential reductions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import all_designs, build_array, get_design
from repro.errors import KernelError
from repro.kernels import KernelEngine, PrechargeClassRow, RaceClassRow
from repro.tcam import ArrayGeometry

SEARCHABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]


def _array(design="fefet2t", rows=8, cols=12):
    return build_array(get_design(design), ArrayGeometry(rows=rows, cols=cols))


class TestSequentialSegmentSum:
    """The exact-summation rule of every batch ledger: each segment (one
    row of zero-padded classes) is summed by a row-wise ``np.cumsum``,
    which equals the sequential ``acc = acc + x`` loop bit for bit where
    pairwise ``np.sum`` does not."""

    def test_matches_left_to_right_loop_bitwise(self):
        """The whole point: bitwise equality with sequential accumulation."""
        rng = np.random.default_rng(42)
        # Wildly mixed magnitudes make pairwise vs sequential summation
        # visibly different at the ULP level.
        rows = rng.uniform(1e-30, 1.0, size=(60, 40)) * 10.0 ** rng.integers(-15, 15, (60, 40))
        rows[rng.random(rows.shape) < 0.5] = 0.0  # absent classes
        got = np.cumsum(rows, axis=1)[:, -1]
        pairwise_differs = False
        for i, row in enumerate(rows):
            acc = 0.0
            for x in row:
                acc = acc + x
            assert got[i] == acc, f"segment {i} diverged from sequential sum"
            pairwise_differs |= bool(np.sum(row) != acc)
        assert pairwise_differs

    def test_empty_segments_are_zero(self):
        """A segment whose classes are all absent sums to exactly 0.0."""
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
        got = np.cumsum(rows, axis=1)[:, -1]
        assert np.array_equal(got, [0.0, 3.0, 0.0])


class TestEngineRows:
    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_rows_match_array_class_helpers(self, design):
        """Every tabulated field equals the legacy per-class result."""
        array = _array(design)
        engine = KernelEngine(array, max_driven=8)
        for driven in (0, 3, 8):
            row = engine.row(driven)
            for n_miss in range(driven + 1):
                if array.sensing == "precharge":
                    assert isinstance(row, PrechargeClassRow)
                    ref = array._precharge_class_from_v_end(
                        engine.waveform.v_end(n_miss, driven)
                    )
                    assert row.v_end[n_miss] == ref.v_end
                    assert bool(row.is_match[n_miss]) == ref.is_match
                    assert row.e_restore[n_miss] == ref.e_restore
                    assert row.e_diss[n_miss] == ref.e_diss
                    assert row.e_sense[n_miss] == ref.e_sense
                    assert row.t_sense[n_miss] == ref.t_sense
                    assert row.t_restore[n_miss] == ref.t_restore
                else:
                    assert isinstance(row, RaceClassRow)
                    ref = array._signature_results(
                        [(n_miss, (), driven - n_miss, 0.0)]
                    )[0]
                    assert bool(row.is_match[n_miss]) == ref.is_match
                    assert row.energy[n_miss] == ref.energy
                    assert row.delay[n_miss] == ref.delay

    def test_rows_cached_and_read_only(self):
        engine = KernelEngine(_array(), max_driven=6)
        row = engine.row(4)
        assert engine.row(4) is row
        assert engine.rows_built == 1
        with pytest.raises(ValueError):
            row.e_sense[0] = 1.0

    def test_bad_max_driven_raises(self):
        with pytest.raises(KernelError):
            KernelEngine(_array(cols=12), max_driven=13)
        with pytest.raises(KernelError):
            KernelEngine(_array(), max_driven=-1)

    def test_out_of_grid_row_raises(self):
        engine = KernelEngine(_array(), max_driven=5)
        assert engine.in_grid(5) and not engine.in_grid(6)
        with pytest.raises(KernelError):
            engine.row(6)

    @pytest.mark.parametrize("design", SEARCHABLE)
    def test_validate_within_budget(self, design):
        engine = KernelEngine(_array(design), max_driven=6)
        engine.precompute()
        assert engine.validate(rtol=1e-9) == 0.0

    def test_counters_snapshot(self):
        engine = KernelEngine(_array(), max_driven=4)
        engine.precompute()
        counters = engine.counters()
        assert counters["rows_built"] == 5
        assert counters["table_hits"] == 0
        assert counters["rk4_fallbacks"] == 0
