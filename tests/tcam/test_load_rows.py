"""Bulk row loading: ledger-identical to per-row writes, one version bump.

``TCAMArray.load_rows`` (and the chip-level wrapper) must store the very
same content, wear, valid bits and per-row write energies as a
sequential :meth:`write` loop -- while bumping the content version once
for the whole block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import all_designs, build_array, get_design
from repro.errors import CapacityError, TCAMError
from repro.tcam import ArrayGeometry
from repro.tcam.chip import GatingPolicy, TCAMChip
from repro.tcam.trit import random_word

WRITABLE = [spec.name for spec in all_designs() if spec.sensing != "nand"]


def _fresh_pair(design_name, rows=16, cols=12):
    spec = get_design(design_name)
    geo = ArrayGeometry(rows=rows, cols=cols)
    return build_array(spec, geo), build_array(spec, geo)


def _words(cols, n, seed, x_fraction=0.25):
    rng = np.random.default_rng(seed)
    return [random_word(cols, rng, x_fraction) for _ in range(n)]


def _assert_same_state(a, b):
    assert np.array_equal(a.stored_matrix(), b.stored_matrix())
    assert np.array_equal(a.valid_mask(), b.valid_mask())
    assert np.array_equal(a.wear_counts(), b.wear_counts())


class TestArrayLoadRows:
    @pytest.mark.parametrize("design", WRITABLE)
    def test_ledger_identical_to_write_loop(self, design):
        a, b = _fresh_pair(design)
        words = _words(12, 16, seed=3)
        ref = a.load(words)
        got = b.load_rows(words)
        _assert_same_state(a, b)
        assert list(ref.as_dict()) == list(got.as_dict())
        assert ref.as_dict() == got.as_dict()
        assert ref.total == got.total

    def test_overwrite_at_offset(self):
        a, b = _fresh_pair("fefet2t")
        base = _words(12, 16, seed=5)
        a.load(base)
        b.load(base)
        words = _words(12, 6, seed=7)
        ref = a.load(words, start_row=4)
        got = b.load_rows(words, start_row=4)
        _assert_same_state(a, b)
        assert ref.as_dict() == got.as_dict()

    def test_single_version_bump(self):
        a, _ = _fresh_pair("fefet2t")
        words = _words(12, 16, seed=9)
        before = a._content_version
        a.load_rows(words)
        assert a._content_version == before + 1

    def test_bounds_and_width_errors(self):
        a, _ = _fresh_pair("fefet2t")
        words = _words(12, 17, seed=11)
        with pytest.raises(TCAMError):
            a.load_rows(words)
        with pytest.raises(TCAMError):
            a.load_rows(_words(12, 4, seed=11), start_row=13)
        with pytest.raises(TCAMError):
            a.load_rows(_words(10, 2, seed=11))

    def test_empty_block_is_a_no_op(self):
        a, _ = _fresh_pair("fefet2t")
        before = a._content_version
        ledger = a.load_rows([])
        assert ledger.total == 0.0
        assert a._content_version == before
        assert not a.valid_mask().any()


class TestChipLoadRows:
    def _chip_pair(self, gating=None, n_banks=3, rows=8, cols=12):
        spec = get_design("fefet2t")
        geo = ArrayGeometry(rows=rows, cols=cols)

        def factory():
            return build_array(spec, geo)

        return (
            TCAMChip(factory, n_banks=n_banks, gating=gating),
            TCAMChip(factory, n_banks=n_banks, gating=gating),
        )

    def test_ledger_identical_to_write_loop_across_banks(self):
        ref_chip, bulk_chip = self._chip_pair()
        words = _words(12, 20, seed=13)  # spans 2.5 banks
        ref = ref_chip.load(words)
        got = bulk_chip.load_rows(words)
        for ra, rb in zip(ref_chip.banks, bulk_chip.banks):
            _assert_same_state(ra, rb)
        assert ref.as_dict() == got.as_dict()
        assert ref.total == got.total

    def test_start_row_offset_spans_bank_boundary(self):
        ref_chip, bulk_chip = self._chip_pair()
        words = _words(12, 10, seed=17)
        start = 5  # rows 5..14 touch banks 0 and 1
        from repro.energy.accounting import EnergyLedger

        ref_ledger = EnergyLedger()
        for i, w in enumerate(words):
            ref_ledger.merge(ref_chip.write(start + i, w))
        got = bulk_chip.load_rows(words, start_row=start)
        for ra, rb in zip(ref_chip.banks, bulk_chip.banks):
            _assert_same_state(ra, rb)
        assert ref_ledger.as_dict() == got.as_dict()

    def test_gated_chip_wakes_each_touched_bank_once(self):
        gating = GatingPolicy(
            gate_idle_banks=True, wakeup_latency=1e-9, wakeup_energy=2e-12
        )
        ref_chip, bulk_chip = self._chip_pair(gating=gating)
        words = _words(12, 20, seed=19)
        ref = ref_chip.load(words)
        got = bulk_chip.load_rows(words)
        assert ref.as_dict() == got.as_dict()

    def test_capacity_error(self):
        _, chip = self._chip_pair()
        with pytest.raises(CapacityError):
            chip.load_rows(_words(12, 25, seed=23))
        with pytest.raises(CapacityError):
            chip.load_rows(_words(12, 4, seed=23), start_row=22)
