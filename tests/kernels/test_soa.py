"""SoAState: matmul mismatch counts and snapshot isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import KernelError
from repro.kernels import SoAState
from repro.tcam import ArrayGeometry, mismatch_counts_batch, pack_keys
from repro.tcam.trit import random_word


def _loaded(rows=24, cols=20, seed=5, x_fraction=0.25):
    array = build_array(get_design("fefet2t"), ArrayGeometry(rows=rows, cols=cols))
    rng = np.random.default_rng(seed)
    for i in range(rows):
        array.write(i, random_word(cols, rng, x_fraction))
    return array


class TestMismatchCounts:
    @pytest.mark.parametrize("x_fraction", [0.0, 0.25, 0.6])
    def test_matches_reference_broadcast_counts(self, x_fraction):
        """Matmul counts equal the legacy broadcast counts bitwise."""
        array = _loaded(x_fraction=0.3)
        soa = SoAState.from_array(array, version=0)
        rng = np.random.default_rng(17)
        packed = pack_keys([random_word(20, rng, x_fraction) for _ in range(40)])
        expected = mismatch_counts_batch(array._stored, packed)
        got = soa.mismatch_counts(packed)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected)

    def test_planes_are_contiguous_float32(self):
        soa = SoAState.from_array(_loaded(), version=0)
        assert soa.planes.dtype == np.float32
        assert soa.planes.flags["C_CONTIGUOUS"]

    def test_shape_mismatch_raises(self):
        soa = SoAState.from_array(_loaded(cols=20), version=0)
        with pytest.raises(KernelError):
            soa.mismatch_counts(np.zeros((3, 21), dtype=np.int8))


class TestSnapshot:
    def test_snapshot_copies_do_not_alias(self):
        """Mutating the array after the snapshot must not change it."""
        array = _loaded()
        soa = SoAState.from_array(array, version=0)
        valid_before = soa.valid.copy()
        array.invalidate(0)
        assert np.array_equal(soa.valid, valid_before)
