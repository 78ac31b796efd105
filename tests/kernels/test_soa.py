"""SoAState: matmul mismatch counts and snapshot isolation."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import build_array, get_design
from repro.errors import KernelError
from repro.kernels import SoAState
from repro.kernels.soa import ONE_THREAD_MNK, ROW_CHUNK
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

    def test_large_product_is_tiled_below_the_threading_threshold(self, monkeypatch):
        """A 1024-key batch on a 256x64 array runs as products OpenBLAS
        keeps on one thread, with counts identical to one product."""
        array = _loaded(rows=256, cols=64, x_fraction=0.1)
        soa = SoAState.from_array(array, version=0)
        rng = np.random.default_rng(3)
        packed = pack_keys([random_word(64, rng, 0.2) for _ in range(1024)])
        expected = mismatch_counts_batch(array._stored, packed)
        shapes = []
        matmul = np.matmul

        def recording(a, b, *args, **kwargs):
            shapes.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        got = soa.mismatch_counts(packed)
        monkeypatch.undo()
        assert np.array_equal(got, expected)
        assert len(shapes) > 1
        assert all(m * k * n < ONE_THREAD_MNK for m, k, n in shapes)
        assert all(n <= ROW_CHUNK for _, _, n in shapes)

    def test_large_batch_stays_on_the_calling_thread(self):
        """Process CPU time over wall time stays near 1.0: no BLAS worker
        thread computes beside the caller."""
        array = _loaded(rows=256, cols=64, x_fraction=0.1)
        soa = SoAState.from_array(array, version=0)
        rng = np.random.default_rng(3)
        packed = pack_keys([random_word(64, rng, 0.2) for _ in range(1024)])
        soa.search_counts(packed)
        time.sleep(0.5)  # let worker threads of earlier products park
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(20):
            soa.search_counts(packed)
        wall = time.perf_counter() - wall0
        assert (time.process_time() - cpu0) / wall < 1.3

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
