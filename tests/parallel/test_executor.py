"""Unit tests for the process-parallel executor primitives."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import ParallelError
from repro.parallel import (
    chunk_bounds,
    default_chunk_size,
    map_chunks,
    resolve_workers,
    scatter_gather,
    shutdown_pools,
    spawn_seeds,
)
from repro.parallel.executor import _get_pool


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert not obs.is_enabled()
    yield
    assert not obs.is_enabled()


# Worker functions must live at module level to pickle into real processes.
def _square(x: int) -> int:
    return x * x


def _sum_chunk(items: list[int]) -> list[int]:
    return [i + 1 for i in items]


def _traced_square(x: int) -> int:
    m = obs.metrics()
    if m is not None:
        m.counter("test.calls").inc()
    with obs.span("test.work", x=x):
        return x * x


def _slow_identity(i: int) -> int:
    import time

    time.sleep(0.05)
    return i


def _boom(x: int) -> int:
    raise ValueError(f"boom at {x}")


class TestChunkBounds:
    def test_partitions_exactly(self):
        bounds = chunk_bounds(10, 4)
        assert bounds == [(0, 4), (4, 8), (8, 10)]
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(10))

    def test_single_chunk_when_size_exceeds_items(self):
        assert chunk_bounds(3, 100) == [(0, 3)]

    def test_empty(self):
        assert chunk_bounds(0, 4) == []

    def test_bounds_never_depend_on_worker_count(self):
        # The partition is a pure function of (n_items, chunk_size).
        assert chunk_bounds(100, 7) == chunk_bounds(100, 7)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ParallelError):
            chunk_bounds(-1, 4)
        with pytest.raises(ParallelError):
            chunk_bounds(10, 0)

    def test_default_chunk_size(self):
        assert default_chunk_size(0) == 1
        assert default_chunk_size(5) == 1
        assert default_chunk_size(160) == 10
        with pytest.raises(ParallelError):
            default_chunk_size(-1)


class TestSpawnSeeds:
    def test_deterministic_and_independent(self):
        a = spawn_seeds(42, 4)
        b = spawn_seeds(42, 4)
        draws_a = [np.random.default_rng(s).random(3).tolist() for s in a]
        draws_b = [np.random.default_rng(s).random(3).tolist() for s in b]
        assert draws_a == draws_b
        # Children are mutually distinct streams.
        assert len({tuple(d) for d in draws_a}) == 4

    def test_accepts_seed_sequence(self):
        root = np.random.SeedSequence(7)
        assert len(spawn_seeds(root, 2)) == 2

    def test_invalid_count_raises(self):
        with pytest.raises(ParallelError):
            spawn_seeds(1, 0)


class TestResolveWorkers:
    def test_serial_values(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) == 1
        assert resolve_workers(-3) == 1
        assert resolve_workers(1) == 1

    def test_parallel_values(self):
        assert resolve_workers(2) == 2
        assert resolve_workers(8) == 8


class TestScatterGather:
    def test_empty(self):
        assert scatter_gather(_square, [], workers=4) == []

    def test_serial_matches_parallel(self):
        payloads = list(range(9))
        assert (
            scatter_gather(_square, payloads, workers=1)
            == scatter_gather(_square, payloads, workers=2)
            == scatter_gather(_square, payloads, workers=4)
            == [x * x for x in payloads]
        )

    def test_lambda_falls_back_to_serial(self):
        # Lambdas do not pickle; the pool is skipped, results still correct.
        assert scatter_gather(lambda x: x + 1, [1, 2, 3], workers=4) == [2, 3, 4]

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="boom at 2"):
            scatter_gather(_boom, [2], workers=2, span_prefix="t")
        with pytest.raises(ValueError, match="boom at 1"):
            scatter_gather(_boom, [1, 2, 3], workers=2)

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="boom at 1"):
            scatter_gather(_boom, [1], workers=1)


class TestMapChunks:
    def test_concatenates_in_order(self):
        items = list(range(23))
        out = map_chunks(_sum_chunk, items, workers=2, chunk_size=5)
        assert out == [i + 1 for i in items]

    def test_workers_do_not_change_result(self):
        items = list(range(40))
        results = {
            w: map_chunks(_sum_chunk, items, workers=w, chunk_size=7) for w in (1, 2, 4)
        }
        assert results[1] == results[2] == results[4]

    def test_empty(self):
        assert map_chunks(_sum_chunk, [], workers=4) == []


class TestObservabilityCapture:
    def test_chunk_spans_and_grafted_children(self):
        with obs.observe() as sess:
            scatter_gather(_traced_square, [1, 2, 3], workers=2, span_prefix="par")
        names = [sp.name for sp in sess.spans]
        assert names == ["par.chunk[0]", "par.chunk[1]", "par.chunk[2]"]
        for sp in sess.spans:
            assert [c.name for c in sp.children] == ["test.work"]

    def test_metrics_merged_equal_serial(self):
        with obs.observe() as serial:
            scatter_gather(_traced_square, [1, 2, 3, 4], workers=1)
        with obs.observe() as parallel:
            scatter_gather(_traced_square, [1, 2, 3, 4], workers=2)
        assert serial.metrics.snapshot() == parallel.metrics.snapshot()
        assert parallel.metrics.snapshot()["test.calls"] == 4.0

    def test_no_session_is_fine(self):
        assert scatter_gather(_traced_square, [3], workers=2) == [9]


class TestWarmPools:
    def test_pool_is_reused_across_calls(self):
        pool = _get_pool(2)
        assert _get_pool(2) is pool
        assert scatter_gather(_square, [1, 2, 3], workers=2) == [1, 4, 9]
        assert _get_pool(2) is pool, "scatter/gather must not rebuild the warm pool"

    def test_shutdown_pools_wait_drains_inflight_work(self):
        """shutdown_pools(wait=True) returns only after queued chunks ran."""
        pool = _get_pool(2)
        futures = [pool.submit(_slow_identity, i) for i in range(4)]
        shutdown_pools(wait=True)
        assert all(f.done() for f in futures)
        assert sorted(f.result() for f in futures) == [0, 1, 2, 3]
