"""Observability under process parallelism (trial-level fan-out).

Worker sessions are captured and grafted back into the parent span tree
(one ``<prefix>.chunk[i]`` child per chunk) and worker metric registries
merge in chunk order.  A search never fans out by itself, but a batch
search run as one worker's trial must keep the span-sum invariant after
grafting; the in-process search invariants live in
``tests/obs/test_invariants.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.analysis import run_margin_mc
from repro.analysis import montecarlo as mc_mod
from repro.core import build_array, get_design
from repro.devices.variability import NOMINAL_VARIATION
from repro.energy.accounting import EnergyLedger
from repro.parallel import scatter_gather
from repro.tcam import ArrayGeometry
from repro.tcam.trit import random_word


@pytest.fixture(autouse=True)
def _no_leaked_session():
    assert not obs.is_enabled()
    yield
    assert not obs.is_enabled()


def _loaded_array(rows=16, cols=32):
    array = build_array(get_design("fefet2t"), ArrayGeometry(rows, cols))
    content_rng = np.random.default_rng(1)
    array.load([random_word(cols, content_rng, x_fraction=0.25) for _ in range(rows)])
    return array


def _search_chunk(payload):
    """Worker payload: one batch search on the worker's copy of the array."""
    array, keys = payload
    return array.search_batch(keys)


class TestArrayInvariantUnderWorkers:
    def test_span_sum_equals_merged_ledgers_exactly(self):
        """A batch search run inside a worker keeps the span-sum invariant
        once its session is grafted under the parent's chunk span."""
        array = _loaded_array()
        rng = np.random.default_rng(11)
        keys = [random_word(32, rng) for _ in range(18)]
        payloads = [(array, keys[:9]), (array, keys[9:])]
        with obs.observe() as sess:
            results = scatter_gather(
                _search_chunk, payloads, workers=2, span_prefix="search"
            )
        assert [sp.name for sp in sess.spans] == ["search.chunk[0]", "search.chunk[1]"]
        for chunk, outcomes in zip(sess.spans, results):
            (root,) = chunk.children
            assert root.name == "array.search_batch"
            merged = EnergyLedger.sum(o.energy for o in outcomes)
            assert root.total_energy().as_dict() == merged.as_dict()
            assert root.total_energy().total == merged.total
            assert chunk.total_energy().as_dict() == merged.as_dict()


class TestMetricsUnderWorkers:
    def test_mc_chunk_spans_and_metrics(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "MC_CHUNK_SAMPLES", 16)
        array = build_array(get_design("fefet2t"), ArrayGeometry(8, 16))
        with obs.observe() as sess:
            run_margin_mc(array, NOMINAL_VARIATION, n_samples=40, seed=3, workers=2)
        names = [sp.name for sp in sess.spans]
        assert names == [f"mc.margin.chunk[{i}]" for i in range(3)]

    def test_disabled_obs_with_workers_is_fine(self, monkeypatch):
        monkeypatch.setattr(mc_mod, "MC_CHUNK_SAMPLES", 16)
        array = build_array(get_design("fefet2t"), ArrayGeometry(8, 16))
        result = run_margin_mc(array, NOMINAL_VARIATION, n_samples=40, seed=3, workers=2)
        assert result.n_samples == 40
        assert not obs.is_enabled()
