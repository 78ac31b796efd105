"""The design-space explorer: space construction, metrics, frontier."""

from __future__ import annotations

import pytest

from repro.analysis.dse import (
    MAXIMIZE,
    MINIMIZE,
    DesignPoint,
    default_space,
    evaluate_point,
    pareto_frontier,
    run_dse,
)
from repro.errors import AnalysisError
from repro.tcam import TCAMArray
from repro.tcam.cells import list_cells


class TestSpaceConstruction:
    def test_default_space_covers_every_registered_cell(self):
        cells = {p.cell for p in default_space()}
        assert cells == set(list_cells())

    def test_current_race_only_at_flat_coordinates(self):
        space = default_space(cells=["fefet2t"], segments=(0, 4), cols=(16,))
        for p in space:
            if p.sensing == "current_race":
                assert p.segments == 0

    def test_degenerate_probe_widths_skipped(self):
        space = default_space(cells=["fefet2t"], segments=(0, 16, 99), cols=(16,))
        assert all(p.segments < 16 for p in space)

    def test_labels_are_unique(self):
        space = default_space(segments=(0, 4), vdds=(None, 0.8))
        labels = [p.label() for p in space]
        assert len(labels) == len(set(labels))

    def test_seed_key_is_stable_and_point_specific(self):
        a = DesignPoint("fefet2t", 8, 16)
        b = DesignPoint("fefet2t", 8, 16)
        c = DesignPoint("seemcam", 8, 16)
        assert a.seed_key(3) == b.seed_key(3)
        assert a.seed_key(3) != c.seed_key(3)
        assert a.seed_key(3) != a.seed_key(4)


class TestEvaluatePoint:
    def test_metrics_shape_and_signs(self):
        row = evaluate_point(DesignPoint("fefet2t", 8, 16), searches=2)
        for key in MINIMIZE:
            assert row[key] > 0.0
        assert 0.0 < row["accuracy"] <= 1.0
        assert row["functional_errors"] == 0
        assert row["stored_bits"] == 8 * 16
        assert row["label"] == "fefet2t/8x16/precharge"

    def test_multi_bit_cells_report_density(self):
        row = evaluate_point(DesignPoint("seemcam", 8, 16), searches=2)
        assert row["bits_per_cell"] == 2.0
        assert row["stored_bits"] == 2 * 8 * 16
        assert row["area_f2_per_bit"] < 74.0

    def test_segmented_point_cheaper_than_flat(self):
        flat = evaluate_point(DesignPoint("fefet2t", 16, 16), searches=4)
        seg = evaluate_point(
            DesignPoint("fefet2t", 16, 16, segments=4), searches=4
        )
        assert seg["energy_per_search"] < flat["energy_per_search"]

    def test_kernel_path_is_bit_identical(self, monkeypatch):
        """The batch answer equals a scalar ``search()`` reference run."""
        point = DesignPoint("fefet2t", 8, 16)
        kernel = evaluate_point(point, searches=4)

        def scalar_loop(array, keys, row_mask=None):
            return [array.search(k, row_mask) for k in keys]

        monkeypatch.setattr(TCAMArray, "search_batch", scalar_loop)
        assert evaluate_point(point, searches=4) == kernel

    def test_current_race_with_segments_rejected(self):
        bad = DesignPoint("fefet2t", 8, 16, segments=4, sensing="current_race")
        with pytest.raises(AnalysisError):
            evaluate_point(bad, searches=1)


class TestParetoFrontier:
    def test_dominated_rows_dropped(self):
        rows = [
            {m: 1.0 for m in (*MINIMIZE, *MAXIMIZE)},
            {m: 2.0 for m in MINIMIZE} | {m: 1.0 for m in MAXIMIZE},
        ]
        assert pareto_frontier(rows) == (0,)

    def test_trade_offs_both_survive(self):
        base = {m: 1.0 for m in (*MINIMIZE, *MAXIMIZE)}
        cheaper = dict(base, energy_per_bit=0.5, accuracy=0.9)
        assert pareto_frontier([base, cheaper]) == (0, 1)

    def test_equal_rows_both_survive(self):
        base = {m: 1.0 for m in (*MINIMIZE, *MAXIMIZE)}
        assert pareto_frontier([base, dict(base)]) == (0, 1)


class TestRunDSE:
    SPACE = default_space(
        cells=["fefet2t", "seemcam"], rows=(8,), cols=(16,), segments=(0,)
    )

    def test_empty_space_rejected(self):
        with pytest.raises(AnalysisError):
            run_dse([])

    def test_frontier_is_subset_of_cloud(self):
        result = run_dse(self.SPACE, searches=2)
        assert len(result.points) == len(self.SPACE)
        for idx in result.frontier_indices:
            assert result.points[idx] in result.frontier

    def test_rows_identical_across_worker_counts(self):
        serial = run_dse(self.SPACE, searches=2, workers=0)
        parallel = run_dse(self.SPACE, searches=2, workers=2)
        assert serial.points == parallel.points
        assert serial.frontier_indices == parallel.frontier_indices

    def test_error_points_reported_but_not_on_frontier(self, monkeypatch):
        # A functionally broken point stays in the cloud with its error
        # count but is barred from the frontier -- even when its metrics
        # would otherwise dominate everything.
        import repro.analysis.dse as dse_mod

        real = dse_mod.evaluate_point

        def flaky(point, **kwargs):
            row = real(point, **kwargs)
            if point.cell == "seemcam":
                row = dict(
                    row,
                    functional_errors=3,
                    energy_per_bit=row["energy_per_bit"] * 1e-6,
                )
            return row

        monkeypatch.setattr(dse_mod, "evaluate_point", flaky)
        result = dse_mod.run_dse(self.SPACE, searches=2)
        broken = [p for p in result.points if p["functional_errors"] > 0]
        assert broken
        for row in result.frontier:
            assert row["functional_errors"] == 0
            assert row["cell"] != "seemcam"

    def test_to_dict_round_trips_through_json(self):
        import json

        result = run_dse(self.SPACE, searches=2)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["n_points"] == len(self.SPACE)
        assert payload["frontier_size"] == len(result.frontier_indices)
        assert set(payload["frontier_cells"]) <= {"fefet2t", "seemcam"}
