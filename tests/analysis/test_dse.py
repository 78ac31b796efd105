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
    registry_space,
    run_dse,
)
from repro.core import get_design
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

    def test_nominal_supply_point_sees_the_same_workload(self):
        """Points differ only by their coordinates, not by a random draw:
        ``vdd=0.9`` is the node nominal, so every metric matches."""
        implicit = evaluate_point(DesignPoint("fefet2t", 8, 16), searches=4, seed=3)
        explicit = evaluate_point(
            DesignPoint("fefet2t", 8, 16, vdd=0.9), searches=4, seed=3
        )
        assert explicit["vdd"] == 0.9 and explicit["label"] != implicit["label"]
        coords = ("vdd", "label")
        assert {k: v for k, v in explicit.items() if k not in coords} == {
            k: v for k, v in implicit.items() if k not in coords
        }


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

    def test_margin_per_sensing_style(self):
        flat = evaluate_point(DesignPoint("fefet2t", 16, 16), searches=1)
        seg = evaluate_point(DesignPoint("fefet2t", 16, 16, segments=4), searches=1)
        race = evaluate_point(
            DesignPoint("fefet2t", 16, 16, sensing="current_race"), searches=1
        )
        nand = evaluate_point(DesignPoint("fefet2t", 16, 16, sensing="nand"), searches=1)
        for row in (flat, seg, race, nand):
            assert row["margin"] > 0.0
        # A 4-column probe resolves a one-trit miss more easily than the
        # full word; the bank reports its worse (tail) stage.
        assert flat["margin"] < seg["margin"]

    def test_clamped_swing_trades_margin_for_energy(self):
        full = evaluate_point(DesignPoint("fefet2t", 8, 16), searches=2)
        lv = evaluate_point(DesignPoint("fefet2t", 8, 16, ml_swing=0.45), searches=2)
        assert lv["label"] == "fefet2t/8x16/precharge/vml0.45V"
        assert lv["energy_per_search"] < full["energy_per_search"]
        assert lv["margin"] < full["margin"]

    @pytest.mark.parametrize(
        "point",
        [
            DesignPoint("cmos16t", 8, 16, sensing="nand"),
            DesignPoint("fefet2t", 8, 16, segments=4, sensing="nand"),
            DesignPoint("fefet2t", 8, 16, sensing="nand", ml_swing=0.5),
        ],
        ids=["foreign-cell", "segmented", "swing"],
    )
    def test_unmodeled_nand_points_rejected(self, point):
        with pytest.raises(AnalysisError):
            evaluate_point(point, searches=1)

    @pytest.mark.parametrize("searches", [0, -2])
    def test_non_positive_searches_rejected(self, searches):
        with pytest.raises(AnalysisError, match="searches must be >= 1"):
            evaluate_point(DesignPoint("fefet2t", 8, 16), searches=searches)

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

    R_F9 = dict(minimize=("energy_per_search", "search_delay"), maximize=("margin",))

    def test_lower_energy_dominates(self):
        base = {"energy_per_search": 1.0, "search_delay": 1.0, "margin": 1.0}
        cheaper = dict(base, energy_per_search=0.5)
        assert pareto_frontier([base, cheaper], **self.R_F9) == (1,)

    def test_higher_margin_dominates(self):
        base = {"energy_per_search": 1.0, "search_delay": 1.0, "margin": 1.0}
        robust = dict(base, margin=2.0)
        assert pareto_frontier([base, robust], **self.R_F9) == (1,)


class TestRunDSE:
    SPACE = default_space(
        cells=["fefet2t", "seemcam"], rows=(8,), cols=(16,), segments=(0,)
    )

    def test_empty_space_rejected(self):
        with pytest.raises(AnalysisError):
            run_dse([])

    def test_non_positive_searches_rejected(self):
        with pytest.raises(AnalysisError, match="searches must be >= 1"):
            run_dse(self.SPACE, searches=0)

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


class TestRegistrySpace:
    """The design-registry preset behind experiment R-F9."""

    OBJECTIVES = dict(
        minimize=("energy_per_search", "search_delay"), maximize=("margin",)
    )

    @pytest.fixture(scope="class")
    def result(self):
        names, points = zip(*registry_space(8, 24, (0.5, 0.9)))
        rows = run_dse(points, searches=3).points
        front = pareto_frontier(rows, **self.OBJECTIVES)
        return names, rows, front

    def test_point_count(self, result):
        # 5 designs without a swing knob + Design LV at 2 swings.
        names, rows, _ = result
        assert len(rows) == 7
        assert names.count("fefet2t_lv") == 2

    def test_points_follow_the_registry(self, result):
        names, rows, _ = result
        for name, row in zip(names, rows):
            spec = get_design(name)
            assert (row["cell"], row["sensing"]) == (spec.cell_name, spec.sensing)
            assert (row["ml_swing"] is None) == (spec.ml_swing is None)

    def test_front_is_mutually_non_dominated(self, result):
        _, rows, front = result
        assert front
        on_front = [rows[i] for i in front]
        assert pareto_frontier(on_front, **self.OBJECTIVES) == tuple(
            range(len(on_front))
        )

    def test_proposed_designs_reach_the_front(self, result):
        """At least one energy-aware design must be Pareto-optimal --
        otherwise the paper has no story."""
        names, _, front = result
        assert {names[i] for i in front} & {"fefet2t_lv", "fefet_cr"}

    def test_cmos_not_lowest_energy(self, result):
        names, rows, _ = result
        energy = dict(zip(names, (row["energy_per_search"] for row in rows)))
        lv = min(
            row["energy_per_search"]
            for name, row in zip(names, rows)
            if name == "fefet2t_lv"
        )
        assert lv < energy["cmos16t"]
