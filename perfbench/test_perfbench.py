"""Tests of the benchmark itself, on small inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench.bench import run  # noqa: E402
from perfbench.calibration import CAL_REFERENCE_S, ScaledClock  # noqa: E402
from perfbench.tracer import ARRAY_PATHS  # noqa: E402
from perfbench.workloads import WORKLOADS, FabricChurn, MCMargin  # noqa: E402

SELF_PARTS = (
    "bench.self_s",
    "serve.self_s",
    "cluster.self_s",
    "tcam.chip.self_s",
    "tcam.array.self_s",
    "kernels.self_s",
    "workloads.retrieval.merge_self_s",
    "analysis.mc.s",
)


def _declared(kind: str) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.fixture(scope="module")
def untraced():
    return {name: run(name, 0, 0.0, False, small=True, processes=1)
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: run(name, 0, 0.0, True, small=True) for name in WORKLOADS}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_times_sum_to_traced_wall(traced, name):
    metrics = traced[name][0]["metrics"]
    parts = sum(metrics[p]["value"] for p in SELF_PARTS)
    assert parts == pytest.approx(metrics["trace.wall_s"]["value"], rel=1e-9)
    assert "trace.overhead_share" in metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_path_counters_sum_to_array_calls(traced, name):
    metrics = traced[name][0]["metrics"]
    paths = sum(metrics[f"tcam.array.path.{p}"]["value"] for p in ARRAY_PATHS)
    assert paths == metrics["tcam.array.calls"]["value"]


def test_each_layer_does_the_work_where_predicted(traced):
    def m(name, metric):
        return traced[name][0]["metrics"][metric]["value"]

    assert m("fabric_churn", "tcam.array.path.kernel") > 0
    assert m("fabric_churn", "tcam.array.path.faulty") == 0
    assert m("fabric_churn", "cluster.update.calls") > 0
    assert m("fabric_worn", "faults.faulty_key_share") == 1.0
    assert m("fabric_worn", "cluster.update.calls") == 0
    assert m("retrieval_topk", "cluster.search.calls") == 0
    assert m("retrieval_topk", "serve.batches") == 0
    assert m("retrieval_topk", "workloads.retrieval.bank_calls") > 0
    assert m("mc_margin", "tcam.array.calls") == 0
    assert m("mc_margin", "analysis.mc.s") > 0
    for name in ("fabric_churn", "retrieval_topk"):
        assert m(name, "kernels.rows_built.timed") == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_no_failed_ops_at_default_seed(untraced, traced, name):
    for result, info in (untraced[name], traced[name]):
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert info["ops_failed_share"] == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_result_and_info_are_plain_json(untraced, traced, name):
    for result, info in (untraced[name], traced[name]):
        assert json.loads(json.dumps(result)) == result
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert isinstance(result["attempted"], int)
        assert isinstance(result["failed"], int)
        json.dumps(info)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_metric_names_match_the_declaration(untraced, traced, name):
    assert set(untraced[name][0]["metrics"]) == _declared("end_to_end")
    assert set(traced[name][0]["metrics"]) == _declared("per_layer")
    for metric in untraced[name][0]["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_changes_inputs_not_metric_names(untraced, name):
    result0, info0 = untraced[name]
    result1, info1 = run(name, 1, 0.0, False, small=True, processes=1)
    assert info1["digest"] != info0["digest"]
    assert set(result1["metrics"]) == set(result0["metrics"])
    assert result1["correct"]


def test_same_seed_gives_the_same_outputs(untraced):
    _, info = run("fabric_churn", 0, 0.0, False, small=True, processes=1)
    assert info["digest"] == untraced["fabric_churn"][1]["digest"]
    assert info["modeled"] == untraced["fabric_churn"][1]["modeled"]


def test_parts_in_separate_processes_agree_with_one_process():
    one, info_one = run("fabric_churn", 0, 0.0, False, processes=1)
    two, info_two = run("fabric_churn", 0, 0.0, False, processes=2)
    assert one["correct"] and two["correct"]
    assert info_two["processes"] == 2
    assert info_two["digest"] == info_one["digest"]
    assert set(two["metrics"]) == set(one["metrics"])


def test_mc_margins_do_not_depend_on_worker_count():
    wl = MCMargin(0)
    try:
        array = wl.setup()
        serial = wl.rep(array, ScaledClock(None), workers=0).out["margins"]
        parallel = wl.rep(array, ScaledClock(None), workers=2).out["margins"]
    finally:
        wl.close()
    assert np.array_equal(serial, parallel)


def test_churn_checks_catch_a_wrong_winner():
    wl = FabricChurn(0, small=True)
    fabric = wl.setup()
    first = wl.rep(wl.fresh(fabric), ScaledClock(None))
    again = wl.rep(wl.fresh(fabric), ScaledClock(None))
    assert wl.check(first, fabric) == 0
    assert wl.compare(again, first) == 0
    again.out["row"][0] = 10_000
    assert wl.compare(again, first) == 1
    first.out["row"][0] = 10_000
    assert wl.check(first, fabric) == 1


def test_scaled_clock_divides_each_lap_by_its_slowness():
    probes = iter([0.010, 0.010, 0.020])
    clock = ScaledClock(lambda: next(probes))
    clock.add("op", 0.5)
    clock.lap()
    clock.add("op", 0.5)
    clock.add("batch", 0.25, counts=False)
    clock.lap()
    assert clock.raw["op"] == [0.5, 0.5]
    assert clock.scaled["op"] == pytest.approx(
        [0.5 * CAL_REFERENCE_S / 0.010, 0.5 * CAL_REFERENCE_S / 0.015])
    assert clock.scaled["batch"] == pytest.approx([0.25 * CAL_REFERENCE_S / 0.015])
