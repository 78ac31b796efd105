"""R-F9: the energy / delay / robustness Pareto front.

Regenerates the design-space figure: every design (with Design LV swept
over its swing knob) plotted in (energy, delay, margin) space and the
non-dominated subset extracted.  The expected shape: the proposed
designs populate the low-energy end of the front; CMOS survives only as
the maximum-margin corner; ReRAM is dominated.
"""

from __future__ import annotations

from repro.analysis.dse import pareto_frontier, registry_space, run_dse
from repro.reporting.table import Table
from repro.tcam import ArrayGeometry
from repro.units import eng

EXPERIMENT_ID = "R-F9_pareto"
GEO = ArrayGeometry(rows=32, cols=64)
SWINGS = (0.35, 0.45, 0.55, 0.70, 0.90)
SEED = 77


def evaluate_registry(geometry: ArrayGeometry, swings, searches: int):
    """``(design, row, on_front)`` per registry point, front over E/delay/margin."""
    names, points = zip(*registry_space(geometry.rows, geometry.cols, swings))
    rows = run_dse(points, searches=searches, seed=SEED).points
    functional = [row for row in rows if row["functional_errors"] == 0]
    front = pareto_frontier(
        functional,
        minimize=("energy_per_search", "search_delay"),
        maximize=("margin",),
    )
    front_ids = {id(functional[i]) for i in front}
    return [(name, row, id(row) in front_ids) for name, row in zip(names, rows)]


def build_table():
    result = evaluate_registry(GEO, SWINGS, searches=4)
    table = Table(
        title="R-F9: design-space exploration (32x64)",
        columns=["design", "V_ML [V]", "E/search", "delay", "margin [V]", "Pareto"],
    )
    for design, row, on_front in result:
        table.add_row(
            design,
            f"{row['ml_swing']:.2f}" if row["ml_swing"] is not None else "-",
            eng(row["energy_per_search"], "J"),
            eng(row["search_delay"], "s"),
            f"{row['margin']:.3f}",
            "*" if on_front else "",
        )
    return table, result


def test_fig9_pareto(benchmark, save_artifact):
    table, result = build_table()
    save_artifact(EXPERIMENT_ID, table.to_ascii())

    front_designs = {design for design, _, on_front in result if on_front}
    # Both proposed designs reach the front; ReRAM never does.
    assert "fefet2t_lv" in front_designs
    assert "fefet_cr" in front_designs
    assert "reram2t2r" not in front_designs
    # The global energy minimum is a proposed/extension design (on the
    # miss-dominated canonical workload the NAND extension takes it).
    best, _, _ = min(result, key=lambda entry: entry[1]["energy_per_search"])
    assert best in ("fefet2t_lv", "fefet_cr", "fefet_nand")
    # Every point is functional at the nominal corner.
    assert all(row["functional_errors"] == 0 for _, row, _ in result)

    benchmark(lambda: evaluate_registry(ArrayGeometry(8, 32), (0.55,), searches=2))
