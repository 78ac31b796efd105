"""Energy-aware design exploration: the LV swing solver and the Pareto front.

Shows the two analysis tools behind the paper's proposed designs:

1. ``minimum_ml_voltage`` -- the lowest match-line swing that still meets
   a sense-margin guardband, i.e. where Design LV is allowed to operate.
2. ``run_dse`` over ``registry_space`` -- the energy/delay/margin Pareto
   front over all designs.

Run:
    python examples/design_exploration.py
"""

from __future__ import annotations

import numpy as np

from repro import ArrayGeometry, get_design, minimum_ml_voltage
from repro.analysis.dse import pareto_frontier, registry_space, run_dse
from repro.core.ml_voltage import energy_vs_vml
from repro.units import eng

GEO = ArrayGeometry(rows=32, cols=64)


def main() -> None:
    lv = get_design("fefet2t_lv")

    # --- Swing sweep ------------------------------------------------------
    print("Design LV: energy and margin vs match-line swing (32x64 array)")
    print(f"{'V_ML [V]':>9s} {'margin [V]':>11s} {'E/search':>10s}")
    for report in energy_vs_vml(lv, GEO, np.array([0.3, 0.45, 0.55, 0.7, 0.9])):
        print(
            f"{report.v_ml:>9.2f} {report.margin:>11.3f} "
            f"{eng(report.energy_per_search, 'J'):>10s}"
        )

    # --- Margin-constrained floor ------------------------------------------
    for guardband in (10.0, 20.0, 30.0):
        v_min = minimum_ml_voltage(lv, GEO, guardband_sigmas=guardband)
        print(f"minimum V_ML for a {guardband:.0f}-sigma guardband: {v_min:.2f} V")

    # --- Pareto front --------------------------------------------------------
    print("\nDesign-space exploration (energy vs delay vs margin):")
    names, points = zip(*registry_space(GEO.rows, GEO.cols, (0.35, 0.45, 0.55, 0.7, 0.9)))
    rows = run_dse(points, searches=4, seed=77).points
    functional = [row for row in rows if row["functional_errors"] == 0]
    front = pareto_frontier(
        functional,
        minimize=("energy_per_search", "search_delay"),
        maximize=("margin",),
    )
    front_ids = {id(functional[i]) for i in front}
    print(f"{'design':14s} {'V_ML':>5s} {'E/search':>10s} {'delay':>9s} {'margin':>7s}  Pareto")
    for name, row in zip(names, rows):
        swing = f"{row['ml_swing']:.2f}" if row["ml_swing"] is not None else "-"
        star = "  *" if id(row) in front_ids else ""
        print(
            f"{name:14s} {swing:>5s} {eng(row['energy_per_search'], 'J'):>10s} "
            f"{eng(row['search_delay'], 's'):>9s} {row['margin']:>7.3f}{star}"
        )
    print(f"\n{len(front)}/{len(rows)} points are Pareto-optimal (*)")

if __name__ == "__main__":
    main()
