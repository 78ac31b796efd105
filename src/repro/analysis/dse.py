"""Design-space exploration over the cell registry.

The estimator protocol (:mod:`repro.energy.estimator`) makes every
registered cell's energy, leakage and area queryable through one
interface, so the design space becomes a plain cross-product:

    {cell} x {rows} x {cols} x {segmentation} x {sensing} x {VDD}

:func:`run_dse` evaluates each :class:`DesignPoint` on one shared random
workload (every point at a geometry sees the same stored words and keys;
the points run through the parallel :class:`~repro.analysis.sweep.Sweep`
engine) and reduces the cloud to its Pareto frontier: minimize energy
per stored bit, search delay, area per stored bit and write
energy/latency, maximize match accuracy.  Multi-bit (``seemcam``) and
analog (``fecam``) cells make the accuracy axis meaningful -- they buy
density with sub-unity per-cell decision accuracy, a trade invisible to
any single-objective ranking.

:func:`registry_space` is the preset for the paper's design registry
(experiment R-F9): one point per design, Design LV once per ML swing,
ranked by energy per search, delay and sense margin.

Points that produce functional errors on the workload stay in the
report (the error count is part of the story -- analog windows stop
working at some word width) but are excluded from the frontier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ..core.designs import all_designs, periphery
from ..errors import AnalysisError
from ..tcam.array import ArrayGeometry, TCAMArray
from ..tcam.bank import SegmentedBank
from ..tcam.cells import get_cell, list_cells
from ..tcam.nand_array import NANDTCAMArray
from ..tcam.trit import Trit, random_word
from .sweep import Sweep

#: Objectives minimized / maximized by the frontier reduction.  The
#: search path contributes energy/delay/area, the write path its own
#: energy and latency (volatile CMOS writes in a nanosecond what a
#: ferroelectric program sequence takes hundreds of nanoseconds over),
#: and accuracy is the axis the dense multi-bit/analog cells pay on.
MINIMIZE = (
    "energy_per_bit",
    "search_delay",
    "area_f2_per_bit",
    "write_energy_per_bit",
    "write_latency",
)
MAXIMIZE = ("accuracy",)


@dataclass(frozen=True)
class DesignPoint:
    """One coordinate of the design space.

    Attributes:
        cell: Cell registry key (see :func:`repro.tcam.cells.list_cells`).
        rows: Array rows.
        cols: Array columns.
        segments: Probe-segment width for two-stage selective precharge;
            0 disables segmentation.
        sensing: ``"precharge"``, ``"current_race"`` or ``"nand"`` (the
            series FeFET string, ``fefet2t`` cells only).
        vdd: Supply override [V]; ``None`` uses the node nominal.
        ml_swing: Clamped match-line swing [V] for precharge sensing
            (Design LV); ``None`` precharges to full VDD.
    """

    cell: str
    rows: int
    cols: int
    segments: int = 0
    sensing: str = "precharge"
    vdd: float | None = None
    ml_swing: float | None = None

    def label(self) -> str:
        """Compact human-readable coordinate string."""
        parts = [self.cell, f"{self.rows}x{self.cols}", self.sensing]
        if self.segments:
            parts.append(f"seg{self.segments}")
        if self.vdd is not None:
            parts.append(f"{self.vdd:g}V")
        if self.ml_swing is not None:
            parts.append(f"vml{self.ml_swing:g}V")
        return "/".join(parts)


def default_space(
    cells: Sequence[str] | None = None,
    rows: Sequence[int] = (32,),
    cols: Sequence[int] = (16, 32),
    segments: Sequence[int] = (0,),
    vdds: Sequence[float | None] = (None,),
) -> tuple[DesignPoint, ...]:
    """Cross-product of the axes, with the invalid combinations dropped.

    Current-race sensing is included automatically for every cell at
    the flat (unsegmented) coordinates; segmentation composes with
    precharge sensing only, and probe widths that do not leave a tail
    segment are skipped.
    """
    names = tuple(cells) if cells is not None else list_cells()
    points: list[DesignPoint] = []
    for cell in names:
        for n_rows in rows:
            for n_cols in cols:
                for vdd in vdds:
                    for seg in segments:
                        if seg < 0 or seg >= n_cols:
                            continue
                        points.append(
                            DesignPoint(
                                cell=cell,
                                rows=n_rows,
                                cols=n_cols,
                                segments=seg,
                                sensing="precharge",
                                vdd=vdd,
                            )
                        )
                        if seg == 0:
                            points.append(
                                DesignPoint(
                                    cell=cell,
                                    rows=n_rows,
                                    cols=n_cols,
                                    segments=0,
                                    sensing="current_race",
                                    vdd=vdd,
                                )
                            )
    return tuple(points)


def registry_space(
    rows: int, cols: int, ml_swings: Sequence[float]
) -> tuple[tuple[str, DesignPoint], ...]:
    """``(design name, point)`` pairs for the design registry (R-F9).

    One point per :mod:`repro.core.designs` entry, at the node nominal
    supply; a design with a clamped ML swing (Design LV) appears once
    per value in ``ml_swings``.
    """
    pairs = []
    for spec in all_designs():
        swings = ml_swings if spec.ml_swing is not None else (None,)
        for swing in swings:
            point = DesignPoint(
                spec.cell_name, rows, cols, sensing=spec.sensing, ml_swing=swing
            )
            pairs.append((spec.name, point))
    return tuple(pairs)


def _check_searches(searches: int) -> None:
    if searches < 1:
        raise AnalysisError(f"searches must be >= 1, got {searches}")


def _build(point: DesignPoint):
    """Instantiate the array (segmented bank, NAND array) for one point."""
    geometry = ArrayGeometry(point.rows, point.cols)
    supply = point.vdd if point.vdd is not None else geometry.node.vdd_nominal
    cell = get_cell(point.cell, vdd=point.vdd)
    if point.sensing == "nand":
        if point.cell != "fefet2t" or point.segments or point.ml_swing is not None:
            raise AnalysisError(
                "NAND sensing is modeled for flat fefet2t arrays without an ML swing"
            )
        return cell, NANDTCAMArray(geometry, vdd=supply)
    if point.segments and point.sensing != "precharge":
        raise AnalysisError("segmentation composes with precharge sensing only")
    wiring = periphery(point.sensing, supply, point.ml_swing)
    if point.segments:
        return cell, SegmentedBank(cell, geometry, probe_cols=point.segments, **wiring)
    return cell, TCAMArray(cell, geometry, **wiring)


def _race_margin(array: TCAMArray) -> float:
    """Current-race timing slack of a matching line [V].

    The extra trip-point voltage a matching line could still have
    absorbed inside the race window, net of the column leakage.
    """
    race = array.race_amp
    net = race.i_race - array.geometry.cols * array.cell.i_leak(race.v_trip)
    if net <= 0.0:
        return 0.0
    return max(net * race.t_window / array.c_ml - race.v_trip, 0.0)


def evaluate_point(
    point: DesignPoint,
    searches: int = 8,
    seed: int = 0,
    x_fraction: float = 0.3,
) -> dict:
    """Measure one design point on the shared random workload.

    Returns the coordinate plus the objective metrics: energy per
    search and per stored bit, worst search delay and cycle time, total
    array area and area per stored bit, equivalent storage density,
    per-cell match accuracy, sense margin and the functional error
    count.

    Args:
        point: The coordinate to evaluate.
        searches: Random search keys.
        seed: Workload seed; every point draws its stored words and keys
            from ``np.random.default_rng(seed)``, so points of one
            geometry see identical traffic.
        x_fraction: Don't-care density of the stored words.

    The sense margin is ``sense_margin()`` of the array (the worse of
    the two stages of a segmented bank; the broken-minus-conducting
    string voltage for NAND) and the race slack for current-race
    sensing.  Arrays with a batch engine answer the keys in one
    ``search_batch`` (bit-identical to a scalar loop); others are
    searched key by key.

    Raises:
        AnalysisError: for ``searches < 1`` or an unbuildable point.
    """
    _check_searches(searches)
    cell, array = _build(point)
    rng = np.random.default_rng(seed)
    words = [
        random_word(point.cols, rng, x_fraction=x_fraction)
        for _ in range(point.rows)
    ]
    keys = [random_word(point.cols, rng) for _ in range(searches)]
    array.load(words)
    energy = 0.0
    delay = 0.0
    cycle = 0.0
    errors = 0
    if hasattr(array, "search_batch"):
        outcomes = array.search_batch(keys)
    else:
        outcomes = [array.search(key) for key in keys]
    for out in outcomes:
        energy += out.energy.total
        delay = max(delay, out.search_delay)
        cycle = max(cycle, out.cycle_time)
        errors += getattr(out, "functional_errors", 0)
    mean_energy = energy / searches
    if point.segments:
        margin = min(array.stage1.sense_margin(), array.stage2.sense_margin())
    elif point.sensing == "current_race":
        margin = _race_margin(array)
    else:
        margin = array.sense_margin()
    stored_bits = point.rows * point.cols * cell.bits_per_cell
    area_f2 = point.rows * point.cols * cell.area_f2
    # Write-path characterization: deterministic per cell (mean over
    # the nine trit transitions), so frontier membership on these axes
    # never flickers with the sampled workload.
    trits = (Trit.ZERO, Trit.ONE, Trit.X)
    write_costs = [cell.write_cost(old, new) for old in trits for new in trits]
    write_energy = sum(c.energy for c in write_costs) / len(write_costs)
    write_latency = max(c.latency for c in write_costs)
    return {
        "cell": point.cell,
        "rows": point.rows,
        "cols": point.cols,
        "segments": point.segments,
        "sensing": point.sensing,
        "vdd": point.vdd,
        "ml_swing": point.ml_swing,
        "label": point.label(),
        "bits_per_cell": cell.bits_per_cell,
        "stored_bits": stored_bits,
        "energy_per_search": mean_energy,
        "energy_per_bit": mean_energy / stored_bits,
        "search_delay": delay,
        "cycle_time": cycle,
        "area_f2": area_f2,
        "area_f2_per_bit": cell.area_f2 / cell.bits_per_cell,
        "write_energy_per_bit": write_energy / cell.bits_per_cell,
        "write_latency": write_latency,
        "accuracy": cell.match_accuracy(),
        "margin": margin,
        "functional_errors": errors,
    }


def pareto_frontier(
    rows: Sequence[dict],
    minimize: Sequence[str] = MINIMIZE,
    maximize: Sequence[str] = MAXIMIZE,
) -> tuple[int, ...]:
    """Indices of the non-dominated rows.

    Row ``b`` dominates row ``a`` when it is no worse on every
    objective and strictly better on at least one.
    """

    def dominates(b: dict, a: dict) -> bool:
        no_worse = all(b[m] <= a[m] for m in minimize) and all(
            b[m] >= a[m] for m in maximize
        )
        strictly = any(b[m] < a[m] for m in minimize) or any(
            b[m] > a[m] for m in maximize
        )
        return no_worse and strictly

    keep = []
    for i, row in enumerate(rows):
        if not any(dominates(other, row) for j, other in enumerate(rows) if j != i):
            keep.append(i)
    return tuple(keep)


@dataclass(frozen=True)
class DSEResult:
    """The evaluated cloud and its Pareto reduction.

    Attributes:
        points: One metrics row per evaluated design point.
        frontier_indices: Indices into ``points`` of the non-dominated,
            functionally clean rows.
    """

    points: tuple[dict, ...]
    frontier_indices: tuple[int, ...]

    @property
    def frontier(self) -> tuple[dict, ...]:
        """The non-dominated rows."""
        return tuple(self.points[i] for i in self.frontier_indices)

    def frontier_cells(self) -> tuple[str, ...]:
        """Distinct cell technologies on the frontier, in point order."""
        seen: dict[str, None] = {}
        for row in self.frontier:
            seen.setdefault(row["cell"], None)
        return tuple(seen)

    def to_dict(self) -> dict:
        return {
            "objectives": {
                "minimize": list(MINIMIZE),
                "maximize": list(MAXIMIZE),
            },
            "n_points": len(self.points),
            "frontier_size": len(self.frontier_indices),
            "frontier_cells": list(self.frontier_cells()),
            "frontier": [dict(row) for row in self.frontier],
            "points": [dict(row) for row in self.points],
        }


def run_dse(
    points: Sequence[DesignPoint],
    searches: int = 8,
    seed: int = 0,
    workers: int = 0,
) -> DSEResult:
    """Evaluate a design space and reduce it to the Pareto frontier.

    Args:
        points: The coordinates to evaluate (see :func:`default_space`).
        searches: Random search keys per point.
        seed: Workload seed, shared by every point.
        workers: Process count for the point fan-out (serial by default;
            rows are identical at every worker count).
    """
    if not points:
        raise AnalysisError("the design space is empty")
    _check_searches(searches)
    sweep = Sweep(
        knob="point",
        values=list(points),
        evaluate=partial(evaluate_point, searches=searches, seed=seed),
    )
    result = sweep.run(workers=workers)
    rows = tuple({k: v for k, v in row.items() if k != "point"} for row in result.rows)
    functional = [i for i, row in enumerate(rows) if row["functional_errors"] == 0]
    frontier_of_functional = pareto_frontier([rows[i] for i in functional])
    return DSEResult(
        points=rows,
        frontier_indices=tuple(functional[i] for i in frontier_of_functional),
    )
