"""The paper's contribution layer: energy-aware FeTCAM designs.

* :mod:`.designs` -- the named design registry (baselines + Design LV +
  Design CR) and the factory that instantiates arrays from it,
* :mod:`.ml_voltage` -- the match-line swing solver behind Design LV,
* :mod:`.selective` -- technique toggles (SL gating, early termination)
  and the ablation configuration type,
* :mod:`.segmentation` -- probe-width optimization for segmented search,
* :mod:`.advisor` -- workload-driven design recommendation.

Design-space exploration over the registry (R-F9) lives in
:mod:`repro.analysis.dse` (:func:`~repro.analysis.dse.registry_space`).
"""

from .designs import (
    DESIGN_NAMES,
    DesignSpec,
    all_designs,
    build_array,
    get_design,
)
from .ml_voltage import MarginReport, energy_vs_vml, margin_at_vml, minimum_ml_voltage
from .selective import TechniqueSet, technique_grid
from .segmentation import SegmentationPlan, expected_survivor_fraction, optimal_probe_width
from .advisor import Candidate, Recommendation, WorkloadProfile, advise

__all__ = [
    "DesignSpec",
    "DESIGN_NAMES",
    "get_design",
    "all_designs",
    "build_array",
    "MarginReport",
    "margin_at_vml",
    "minimum_ml_voltage",
    "energy_vs_vml",
    "TechniqueSet",
    "technique_grid",
    "SegmentationPlan",
    "expected_survivor_fraction",
    "optimal_probe_width",
    "WorkloadProfile",
    "Candidate",
    "Recommendation",
    "advise",
]
