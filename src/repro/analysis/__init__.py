"""Analyses: margin, Monte-Carlo, yield, sweeps, disturb, closed forms."""

from .margin import MarginAnalysis, worst_case_margin
from .montecarlo import MonteCarloResult, run_margin_mc
from .montecarlo_array import (
    ArrayMCResult,
    SampledFeFETArray,
    critical_keys,
    run_array_mc,
)
from .faultcampaign import (
    FaultCampaignResult,
    FaultDensityPoint,
    run_fault_campaign,
)
from .yieldest import failure_rate_vs_sigma, search_failure_probability
from .sweep import Sweep, SweepResult
from .dse import (
    DesignPoint,
    DSEResult,
    default_space,
    evaluate_point,
    pareto_frontier,
    registry_space,
    run_dse,
)
from .disturb import V_HALF, V_THIRD, DisturbAnalysis, DisturbPoint, WriteScheme
from .analytic import AnalyticEstimate, estimate_search_energy, relative_error
from .retention import YEAR_SECONDS, RetentionModel
from .throughput import ThroughputReport, characterize
from .sensitivity import (
    SensitivityEntry,
    default_energy_metric,
    default_margin_metric,
    tornado,
)

__all__ = [
    "MarginAnalysis",
    "worst_case_margin",
    "MonteCarloResult",
    "run_margin_mc",
    "SampledFeFETArray",
    "ArrayMCResult",
    "critical_keys",
    "run_array_mc",
    "FaultCampaignResult",
    "FaultDensityPoint",
    "run_fault_campaign",
    "search_failure_probability",
    "failure_rate_vs_sigma",
    "Sweep",
    "SweepResult",
    "DesignPoint",
    "DSEResult",
    "default_space",
    "evaluate_point",
    "pareto_frontier",
    "registry_space",
    "run_dse",
    "WriteScheme",
    "V_HALF",
    "V_THIRD",
    "DisturbAnalysis",
    "DisturbPoint",
    "AnalyticEstimate",
    "estimate_search_energy",
    "relative_error",
    "RetentionModel",
    "YEAR_SECONDS",
    "ThroughputReport",
    "characterize",
    "SensitivityEntry",
    "tornado",
    "default_energy_metric",
    "default_margin_metric",
]
