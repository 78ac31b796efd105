"""Technique toggles and the ablation configuration.

The paper's energy-aware techniques compose; :class:`TechniqueSet` names a
combination and :func:`technique_grid` enumerates the ablation points that
benchmark R-T2 evaluates.  The techniques themselves are implemented in the
layers below (clamped precharge in :mod:`repro.circuits.precharge`,
selective precharge / early termination in :mod:`repro.tcam.bank`,
SL gating implicitly through the ternary drive encoding) -- this module is
the configuration surface that binds them to a runnable array or bank.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DesignError
from ..tcam.array import ArrayGeometry, TCAMArray
from ..tcam.bank import SegmentedBank
from .designs import DEFAULT_LV_SWING, build_array, get_design, periphery


@dataclass(frozen=True)
class TechniqueSet:
    """One point of the technique-ablation space.

    Attributes:
        low_voltage_ml: Use the clamped low-swing match line (Design LV).
        segmentation: Split the ML into probe + tail segments with
            selective precharge of the tail.
        early_termination: Skip the tail stage when no probes survive.
        probe_cols: Probe width when segmentation is on.
    """

    low_voltage_ml: bool = False
    segmentation: bool = False
    early_termination: bool = False
    probe_cols: int = 8

    def __post_init__(self) -> None:
        if self.early_termination and not self.segmentation:
            raise DesignError("early termination requires segmentation")
        if self.probe_cols < 1:
            raise DesignError(f"probe_cols must be >= 1, got {self.probe_cols}")

    @property
    def label(self) -> str:
        """Compact label for ablation tables (e.g. ``"LV+SEG+ET"``)."""
        parts = []
        if self.low_voltage_ml:
            parts.append("LV")
        if self.segmentation:
            parts.append("SEG")
        if self.early_termination:
            parts.append("ET")
        return "+".join(parts) if parts else "base"

    def build(self, geometry: ArrayGeometry) -> TCAMArray | SegmentedBank:
        """Instantiate a runnable FeFET array/bank with these techniques."""
        spec = get_design("fefet2t_lv" if self.low_voltage_ml else "fefet2t")
        swing = DEFAULT_LV_SWING if self.low_voltage_ml else None
        if not self.segmentation:
            return build_array(spec, geometry, ml_swing=swing)
        if self.probe_cols >= geometry.cols:
            raise DesignError(
                f"probe width {self.probe_cols} must be below cols {geometry.cols}"
            )
        return SegmentedBank(
            spec.build_cell(),
            geometry,
            probe_cols=self.probe_cols,
            early_terminate=self.early_termination,
            **periphery("precharge", geometry.node.vdd_nominal, swing),
        )


def technique_grid(probe_cols: int = 8) -> tuple[TechniqueSet, ...]:
    """The ablation points of benchmark R-T2, weakest to strongest."""
    return (
        TechniqueSet(),
        TechniqueSet(low_voltage_ml=True),
        TechniqueSet(segmentation=True, probe_cols=probe_cols),
        TechniqueSet(segmentation=True, early_termination=True, probe_cols=probe_cols),
        TechniqueSet(low_voltage_ml=True, segmentation=True, probe_cols=probe_cols),
        TechniqueSet(
            low_voltage_ml=True,
            segmentation=True,
            early_termination=True,
            probe_cols=probe_cols,
        ),
    )
