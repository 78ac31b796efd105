"""Tests for the design registry and array factory."""

from __future__ import annotations

import pytest

from repro.circuits.precharge import ClampedPrecharge, FullSwingPrecharge
from repro.core.designs import (
    DEFAULT_LV_SWING,
    DESIGN_NAMES,
    all_designs,
    build_array,
    get_design,
)
from repro.errors import DesignError
from repro.tcam import ArrayGeometry

GEO = ArrayGeometry(8, 16)


class TestRegistry:
    def test_six_designs_registered(self):
        assert len(DESIGN_NAMES) == 6

    def test_expected_names(self):
        assert set(DESIGN_NAMES) == {
            "cmos16t",
            "reram2t2r",
            "fefet2t",
            "fefet2t_lv",
            "fefet_cr",
            "fefet_nand",
        }

    def test_lookup_roundtrip(self):
        for name in DESIGN_NAMES:
            assert get_design(name).name == name

    def test_unknown_name_lists_valid_keys(self):
        with pytest.raises(DesignError, match="cmos16t"):
            get_design("nonsense")

    def test_proposed_flags(self):
        assert get_design("fefet2t_lv").is_proposed
        assert get_design("fefet_cr").is_proposed
        assert not get_design("cmos16t").is_proposed

    def test_all_designs_ordered_baselines_first(self):
        names = [s.name for s in all_designs()]
        assert names.index("cmos16t") < names.index("fefet2t_lv")

    def test_cell_factories_fresh_instances(self):
        spec = get_design("fefet2t")
        assert spec.build_cell() is not spec.build_cell()


class TestBuildArray:
    def test_baseline_gets_full_swing(self):
        arr = build_array(get_design("fefet2t"), GEO)
        assert isinstance(arr.precharge, FullSwingPrecharge)

    def test_lv_gets_clamped_precharge_at_default_swing(self):
        arr = build_array(get_design("fefet2t_lv"), GEO)
        assert isinstance(arr.precharge, ClampedPrecharge)
        assert arr.precharge.target_voltage() == pytest.approx(DEFAULT_LV_SWING)

    def test_cr_gets_race_sensing(self):
        arr = build_array(get_design("fefet_cr"), GEO)
        assert arr.sensing == "current_race"
        assert arr.race_amp is not None

    def test_swing_override(self):
        arr = build_array(get_design("fefet2t_lv"), GEO, ml_swing=0.4)
        assert arr.precharge.target_voltage() == pytest.approx(0.4)

    def test_sense_reference_tracks_swing(self):
        arr = build_array(get_design("fefet2t_lv"), GEO, ml_swing=0.4)
        assert arr.sense_amp.v_ref == pytest.approx(0.2)

    def test_swing_rejected_for_race_design(self):
        with pytest.raises(DesignError):
            build_array(get_design("fefet_cr"), GEO, ml_swing=0.5)

    def test_swing_above_vdd_rejected(self):
        with pytest.raises(DesignError):
            build_array(get_design("fefet2t_lv"), GEO, ml_swing=1.5)

    def test_vdd_override(self):
        arr = build_array(get_design("cmos16t"), GEO, vdd=0.8)
        assert arr.vdd == pytest.approx(0.8)

    def test_t_eval_override(self):
        arr = build_array(get_design("fefet2t"), GEO, t_eval=1e-9)
        assert arr.t_eval == pytest.approx(1e-9)

    def test_t_eval_rejected_for_current_race(self):
        """The race amp's cutoff sets the window; an override would be
        silently replaced, so it is refused."""
        with pytest.raises(DesignError, match="t_eval"):
            build_array(get_design("fefet_cr"), GEO, t_eval=1e-9)
