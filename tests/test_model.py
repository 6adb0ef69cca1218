import math
from dataclasses import replace

import numpy as np
import pytest

from nfscatter import (
    HyperfineSchedule,
    MirrorSpec,
    PulseSpec,
    SampleSpec,
    ScenarioConfig,
    ScenarioError,
    ScheduleEvent,
    build_schedule,
    delta_b_from_gamma,
    derived_timings,
    validate_scenario,
)
from nfscatter.model import CLEBSCH_A, DEFAULT_GAMMA, WAVE_NUMBER_K
from nfscatter.presets import preset_scenario

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA


class TestPhysConsts:
    def test_defaults(self):
        assert DEFAULT_GAMMA == pytest.approx(1.0 / 141.1)
        assert abs(CLEBSCH_A - math.sqrt(2.0 / 3.0)) < 1e-12

    def test_wave_number(self):
        # 2*pi*14.413/12.39842, i.e. a 0.8602 angstrom wavelength
        assert WAVE_NUMBER_K == pytest.approx(7.30412, abs=1e-4)
        assert 2.0 * math.pi / WAVE_NUMBER_K == pytest.approx(0.86022, abs=1e-4)


class TestDerivedTimings:
    def test_quoted_protocol_values(self):
        t = derived_timings(DB30)
        assert t.tau == pytest.approx(14.78, abs=0.01)
        assert t.t_invert == pytest.approx(7.39, abs=0.01)
        assert t.t_off == pytest.approx(22.16, abs=0.01)

    def test_unit_splitting(self):
        t = derived_timings(math.pi)
        assert (t.tau, t.t_invert, t.t_off) == (1.0, 0.5, 1.5)

    def test_doubling_halves_everything(self):
        a = derived_timings(0.7)
        b = derived_timings(1.4)
        assert b.tau == pytest.approx(a.tau / 2)
        assert b.t_invert == pytest.approx(a.t_invert / 2)
        assert b.t_off == pytest.approx(a.t_off / 2)

    def test_nonpositive_rejected(self):
        with pytest.raises(ScenarioError):
            derived_timings(0.0)
        with pytest.raises(ScenarioError):
            derived_timings(-1.0)


class TestBuildSchedule:
    def test_off_on_schedule(self):
        sched = build_schedule(
            [ScheduleEvent(22.16, "off"), ScheduleEvent(100.0, "on")],
            initial_level=DB30,
        )
        levels = [s.delta_b for s in sched.segments]
        assert levels == [DB30, 0.0, DB30]
        assert [s.t_start for s in sched.segments] == [0.0, 22.16, 100.0]

    def test_invert_then_off_then_on(self):
        sched = build_schedule(
            [ScheduleEvent(7.39, "invert"), ScheduleEvent(22.16, "off"), ScheduleEvent(100.0, "on")],
            initial_level=DB30,
        )
        assert [s.delta_b for s in sched.segments] == [DB30, -DB30, 0.0, -DB30]

    def test_empty_events_constant(self):
        sched = build_schedule([], initial_level=DB30)
        assert sched.segments == (type(sched.segments[0])(0.0, DB30),)
        assert sched.level_at(-5.0) == DB30
        assert sched.level_at(500.0) == DB30

    def test_invert_zero_rejected(self):
        with pytest.raises(ScenarioError, match="invert"):
            build_schedule([ScheduleEvent(1.0, "invert")], initial_level=0.0)

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ScenarioError, match="conflict"):
            build_schedule(
                [ScheduleEvent(5.0, "off"), ScheduleEvent(5.0, "set", 1.0)],
                initial_level=DB30,
            )

    def test_decreasing_times_rejected(self):
        with pytest.raises(ScenarioError):
            build_schedule(
                [ScheduleEvent(5.0, "off"), ScheduleEvent(4.0, "on")],
                initial_level=DB30,
            )

    def test_explicit_on_level(self):
        sched = build_schedule(
            [ScheduleEvent(2.0, "off"), ScheduleEvent(4.0, "on", -DB30)],
            initial_level=DB30,
        )
        assert sched.level_at(5.0) == -DB30


class TestValidateScenario:
    def test_fig2a_valid_with_derived_tau(self):
        sc = validate_scenario(preset_scenario("fig2a"))
        assert sc.tau == pytest.approx(math.pi / DB30)
        assert sc.eta_l == pytest.approx(6.0 * GAMMA)
        assert sc.config_hash

    def test_idempotent(self):
        sc = validate_scenario(preset_scenario("fig2a"))
        assert validate_scenario(sc) is sc

    def test_edited_validated_scenario_rejected(self):
        # its times already sit on the step grid, so validating the edit would round them twice
        sc = validate_scenario(preset_scenario("fig2c"))
        with pytest.raises(ScenarioError, match="validate its ScenarioConfig"):
            validate_scenario(replace(sc, dt=0.02))

    def test_coarse_dt_rejected(self):
        cfg = replace(preset_scenario("fig2a"), dt=1.0)
        with pytest.raises(ScenarioError, match="dt"):
            validate_scenario(cfg)

    def test_reflectivity_out_of_range_rejected(self):
        cfg = preset_scenario("fig2a")
        cfg = replace(cfg, mirror=replace(cfg.mirror, reflectivity=1.2))
        with pytest.raises(ScenarioError, match="reflectivity"):
            validate_scenario(cfg)

    def test_schedule_nudged_to_grid(self):
        cfg = ScenarioConfig(
            sample=SampleSpec(xi=0.1),
            pulse=PulseSpec(),
            mirror=MirrorSpec(reflectivity=0.0, delay_tau=0.0),
            schedule=build_schedule([ScheduleEvent(1.2341, "off")], initial_level=DB30),
            t_end=10.0,
            dt=0.01,
        )
        sc = validate_scenario(cfg)
        assert sc.schedule.segments[1].t_start == pytest.approx(1.23)
        assert any(n[0].startswith("schedule[") for n in sc.nudges)

    def test_tau_derivation_needs_nonzero_level(self):
        cfg = ScenarioConfig(
            sample=SampleSpec(xi=0.1),
            pulse=PulseSpec(),
            mirror=MirrorSpec(reflectivity=0.5, delay_tau=None),
            schedule=HyperfineSchedule.constant(0.0),
            t_end=10.0,
        )
        with pytest.raises(ScenarioError, match="delay_tau"):
            validate_scenario(cfg)

    def test_linear_regime_area_cap(self):
        with pytest.raises(ScenarioError, match="area"):
            PulseSpec(area=0.01).validate()

    def test_gaussian_needs_fwhm(self):
        with pytest.raises(ScenarioError, match="fwhm"):
            PulseSpec(mode="gaussian").validate()

    def test_impulsive_rejects_fwhm(self):
        # an impulsive kick has no envelope: a width there would move the hash and no result
        PulseSpec(fwhm=None).validate()
        with pytest.raises(ScenarioError, match="pulse.fwhm"):
            PulseSpec(fwhm=2.0).validate()

    def test_gaussian_must_start_two_widths_after_zero(self):
        # centred at t = 0 the envelope loses its head and 43 % of the response
        PulseSpec(mode="gaussian", fwhm=1.0, t0=2.0).validate()
        for t0 in (0.0, 1.99):
            with pytest.raises(ScenarioError, match="pulse.t0"):
                PulseSpec(mode="gaussian", fwhm=1.0, t0=t0).validate()


@pytest.mark.parametrize("field, value", [("n_depth", np.int64(51)), ("xi", np.float32(0.5))])
def test_numpy_scalar_rejected_with_field_name(field, value):
    # both passed validation and then raised a TypeError from the JSON scenario hash
    cfg = preset_scenario("single_pass")
    with pytest.raises(ScenarioError, match=f"sample.{field} must be"):
        validate_scenario(replace(cfg, sample=replace(cfg.sample, **{field: value})))
    # a numpy float64 is a Python float, and hashes like one
    plain = validate_scenario(replace(cfg, sample=replace(cfg.sample, xi=0.5)))
    assert validate_scenario(replace(cfg, sample=replace(cfg.sample, xi=np.float64(0.5)))).config_hash == plain.config_hash


def test_delta_b_helper():
    assert delta_b_from_gamma(30.0) == pytest.approx(DB30)
