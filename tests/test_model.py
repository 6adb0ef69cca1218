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
    Segment,
    derived_timings,
    validate_scenario,
)
from nfscatter.model import CLEBSCH_A, DEFAULT_GAMMA, WAVE_NUMBER_K
from nfscatter.presets import gated_mirror_scenario, preset_scenario

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


@pytest.mark.parametrize("name, levels", [
    ("fig2a", [DB30, 0.0, DB30]),
    # the field comes back on at 100 ns with the inverted level it had before switch-off
    ("fig2c", [DB30, -DB30, 0.0, -DB30]),
], ids=["fig2a", "fig2c"])
def test_protocol_preset_segments(name, levels):
    t = derived_timings(DB30)
    starts = [0.0, t.t_off, 100.0] if name == "fig2a" else [0.0, t.t_invert, t.t_off, 100.0]
    segs = preset_scenario(name).schedule.segments
    assert [s.delta_b for s in segs] == levels
    assert [s.t_start for s in segs] == starts


@pytest.mark.parametrize("name, config_hash", [
    ("fig2a", "e7c196628381"), ("fig2b", "1e23aea3b3a0"), ("fig2c", "c6c4ad725f06"), ("single_pass", "13c978bcfdbc"),
], ids=["fig2a", "fig2b", "fig2c", "single_pass"])
def test_preset_config_hash(name, config_hash):
    # the admissible-splitting check in gated_mirror_scenario moves no valid preset; the
    # hashes pin the default dt of 0.02 ns
    assert validate_scenario(preset_scenario(name)).config_hash == config_hash


@pytest.mark.parametrize("over_gamma", [5.0, 1.5 * math.pi / 100.0 / DEFAULT_GAMMA])
def test_switch_off_after_retrieval_rejected(over_gamma):
    # the field goes off at 1.5 pi/delta_b, which must come before it goes back on at 100 ns
    with pytest.raises(ScenarioError, match=r"switches the field off at 1\.5\*pi/delta_b = .* ns: after the "
                                            r"100 ns retrieval \(the splitting must exceed .* = 6\.65 gamma\)"):
        gated_mirror_scenario(delta_b_over_gamma=over_gamma)


@pytest.mark.parametrize("starts", [[0.0, 5.0, 4.0], [0.0, 5.0, 5.0], [1.0, 5.0]],
                         ids=["decreasing", "duplicate", "first_after_zero"])
def test_segment_start_times_rejected(starts):
    # start times strictly increase, and the first segment covers t = 0
    with pytest.raises(ScenarioError, match="schedule segment"):
        HyperfineSchedule(tuple(Segment(t, DB30) for t in starts))


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
        # its derived fields (n_steps, the nudged t_end, the hash) belong to the old values
        sc = validate_scenario(preset_scenario("fig2c"))
        with pytest.raises(ScenarioError, match="validate its ScenarioConfig"):
            validate_scenario(replace(sc, dt=0.01))

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
        # only t_end moves onto the step grid: a segment start between two steps keeps its
        # exact time, as do pulse.t0 and the snapshot times
        cfg = ScenarioConfig(
            sample=SampleSpec(xi=0.1),
            pulse=PulseSpec(),
            mirror=MirrorSpec(reflectivity=0.0, delay_tau=0.0),
            schedule=HyperfineSchedule((Segment(0.0, DB30), Segment(1.2341, 0.0))),
            t_end=10.004,
            dt=0.01,
            record_snapshots_at=(2.3456,),
        )
        cfg = replace(cfg, pulse=replace(cfg.pulse, t0=0.1234))
        sc = validate_scenario(cfg)
        assert sc.schedule == cfg.schedule and sc.pulse == cfg.pulse and sc.record_snapshots_at == (2.3456,)
        assert sc.nudges == (("t_end", 10.004, 10.0),)

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

