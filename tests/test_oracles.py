import math
from dataclasses import replace

import numpy as np
import pytest

from nfscatter import OracleCurve, envelope_attenuation, first_order_amplitude, relative_l2, run_scenario
from nfscatter.model import DEFAULT_GAMMA, HyperfineSchedule
from nfscatter.oracles import single_line_forward
from nfscatter.presets import single_pass_scenario

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA


class TestFirstOrderAmplitude:
    def test_zero_thickness(self):
        t = np.linspace(0.0, 100.0, 50)
        assert np.all(first_order_amplitude(0.0, GAMMA, DB30, t) == 0.0)

    def test_value_at_zero(self):
        assert first_order_amplitude(0.01, GAMMA, DB30, 0.0) == pytest.approx(-0.02 * GAMMA)

    def test_node_at_quarter_beat(self):
        t_node = 0.5 * math.pi / DB30
        assert abs(first_order_amplitude(1.0, GAMMA, DB30, t_node)) < 1e-15

    def test_sign_flips_at_odd_nodes(self):
        # sign alternates across every node delta_b*t = (2n+1)*pi/2;
        # sample the antinodes delta_b*t = n*pi between them
        for n in range(5):
            t_anti = n * math.pi / DB30
            val = first_order_amplitude(1.0, GAMMA, DB30, t_anti)
            assert math.copysign(1.0, val) == (-1.0 if n % 2 == 0 else 1.0)


def field_off_error(xi, n_depth):
    """relL2 of the field-off single_pass forward trace against the exact single-line response."""
    cfg = single_pass_scenario()
    cfg = replace(cfg, sample=replace(cfg.sample, xi=xi, n_depth=n_depth), schedule=HyperfineSchedule.constant(0.0))
    traces, _ = run_scenario(cfg)
    ref = single_line_forward(traces.t_grid, xi, cfg.pulse.area, DEFAULT_GAMMA)
    return float(np.linalg.norm(traces.fwd_amp - ref) / np.linalg.norm(ref))


class TestSingleLineForward:
    def test_thin_limit_is_first_order(self):
        t = np.linspace(0.0, 150.0, 301)
        exact = single_line_forward(t, 1e-6, 1e-3, GAMMA)
        born = 1e-3 * first_order_amplitude(1e-6, GAMMA, 0.0, t)
        assert np.allclose(exact, born, rtol=1e-5, atol=0.0)

    def test_dynamical_beat_node(self):
        # the first zero of J1 (3.8317) puts a node at t = 3.8317**2 / (8 gamma xi)
        t_node = 3.8317059702075125 ** 2 / (8.0 * GAMMA * 2.0)
        assert abs(single_line_forward(t_node, 2.0, 1e-3, GAMMA)) < 1e-15

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 5.0])
    def test_solver_matches_at_default_depth(self, xi):
        assert field_off_error(xi, 201) <= 1e-4

    def test_depth_convergence_is_second_order(self):
        n_depth = [51, 101, 201]
        errors = [field_off_error(1.0, n) for n in n_depth]
        slope = np.polyfit(np.log(np.array(n_depth) - 1.0), np.log(errors), 1)[0]
        assert 1.8 <= -slope <= 2.2


class TestEnvelopeAttenuation:
    def test_reference_value(self):
        assert envelope_attenuation(1.0, GAMMA, DB30) == pytest.approx(math.exp(-math.pi / 30.0))
        assert envelope_attenuation(1.0, GAMMA, DB30) == pytest.approx(0.9006, abs=2e-4)

    def test_no_scatterers(self):
        assert envelope_attenuation(0.0, GAMMA, DB30) == 1.0

    def test_balance_prediction(self):
        assert 0.99 / envelope_attenuation(1.0, GAMMA, DB30) == pytest.approx(1.099, abs=1e-3)

    def test_requires_positive_splitting(self):
        with pytest.raises(ValueError):
            envelope_attenuation(1.0, GAMMA, 0.0)


class TestRelativeL2:
    def test_identical(self):
        t = np.linspace(0.0, 10.0, 101)
        c = OracleCurve(t, np.cos(t))
        assert relative_l2(c, c, (0.0, 10.0)) == 0.0

    def test_one_percent_scale(self):
        t = np.linspace(0.0, 10.0, 101)
        ref = OracleCurve(t, np.cos(t) + 0j)
        scaled = OracleCurve(t, 1.01 * (np.cos(t) + 0j))
        assert relative_l2(scaled, ref, (0.0, 10.0)) == pytest.approx(0.01)

    def test_zero_reference_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="zero norm"):
            relative_l2(OracleCurve(t, np.ones(11)), OracleCurve(t, np.zeros(11)), (0.0, 1.0))

    def test_resampling_between_grids(self):
        t1 = np.linspace(0.0, 10.0, 401)
        t2 = np.linspace(0.0, 10.0, 97)
        a = OracleCurve(t1, np.sin(t1))
        b = OracleCurve(t2, np.sin(t2))
        assert relative_l2(a, b, (1.0, 9.0)) < 1e-3

    def test_monotone_grid_required(self):
        with pytest.raises(ValueError):
            OracleCurve(np.array([0.0, 2.0, 1.0]), np.zeros(3))
