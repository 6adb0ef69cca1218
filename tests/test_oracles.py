import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from nfscatter.model import DEFAULT_GAMMA, DEPTH_NODES, HyperfineSchedule, ScenarioError, depth_nodes, envelope_attenuation
from nfscatter.presets import single_pass_scenario
from nfscatter.solver import run_scenario
from reference_oracles import (OracleCurve, constant_field_forward, first_order_amplitude, relative_l2,
                               single_line_forward)

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


def field_off_run(xi, n_depth, **kwargs):
    cfg = single_pass_scenario()
    cfg = replace(cfg, sample=replace(cfg.sample, xi=xi, n_depth=n_depth), schedule=HyperfineSchedule.constant(0.0),
                  **kwargs)
    return run_scenario(cfg)[0]


def rel_l2(got, ref):
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


@functools.lru_cache(maxsize=None)
def field_off_error(xi, n_depth, **kwargs):
    """relL2 of the field-off single_pass forward trace against the exact single-line response."""
    traces = field_off_run(xi, n_depth, **kwargs)
    return rel_l2(traces.fwd_amp, single_line_forward(traces.t_grid, xi, 1e-3, DEFAULT_GAMMA))


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

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 5.0])
    def test_solver_is_exact_to_rounding(self, xi):
        # spectral in depth and exact in time after a kick
        assert field_off_error(xi, 201) <= 1e-12

    def test_trace_does_not_depend_on_n_depth(self):
        # the collocation nodes follow xi alone: n_depth sets only the snapshot grid, so
        # the trace has no depth truncation left to converge
        traces = [field_off_run(1.0, n, t_end=40.0) for n in (51, 101, 201)]
        assert all(np.array_equal(tr.fwd_amp, traces[0].fwd_amp) for tr in traces[1:])

    @pytest.mark.filterwarnings("ignore:peak scattered")  # xi >= 80 passes the linear-regime monitor's 0.1 gamma
    @pytest.mark.parametrize("top, nodes", DEPTH_NODES)
    def test_depth_nodes_reach_their_bounds(self, top, nodes):
        # each row of the node rule at its largest xi, field off over 200 ns: within 1e-7 of
        # the exact response, and within 1e-12 up to xi = 10; the last row, the largest
        # thickness validation admits, stays within 1e-6
        assert depth_nodes(top) == nodes and nodes % 2 == 0
        err = field_off_error(top, 11, t_end=200.0, dt=0.02)
        assert err <= (1e-12 if top <= 10.0 else 1e-7), err
        if top == DEPTH_NODES[-1][0]:
            assert err <= 1e-6
            with pytest.raises(ScenarioError, match="sample.xi"):
                field_off_run(math.nextafter(top, math.inf), 11)


class TestConstantFieldForward:
    T = np.arange(8001) * 0.02  # 160 ns

    @pytest.mark.parametrize("xi", [0.5, 1.0, 2.0, 5.0])
    def test_field_off_is_single_line(self, xi):
        got = constant_field_forward(self.T, xi, 1e-3, GAMMA, 0.0)
        assert rel_l2(got, single_line_forward(self.T, xi, 1e-3, GAMMA)) <= 1e-11

    def test_thin_limit_is_first_order(self):
        # with the field on, the residual from the first scattering order is the second, ~ xi^2
        xis = np.array([1e-3, 2e-3, 4e-3])
        first = [first_order_amplitude(xi, GAMMA, DB30, self.T) for xi in xis]
        res = [np.linalg.norm(constant_field_forward(self.T, xi, 1e-3, GAMMA, DB30) / 1e-3 - f)
               for xi, f in zip(xis, first)]
        assert 1.95 <= np.polyfit(np.log(xis), np.log(res), 1)[0] <= 2.05
        assert res[0] <= 1e-3 * np.linalg.norm(first[0])

    @pytest.mark.parametrize("t", [np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 3.0]), np.array([0.0])])
    def test_needs_uniform_grid_from_zero(self, t):
        with pytest.raises(ValueError, match="uniform grid"):
            constant_field_forward(t, 1.0, 1e-3, GAMMA, DB30)

    @pytest.mark.parametrize("xi", [0.01, 1.0, 5.0])
    def test_solver_matches_with_field_on(self, xi):
        # the single_pass preset (xi = 0.01) and thick slabs, constant field at 30 gamma
        cfg = single_pass_scenario()
        traces, _ = run_scenario(replace(cfg, sample=replace(cfg.sample, xi=xi), dt=0.02))
        ref = constant_field_forward(traces.t_grid, xi, cfg.pulse.area, DEFAULT_GAMMA, DB30)
        assert rel_l2(traces.fwd_amp, ref) <= 1e-10


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
