import math

import numpy as np
import pytest

from nfscatter import (
    beat_period,
    entanglement_report,
    excitation_pattern,
    intensities,
    storage_suppression,
)
from nfscatter.solver import CoherenceSnapshot, TraceSet

GAMMA = 1.0 / 141.1
DB30 = 30.0 * GAMMA
K = 2.0 * math.pi * 14.413 / 12.39842


def make_traces(t, fwd, bwd, in_beam=None, refl=0.0):
    fwd = np.asarray(fwd, dtype=float)
    bwd = np.asarray(bwd, dtype=float)
    if in_beam is None:
        in_beam = np.zeros(len(t), dtype=bool)
    detected = np.where(in_beam, math.sqrt(1.0 - refl) * fwd, fwd)
    return TraceSet(t_grid=np.asarray(t, dtype=float), fwd_amp=fwd, bwd_amp=bwd,
                    fwd_detected=detected, mirror_in_beam=in_beam, metadata={})


def make_snapshot(f_sum, b_sum, n=7):
    # proportional sublevel amplitudes carrying the given radiating sums
    half_f = np.full(n, 0.5 * f_sum, dtype=complex)
    half_b = np.full(n, 0.5 * b_sum, dtype=complex)
    return CoherenceSnapshot(t=50.0, f31=half_f, f42=half_f.copy(),
                             b31=half_b, b42=half_b.copy())


class TestIntensities:
    def test_zero(self):
        t = np.linspace(0, 1, 5)
        s = intensities(make_traces(t, np.zeros(5), np.zeros(5)))
        assert np.all(s.i_fwd == 0) and np.all(s.i_bwd == 0)

    def test_quadratic_scaling(self):
        t = np.linspace(0, 1, 5)
        a = intensities(make_traces(t, np.full(5, 1.0), np.zeros(5)))
        b = intensities(make_traces(t, np.full(5, 2.0), np.zeros(5)))
        assert np.allclose(b.i_fwd, 4 * a.i_fwd)

    def test_detected_attenuation(self):
        t = np.linspace(0, 1, 5)
        in_beam = np.array([True, True, False, False, False])
        s = intensities(make_traces(t, np.ones(5), np.zeros(5), in_beam, refl=0.99))
        assert s.i_fwd[0] == pytest.approx(0.01)
        assert s.i_fwd[-1] == pytest.approx(1.0)


class TestEntanglementReport:
    def test_equal_branches_symmetric(self):
        t = np.linspace(100, 200, 501)
        env = np.exp(-GAMMA * t / 2) * np.sin(DB30 * (t - 100.0))
        rep = entanglement_report(make_traces(t, env, env.copy()), (100.0, 200.0))
        assert rep.balance == pytest.approx(1.0)
        assert rep.mean_phase == pytest.approx(0.0, abs=1e-12)
        assert rep.classification == "symmetric"

    def test_opposite_branches_antisymmetric(self):
        t = np.linspace(100, 200, 501)
        env = np.exp(-GAMMA * t / 2) * np.sin(DB30 * (t - 100.0))
        rep = entanglement_report(make_traces(t, env, -env), (100.0, 200.0))
        assert rep.balance == pytest.approx(1.0)
        assert abs(abs(rep.mean_phase) - math.pi) < 1e-12
        assert rep.classification == "antisymmetric"

    def test_balance_scale_invariance(self):
        t = np.linspace(100, 200, 501)
        env = np.exp(-GAMMA * t / 2) * np.sin(DB30 * (t - 100.0))
        r1 = entanglement_report(make_traces(t, env, 0.9 * env), (100.0, 200.0))
        r2 = entanglement_report(make_traces(t, 7 * env, 6.3 * env), (100.0, 200.0))
        assert r1.balance == pytest.approx(r2.balance)

    def test_dead_branch_indeterminate(self):
        t = np.linspace(100, 200, 501)
        env = np.exp(-GAMMA * t / 2)
        rep = entanglement_report(make_traces(t, env, np.zeros_like(env)), (100.0, 200.0))
        assert rep.classification == "indeterminate"
        assert rep.balance == 0.0

    def test_bad_window_rejected(self):
        t = np.linspace(0, 10, 11)
        traces = make_traces(t, np.ones(11), np.ones(11))
        with pytest.raises(ValueError):
            entanglement_report(traces, (5.0, 5.0))
        with pytest.raises(ValueError):
            entanglement_report(traces, (5.0, 50.0))


class TestExcitationPattern:
    def test_equal_amplitudes_cosine(self):
        pat = excitation_pattern(make_snapshot(1.0, 1.0), K)
        assert np.argmax(pat.density) == 0
        node = np.argmin(np.abs(pat.s_grid - 0.25 * pat.period))
        assert pat.density[node] < 1e-24 * pat.density.max()

    def test_opposite_amplitudes_sine(self):
        pat = excitation_pattern(make_snapshot(1.0, -1.0), K)
        s_max = pat.s_grid[np.argmax(pat.density)]
        assert s_max == pytest.approx(0.25 * pat.period, abs=pat.s_grid[1])

    def test_single_branch_flat(self):
        pat = excitation_pattern(make_snapshot(1.0, 0.0), K)
        assert np.ptp(pat.density) < 1e-15 * pat.density.max()

    def test_modulation_period(self):
        pat = excitation_pattern(make_snapshot(1.0, 1.0), K)
        # intensity modulation repeats at half the carrier period
        assert 0.5 * pat.period == pytest.approx(0.430, abs=5e-4)

    def test_total_excitation_independent_of_phase(self):
        pat_integral = []
        for b in (1.0, -1.0, 1j):
            pat = excitation_pattern(make_snapshot(1.0, b), K)
            cell = pat.s_grid[1] - pat.s_grid[0]
            pat_integral.append(float(np.sum(pat.density) * cell))
        assert pat_integral[0] == pytest.approx(pat_integral[1], rel=1e-12)
        assert pat_integral[0] == pytest.approx(pat_integral[2], rel=1e-12)

    def test_empty_snapshot_rejected(self):
        with pytest.raises(ValueError, match="no excitation"):
            excitation_pattern(make_snapshot(0.0, 0.0), K)


class TestStorageSuppression:
    def synthetic(self, plateau):
        t = np.arange(0.0, 120.0, 0.02)
        beat = np.exp(-GAMMA * t / 2) * np.cos(DB30 * t)
        fwd = np.where(t < 22.0, beat, plateau * np.exp(-GAMMA * (t - 22.0) / 2))
        return make_traces(t, fwd, np.zeros_like(t))

    def test_ratio_matches_construction(self):
        traces = self.synthetic(plateau=1e-3)
        ratio = storage_suppression(traces, 22.0, 100.0)
        peak_before = np.max(np.abs(traces.fwd_amp[(traces.t_grid >= 17.0) & (traces.t_grid <= 22.0)]) ** 2)
        assert ratio == pytest.approx(1e-6 * math.exp(-GAMMA) / peak_before, rel=1e-2)

    def test_no_suppression_when_plateau_high(self):
        ratio = storage_suppression(self.synthetic(plateau=0.8), 22.0, 100.0)
        assert ratio > 0.3

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            storage_suppression(self.synthetic(1e-3), 100.0, 22.0)

    def test_constant_field_never_suppresses(self, single_pass_run):
        # nothing is switched off: the beat envelope just continues
        _, traces, _ = single_pass_run
        ratio = storage_suppression(traces, 22.163936, 100.0)
        assert ratio > 0.1


class TestBeatPeriod:
    def test_synthetic_cosine_beat(self):
        t = np.arange(0.0, 60.0, 0.005)
        inten = (np.cos(DB30 * t) ** 2) * np.exp(-GAMMA * t)
        period = beat_period(t, inten, (0.0, 59.9))
        assert period == pytest.approx(math.pi / DB30, rel=0.01)

    def test_doubled_splitting_halves_period(self):
        t = np.arange(0.0, 60.0, 0.005)
        one = beat_period(t, np.cos(DB30 * t) ** 2 * np.exp(-GAMMA * t), (0.0, 59.9))
        two = beat_period(t, np.cos(2 * DB30 * t) ** 2 * np.exp(-GAMMA * t), (0.0, 59.9))
        assert two == pytest.approx(0.5 * one, rel=0.01)

    def test_too_few_minima_rejected(self):
        t = np.arange(0.0, 10.0, 0.01)
        with pytest.raises(ValueError, match="minima"):
            beat_period(t, np.exp(-GAMMA * t), (0.0, 9.9))

    def test_shallow_wiggles_filtered(self):
        t = np.arange(0.0, 60.0, 0.01)
        # 5 percent ripple on a plateau must not register as beats
        inten = 1.0 + 0.05 * np.cos(DB30 * t)
        with pytest.raises(ValueError, match="minima"):
            beat_period(t, inten, (0.0, 59.9))
