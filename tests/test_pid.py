"""Controller-law and gain-search tests."""

import itertools
import math

import numpy as np
import pytest

from satgnc.dynamics import Torque
from satgnc.pid import (GAINS_FORMAT_VERSION, MC_MAX, PidGains, PidState,
                        default_gain_bounds, default_initial_gains, load_gains,
                        optimize_gains, pid_raw, pid_step, saturate, save_gains)

GAINS = PidGains(kp=(-2.0, -2.0, -2.0), kd=(-1.0, -1.0, -1.0),
                 kq=(-0.1, -0.1, -0.1), kw=(-0.05, -0.05, -0.05))


class TestSaturate:
    """The clamp pid_step applies to the raw command, per axis."""

    def test_inside_untouched(self):
        # proportional-only commands of -0.5, 0.5 and 0 N*m
        mc, raw = pid_step((0.25, -0.25, 0.0), (0.0, 0.0, 0.0), PidState(), GAINS, 0.01)
        assert mc == raw == Torque(-0.5, 0.5, 0.0)

    def test_clamped_per_axis(self):
        # raw commands of -3, 3 and 0.2 N*m against a 1 N*m bound
        mc, raw = pid_step((1.5, -1.5, -0.1), (0.0, 0.0, 0.0), PidState(), GAINS, 0.01)
        assert mc == Torque(-1.0, 1.0, 0.2)
        # the unsaturated command comes back too, computed before the step
        assert raw == pid_raw((1.5, -1.5, -0.1), (0.0, 0.0, 0.0), PidState(), GAINS)
        assert raw == Torque(-3.0, 3.0, 0.2)

    def test_invalid_bound(self):
        # the bound is the actuator's, MC_MAX, not a setting of the gains
        assert MC_MAX == 1.0
        with pytest.raises(TypeError, match="mc_max"):
            PidGains(GAINS.kp, GAINS.kd, mc_max=0.5)

    def test_nan_passes_through(self):
        # a NaN command is not a full negative torque: it stays NaN, so the
        # run diverges and is counted as failed
        for command in ([math.nan, 0.3, -2.0], np.array([math.nan, 0.3, -2.0])):
            mc = saturate(command)
            assert math.isnan(mc[0]) and mc[1:] == (0.3, -1.0)

    def test_matches_min_max_clamp(self):
        # every other value clamps as min(MC_MAX, max(-MC_MAX, v)) does
        values = [-math.inf, -2.0, -1.0, -0.9999999999999999, -0.0, 0.0, 1e-300,
                  1.0, 1.0000000000000002, 3.0, math.inf]
        for v in values:
            assert saturate((v, v, v)) == (min(MC_MAX, max(-MC_MAX, v)),) * 3


def generator_saturate(command):
    """saturate as it was written, with a generator expression: the reference."""
    return Torque(*(MC_MAX if v > MC_MAX else -MC_MAX if v < -MC_MAX else v for v in command))


def generator_pid_raw(qe_vec, w, state, gains):
    """pid_raw as it was written, with a generator expression: the reference."""
    return Torque(*(
        gains.kp[i] * qe_vec[i] + gains.kd[i] * w[i]
        + gains.kq[i] * state.int_qe[i] + gains.kw[i] * state.int_w[i]
        for i in range(3)))


class TestWrittenOut:
    """saturate and pid_raw are written out per axis; they equal their
    generator forms bit for bit."""

    def test_saturate_equals_generator_form(self):
        values = [math.nan, -math.inf, math.inf, -1.0, 1.0, -1.0000000000000002,
                  1.0000000000000002, -0.9999999999999999, -0.0, 0.0, 1e-300, -3.0, 3.0]
        for command in itertools.product(values, repeat=3):
            got, want = saturate(command), generator_saturate(command)
            assert type(got) is Torque
            assert np.array(got).tobytes() == np.array(want).tobytes(), command

    def test_pid_raw_equals_generator_form(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            gains = PidGains.from_vector(rng.normal(size=12))
            state = PidState(rng.normal(size=3).tolist(), rng.normal(size=3).tolist())
            qe, w = rng.normal(size=3).tolist(), rng.normal(size=3).tolist()
            assert (np.array(pid_raw(qe, w, state, gains)).tobytes()
                    == np.array(generator_pid_raw(qe, w, state, gains)).tobytes())


class TestControlLaw:
    def test_zero_error_zero_torque(self):
        state = PidState()
        mc, _ = pid_step((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), state, GAINS, 0.01)
        assert mc == Torque.zero()

    def test_proportional_term(self):
        state = PidState()
        mc = pid_raw((0.1, 0.0, 0.0), (0.0, 0.0, 0.0), state, GAINS)
        assert mc.m1 == pytest.approx(-0.2)
        assert mc.m2 == mc.m3 == 0.0

    def test_raw_matches_unsaturated_sum(self):
        state = PidState(int_qe=[0.5, 0.0, 0.0], int_w=[0.0, 0.2, 0.0])
        qe, w = (0.3, -0.1, 0.2), (0.05, 0.0, -0.4)
        raw = pid_raw(qe, w, state, GAINS)
        for i in range(3):
            want = (GAINS.kp[i] * qe[i] + GAINS.kd[i] * w[i]
                    + GAINS.kq[i] * state.int_qe[i] + GAINS.kw[i] * state.int_w[i])
            assert raw[i] == pytest.approx(want)

    def test_control_is_pure(self):
        # pid_raw reads the accumulators and never writes them (see pid_step)
        state = PidState(int_qe=[0.5, 0.0, 0.0], int_w=[0.0, 0.2, 0.0])
        pid_raw((0.3, 0.3, 0.3), (0.1, 0.1, 0.1), state, GAINS)
        assert state == PidState(int_qe=[0.5, 0.0, 0.0], int_w=[0.0, 0.2, 0.0])

    def test_step_advances_integrators(self):
        state = PidState()
        pid_step((0.1, 0.0, 0.0), (0.0, 0.2, 0.0), state, GAINS, 0.01)
        assert state.int_qe[0] == pytest.approx(0.001)
        assert state.int_w[1] == pytest.approx(0.002)

    def test_anti_windup_freezes_saturated_axis(self):
        state = PidState()
        # axis 1 saturates (kp * 1.0 = -2.0 beyond the bound), axis 2 does not
        mc, raw = pid_step((1.0, 0.01, 0.0), (0.0, 0.0, 0.0), state, GAINS, 0.01)
        assert mc.m1 == -1.0 and raw.m1 == -2.0
        assert state.int_qe[0] == 0.0
        assert state.int_qe[1] == pytest.approx(0.0001)

    def test_reset(self):
        # every run starts from a fresh state: cleared, and sharing no lists
        a, b = PidState(), PidState()
        assert a.int_qe == a.int_w == [0.0, 0.0, 0.0]
        pid_step((1.0, 0.01, 0.0), (0.0, 0.2, 0.0), a, GAINS, 0.01)
        assert b == PidState() != a


class TestGainsType:
    def test_vector_round_trip(self):
        v = GAINS.to_vector()
        assert len(v) == 12
        assert PidGains.from_vector(v) == GAINS

    def test_bad_vector_length(self):
        with pytest.raises(ValueError):
            PidGains.from_vector(np.zeros(11))

    def test_non_finite_gain_rejected(self):
        with pytest.raises(ValueError):
            PidGains((float("nan"), -1.0, -1.0), (-1.0,) * 3)

    def test_defaults_scale_with_inertia(self):
        g = default_initial_gains((1.5, 2.6, 3.0))
        assert g.kp == (-3.0, -5.2, -6.0)
        bounds = default_gain_bounds((1.5, 2.6, 3.0))
        assert len(bounds) == 12
        assert all(lo < hi for lo, hi in bounds)


class TestOptimize:
    @staticmethod
    def quadratic(center):
        def objective(gains):
            return float(np.sum((gains.to_vector() - center) ** 2))
        return objective

    def test_improves_on_quadratic(self):
        center = -np.linspace(0.5, 2.0, 12)
        initial = default_initial_gains((1.5, 2.6, 3.0))
        res = optimize_gains(self.quadratic(center), initial, budget=400)
        assert res.cost < self.quadratic(center)(initial)
        assert res.n_evaluations <= 400

    def test_deterministic(self):
        center = -np.ones(12)
        initial = default_initial_gains((1.5, 2.6, 3.0))
        a = optimize_gains(self.quadratic(center), initial, budget=200)
        b = optimize_gains(self.quadratic(center), initial, budget=200)
        assert a.gains == b.gains
        assert a.history == b.history

    def test_never_worse_than_initial(self):
        initial = default_initial_gains((1.5, 2.6, 3.0))

        def hostile(gains):
            return float("nan")  # every point non-finite

        res = optimize_gains(hostile, initial, budget=60)
        assert res.gains == initial

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            optimize_gains(lambda g: 0.0,
                           default_initial_gains((1.0, 1.0, 1.0)), budget=10)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "gains.ini"
        save_gains(GAINS, path, extra={"cost": 0.123})
        assert load_gains(path) == GAINS

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_gains(tmp_path / "nope.ini")

    def test_version_checked(self, tmp_path):
        path = tmp_path / "gains.ini"
        save_gains(GAINS, path)
        text = path.read_text().replace(f"version = {GAINS_FORMAT_VERSION}",
                                        "version = 999")
        path.write_text(text)
        with pytest.raises(ValueError, match="version"):
            load_gains(path)
