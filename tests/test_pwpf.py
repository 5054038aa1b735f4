"""Pulse-modulator tests: trigger logic, steady states, duty-cycle behavior."""

import math

import numpy as np
import pytest

from satgnc.dynamics import Torque
from satgnc.pwpf import PwpfParams, PwpfState, pwpf_step

P = PwpfParams()
DT = 0.01


def run_constant(command, params=P, duration=10.0, state=None):
    """Step the modulator with one constant scalar command on axis 1."""
    state = state or PwpfState()
    outputs = []
    n = int(round(duration / DT))
    for _ in range(n):
        state, out = pwpf_step(state, Torque(command, 0.0, 0.0), DT, params)
        outputs.append(out.m1)
    return state, np.array(outputs)


class TestParams:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            PwpfParams(u_on=0.1, u_off=0.2)
        with pytest.raises(ValueError):
            PwpfParams(u_off=0.0)

    def test_positive_time_constant(self):
        with pytest.raises(ValueError):
            PwpfParams(tm=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_rejected(self, value):
        # a NaN gain never fires the thrusters; an infinite time constant
        # never charges the filter, and an infinite threshold never trips
        for field in ("km", "tm", "u_on", "thrust"):
            with pytest.raises(ValueError, match="finite|< inf"):
                PwpfParams(**{field: value})

    def test_dt_vs_time_constant_guard(self):
        with pytest.raises(ValueError, match="too coarse"):
            pwpf_step(PwpfState(), Torque.zero(), P.tm, P)


class TestReset:
    def test_clean_state(self):
        s = PwpfState()
        assert s.f == [0.0, 0.0, 0.0]
        assert s.firing == [0, 0, 0]

    def test_idempotent(self):
        # fresh states share no lists
        a, b = PwpfState(), PwpfState()
        a.f[0], a.firing[0] = 1.0, 1
        assert b == PwpfState()

    def test_reset_equals_fresh_after_zero_commands(self):
        s, _ = run_constant(0.0, duration=1.0)
        assert s == PwpfState()


class TestZeroAndThreshold:
    def test_zero_in_zero_out(self):
        _, out = run_constant(0.0, duration=5.0)
        assert np.all(out == 0.0)

    def test_subthreshold_never_fires(self):
        # lag steady state with no firing is Km * command; below the on
        # threshold the trigger can never trip
        command = 0.9 * P.u_on / P.km
        state, out = run_constant(command, duration=20.0)
        assert np.all(out == 0.0)
        assert abs(state.f[0] - P.km * command) < 1e-6

    def test_above_threshold_fires(self):
        command = 2.0 * P.u_on / P.km
        _, out = run_constant(command, duration=5.0)
        assert np.any(out != 0.0)

    def test_negative_command_fires_negative(self):
        _, out = run_constant(-0.5, duration=5.0)
        assert np.all(out <= 0.0)
        assert np.any(out == -P.thrust)


class TestOutputs:
    def test_three_level_output(self):
        _, out = run_constant(0.35, duration=10.0)
        assert set(np.unique(out)) <= {-P.thrust, 0.0, P.thrust}

    def test_axes_independent(self):
        state = PwpfState()
        for _ in range(500):
            state, out = pwpf_step(state, Torque(0.5, 0.0, -0.5), DT, P)
        assert state.firing[1] == 0
        assert state.f[1] == 0.0

    def test_hysteresis_no_retrigger_between_thresholds(self):
        # a mid-range command cycles; once off, |f| must climb back above
        # u_on before firing again
        state, _ = run_constant(0.15, duration=10.0)
        fired_transitions = []
        prev = state.firing[0]
        for _ in range(2000):
            state, out = pwpf_step(state, Torque(0.15, 0.0, 0.0), DT, P)
            if state.firing[0] != prev:
                if state.firing[0] != 0:  # turned on
                    assert abs(state.f[0]) >= P.u_on - 1e-9
                else:                      # turned off
                    assert abs(state.f[0]) <= P.u_off + 1e-9
                fired_transitions.append(state.firing[0])
            prev = state.firing[0]
        assert len(fired_transitions) > 2  # it actually cycles


class TestDutyCycle:
    def test_monotone_in_command(self):
        commands = np.linspace(0.15, 0.95, 9)
        duties = []
        for c in commands:
            _, out = run_constant(float(c), duration=10.0)
            duties.append(np.mean(np.abs(out) > 0.0))
        assert all(b >= a - 1e-12 for a, b in zip(duties, duties[1:]))
        assert duties[-1] > duties[0]

    def test_duty_matches_closed_form_lag_intervals(self):
        # steady cycling: the on-phase decays f from u_on to u_off with input
        # km*c - thrust, the off-phase recharges it with input km*c; both
        # durations follow from the exact first-order-lag solution
        for c in (0.12, 0.15, 0.18):
            e_on = P.km * c - P.thrust
            e_off = P.km * c
            t_on = P.tm * math.log((P.u_on - e_on) / (P.u_off - e_on))
            t_off = P.tm * math.log((e_off - P.u_off) / (e_off - P.u_on))
            want = P.thrust * t_on / (t_on + t_off)
            _, out = run_constant(c, duration=10.0)
            settled = out[len(out) // 2:]
            assert np.mean(settled) == pytest.approx(want, rel=0.10)

    def test_mean_output_tracks_demand_low_thresholds(self):
        # the periodic steady state of the lag gives
        # duty * thrust = km * c - mean(f); with thresholds small relative to
        # the scaled demand the classic approximation (~ km * c) holds
        params = PwpfParams(u_on=0.05, u_off=0.01)
        for c in (0.1, 0.15, 0.2):
            _, out = run_constant(c, params, duration=10.0)
            settled = out[len(out) // 2:]
            assert np.mean(settled) == pytest.approx(params.km * c, rel=0.20)

    def test_sign_reversal_drops_out_promptly(self):
        params = PwpfParams()
        state, _ = run_constant(0.9, params, duration=2.0)
        assert state.firing[0] == 1
        for _ in range(200):
            state, out = pwpf_step(state, Torque(-0.9, 0.0, 0.0), DT, params)
            if state.firing[0] <= 0:
                break
        assert state.firing[0] <= 0


class TestStepValidation:
    def test_dt_positive(self):
        with pytest.raises(ValueError):
            pwpf_step(PwpfState(), Torque.zero(), 0.0, P)

    def test_exact_lag_discretization(self):
        # one long step vs many short: the exponential update is exact for a
        # held input, so subdivision cannot change the result
        params = PwpfParams(u_on=5.0, u_off=1.0, km=1.0)  # never fires
        c = 0.5
        s1 = PwpfState()
        s1, _ = pwpf_step(s1, Torque(c, 0.0, 0.0), 0.02, params)
        s2 = PwpfState()
        for _ in range(2):
            s2, _ = pwpf_step(s2, Torque(c, 0.0, 0.0), 0.01, params)
        assert s1.f[0] == pytest.approx(s2.f[0], abs=1e-15)
        want = c * (1.0 - math.exp(-0.02 / params.tm))
        assert s1.f[0] == pytest.approx(want, abs=1e-15)
