"""Rigid-body dynamics and quaternion convention tests."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satgnc.dynamics import (AngularVelocity, BodyState, EulerAngles,
                             InertiaTensor, IntegrationDivergedError,
                             Quaternion, Torque, angular_momentum,
                             euler_to_quat, integrate_step, kinetic_energy, quat_multiply, quat_to_dcm,
                             quat_to_euler, quaternion_error)

NOMINAL = InertiaTensor(1.5, 2.6, 3.0)

RATES = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(lambda w: AngularVelocity(*w))
MOMENTS = st.tuples(*[st.floats(0.1, 10.0)] * 3).map(lambda i: InertiaTensor(*i))
UNIT_VECTORS = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda v: sum(x * x for x in v) > 1e-3).map(lambda v: Quaternion(*v).normalized())


TORQUES = st.tuples(*[st.floats(-5.0, 5.0)] * 3).map(lambda m: Torque(*m))


def closure_rk4(state, inertia, mc, md, dt):
    """integrate_step as it was written, with a right-hand-side closure
    called once per stage: the reference for its written-out form."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    i1, i2, i3 = inertia
    m1 = mc.m1 + md.m1
    m2 = mc.m2 + md.m2
    m3 = mc.m3 + md.m3

    q1, q2, q3, q4 = state.q
    w1, w2, w3 = state.w

    def rhs(q1, q2, q3, q4, w1, w2, w3):
        return (
            0.5 * (w3 * q2 - w2 * q3 + w1 * q4),
            0.5 * (-w3 * q1 + w1 * q3 + w2 * q4),
            0.5 * (w2 * q1 - w1 * q2 + w3 * q4),
            0.5 * (-w1 * q1 - w2 * q2 - w3 * q3),
            (m1 - (i3 - i2) * w2 * w3) / i1,
            (m2 - (i1 - i3) * w1 * w3) / i2,
            (m3 - (i2 - i1) * w2 * w1) / i3,
        )

    k1 = rhs(q1, q2, q3, q4, w1, w2, w3)
    h = 0.5 * dt
    k2 = rhs(q1 + h * k1[0], q2 + h * k1[1], q3 + h * k1[2], q4 + h * k1[3],
             w1 + h * k1[4], w2 + h * k1[5], w3 + h * k1[6])
    k3 = rhs(q1 + h * k2[0], q2 + h * k2[1], q3 + h * k2[2], q4 + h * k2[3],
             w1 + h * k2[4], w2 + h * k2[5], w3 + h * k2[6])
    k4 = rhs(q1 + dt * k3[0], q2 + dt * k3[1], q3 + dt * k3[2], q4 + dt * k3[3],
             w1 + dt * k3[4], w2 + dt * k3[5], w3 + dt * k3[6])

    s = dt / 6.0
    q1 += s * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    q2 += s * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    q3 += s * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    q4 += s * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    w1 += s * (k1[4] + 2.0 * k2[4] + 2.0 * k3[4] + k4[4])
    w2 += s * (k1[5] + 2.0 * k2[5] + 2.0 * k3[5] + k4[5])
    w3 += s * (k1[6] + 2.0 * k2[6] + 2.0 * k3[6] + k4[6])

    n = math.sqrt(q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4)
    if not (math.isfinite(n) and n > 0.0
            and math.isfinite(w1) and math.isfinite(w2) and math.isfinite(w3)):
        raise IntegrationDivergedError("state became non-finite during integration")
    return BodyState(Quaternion(q1 / n, q2 / n, q3 / n, q4 / n),
                     AngularVelocity(w1, w2, w3))


def random_quaternion(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


class TestQuaternionBasics:
    def test_identity_is_unit(self):
        assert Quaternion.identity().norm() == 1.0

    def test_normalize_zero_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0.0, 0.0, 0.0, 0.0).normalized()

    def test_conjugate_inverts_rotation(self):
        rng = np.random.default_rng(1)
        q = random_quaternion(rng)
        c = quat_to_dcm(q) @ quat_to_dcm(q.conjugate())
        np.testing.assert_allclose(c, np.eye(3), atol=1e-14)


class TestDcmAndMultiply:
    def test_dcm_orthonormal(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = quat_to_dcm(random_quaternion(rng))
            np.testing.assert_allclose(c @ c.T, np.eye(3), atol=1e-13)
            assert np.linalg.det(c) == pytest.approx(1.0, abs=1e-12)

    def test_multiply_composes_dcms(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p, q = random_quaternion(rng), random_quaternion(rng)
            left = quat_to_dcm(quat_multiply(p, q))
            right = quat_to_dcm(p) @ quat_to_dcm(q)
            np.testing.assert_allclose(left, right, atol=1e-14)

    def test_identity_neutral(self):
        rng = np.random.default_rng(4)
        q = random_quaternion(rng)
        assert quat_multiply(q, Quaternion.identity()) == pytest.approx(q)
        assert quat_multiply(Quaternion.identity(), q) == pytest.approx(q)


class TestEulerConversions:
    def test_round_trip_nominal(self):
        e = EulerAngles(10.0, 5.0, 10.0)
        back = quat_to_euler(euler_to_quat(e))
        assert back == pytest.approx(e, abs=1e-12)

    def test_zero_angles_identity(self):
        q = euler_to_quat(EulerAngles(0.0, 0.0, 0.0))
        assert q == pytest.approx(Quaternion.identity())

    def test_single_axis_rotations(self):
        for e in (EulerAngles(30.0, 0.0, 0.0), EulerAngles(0.0, 30.0, 0.0),
                  EulerAngles(0.0, 0.0, 30.0)):
            assert quat_to_euler(euler_to_quat(e)) == pytest.approx(e, abs=1e-12)

    @given(phi=st.floats(-179.0, 179.0), theta=st.floats(-89.0, 89.0),
           psi=st.floats(-179.0, 179.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, phi, theta, psi):
        e = EulerAngles(phi, theta, psi)
        back = quat_to_euler(euler_to_quat(e))
        np.testing.assert_allclose(back, [phi, theta, psi], rtol=0.0, atol=1e-8)

    def test_gimbal_lock_warns_and_zeros_yaw(self):
        e = EulerAngles(20.0, 90.0, 0.0)
        with pytest.warns(UserWarning, match="gimbal lock at 1 sample"):
            phi, theta, psi = quat_to_euler(euler_to_quat(e))
        assert psi == 0.0
        assert theta == pytest.approx(90.0, abs=1e-6)
        # the full in-plane rotation folds into roll at the singularity
        assert phi == pytest.approx(20.0, abs=1e-6)

    def test_columns_match_single_attitudes(self):
        # a record's (4, n) quaternion columns convert as each attitude does,
        # including the samples at the singularity, with one warning for all
        rng = np.random.default_rng(8)
        qs = [random_quaternion(rng) for _ in range(50)]
        qs += [euler_to_quat(EulerAngles(20.0, 90.0, 0.0)),
               euler_to_quat(EulerAngles(-35.0, -90.0, 10.0))]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = quat_to_euler(np.array(qs).T)
        assert [str(w.message) for w in caught] == [
            "pitch within 0.01 deg of gimbal lock at 2 sample(s); yaw set to zero"]
        assert table.shape == (len(qs), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            single = np.array([quat_to_euler(q) for q in qs])
        np.testing.assert_allclose(table, single, rtol=0.0, atol=1e-12)

    def test_dcm_columns_match_single_attitudes(self):
        rng = np.random.default_rng(9)
        qs = [random_quaternion(rng) for _ in range(20)]
        stacked = quat_to_dcm(np.array(qs).T)
        assert stacked.shape == (3, 3, len(qs))
        for i, q in enumerate(qs):
            np.testing.assert_array_equal(stacked[:, :, i], quat_to_dcm(q))


class TestQuaternionError:
    def test_coincident_gives_identity(self):
        rng = np.random.default_rng(5)
        q = random_quaternion(rng)
        qe = quaternion_error(q, q)
        assert np.asarray(qe[:3]) == pytest.approx(np.zeros(3), abs=1e-15)
        assert qe.q4 == pytest.approx(1.0, abs=1e-15)

    def test_identity_command_returns_state(self):
        # q, or -q (the same attitude) when q's scalar part is negative
        rng = np.random.default_rng(6)
        for _ in range(10):
            q = random_quaternion(rng)
            want = q if q.q4 >= 0.0 else Quaternion(-q.q1, -q.q2, -q.q3, -q.q4)
            assert quaternion_error(q, Quaternion.identity()) == pytest.approx(want)

    def test_nonnegative_hemisphere_of_the_product(self):
        # q * conj(qc), negated whole when its scalar part is negative, bit for bit
        rng = np.random.default_rng(8)
        signs = set()
        for _ in range(50):
            q, qc = random_quaternion(rng), random_quaternion(rng)
            e = quat_multiply(q, qc.conjugate())
            sign = 1.0 if e.q4 >= 0.0 else -1.0
            signs.add(sign)
            assert quaternion_error(q, qc) == tuple(sign * v for v in e)
        assert signs == {1.0, -1.0}

    def test_error_maps_command_to_state(self):
        rng = np.random.default_rng(7)
        q, qc = random_quaternion(rng), random_quaternion(rng)
        qe = quaternion_error(q, qc)
        np.testing.assert_allclose(quat_to_dcm(qe) @ quat_to_dcm(qc),
                                   quat_to_dcm(q), atol=1e-13)


class TestRhs:
    """The equations of motion, seen through one integration step."""

    def test_zero_rate_zero_torque_is_stationary(self):
        state = BodyState(Quaternion.identity(), AngularVelocity.zero())
        assert integrate_step(state, NOMINAL, Torque.zero(), Torque.zero(), 0.01) == state

    def test_torque_about_principal_axis(self):
        state = BodyState(Quaternion.identity(), AngularVelocity.zero())
        q, w = integrate_step(state, NOMINAL, Torque(0.3, 0.0, 0.0), Torque.zero(), 0.01)
        # constant angular acceleration 0.3 / i1 about axis 1 only
        assert w.w1 == pytest.approx(0.01 * 0.3 / NOMINAL.i1, rel=1e-12)
        assert w.w2 == w.w3 == 0.0
        assert q.q1 > 0.0 and q.q2 == q.q3 == 0.0

    def test_disturbance_adds_to_control(self):
        state = BodyState(Quaternion.identity(), AngularVelocity(0.1, -0.2, 0.3))
        both = integrate_step(state, NOMINAL, Torque(0.1, 0.2, 0.3),
                              Torque(0.05, 0.0, -0.1), 0.01)
        merged = integrate_step(state, NOMINAL, Torque(0.15, 0.2, 0.2), Torque.zero(), 0.01)
        np.testing.assert_allclose(both.q + both.w, merged.q + merged.w,
                                   rtol=0.0, atol=1e-15)


class TestIntegration:
    @given(q=UNIT_VECTORS, w=RATES, inertia=MOMENTS)
    @settings(max_examples=60, deadline=None)
    def test_torque_free_properties(self, q, w, inertia):
        # over random attitudes, rates and realizable inertias: a unit
        # quaternion after every step, and energy and momentum conserved
        assume(inertia.realizable())
        state = BodyState(q, w)
        e0 = kinetic_energy(state, inertia)
        h0 = angular_momentum(state, inertia)
        for _ in range(200):
            state = integrate_step(state, inertia, Torque.zero(), Torque.zero(), 0.01)
            assert abs(state.q.norm() - 1.0) < 1e-12
        assert abs(kinetic_energy(state, inertia) - e0) <= 1e-6 * e0 + 1e-15
        assert abs(angular_momentum(state, inertia) - h0) <= 1e-6 * h0 + 1e-15

    def test_conservation_torque_free(self):
        state = BodyState(euler_to_quat(EulerAngles(10.0, 5.0, 10.0)),
                          AngularVelocity(0.0125, 0.05, 0.075))
        e0 = kinetic_energy(state, NOMINAL)
        h0 = angular_momentum(state, NOMINAL)
        for _ in range(2000):
            state = integrate_step(state, NOMINAL, Torque.zero(), Torque.zero(), 0.01)
        assert abs(kinetic_energy(state, NOMINAL) - e0) / e0 < 1e-6
        assert abs(angular_momentum(state, NOMINAL) - h0) / h0 < 1e-6
        assert abs(state.q.norm() - 1.0) < 1e-9

    def test_single_axis_spin_analytic(self):
        # constant spin about one principal axis: angle grows linearly
        w = 0.2
        state = BodyState(Quaternion.identity(), AngularVelocity(0.0, 0.0, w))
        for _ in range(1000):
            state = integrate_step(state, NOMINAL, Torque.zero(), Torque.zero(), 0.01)
        expected = math.degrees(w * 10.0)
        assert quat_to_euler(state.q)[2] == pytest.approx(expected, abs=1e-8)

    def test_rk4_fourth_order_convergence(self):
        def propagate(dt, n):
            s = BodyState(euler_to_quat(EulerAngles(10.0, 5.0, 10.0)),
                          AngularVelocity(0.3, -0.2, 0.4))
            for _ in range(n):
                s = integrate_step(s, NOMINAL, Torque(0.1, 0.0, -0.1),
                                   Torque.zero(), dt)
            return np.array(s.q + s.w)

    # reference at a very small step; errors should shrink ~16x per halving
        ref = propagate(0.0005, 4000)
        err1 = np.linalg.norm(propagate(0.04, 50) - ref)
        err2 = np.linalg.norm(propagate(0.02, 100) - ref)
        assert err1 / err2 > 10.0

    def test_invalid_dt_rejected(self):
        state = BodyState(Quaternion.identity(), AngularVelocity.zero())
        with pytest.raises(ValueError):
            integrate_step(state, NOMINAL, Torque.zero(), Torque.zero(), 0.0)

    def test_divergence_detected(self):
        state = BodyState(Quaternion.identity(), AngularVelocity(1e200, 0.0, 0.0))
        with pytest.raises(IntegrationDivergedError):
            for _ in range(10):
                state = integrate_step(state, NOMINAL, Torque.zero(),
                                       Torque.zero(), 0.01)

    @given(q=UNIT_VECTORS, w=st.tuples(*[st.floats(-20.0, 20.0)] * 3).map(
        lambda w: AngularVelocity(*w)), inertia=MOMENTS, mc=TORQUES, md=TORQUES,
        dt=st.floats(1e-4, 0.5))
    @settings(max_examples=300, deadline=None)
    def test_equals_closure_form(self, q, w, inertia, mc, md, dt):
        # the written-out stages evaluate the closure's expressions in its order
        state = BodyState(q, w)
        got = integrate_step(state, inertia, mc, md, dt)
        want = closure_rk4(state, inertia, mc, md, dt)
        assert type(got) is BodyState and type(got.q) is Quaternion
        assert np.array(got.q + got.w).tobytes() == np.array(want.q + want.w).tobytes()

    def test_errors_equal_closure_form(self):
        state = BodyState(Quaternion.identity(), AngularVelocity(0.1, 0.0, 0.0))
        for dt in (0.0, -0.0, -0.01, -math.inf):
            for step in (integrate_step, closure_rk4):
                with pytest.raises(ValueError, match="dt must be positive"):
                    step(state, NOMINAL, Torque.zero(), Torque.zero(), dt)
        # a state or torque that overflows, and a NaN torque or step, diverge in both
        for state, mc, dt in ((BodyState(Quaternion.identity(), AngularVelocity(1e200, 1e200, 0.0)),
                               Torque.zero(), 0.01),
                              (BodyState(Quaternion.identity(), AngularVelocity.zero()),
                               Torque(1e308, -1e308, 0.0), 1e10),
                              (BodyState(Quaternion.identity(), AngularVelocity.zero()),
                               Torque(math.nan, 0.0, 0.0), 0.01),
                              (BodyState(Quaternion.identity(), AngularVelocity.zero()),
                               Torque.zero(), math.nan)):
            for step in (integrate_step, closure_rk4):
                with pytest.raises(IntegrationDivergedError):
                    step(state, NOMINAL, mc, Torque.zero(), dt)

    def test_speed(self):
        state = BodyState(euler_to_quat(EulerAngles(10.0, 5.0, 10.0)),
                          AngularVelocity(0.0125, 0.05, 0.075))
        t0 = time.perf_counter()
        for _ in range(2000):
            state = integrate_step(state, NOMINAL, Torque.zero(), Torque.zero(), 0.01)
        assert time.perf_counter() - t0 < 0.1


class TestInertiaValidation:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            InertiaTensor(0.0, 1.0, 1.0).validated()
        with pytest.raises(ValueError):
            InertiaTensor(1.0, -2.0, 1.0).validated()

    def test_triangle_inequality_warns(self):
        with pytest.warns(UserWarning, match="triangle inequality"):
            InertiaTensor(1.0, 1.0, 3.0).validated()

    def test_nominal_is_silent(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            NOMINAL.validated()
