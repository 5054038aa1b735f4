"""Rigid-body rotational dynamics and quaternion kinematics.

Conventions
-----------
Quaternions are scalar-last: q = (q1, q2, q3, q4) with vector part
(q1, q2, q3) and scalar part q4.  The direction cosine matrix returned by
:func:`quat_to_dcm` rotates inertial-frame vectors into the body frame
(C_I^B).  Euler angles use the aerospace 3-2-1 (yaw-pitch-roll) sequence
and are expressed in degrees.

The hot integration path is written in plain float arithmetic on purpose:
a 20 s / dt=0.01 propagation has to run in well under 0.1 s and small
numpy arrays carry too much per-call overhead for that.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "Quaternion",
    "AngularVelocity",
    "InertiaTensor",
    "Torque",
    "BodyState",
    "EulerAngles",
    "IntegrationDivergedError",
    "integrate_step",
    "dcm_rows",
    "quat_to_dcm",
    "quat_multiply",
    "euler_to_quat",
    "quat_to_euler",
    "quaternion_error",
    "kinetic_energy",
    "angular_momentum",
]

GIMBAL_LOCK_DEG = 89.99


class IntegrationDivergedError(RuntimeError):
    """Raised when the propagated state stops being finite."""


class Quaternion(NamedTuple):
    q1: float
    q2: float
    q3: float
    q4: float

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(0.0, 0.0, 0.0, 1.0)

    def norm(self) -> float:
        return math.sqrt(self.q1 * self.q1 + self.q2 * self.q2
                         + self.q3 * self.q3 + self.q4 * self.q4)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0 or not math.isfinite(n):
            raise ValueError("cannot normalize a zero or non-finite quaternion")
        return Quaternion(self.q1 / n, self.q2 / n, self.q3 / n, self.q4 / n)

    def conjugate(self) -> "Quaternion":
        return Quaternion(-self.q1, -self.q2, -self.q3, self.q4)


class AngularVelocity(NamedTuple):
    """Body-frame angular velocity, rad/s."""
    w1: float
    w2: float
    w3: float

    @staticmethod
    def zero() -> "AngularVelocity":
        return AngularVelocity(0.0, 0.0, 0.0)


class Torque(NamedTuple):
    """Body-frame moment, N*m."""
    m1: float
    m2: float
    m3: float

    @staticmethod
    def zero() -> "Torque":
        return Torque(0.0, 0.0, 0.0)


class InertiaTensor(NamedTuple):
    """Principal moments of inertia, kg*m^2."""
    i1: float
    i2: float
    i3: float

    def realizable(self) -> bool:
        """Whether the moments obey the triangle inequality, as those of any
        rigid mass distribution do."""
        i1, i2, i3 = self
        return i1 + i2 >= i3 and i2 + i3 >= i1 and i1 + i3 >= i2

    def validated(self) -> "InertiaTensor":
        if not all(math.isfinite(i) and i > 0.0 for i in self):
            raise ValueError(f"principal moments must be positive and finite, got {tuple(self)}")
        if not self.realizable():
            warnings.warn(
                f"inertia {tuple(self)} violates the triangle inequality; "
                "not realizable by a rigid mass distribution",
                stacklevel=2,
            )
        return self


class BodyState(NamedTuple):
    q: Quaternion
    w: AngularVelocity


class EulerAngles(NamedTuple):
    """3-2-1 Euler angles in degrees: roll phi, pitch theta, yaw psi."""
    phi: float
    theta: float
    psi: float


def _rhs(q1, q2, q3, q4, w1, w2, w3, m1, m2, m3, i1, i2, i3) -> tuple:
    """d/dt (q1..q4, w1..w3): the quaternion kinematics and Euler's equations under the
    moment m on the principal moments i; only + - * /, so floats or (n,) arrays."""
    return (0.5 * (w3 * q2 - w2 * q3 + w1 * q4), 0.5 * (-w3 * q1 + w1 * q3 + w2 * q4),
            0.5 * (w2 * q1 - w1 * q2 + w3 * q4), 0.5 * (-w1 * q1 - w2 * q2 - w3 * q3),
            (m1 - (i3 - i2) * w2 * w3) / i1, (m2 - (i1 - i3) * w1 * w3) / i2,
            (m3 - (i2 - i1) * w2 * w1) / i3)


def integrate_step(state: BodyState, inertia: InertiaTensor,
                   mc: Torque, md: Torque, dt: float) -> BodyState:
    """One classical RK4 step of the coupled rotational dynamics + kinematics.

    Torques are held constant over the step.  The quaternion is renormalized
    afterwards so norm drift never accumulates.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    i1, i2, i3 = inertia
    m1 = mc.m1 + md.m1
    m2 = mc.m2 + md.m2
    m3 = mc.m3 + md.m3

    (q1, q2, q3, q4), (w1, w2, w3) = state

    h = 0.5 * dt
    a1, a2, a3, a4, a5, a6, a7 = _rhs(q1, q2, q3, q4, w1, w2, w3, m1, m2, m3, i1, i2, i3)
    b1, b2, b3, b4, b5, b6, b7 = _rhs(q1 + h * a1, q2 + h * a2, q3 + h * a3, q4 + h * a4,
                                      w1 + h * a5, w2 + h * a6, w3 + h * a7, m1, m2, m3, i1, i2, i3)
    c1, c2, c3, c4, c5, c6, c7 = _rhs(q1 + h * b1, q2 + h * b2, q3 + h * b3, q4 + h * b4,
                                      w1 + h * b5, w2 + h * b6, w3 + h * b7, m1, m2, m3, i1, i2, i3)
    d1, d2, d3, d4, d5, d6, d7 = _rhs(q1 + dt * c1, q2 + dt * c2, q3 + dt * c3, q4 + dt * c4,
                                      w1 + dt * c5, w2 + dt * c6, w3 + dt * c7,
                                      m1, m2, m3, i1, i2, i3)

    s = dt / 6.0
    q1 += s * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
    q2 += s * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
    q3 += s * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
    q4 += s * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
    w1 += s * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
    w2 += s * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
    w3 += s * (a7 + 2.0 * b7 + 2.0 * c7 + d7)

    n = math.sqrt(q1 * q1 + q2 * q2 + q3 * q3 + q4 * q4)
    if not (math.isfinite(n) and n > 0.0
            and math.isfinite(w1) and math.isfinite(w2) and math.isfinite(w3)):
        raise IntegrationDivergedError("state became non-finite during integration")
    return BodyState(Quaternion(q1 / n, q2 / n, q3 / n, q4 / n),
                     AngularVelocity(w1, w2, w3))


def dcm_rows(q) -> tuple:
    """Rows of the direction cosine matrix C_I^B, which rotates inertial vectors into
    the body frame: tuples of floats for one quaternion, of (n,) arrays for (4, n) columns."""
    q1, q2, q3, q4 = q
    return ((1.0 - 2.0 * (q2 * q2 + q3 * q3), 2.0 * (q1 * q2 + q3 * q4), 2.0 * (q1 * q3 - q2 * q4)),
            (2.0 * (q1 * q2 - q3 * q4), 1.0 - 2.0 * (q1 * q1 + q3 * q3), 2.0 * (q2 * q3 + q1 * q4)),
            (2.0 * (q1 * q3 + q2 * q4), 2.0 * (q2 * q3 - q1 * q4), 1.0 - 2.0 * (q1 * q1 + q2 * q2)))


def quat_to_dcm(q) -> np.ndarray:
    """dcm_rows as one array: (3, 3) for one quaternion, (3, 3, n) for (4, n) columns."""
    return np.array(dcm_rows(q))


def quat_multiply(p: Quaternion, q: Quaternion) -> Quaternion:
    """Frame-rotation composition: apply q first, then p.

    Satisfies quat_to_dcm(quat_multiply(p, q)) == quat_to_dcm(p) @ quat_to_dcm(q).
    """
    p1, p2, p3, p4 = p
    q1, q2, q3, q4 = q
    return Quaternion(
        q4 * p1 + p4 * q1 + (q2 * p3 - q3 * p2),
        q4 * p2 + p4 * q2 + (q3 * p1 - q1 * p3),
        q4 * p3 + p4 * q3 + (q1 * p2 - q2 * p1),
        p4 * q4 - (p1 * q1 + p2 * q2 + p3 * q3),
    )


def _axis_quat(axis_index: int, angle_rad: float) -> Quaternion:
    s = math.sin(0.5 * angle_rad)
    c = math.cos(0.5 * angle_rad)
    v = [0.0, 0.0, 0.0]
    v[axis_index] = s
    return Quaternion(v[0], v[1], v[2], c)


def euler_to_quat(e: EulerAngles) -> Quaternion:
    """Quaternion of the 3-2-1 rotation C = Rx(phi) Ry(theta) Rz(psi)."""
    phi = math.radians(e.phi)
    theta = math.radians(e.theta)
    psi = math.radians(e.psi)
    q = quat_multiply(_axis_quat(0, phi),
                      quat_multiply(_axis_quat(1, theta), _axis_quat(2, psi)))
    return q.normalized()


def quat_to_euler(q) -> np.ndarray:
    """3-2-1 Euler angles (phi, theta, psi) in degrees: (3,) for one unit
    quaternion, (n, 3) for a record's (4, n) quaternion columns.

    Near pitch = +/-90 deg the sequence is singular; samples within 0.01 deg
    of it get yaw set to zero (roll absorbs the in-plane rotation), and one
    warning counts them.
    """
    c = quat_to_dcm(q)
    theta = np.arcsin(np.clip(-c[0, 2], -1.0, 1.0))
    phi = np.arctan2(c[1, 2], c[2, 2])
    psi = np.arctan2(c[0, 1], c[0, 0])
    locked = np.abs(np.degrees(theta)) > GIMBAL_LOCK_DEG
    if locked.any():
        warnings.warn(f"pitch within 0.01 deg of gimbal lock at {np.count_nonzero(locked)} "
                      "sample(s); yaw set to zero", stacklevel=2)
        # at theta = +/-90 only phi -/+ psi is observable; fold it all into phi
        phi = np.where(locked, np.arctan2(np.where(theta > 0, c[1, 0], -c[1, 0]), c[1, 1]), phi)
        psi = np.where(locked, 0.0, psi)
    return np.degrees(np.stack([phi, theta, psi], axis=-1))


def quaternion_error(q: Quaternion, qc: Quaternion) -> Quaternion:
    """Error quaternion: rotation from the commanded attitude qc to the current q.

    Coincident attitudes give the identity (0, 0, 0, 1); with qc = identity the
    error is q itself.
    """
    return quat_multiply(q, qc.conjugate())


def kinetic_energy(state: BodyState, inertia: InertiaTensor) -> float:
    """Rotational kinetic energy 0.5 * w^T I w (J)."""
    w1, w2, w3 = state.w
    return 0.5 * (inertia.i1 * w1 * w1 + inertia.i2 * w2 * w2 + inertia.i3 * w3 * w3)


def angular_momentum(state: BodyState, inertia: InertiaTensor) -> float:
    """Magnitude of the body angular momentum |I w| (N*m*s)."""
    w1, w2, w3 = state.w
    return math.sqrt((inertia.i1 * w1) ** 2 + (inertia.i2 * w2) ** 2 + (inertia.i3 * w3) ** 2)
