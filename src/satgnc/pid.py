"""Integral-augmented quaternion-feedback PID control.

The control moment is a per-axis sum of four terms -- proportional on the
error-quaternion vector part, derivative on body rate, and integrals of
both -- clamped to the actuator's torque bound, MC_MAX, which the PID and
the trained roles share.  Integrators freeze on any axis whose unsaturated
command exceeds the bound (anti-windup).

Gains are tuned by a derivative-free simplex search over the 12 stacked
per-axis gains, minimizing the trajectory cost J = integral of
(sum |w_i| + sum |q_e,i|) dt produced by a caller-supplied closed-loop
objective.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import Torque

__all__ = [
    "MC_MAX",
    "PidGains",
    "PidState",
    "OptimizationResult",
    "pid_raw",
    "pid_step",
    "saturate",
    "optimize_gains",
    "save_gains",
    "load_gains",
    "GAINS_FORMAT_VERSION",
]

GAINS_FORMAT_VERSION = 2
MC_MAX = 1.0      # the actuator's torque bound, N*m, per axis


@dataclass(frozen=True)
class PidGains:
    """Per-axis gain 3-vectors for the four control terms."""
    kp: tuple[float, float, float]
    kd: tuple[float, float, float]
    kq: tuple[float, float, float] = (0.0, 0.0, 0.0)
    kw: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("kp", "kd", "kq", "kw"):
            v = getattr(self, name)
            if len(v) != 3 or not all(math.isfinite(g) for g in v):
                raise ValueError(f"{name} must be three finite gains")

    def to_vector(self) -> np.ndarray:
        return np.array(self.kp + self.kd + self.kq + self.kw)

    @staticmethod
    def from_vector(v: Sequence[float]) -> "PidGains":
        v = tuple(float(x) for x in v)
        if len(v) != 12:
            raise ValueError("gain vector must have 12 entries")
        return PidGains(v[0:3], v[3:6], v[6:9], v[9:12])


@dataclass
class PidState:
    """Integral accumulators; int_qe in seconds, int_w in radians."""
    int_qe: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])
    int_w: list[float] = field(default_factory=lambda: [0.0, 0.0, 0.0])


def pid_raw(qe_vec: Sequence[float], w: Sequence[float],
            state: PidState, gains: PidGains) -> Torque:
    """Unsaturated control command from the current error and accumulators."""
    kp, kd, kq, kw, iq, iw = gains.kp, gains.kd, gains.kq, gains.kw, state.int_qe, state.int_w
    return Torque(kp[0] * qe_vec[0] + kd[0] * w[0] + kq[0] * iq[0] + kw[0] * iw[0],
                  kp[1] * qe_vec[1] + kd[1] * w[1] + kq[1] * iq[1] + kw[1] * iw[1],
                  kp[2] * qe_vec[2] + kd[2] * w[2] + kq[2] * iq[2] + kw[2] * iw[2])


def pid_step(qe_vec: Sequence[float], w: Sequence[float],
             state: PidState, gains: PidGains, dt: float) -> tuple[Torque, Torque]:
    """One controller update: compute the torque, then advance the integrators.

    Returns the saturated torque and the unsaturated command it clamps.
    An axis whose unsaturated command exceeds the bound keeps its
    accumulators frozen for this step (anti-windup).
    """
    raw = pid_raw(qe_vec, w, state, gains)
    for i in range(3):
        if not abs(raw[i]) > MC_MAX:
            state.int_qe[i] += dt * qe_vec[i]
            state.int_w[i] += dt * w[i]
    return saturate(raw), raw


def saturate(command: Sequence[float]) -> Torque:
    """The actuator's torque: each axis of command clamped to +/-MC_MAX; a NaN
    axis stays NaN, so the run diverges and counts as failed."""
    v1, v2, v3 = command
    return Torque(MC_MAX if v1 > MC_MAX else -MC_MAX if v1 < -MC_MAX else v1,
                  MC_MAX if v2 > MC_MAX else -MC_MAX if v2 < -MC_MAX else v2,
                  MC_MAX if v3 > MC_MAX else -MC_MAX if v3 < -MC_MAX else v3)


@dataclass
class OptimizationResult:
    gains: PidGains
    cost: float
    history: list[float]          # objective value of every evaluation, in order
    n_evaluations: int


def default_gain_bounds(inertia) -> list[tuple[float, float]]:
    """Box bounds for the gain search, scaled with the principal inertias.

    The pure error-integral cost is minimized by quasi-bang-bang gains, which
    saturate the actuator everywhere and push the loop bandwidth into the
    sensor-noise band; bounding the proportional/derivative gains keeps the
    tuned loop in the regime the rest of the pipeline (torque mimicry,
    observer-in-the-loop runs, pulse modulation) is meant to operate in.
    """
    bounds = [(-8.0 * i, 0.0) for i in inertia]
    bounds += [(-6.0 * i, 0.0) for i in inertia]
    bounds += [(-0.5, 0.5)] * 6
    return bounds


def optimize_gains(objective: Callable[[PidGains], float], initial: PidGains,
                   budget: int = 500,
                   bounds: list[tuple[float, float]] | None = None
                   ) -> OptimizationResult:
    """Derivative-free (Nelder-Mead simplex) search over the 12 stacked gains.

    Non-finite objective values (diverged simulations) count as +inf.  The
    search restarts from the incumbent until the evaluation budget is spent,
    and always returns the best gains seen -- never worse than the initial
    point.  Deterministic for a deterministic objective.
    """
    if budget < 50:
        raise ValueError("evaluation budget must be at least 50")
    from scipy.optimize import minimize     # here, not at import: only tuning searches
    history: list[float] = []
    best = {"x": initial.to_vector(), "j": np.inf}

    def wrapped(x: np.ndarray) -> float:
        j = objective(PidGains.from_vector(x))
        if not np.isfinite(j):
            j = np.inf
        history.append(j)
        if j < best["j"]:
            best["j"] = j
            best["x"] = np.array(x)
        return j

    wrapped(initial.to_vector())
    while len(history) < budget:
        remaining = budget - len(history)
        if remaining < 15:
            break
        minimize(wrapped, best["x"], method="Nelder-Mead", bounds=bounds,
                 options={"maxfev": remaining, "xatol": 1e-6, "fatol": 1e-9,
                          "adaptive": True})
    return OptimizationResult(
        gains=PidGains.from_vector(best["x"]),
        cost=float(best["j"]),
        history=history,
        n_evaluations=len(history),
    )


def default_initial_gains(inertia) -> PidGains:
    """Stabilizing starting point for the gain search.

    Scales proportional/derivative gains with the principal inertias so the
    decoupled small-angle loops start near critical damping at ~1 rad/s;
    the integral gains start small so the search decides how much to use.
    """
    kp = tuple(-2.0 * i for i in inertia)
    kd = tuple(-2.0 * i for i in inertia)
    return PidGains(kp, kd, (-0.01, -0.01, -0.01), (-0.01, -0.01, -0.01))


def save_gains(gains: PidGains, path, extra: dict | None = None) -> None:
    """Persist gains to a versioned key = value file."""
    cp = configparser.ConfigParser()
    cp["format"] = {"version": str(GAINS_FORMAT_VERSION)}
    sec = {}
    for name in ("kp", "kd", "kq", "kw"):
        for axis, v in zip("xyz", getattr(gains, name)):
            sec[f"{name}_{axis}"] = repr(v)
    cp["gains"] = sec
    if extra:
        cp["tuning"] = {k: repr(v) for k, v in extra.items()}
    with open(path, "w") as fh:
        cp.write(fh)


def load_gains(path) -> PidGains:
    """Gains from a save_gains file; a malformed one raises ValueError naming it."""
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise FileNotFoundError(f"gains file not found: {path}")
        version = cp.getint("format", "version", fallback=None)
        if version != GAINS_FORMAT_VERSION:
            raise ValueError(f"unsupported gains file version {version!r}")
        g = cp["gains"]
        def vec(name):
            return tuple(float(g[f"{name}_{axis}"]) for axis in "xyz")
        return PidGains(vec("kp"), vec("kd"), vec("kq"), vec("kw"))
    except (configparser.Error, KeyError, ValueError) as exc:
        what = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"malformed gains file {path}: {what}") from exc
