"""Output checks, computed apart from the program.

Every check reads the files the CLI wrote and recomputes what it tests with
numpy and scipy alone: the rigid-body equations and the 3-2-1 Euler
conversion here are the benchmark's own, not satgnc's.  A check raises
CheckError on a violation and otherwise returns the value it measured.
"""

from __future__ import annotations

import configparser
import csv
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.spatial.transform import Rotation

# Re-propagating a step with a tight-tolerance solver differs from the
# program's RK4 step by RK4's local error, O(dt^5) times the fifth derivative:
# below 1e-13 at dt = 0.01 and these body rates.  A wrong torque, inertia,
# sign or skipped step moves the next state by 1e-7 or more.
PROPAGATION_TOL = 1e-10
EULER_TOL_DEG = 1e-9
UNIT_NORM_TOL = 1e-12
STATS_TOL = 1e-12


class CheckError(AssertionError):
    """A program output failed a benchmark check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _triple(cp: configparser.ConfigParser, section: str, key: str) -> np.ndarray:
    return np.array([float(v) for v in cp.get(section, key).split(",")])


def _read(path) -> tuple[configparser.ConfigParser, list[str], np.ndarray]:
    """Config echoed as '# ' lines, then a CSV header and float rows."""
    header, body = [], []
    with open(path, newline="") as fh:
        for line in fh:
            (header if line.startswith("# ") else body).append(
                line[2:] if line.startswith("# ") else line)
    cp = configparser.ConfigParser()
    cp.read_string("".join(header))
    rows = list(csv.reader(body))
    data = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
    return cp, rows[0], data


# ---------------------------------------------------------------------------
# Monte Carlo campaign CSV

def read_campaign(path) -> dict:
    header = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("# ") and " = " in line and not line.startswith("# ["):
                key, value = line[2:].split(" = ", 1)
                header[key.strip()] = value.strip()
    _, cols, data = _read(path)
    idx = {c: i for i, c in enumerate(cols)}
    axes = ("phi", "theta", "psi")
    return {
        "n_runs": int(header["n_runs"]),
        "n_failed": int(header["n_failed"]),
        "errors": data[:, [idx[f"err_{a}"] for a in axes]],
        "mean": data[:, [idx[f"mean_{a}"] for a in axes]],
        "sigma3": data[:, [idx[f"sigma3_{a}"] for a in axes]],
    }


def check_campaign_stats(camp: dict) -> float:
    """Running mean and 3 sigma equal a recomputation from the per-run errors;
    the failed count equals the number of failed (NaN) rows."""
    errors = camp["errors"]
    _require(len(errors) == camp["n_runs"],
             f"{len(errors)} rows for {camp['n_runs']} runs")
    failed = np.isnan(errors).any(axis=1)
    _require(int(failed.sum()) == camp["n_failed"],
             f"n_failed {camp['n_failed']} but {int(failed.sum())} failed rows")
    dev = 0.0
    for k in range(len(errors)):
        ok = errors[:k + 1][~failed[:k + 1]]
        if len(ok) == 0:
            _require(np.isnan(camp["mean"][k]).all(), f"row {k}: mean without runs")
            continue
        mean = ok.sum(axis=0) / len(ok)
        sigma3 = 3.0 * np.sqrt(((ok - mean) ** 2).sum(axis=0) / len(ok))
        dev = max(dev, float(np.max(np.abs(camp["mean"][k] - mean))),
                  float(np.max(np.abs(camp["sigma3"][k] - sigma3))))
    _require(dev <= STATS_TOL, f"running statistics deviate by {dev:.3g} deg")
    return dev


def check_final_errors(camp: dict, bound_deg: float) -> float:
    """Every successful run's final Euler error lies within bound_deg."""
    ok = camp["errors"][~np.isnan(camp["errors"]).any(axis=1)]
    worst = float(np.max(np.abs(ok))) if len(ok) else 0.0
    _require(worst <= bound_deg,
             f"final Euler error {worst:.4f} deg exceeds {bound_deg:.4f} deg")
    return worst


def settling_band_bound_deg(angle_range_deg: float, desired_deg) -> float:
    """1% of the largest initial Euler error a campaign can draw: initial
    angles are uniform in +-angle_range, so the error starts within
    angle_range + |desired| on each axis."""
    return 0.01 * (angle_range_deg + float(np.max(np.abs(desired_deg))))


def deadband_bound_deg(kp, km: float, u_on: float, allowance_deg: float) -> float:
    """Where a PWPF-modulated PID-like loop can come to rest.

    The modulator fires only when its filtered input km * |command| reaches
    u_on, so the thrusters stay off, and the attitude drifts freely, while
    |kp_i * q_e,i| < u_on / km.  That holds up to an error quaternion
    component of u_on / (km * min|kp|), i.e. a rotation of 2 * asin of it.
    A loop that acts on an estimate instead of the true state can rest off
    target by the estimate's error as well: allowance_deg."""
    qe = min(1.0, u_on / (km * float(np.min(np.abs(kp)))))
    return math.degrees(2.0 * math.asin(qe)) + allowance_deg


def read_kp(gains_path) -> np.ndarray:
    """Proportional gains from a gains file written by tune-pid."""
    cp = configparser.ConfigParser()
    cp.read(gains_path)
    return np.array([cp.getfloat("gains", f"kp_{a}") for a in "xyz"])


# ---------------------------------------------------------------------------
# Closed-loop run record (satgnc simulate)

def read_record(path) -> dict:
    cp, cols, data = _read(path)
    idx = {c: i for i, c in enumerate(cols)}

    def take(*names):
        return data[:, [idx[n] for n in names]]

    return {
        "t": data[:, idx["t"]],
        "q": take("q1", "q2", "q3", "q4"),
        "w": take("w1", "w2", "w3"),
        "applied": take("applied1", "applied2", "applied3"),
        "euler": take("phi", "theta", "psi"),
        "est_q": take("est_q1", "est_q2", "est_q3", "est_q4"),
        "dt": cp.getfloat("simulation", "dt"),
        "inertia": _triple(cp, "inertia", "true"),
        "desired": _triple(cp, "desired", "euler_deg"),
        "dist_const": _triple(cp, "disturbance", "constant"),
        "dist_amp": _triple(cp, "disturbance", "amplitude"),
        "dist_freq": cp.getfloat("disturbance", "frequency_hz"),
        "modulator": cp.get("loop", "modulator"),
        "estimator": cp.get("loop", "estimator"),
        "thrust": cp.getfloat("pwpf", "thrust"),
        "km": cp.getfloat("pwpf", "km"),
        "u_on": cp.getfloat("pwpf", "u_on"),
    }


def rigid_body_rhs(y: np.ndarray, torque: np.ndarray, inertia: np.ndarray) -> np.ndarray:
    """Euler's equations and quaternion kinematics (scalar last) for
    columns of states y = (q1..q4, w1..w3) x n."""
    q1, q2, q3, q4, w1, w2, w3 = y
    i1, i2, i3 = inertia
    m1, m2, m3 = torque
    return np.array([
        0.5 * (w1 * q4 - w2 * q3 + w3 * q2),
        0.5 * (w1 * q3 + w2 * q4 - w3 * q1),
        0.5 * (-w1 * q2 + w2 * q1 + w3 * q4),
        -0.5 * (w1 * q1 + w2 * q2 + w3 * q3),
        (m1 + (i2 - i3) * w2 * w3) / i1,
        (m2 + (i3 - i1) * w3 * w1) / i2,
        (m3 + (i1 - i2) * w1 * w2) / i3,
    ])


def check_propagation(rec: dict) -> float:
    """Every step k -> k+1 re-propagated from the recorded state with the
    recorded applied torque (plus the configured disturbance) held over the
    step; all steps are solved together as one independent system each."""
    t = rec["t"]
    dt = rec["dt"]
    y0 = np.hstack([rec["q"], rec["w"]])[:-1].T            # (7, n)
    dist = rec["dist_const"][:, None] + rec["dist_amp"][:, None] * np.sin(
        2.0 * np.pi * rec["dist_freq"] * t[:-1])[None, :]
    torque = rec["applied"][:-1].T + dist
    n = y0.shape[1]

    def rhs(_, flat):
        return rigid_body_rhs(flat.reshape(7, n), torque, rec["inertia"]).ravel()

    sol = solve_ivp(rhs, (0.0, dt), y0.ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-15)
    _require(sol.success, f"solve_ivp failed: {sol.message}")
    y1 = sol.y[:, -1].reshape(7, n)
    y1[:4] /= np.linalg.norm(y1[:4], axis=0)
    expected = np.hstack([rec["q"], rec["w"]])[1:].T
    dev = float(np.max(np.abs(y1 - expected)))
    _require(np.allclose(np.diff(t), dt, rtol=0.0, atol=1e-9),
             "record time grid is not uniform at dt")
    _require(dev <= PROPAGATION_TOL,
             f"re-propagated state deviates by {dev:.3g} from the record")
    return dev


def check_euler(rec: dict) -> float:
    """Recorded (phi, theta, psi) equal the 3-2-1 angles of the recorded q."""
    ref = np.degrees(Rotation.from_quat(rec["q"]).as_euler("ZYX"))[:, ::-1]
    dev = float(np.max(np.abs(rec["euler"] - ref)))
    _require(dev <= EULER_TOL_DEG, f"Euler angles deviate by {dev:.3g} deg")
    return dev


def check_unit_norm(rec: dict) -> float:
    """True and estimated quaternions have unit norm."""
    dev = max(float(np.max(np.abs(np.linalg.norm(rec[k], axis=1) - 1.0)))
              for k in ("q", "est_q"))
    _require(dev <= UNIT_NORM_TOL, f"quaternion norm deviates by {dev:.3g}")
    return dev


def check_pwpf_levels(rec: dict) -> int:
    """Every applied torque component is -thrust, 0 or +thrust; returns the
    number of firing samples."""
    a = rec["applied"]
    level = np.isin(a, (-rec["thrust"], 0.0, rec["thrust"]))
    _require(bool(level.all()), f"{int((~level).sum())} applied torque "
             "components are not -thrust, 0 or +thrust")
    return int(np.count_nonzero(a))


def settling_times(rec: dict, band: float = 0.01) -> list[float]:
    """Per axis, the first time after which the wrapped Euler error stays
    within band * |initial error| (inf if it never does)."""
    err = (rec["euler"] - rec["desired"] + 180.0) % 360.0 - 180.0
    out = []
    for axis in range(3):
        outside = np.nonzero(np.abs(err[:, axis]) > band * abs(err[0, axis]))[0]
        if len(outside) == 0:
            out.append(0.0)
        elif outside[-1] == len(err) - 1:
            out.append(math.inf)
        else:
            out.append(float(rec["t"][outside[-1] + 1]))
    return out


def check_settles(rec: dict, within_s: float, band: float = 0.01) -> float:
    worst = max(settling_times(rec, band))
    _require(worst <= within_s,
             f"settles into the {band:.0%} band at {worst} s, later than {within_s} s")
    return worst


# ---------------------------------------------------------------------------
# Trained bundles against held-out teacher data

def read_dataset(path, n_inputs: int) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return data[:, :n_inputs], data[:, n_inputs:]


def check_rmse(pred: np.ndarray, targets: np.ndarray, bound: float) -> float:
    """Worst per-channel RMSE against the teacher's targets."""
    rmse = float(np.max(np.sqrt(np.mean((pred - targets) ** 2, axis=0))))
    _require(rmse <= bound, f"held-out RMSE {rmse:.4g} exceeds {bound:.4g}")
    return rmse


def check_attitude_rms(pred_q: np.ndarray, true_q: np.ndarray, bound_deg: float) -> float:
    """RMS rotation angle between the normalized estimate and the truth."""
    qn = pred_q / np.linalg.norm(pred_q, axis=1, keepdims=True)
    dots = np.clip(np.abs(np.sum(qn * true_q, axis=1)), 0.0, 1.0)
    rms = float(np.sqrt(np.mean(np.degrees(2.0 * np.arccos(dots)) ** 2)))
    _require(rms <= bound_deg, f"attitude RMS {rms:.4f} deg exceeds {bound_deg} deg")
    return rms
