"""Closed-loop simulation orchestration, metrics, and the Monte Carlo
robustness campaign.

A run wires together: sensor sampling of the true state, an estimator
(truth bypass or the neuro-fuzzy observer), quaternion error against the
commanded attitude, one of the three controllers, optional PWPF
modulation, and RK4 plant propagation with the true inertia.  Everything
is logged on a uniform time grid so all metrics derive from the record: a
run record is one (samples, 27) matrix in CSV_COLUMNS order, written one
row per step, and its named fields (t, q, w, qe, ...) are column views.
The tuning cost is computed from the record's qe and w columns.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import pwpf as pwpf_mod
from .config import (MonteCarloConfig, SimConfig, UNCERTAIN_INERTIA, dump_sim_config,
                     parse_sim_config)
from .dynamics import (AngularVelocity, BodyState, EulerAngles, InertiaTensor,
                       IntegrationDivergedError, Torque, euler_to_quat,
                       integrate_step, quat_to_dcm, quat_to_euler, quaternion_error)
from .pid import PidGains, PidState, pid_step, trajectory_cost
from .roles import (ROLES, EstimateInvalidError, RoleBundle, anfis_control,
                    anfis_estimate, anfis_integrated)
from .sensors import (GYRO, MAG_BODY, REFERENCES, SENSOR_CHANNELS, SUN_BODY,
                      NoiseSpec, TiltedDipoleField, gyro_reading, julian_date,
                      magnetometer_reading, reference_norm, sun_direction_inertial,
                      sun_sensor_reading)

__all__ = [
    "CSV_COLUMNS",
    "RunRecord",
    "Metrics",
    "MonteCarloReport",
    "MissingBundleError",
    "needed_roles",
    "run_closed_loop",
    "fuel_consumption",
    "settling_time",
    "final_euler_error",
    "compute_metrics",
    "monte_carlo",
    "evaluate_controllers",
    "format_evaluation",
]

CSV_COLUMNS = ("t", "q1", "q2", "q3", "q4", "w1", "w2", "w3",
               "qe1", "qe2", "qe3", "mc1", "mc2", "mc3",
               "applied1", "applied2", "applied3",
               "phi", "theta", "psi",
               "est_q1", "est_q2", "est_q3", "est_q4",
               "est_w1", "est_w2", "est_w3")


class MissingBundleError(RuntimeError):
    """A run requested a neuro-fuzzy role whose bundle was not supplied."""


def _columns(first: str, last: str | None = None) -> property:
    """View of the record's column first, or of its columns first..last."""
    i = CSV_COLUMNS.index(first)
    index = i if last is None else slice(i, CSV_COLUMNS.index(last) + 1)
    return property(lambda self: self.data[:, index])


def _write_header(fh, config: SimConfig, *extra: str) -> None:
    for line in dump_sim_config(config).splitlines() + list(extra):
        fh.write(f"# {line}\n")


@dataclass
class RunRecord:
    """Sampled closed-loop trajectory plus its configuration echo."""
    data: np.ndarray                   # (samples, 27), in CSV_COLUMNS order
    config: SimConfig
    sensor: np.ndarray | None = None   # (samples, 15) SENSOR_CHANNELS rows, sensor runs only
    mc_raw: np.ndarray | None = None   # unsaturated commands, PID runs only

    t = _columns("t")
    q = _columns("q1", "q4")
    w = _columns("w1", "w3")
    qe = _columns("qe1", "qe3")
    mc_cmd = _columns("mc1", "mc3")
    applied = _columns("applied1", "applied3")
    euler = _columns("phi", "psi")
    est_q = _columns("est_q1", "est_q4")
    est_w = _columns("est_w1", "est_w3")

    def __len__(self) -> int:
        return len(self.data)

    @property
    def cost_j(self) -> float:
        return trajectory_cost(self.qe, self.w, self.config.dt)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            _write_header(fh, self.config)
            wr = csv.writer(fh)
            wr.writerow(CSV_COLUMNS)
            # the writer formats Python floats with repr: shortest exact digits
            wr.writerows(self.data.tolist())

    @staticmethod
    def from_csv(path) -> "RunRecord":
        with open(path, newline="") as fh:
            lines = fh.readlines()
        n_head = next((i for i, line in enumerate(lines) if not line.startswith("# ")),
                      len(lines))
        if tuple(next(csv.reader(lines[n_head:n_head + 1]), ())) != CSV_COLUMNS:
            raise ValueError(f"unexpected run record columns in {path}")
        cfg = parse_sim_config("".join(line[2:] for line in lines[:n_head]))
        return RunRecord(np.loadtxt(lines[n_head + 1:], delimiter=",", ndmin=2), cfg)


def needed_roles(config: SimConfig) -> list[str]:
    """The roles whose trained bundles a run of config needs."""
    return [role for role, needed in (("controller", config.controller == "anfis"),
                                      ("estimator", config.estimator == "anfis"),
                                      ("integrated", config.controller == "integrated"))
            if needed]


def _require_bundle(bundles: dict | None, role: str) -> RoleBundle:
    if not bundles or role not in bundles or bundles[role] is None:
        raise MissingBundleError(f"run requires a trained {role!r} bundle")
    bundle = bundles[role]
    if bundle.role != role:
        raise MissingBundleError(f"bundle has role {bundle.role!r}, expected {role!r}")
    return bundle


def run_closed_loop(config: SimConfig, gains: PidGains | None = None,
                    bundles: dict | None = None,
                    record_sensors: bool = False) -> RunRecord:
    """Simulate one closed loop and log every sample.

    The truth estimator bypasses the sensors entirely; the neuro-fuzzy
    estimator and the integrated controller consume noisy sensor readings.
    The plant always integrates with the true inertia.  The controller
    acts on the error quaternion with nonnegative scalar part, so it takes
    the shorter way round to the commanded attitude.
    """
    n = config.n_steps
    dt = config.dt
    q_desired = euler_to_quat(config.desired_euler)

    if config.controller == "pid" and gains is None:
        raise ValueError("PID run requires gains")
    loop = {role: _require_bundle(bundles, role) for role in needed_roles(config)}
    ctrl_bundle, est_bundle, int_bundle = (
        loop.get("controller"), loop.get("estimator"), loop.get("integrated"))
    need_sensors = record_sensors or any(ROLES[r].inputs == SENSOR_CHANNELS for r in loop)

    data = np.empty((n + 1, len(CSV_COLUMNS)))
    sense = np.empty((n + 1, len(SENSOR_CHANNELS))) if need_sensors else None
    raw = np.empty((n + 1, 3)) if config.controller == "pid" else None
    if need_sensors:
        b_inertial = TiltedDipoleField().field(config.geo, config.epoch)
        b_norm = reference_norm(b_inertial)
        u_s_inertial = sun_direction_inertial(julian_date(config.epoch))
        s_norm = reference_norm(u_s_inertial)
        sense[:, REFERENCES] = np.concatenate([b_inertial / b_norm, u_s_inertial])
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed & 0x7FFFFFFF, config.noise.seed]))

    state = BodyState(euler_to_quat(config.initial_euler), config.initial_omega)
    pid_state = PidState()
    pwpf_state = pwpf_mod.PwpfState() if config.modulator == "pwpf" else None

    dc, da, df = config.disturbance_const, config.disturbance_amp, config.disturbance_freq_hz

    for k in range(n + 1):
        t = k * dt
        q, w = state

        if need_sensors:
            row = sense[k]
            dcm = quat_to_dcm(q)
            row[MAG_BODY] = magnetometer_reading(b_inertial, b_norm, dcm, config.noise, rng)
            row[SUN_BODY] = sun_sensor_reading(u_s_inertial, s_norm, dcm, config.noise, rng)
            row[GYRO] = gyro_reading(w, config.noise, rng)

        if config.estimator == "anfis":
            q_hat, w_hat = anfis_estimate(est_bundle, row)
        else:
            q_hat, w_hat = q, w

        qe = quaternion_error(q_hat, q_desired)
        qe_vec = (qe.q1, qe.q2, qe.q3) if qe.q4 >= 0.0 else (-qe.q1, -qe.q2, -qe.q3)

        if config.controller == "pid":
            mc, raw[k] = pid_step(qe_vec, w_hat, pid_state, gains, dt)
        elif config.controller == "anfis":
            mc = anfis_control(ctrl_bundle, qe_vec, w_hat)
        else:
            mc = anfis_integrated(int_bundle, row)

        if pwpf_state is not None:
            pwpf_state, applied = pwpf_mod.pwpf_step(pwpf_state, mc, dt, config.pwpf)
        else:
            applied = mc

        data[k] = (t, *q, *w, *qe_vec, *mc, *applied, *quat_to_euler(q), *q_hat, *w_hat)

        if k < n:
            s = math.sin(2.0 * math.pi * df * t)
            md = Torque(dc.m1 + da.m1 * s, dc.m2 + da.m2 * s, dc.m3 + da.m3 * s)
            state = integrate_step(state, config.inertia_true, applied, md, dt)

    return RunRecord(data, config, sense, raw)


def fuel_consumption(record: RunRecord) -> tuple[np.ndarray, float]:
    """Rectangle-rule integral of |applied torque| per axis, plus the total (N*m*s)."""
    if len(record) < 2:
        raise ValueError("record too short")
    per_axis = np.abs(record.applied[:-1]).sum(axis=0) * record.config.dt
    return per_axis, float(per_axis.sum())


def euler_errors(record: RunRecord) -> np.ndarray:
    """Per-sample Euler-angle error relative to the desired attitude, wrapped."""
    desired = np.asarray(record.config.desired_euler)
    err = record.euler - desired
    return (err + 180.0) % 360.0 - 180.0


def final_euler_error(record: RunRecord) -> np.ndarray:
    return euler_errors(record)[-1]


def settling_time(record: RunRecord, band: float = 0.01) -> list[float | None]:
    """Earliest time per axis after which the error stays inside band * |initial|.

    None marks an axis that never settles; an axis starting with zero error
    settles at t = 0.
    """
    err = euler_errors(record)
    out: list[float | None] = []
    for axis in range(3):
        init = abs(err[0, axis])
        if init == 0.0:
            out.append(0.0)
            continue
        threshold = band * init
        violations = np.nonzero(np.abs(err[:, axis]) > threshold)[0]
        if len(violations) == 0:
            out.append(0.0)
        elif violations[-1] == len(record) - 1:
            out.append(None)
        else:
            out.append(float(record.t[violations[-1] + 1]))
    return out


@dataclass
class Metrics:
    fuel_per_axis: np.ndarray
    fuel_total: float
    settling: list[float | None]
    final_error_deg: np.ndarray
    cost_j: float


def compute_metrics(record: RunRecord, band: float = 0.01) -> Metrics:
    fuel_axis, fuel_total = fuel_consumption(record)
    return Metrics(fuel_axis, fuel_total, settling_time(record, band),
                   final_euler_error(record), record.cost_j)


def tuning_objective(base: SimConfig):
    """Cost-of-gains objective for the simplex search: one noise-free PID run
    with the truth estimator and nominal plant inertia.
    """
    cfg = replace(base, controller="pid", estimator="truth", modulator="none",
                  noise=NoiseSpec(0.0, 0.0, 0.0),
                  inertia_true=base.inertia_nominal,
                  disturbance_const=Torque(0.0, 0.0, 0.0),
                  disturbance_amp=Torque(0.0, 0.0, 0.0))

    def objective(gains: PidGains) -> float:
        try:
            return run_closed_loop(cfg, gains=gains).cost_j
        except IntegrationDivergedError:
            return float("inf")

    return objective


# ---------------------------------------------------------------------------
# Monte Carlo campaign

@dataclass
class MonteCarloReport:
    """Per-run final Euler errors with running mean and 3-sigma statistics."""
    errors: np.ndarray          # (n_runs, 3); NaN rows mark failed runs
    mean: np.ndarray            # running mean over successful runs 1..k
    sigma3: np.ndarray          # running 3 * population std, same indexing
    n_failed: int
    config: MonteCarloConfig

    @property
    def max_abs_error(self) -> float:
        ok = self.errors[~np.isnan(self.errors[:, 0])]
        return float(np.max(np.abs(ok))) if len(ok) else float("nan")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            _write_header(fh, self.config.base, f"n_runs = {self.config.n_runs}",
                          f"master_seed = {self.config.master_seed}",
                          f"n_failed = {self.n_failed}")
            wr = csv.writer(fh)
            wr.writerow(["run", "err_phi", "err_theta", "err_psi",
                         "mean_phi", "mean_theta", "mean_psi",
                         "sigma3_phi", "sigma3_theta", "sigma3_psi"])
            rows = np.column_stack([self.errors, self.mean, self.sigma3]).tolist()
            wr.writerows([k] + row for k, row in enumerate(rows))


def _mc_run_config(mc: MonteCarloConfig, k: int) -> SimConfig:
    rng = np.random.default_rng(np.random.SeedSequence([mc.master_seed, k]))
    angles = rng.uniform(-mc.angle_range_deg, mc.angle_range_deg, size=3)
    rates = rng.uniform(-mc.rate_range, mc.rate_range, size=3)
    base = mc.base
    # unrealizable plants are redrawn from the same stream before the noise
    # seed, so a run whose first draw is realizable keeps all its numbers
    while True:
        di = rng.uniform(-mc.inertia_range, mc.inertia_range, size=3)
        inertia = InertiaTensor(*(max(0.1, i + d) for i, d in zip(base.inertia_nominal, di)))
        if inertia.realizable():
            break
    noise_seed = int(rng.integers(0, 2 ** 31))
    return replace(
        base,
        seed=noise_seed,
        initial_euler=EulerAngles(*angles),
        initial_omega=AngularVelocity(*rates),
        inertia_true=inertia,
        noise=replace(base.noise, seed=noise_seed),
    )


def _mc_single(args):
    mc, k, gains, bundles = args
    cfg = _mc_run_config(mc, k)
    try:
        rec = run_closed_loop(cfg, gains=gains, bundles=bundles)
        return k, final_euler_error(rec)
    except (IntegrationDivergedError, EstimateInvalidError):
        return k, None


def monte_carlo(mc: MonteCarloConfig, gains: PidGains | None = None,
                bundles: dict | None = None,
                workers: int = 1) -> MonteCarloReport:
    """Run the campaign: randomized initial attitude/rates, per-axis inertia
    perturbation, fresh noise per run -- all derived from the master seed so
    results are independent of worker count and scheduling.
    """
    tasks = [(mc, k, gains, bundles) for k in range(mc.n_runs)]
    results: list = [None] * mc.n_runs
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for k, err in pool.map(_mc_single, tasks, chunksize=8):
                results[k] = err
    else:
        for task in tasks:
            k, err = _mc_single(task)
            results[k] = err

    errors = np.full((mc.n_runs, 3), np.nan)
    mean = np.full((mc.n_runs, 3), np.nan)
    sigma3 = np.full((mc.n_runs, 3), np.nan)
    n_failed = 0
    for k, err in enumerate(results):
        if err is None:
            n_failed += 1
        else:
            errors[k] = err
        ok = errors[:k + 1][~np.isnan(errors[:k + 1, 0])]
        if len(ok):
            mean[k] = ok.mean(axis=0)
            sigma3[k] = 3.0 * ok.std(axis=0)
    return MonteCarloReport(errors, mean, sigma3, n_failed, mc)


# ---------------------------------------------------------------------------
# Controller comparison (the fuel / settling-time evaluation layout)

EVAL_CONDITIONS = ("without noise and uncertainty", "considering noise",
                   "considering uncertainty")


def evaluate_controllers(gains: PidGains, bundles: dict,
                         base: SimConfig = SimConfig(),
                         noise: NoiseSpec = NoiseSpec()) -> list[dict]:
    """Fuel and settling-time comparison of the PID and neuro-fuzzy controllers
    under nominal, noisy-sensor, and inertia-uncertainty conditions.

    Under noise both controllers read the neuro-fuzzy observer (noise enters
    the loop through the sensors); the other conditions use the truth state.
    """
    rows = []
    for condition in EVAL_CONDITIONS:
        cfg = replace(base, noise=NoiseSpec(0.0, 0.0, 0.0), estimator="truth",
                      inertia_true=base.inertia_nominal)
        if condition == "considering noise":
            cfg = replace(cfg, noise=noise, estimator="anfis")
        elif condition == "considering uncertainty":
            cfg = replace(cfg, inertia_true=UNCERTAIN_INERTIA)
        for controller in ("anfis", "pid"):
            rec = run_closed_loop(replace(cfg, controller=controller),
                                  gains=gains, bundles=bundles)
            m = compute_metrics(rec)
            rows.append({
                "condition": condition,
                "controller": controller,
                "fuel_x": float(m.fuel_per_axis[0]),
                "fuel_y": float(m.fuel_per_axis[1]),
                "fuel_z": float(m.fuel_per_axis[2]),
                "fuel_total": m.fuel_total,
                "settle_x": m.settling[0],
                "settle_y": m.settling[1],
                "settle_z": m.settling[2],
                "final_err_deg": [float(v) for v in m.final_error_deg],
            })
    return rows


def format_evaluation(rows: list[dict]) -> str:
    def fmt_settle(v):
        return f"{v:8.2f}" if v is not None else "   never"

    lines = []
    lines.append(f"{'condition':34s} {'ctrl':6s} {'fuel_x':>8s} {'fuel_y':>8s} "
                 f"{'fuel_z':>8s} {'total':>8s} {'ts_x':>8s} {'ts_y':>8s} {'ts_z':>8s}")
    for r in rows:
        lines.append(
            f"{r['condition']:34s} {r['controller']:6s} "
            f"{r['fuel_x']:8.4f} {r['fuel_y']:8.4f} {r['fuel_z']:8.4f} "
            f"{r['fuel_total']:8.4f} "
            f"{fmt_settle(r['settle_x'])} {fmt_settle(r['settle_y'])} "
            f"{fmt_settle(r['settle_z'])}")
    return "\n".join(lines)
