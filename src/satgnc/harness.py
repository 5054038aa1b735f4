"""Closed-loop simulation orchestration, metrics, and the Monte Carlo
robustness campaign.

A run wires together: sensor sampling of the true state, an estimator
(truth bypass or the neuro-fuzzy observer), quaternion error against the
commanded attitude, one of the three controllers, optional PWPF
modulation, and RK4 plant propagation with the true inertia.  A logged run's
metrics derive from its record, sampled on a uniform time grid: one
(samples, 27) matrix in CSV_COLUMNS order, whose time and Euler columns are
filled over the whole run and the rest one row per step; its named fields
(t, q, w, qe, ...) are column views.  A record is written out (to_csv) and
never read back.  Tuning and campaigns keep a RunSummary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import anfis, pwpf as pwpf_mod
from .config import (NOMINAL_INERTIA, UNCERTAIN_INERTIA, MonteCarloConfig, SimConfig,
                     dump_sim_config)
from .dynamics import (BodyState, InertiaTensor, IntegrationDivergedError, Torque,
                       euler_to_quat, integrate_step, quat_to_euler, quaternion_error)
from .pid import PidGains, PidState, pid_step
from .roles import (INERTIA_RANGE, ROLES, SENSOR_ROLES, EstimateInvalidError, RoleBundle,
                    _random_conditions, anfis_control, anfis_estimate, anfis_integrated,
                    pid_scenario, write_csv)
from .sensors import NoiseSpec, sensor_noise, sensor_row

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


SETTLING_BAND = 0.01        # settling: the error within this share of its initial value

# the columns a step writes: the true state to the applied torque, the estimate
_STEP = slice(CSV_COLUMNS.index("q1"), CSV_COLUMNS.index("phi"))
_ESTIMATE = slice(CSV_COLUMNS.index("est_q1"), None)


class MissingBundleError(RuntimeError):
    """A run requested a neuro-fuzzy role whose bundle was not supplied or does not fit it."""


def _columns(first: str, last: str | None = None) -> property:
    """View of the record's column first, or of its columns first..last."""
    i = CSV_COLUMNS.index(first)
    index = i if last is None else slice(i, CSV_COLUMNS.index(last) + 1)
    return property(lambda self: self.data[:, index])


def _config_echo(config: SimConfig, *extra: str) -> str:
    return "".join(f"# {line}\n" for line in dump_sim_config(config).splitlines() + list(extra))


@dataclass
class RunRecord:
    """Sampled closed-loop trajectory plus its configuration echo."""
    data: np.ndarray                   # (samples, 27), in CSV_COLUMNS order
    config: SimConfig
    cost_j: float                      # J by the rectangle rule, summed in step order
    mc_raw: np.ndarray | None = None   # unsaturated commands, PID runs only

    t = _columns("t")
    q = _columns("q1", "q4")
    w = _columns("w1", "w3")
    qe = _columns("qe1", "qe3")
    mc_cmd = _columns("mc1", "mc3")
    applied = _columns("applied1", "applied3")
    euler = _columns("phi", "psi")
    est_q = _columns("est_q1", "est_q4")

    def __len__(self) -> int:
        return len(self.data)

    def to_csv(self, path) -> None:
        write_csv(path, CSV_COLUMNS, self.data.tolist(), _config_echo(self.config))


@dataclass(frozen=True)
class RunSummary:
    """What tuning and a campaign read of a run (run_closed_loop's log=False)."""
    config: SimConfig
    cost_j: float           # summed in step order, as a record's
    euler: np.ndarray       # the last sample's, (1, 3)

    def __len__(self) -> int:   # the samples flown, as a record's; the benchmark reads it
        return self.config.n_steps + 1


def needed_roles(config: SimConfig) -> list[str]:
    """The roles whose trained bundles a run of config needs."""
    return [role for role, needed in (("controller", config.controller == "anfis"),
                                      ("estimator", config.estimator == "anfis"),
                                      ("integrated", config.controller == "integrated"))
            if needed]


def _require_bundle(bundles: dict | None, role: str) -> RoleBundle:
    bundle = (bundles or {}).get(role)
    if bundle is None:
        raise MissingBundleError(f"run requires a trained {role!r} bundle")
    spec = ROLES[role]
    # the role calls unpack the outputs, and anfis_control feeds (q_e, w), by position
    if (bundle.role, bundle.output_names) != (role, spec.outputs):
        raise MissingBundleError(f"{bundle.role} bundle gives {', '.join(bundle.output_names)}; "
                                 f"the {role} role needs {', '.join(spec.outputs)}")
    if role == "controller" and bundle.input_names != spec.inputs:
        raise MissingBundleError(f"controller bundle reads {', '.join(bundle.input_names)}; "
                                 f"the controller role needs {', '.join(spec.inputs)}")
    return bundle


@anfis.overflow_guard()          # once per run, not in every membership evaluation
def run_closed_loop(config: SimConfig, gains: PidGains | None = None,
                    bundles: dict | None = None, log: bool = True) -> RunRecord | RunSummary:
    """Simulate one closed loop and log every sample, or with log False keep
    only what tuning and a campaign read (a RunSummary).  The truth estimator
    bypasses the sensors entirely; the neuro-fuzzy estimator and the
    integrated controller read one noisy sensor row (sensors.sensor_row) per
    step, and only a run with one of them builds the rows.  The plant always
    integrates with the true inertia.  The controller acts on the error
    quaternion with nonnegative scalar part, so it takes the shorter way
    round to the commanded attitude.
    """
    n, dt = config.n_steps, config.dt
    qc = euler_to_quat(config.desired_euler)

    if config.controller == "pid" and gains is None:
        raise ValueError("PID run requires gains")
    loop = {role: _require_bundle(bundles, role) for role in needed_roles(config)}
    ctrl_bundle, est_bundle, int_bundle = map(loop.get, ("controller", "estimator", "integrated"))
    noise = (sensor_noise(config.noise, config.seed, n + 1)
             if any(r in SENSOR_ROLES for r in loop) else None)

    raw = np.empty((n + 1, 3)) if log and config.controller == "pid" else None
    data = np.empty((n + 1, len(CSV_COLUMNS))) if log else None

    state = BodyState(euler_to_quat(config.initial_euler), config.initial_omega)
    pid_state = PidState()
    pwpf_state = pwpf_mod.PwpfState() if config.modulator == "pwpf" else None

    dc, da, df = config.disturbance_const, config.disturbance_amp, config.disturbance_freq_hz
    # built once per run when constant: no amplitude, no -0.0 in dc (-0.0 + 0.0 * s takes s's sign)
    steady = not any(da) and all(v or math.copysign(1.0, v) > 0.0 for v in dc)
    md, inertia, cost_j = dc, config.inertia_true, 0.0

    for k in range(n + 1):
        q, w = state

        row = sensor_row(q, w, noise[k]) if noise else None

        q_hat, w_hat = anfis_estimate(est_bundle, row) if est_bundle else (q, w)

        qe_vec = quaternion_error(q_hat, qc)[:3]

        if config.controller == "pid":
            mc, mc_raw = pid_step(qe_vec, w_hat, pid_state, gains, dt)
            if log:
                raw[k] = mc_raw
        elif config.controller == "anfis":
            mc = anfis_control(ctrl_bundle, qe_vec, w_hat)
        else:
            mc = anfis_integrated(int_bundle, row)

        applied = mc
        if pwpf_state is not None:
            pwpf_state, applied = pwpf_mod.pwpf_step(pwpf_state, mc, dt, config.pwpf)

        if log:
            data[k, _STEP] = (*q, *w, *qe_vec, *mc, *applied)
            data[k, _ESTIMATE] = (*q_hat, *w_hat)

        if k < n:
            cost_j += dt * (abs(w[0]) + abs(w[1]) + abs(w[2])
                            + abs(qe_vec[0]) + abs(qe_vec[1]) + abs(qe_vec[2]))
            if not steady:
                s = math.sin(2.0 * math.pi * df * (k * dt))
                md = Torque(dc.m1 + da.m1 * s, dc.m2 + da.m2 * s, dc.m3 + da.m3 * s)
            state = integrate_step(state, inertia, applied, md, dt)

    if not log:
        return RunSummary(config, cost_j, quat_to_euler(state.q)[None])
    record = RunRecord(data, config, cost_j, raw)
    record.t[:] = np.arange(n + 1) * dt
    record.euler[:] = quat_to_euler(record.q.T)
    return record


def fuel_consumption(record: RunRecord) -> tuple[np.ndarray, float]:
    """Rectangle-rule integral of |applied torque| per axis, plus the total (N*m*s)."""
    if len(record) < 2:
        raise ValueError("record too short")
    per_axis = np.abs(record.applied[:-1]).sum(axis=0) * record.config.dt
    return per_axis, float(per_axis.sum())


def euler_errors(record: RunRecord | RunSummary) -> np.ndarray:
    """Per-sample Euler-angle error relative to the desired attitude, wrapped
    into [-180, 180); an error already there is returned unrounded."""
    desired = np.asarray(record.config.desired_euler)
    err = record.euler - desired
    inside = (err >= -180.0) & (err < 180.0)
    return np.where(inside, err, (err + 180.0) % 360.0 - 180.0)


def final_euler_error(record: RunRecord | RunSummary) -> np.ndarray:
    return euler_errors(record)[-1]


def settling_time(record: RunRecord) -> list[float | None]:
    """Earliest time per axis after which the error stays inside SETTLING_BAND * |initial|.

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
        threshold = SETTLING_BAND * init
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


def compute_metrics(record: RunRecord) -> Metrics:
    fuel_axis, fuel_total = fuel_consumption(record)
    return Metrics(fuel_axis, fuel_total, settling_time(record), final_euler_error(record),
                   record.cost_j)


def tuning_objective(base: SimConfig):
    """Cost-of-gains objective for the simplex search: one PID run of
    roles.pid_scenario(base), the scenario the teacher runs fly."""
    cfg = pid_scenario(base)

    def objective(gains: PidGains) -> float:
        try:
            return run_closed_loop(cfg, gains=gains, log=False).cost_j
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
        mc, rows = self.config, np.column_stack([self.errors, self.mean, self.sigma3]).tolist()
        write_csv(path, ("run",) + tuple(f"{stat}_{angle}" for stat in ("err", "mean", "sigma3")
                                         for angle in ("phi", "theta", "psi")),
                  ([k] + row for k, row in enumerate(rows)),
                  _config_echo(mc.base, f"n_runs = {mc.n_runs}", f"master_seed = {mc.master_seed}",
                               f"n_failed = {self.n_failed}"))


def _mc_run_config(mc: MonteCarloConfig, k: int) -> SimConfig:
    rng = np.random.default_rng(np.random.SeedSequence([mc.master_seed, k]))
    euler, omega = _random_conditions(rng)
    # unrealizable plants are redrawn from the same stream before the run's
    # seed, so a run whose first draw is realizable keeps all its numbers
    while True:
        di = rng.uniform(-INERTIA_RANGE, INERTIA_RANGE, size=3)
        inertia = InertiaTensor(*(max(0.1, i + d) for i, d in zip(NOMINAL_INERTIA, di)))
        if inertia.realizable():
            break
    return replace(mc.base, seed=int(rng.integers(0, 2 ** 31)), initial_euler=euler,
                   initial_omega=omega, inertia_true=inertia)


def _mc_final_error(mc: MonteCarloConfig, gains, bundles, k: int) -> np.ndarray | None:
    """Final Euler error of campaign run k, or None if the run failed."""
    try:
        return final_euler_error(run_closed_loop(_mc_run_config(mc, k), gains, bundles, log=False))
    except (IntegrationDivergedError, EstimateInvalidError):
        return None


def monte_carlo(mc: MonteCarloConfig, gains: PidGains | None = None,
                bundles: dict | None = None,
                workers: int = 1) -> MonteCarloReport:
    """Run the campaign: randomized initial attitude/rates, per-axis inertia
    perturbation, fresh noise per run -- all derived from the master seed so
    results are independent of worker count and scheduling.
    """
    run = partial(_mc_final_error, mc, gains, bundles)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here: a serial campaign needs no pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(mc.n_runs), chunksize=8))
    else:
        results = list(map(run, range(mc.n_runs)))

    errors, mean, sigma3 = (np.full((mc.n_runs, 3), np.nan) for _ in range(3))
    # Welford's running mean and sum of squared deviations over the successful
    # runs so far, in one pass; a failed run repeats the statistics before it
    n_ok, m, m2 = 0, np.zeros(3), np.zeros(3)
    for k, err in enumerate(results):
        if err is not None:
            errors[k] = err
            n_ok += 1
            delta = err - m
            m = m + delta / n_ok
            m2 = m2 + delta * (err - m)
        if n_ok:
            mean[k] = m
            sigma3[k] = 3.0 * np.sqrt(m2 / n_ok)
    return MonteCarloReport(errors, mean, sigma3, mc.n_runs - n_ok, mc)


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
                      inertia_true=NOMINAL_INERTIA)
        if condition == "considering noise":
            cfg = replace(cfg, noise=noise, estimator="anfis")
        elif condition == "considering uncertainty":
            cfg = replace(cfg, inertia_true=UNCERTAIN_INERTIA)
        for controller in ("anfis", "pid"):
            rec = run_closed_loop(replace(cfg, controller=controller),
                                  gains=gains, bundles=bundles)
            m = compute_metrics(rec)
            rows.append({
                "condition": condition, "controller": controller,
                **{f"fuel_{a}": float(v) for a, v in zip("xyz", m.fuel_per_axis)},
                "fuel_total": m.fuel_total,
                **{f"settle_{a}": v for a, v in zip("xyz", m.settling)},
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
