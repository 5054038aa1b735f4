"""The three neuro-fuzzy roles built on the TS core: torque controller,
attitude/rate estimator, and the integrated sensors-to-torque subsystem,
plus their training-data pipelines.

Each role is a bundle of output channels over one shared premise grid:
one model whose consequents are a (channels, rules, inputs + 1) stack,
fit by a single multi-output least-squares solve, so one firing pass
serves every channel.  The 15-channel sensor roles default to a pruned
9-channel input (the two body-frame direction triplets plus the gyro):
with a fixed position and epoch the inertial references are constant and
carry no information.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import anfis
from .anfis import AnfisModel
from .config import NOMINAL_INERTIA, SimConfig
from .dynamics import AngularVelocity, EulerAngles, InertiaTensor, Quaternion, Torque
from .pid import PidGains
from .sensors import SENSOR_CHANNELS, NoiseSpec

__all__ = [
    "RoleBundle",
    "RoleDataset",
    "EstimateInvalidError",
    "PRUNED_COLUMNS",
    "generate_controller_data",
    "generate_sensor_data",
    "generate_estimator_data",
    "generate_integrated_data",
    "train_controller",
    "train_estimator",
    "train_integrated",
    "anfis_control",
    "anfis_estimate",
    "anfis_integrated",
    "save_bundle",
    "load_bundle",
]

BUNDLE_FORMAT_VERSION = 2
MODEL_FILE = "model.json"

CONTROLLER_CHANNELS = ("qe1", "qe2", "qe3", "w1", "w2", "w3")
TORQUE_CHANNELS = ("mc1", "mc2", "mc3")
STATE_CHANNELS = ("q1", "q2", "q3", "q4", "w1", "w2", "w3")

# body-frame magnetometer + sun sensor + gyro; inertial references dropped
PRUNED_COLUMNS = (0, 1, 2, 3, 4, 5, 12, 13, 14)


class EstimateInvalidError(RuntimeError):
    """Raised when the predicted quaternion has near-zero norm."""


@dataclass
class RoleDataset:
    """Input/target matrices with run provenance for leakage-free splitting."""
    inputs: np.ndarray
    targets: np.ndarray
    run_ids: np.ndarray
    input_names: tuple[str, ...]
    target_names: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        self.targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        self.run_ids = np.asarray(self.run_ids, dtype=np.intp)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def split_by_run(self, holdout_fraction: float = 0.1):
        """(train, holdout) split by whole runs, preserving order."""
        runs = np.unique(self.run_ids)
        n_hold = max(1, int(round(holdout_fraction * len(runs)))) if len(runs) > 1 else 0
        hold_runs = set(runs[len(runs) - n_hold:].tolist())
        mask = np.array([r in hold_runs for r in self.run_ids])
        return self._subset(~mask), self._subset(mask)

    def _subset(self, mask) -> "RoleDataset":
        return RoleDataset(self.inputs[mask], self.targets[mask], self.run_ids[mask],
                           self.input_names, self.target_names, dict(self.metadata))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(("run",) + self.input_names + self.target_names)
            # the writer formats Python floats with repr: shortest exact digits
            wr.writerows([rid] + x + y for rid, x, y in zip(
                self.run_ids.tolist(), self.inputs.tolist(), self.targets.tolist()))

    @staticmethod
    def from_csv(path, n_inputs: int) -> "RoleDataset":
        with open(path, newline="") as fh:
            names = tuple(next(csv.reader(fh))[1:])
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return RoleDataset(data[:, 1:n_inputs + 1], data[:, n_inputs + 1:],
                           data[:, 0].astype(np.intp), names[:n_inputs], names[n_inputs:])


@dataclass
class RoleBundle:
    """The trained channels of a role: one shared premise, and in
    model.coeffs one (n_rules, n_inputs + 1) consequent table per output."""
    role: str
    model: AnfisModel
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    input_columns: tuple[int, ...] | None = None   # selection from the sensor row
    mc_max: float = 1.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.model
        if m.coeffs.shape != (len(self.output_names), m.n_rules, m.n_inputs + 1):
            raise ValueError(f"{self.role} bundle consequents have shape {m.coeffs.shape}, "
                             f"expected one ({m.n_rules}, {m.n_inputs + 1}) table for "
                             f"each of its {len(self.output_names)} outputs")
        # everything predict() needs that does not depend on the input
        self._extrapolation_warned = False
        r = m.input_ranges
        self._center = 0.5 * (r[:, 0] + r[:, 1])
        self._limit = 1.5 * np.maximum(0.5 * (r[:, 1] - r[:, 0]), 1e-12)
        # the bundle's inputs within a 15-channel sensor row (SENSOR_CHANNELS)
        self._columns = (slice(None) if self.input_columns is None
                         else np.array(self.input_columns, dtype=np.intp))
        self._premise = anfis.FlatPremise.of(m)

    @property
    def n_inputs(self) -> int:
        return self.model.n_inputs

    def predict(self, x) -> np.ndarray:
        """Channel outputs for one input vector (already column-selected)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_inputs,):
            raise ValueError(f"{self.role} bundle expects {self.n_inputs} inputs, "
                             f"got shape {x.shape}")
        if (not self._extrapolation_warned
                and (np.abs(x - self._center) > self._limit).any()):
            warnings.warn(f"{self.role} bundle evaluated outside 1.5x its "
                          "training envelope; extrapolating", stacklevel=2)
            self._extrapolation_warned = True
        return self._outputs(x[None, :])[0]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """(N, channels) outputs; row n equals predict(x[n]) bit for bit."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n_inputs:
            raise ValueError(f"{self.role} bundle expects {self.n_inputs} inputs, "
                             f"got {x.shape[1]}")
        return self._outputs(x)

    def _outputs(self, x: np.ndarray) -> np.ndarray:
        wbar = anfis.flat_firing(self._premise, np.ascontiguousarray(x))
        xaug = np.empty((len(x), x.shape[1] + 1))
        xaug[:, :-1] = x
        xaug[:, -1] = 1.0
        # one matrix-vector product per sample and channel, so a row's result
        # does not depend on the batch it is in
        f = self.model.coeffs @ xaug[:, None, :, None]
        return (f[..., 0] @ wbar[:, :, None])[..., 0]


def _random_conditions(rng: np.random.Generator, n: int,
                       angle_range: float = 15.0, rate_range: float = 0.1):
    """Uniform initial Euler angles (deg) and body rates (rad/s)."""
    angles = rng.uniform(-angle_range, angle_range, size=(n, 3))
    rates = rng.uniform(-rate_range, rate_range, size=(n, 3))
    return angles, rates


def generate_controller_data(gains: PidGains, n_conditions: int = 15,
                             duration: float = 20.0, dt: float = 0.01,
                             seed: int = 0,
                             inertia: InertiaTensor = NOMINAL_INERTIA) -> RoleDataset:
    """PID teacher trajectories: (q_e, w) -> commanded torque at every step.

    The targets are the teacher's unsaturated commands: the saturation
    clamp is re-applied at inference (anfis_control), so learning the
    smooth pre-clamp map avoids wasting model capacity on the flat
    saturated regions.  Runs noise-free closed loops from randomized
    initial conditions; a diverged condition is resampled with a warning.
    """
    from .harness import run_closed_loop
    from .dynamics import IntegrationDivergedError

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    inputs, targets, run_ids = [], [], []
    accepted = 0
    while accepted < n_conditions:
        angles, rates = _random_conditions(rng, 1)
        cfg = SimConfig(
            dt=dt, duration=duration, seed=seed,
            inertia_nominal=inertia, inertia_true=inertia,
            initial_euler=EulerAngles(*angles[0]),
            initial_omega=AngularVelocity(*rates[0]),
            controller="pid", estimator="truth", modulator="none",
        )
        try:
            rec = run_closed_loop(cfg, gains=gains)
        except IntegrationDivergedError:
            warnings.warn("closed-loop run diverged during data generation; "
                          "initial condition resampled", stacklevel=2)
            continue
        n = cfg.n_steps
        inputs.append(np.column_stack([rec.qe[:n], rec.w[:n]]))
        targets.append(rec.mc_raw[:n])
        run_ids.append(np.full(n, accepted, dtype=np.intp))
        accepted += 1
    return RoleDataset(
        np.vstack(inputs), np.vstack(targets), np.concatenate(run_ids),
        CONTROLLER_CHANNELS, TORQUE_CHANNELS,
        {"role": "controller", "seed": seed, "n_conditions": n_conditions,
         "mc_max": gains.mc_max},
    )


def generate_sensor_data(gains: PidGains, n_scenarios: int = 12,
                         duration: float = 20.0, dt: float = 0.01, seed: int = 0,
                         noise: NoiseSpec = NoiseSpec(),
                         inertia: InertiaTensor = NOMINAL_INERTIA,
                         base: SimConfig = SimConfig()) -> RoleDataset:
    """Sensor trajectories under PID control, with both state and torque targets.

    Targets are the 7 true-state channels followed by the teacher's 3
    unsaturated torque commands (the clamp is re-applied at inference);
    the estimator and integrated datasets are column views of this.
    """
    from .harness import run_closed_loop
    from .dynamics import IntegrationDivergedError

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE5]))
    inputs, targets, run_ids = [], [], []
    accepted = 0
    while accepted < n_scenarios:
        angles, rates = _random_conditions(rng, 1)
        noise_seed = int(rng.integers(0, 2 ** 31))
        cfg = replace(
            base,
            dt=dt, duration=duration, seed=noise_seed,
            inertia_nominal=inertia, inertia_true=inertia,
            initial_euler=EulerAngles(*angles[0]),
            initial_omega=AngularVelocity(*rates[0]),
            noise=replace(noise, seed=noise_seed),
            controller="pid", estimator="truth", modulator="none",
        )
        try:
            rec = run_closed_loop(cfg, gains=gains, record_sensors=True)
        except IntegrationDivergedError:
            warnings.warn("closed-loop run diverged during data generation; "
                          "scenario resampled", stacklevel=2)
            continue
        n = cfg.n_steps
        inputs.append(rec.sensor[:n])
        targets.append(np.column_stack([rec.q[:n], rec.w[:n], rec.mc_raw[:n]]))
        run_ids.append(np.full(n, accepted, dtype=np.intp))
        accepted += 1
    return RoleDataset(
        np.vstack(inputs), np.vstack(targets), np.concatenate(run_ids),
        SENSOR_CHANNELS, STATE_CHANNELS + TORQUE_CHANNELS,
        {"role": "sensor", "seed": seed, "n_scenarios": n_scenarios,
         "mc_max": gains.mc_max,
         "noise": (noise.sigma_mag, noise.sigma_sun, noise.sigma_gyro)},
    )


def generate_estimator_data(*args, **kwargs) -> RoleDataset:
    """Sensor inputs with true (q, w) targets."""
    ds = generate_sensor_data(*args, **kwargs)
    out = RoleDataset(ds.inputs, ds.targets[:, :7], ds.run_ids,
                      ds.input_names, STATE_CHANNELS, dict(ds.metadata))
    out.metadata["role"] = "estimator"
    return out


def generate_integrated_data(*args, **kwargs) -> RoleDataset:
    """Sensor inputs with the PID teacher's commanded torque as targets."""
    ds = generate_sensor_data(*args, **kwargs)
    out = RoleDataset(ds.inputs, ds.targets[:, 7:], ds.run_ids,
                      ds.input_names, TORQUE_CHANNELS, dict(ds.metadata))
    out.metadata["role"] = "integrated"
    return out


def _holdout_rmse(bundle: RoleBundle, holdout: RoleDataset,
                  columns: tuple[int, ...] | None) -> list[float]:
    if len(holdout) == 0:
        return [float("nan")] * len(bundle.output_names)
    x = holdout.inputs if columns is None else holdout.inputs[:, list(columns)]
    pred = bundle.predict_batch(x)
    return [float(np.sqrt(np.mean((pred[:, k] - holdout.targets[:, k]) ** 2)))
            for k in range(pred.shape[1])]


def _fit_shared_lse(inputs: np.ndarray, targets: np.ndarray, ranges: np.ndarray,
                    mfs_per_input, ridge: float) -> AnfisModel:
    """All channels share fixed grid premises; one multi-RHS LSE solve
    shrunk toward the global linear fit of each channel."""
    model = anfis.grid_partition_init(ranges, mfs_per_input)
    a_mat = anfis.design_matrix(model, inputs)
    prior = anfis.linear_consequent_prior(model, inputs, targets)
    sol = anfis.solve_consequents(a_mat, targets, ridge,
                                  prior.reshape(-1, targets.shape[1]))
    model.coeffs = np.ascontiguousarray(
        sol.T.reshape(targets.shape[1], model.n_rules, model.n_inputs + 1))
    resid = a_mat @ sol - targets
    model.metadata["train_rmse"] = np.sqrt(np.mean(resid ** 2, axis=0)).tolist()
    return model


def _ranges(x: np.ndarray) -> np.ndarray:
    lo, hi = x.min(axis=0), x.max(axis=0)
    pad = np.maximum(1e-6, 0.05 * (hi - lo))
    return np.column_stack([lo - pad, hi + pad])


def train_controller(data: RoleDataset, mfs_per_input: int = 2,
                     holdout_fraction: float = 0.1) -> RoleBundle:
    """Three torque channels fit by a shared-premise LSE on (q_e, w)."""
    return _train_role(data, "controller", TORQUE_CHANNELS, mfs_per_input,
                       columns=None, ridge=1e-2, holdout_fraction=holdout_fraction,
                       max_samples=12000)


def train_estimator(data: RoleDataset, mfs_per_input: int = 2,
                    columns: tuple[int, ...] = PRUNED_COLUMNS,
                    ridge: float = 0.1, holdout_fraction: float = 0.1,
                    max_samples: int = 12000) -> RoleBundle:
    """Seven state channels fit by a shared-premise LSE on the pruned inputs."""
    return _train_role(data, "estimator", STATE_CHANNELS, mfs_per_input,
                       columns, ridge, holdout_fraction, max_samples)


def train_integrated(data: RoleDataset, mfs_per_input: int = 2,
                     columns: tuple[int, ...] = PRUNED_COLUMNS,
                     ridge: float = 0.1, holdout_fraction: float = 0.1,
                     max_samples: int = 12000) -> RoleBundle:
    """Three torque channels fit by a shared-premise LSE on the pruned inputs."""
    return _train_role(data, "integrated", TORQUE_CHANNELS, mfs_per_input,
                       columns, ridge, holdout_fraction, max_samples)


def _train_role(data, role, output_names, mfs_per_input, columns, ridge,
                holdout_fraction, max_samples) -> RoleBundle:
    """The one training path: a run-wise holdout split, a strided cap of
    max_samples training rows, and one shared-premise fit.  columns=None
    keeps every input."""
    train_ds, hold_ds = data.split_by_run(holdout_fraction)
    x = train_ds.inputs if columns is None else train_ds.inputs[:, list(columns)]
    y = train_ds.targets
    if len(x) > max_samples:
        stride = int(np.ceil(len(x) / max_samples))
        x, y = x[::stride], y[::stride]
    model = _fit_shared_lse(x, y, _ranges(x), mfs_per_input, ridge)
    input_names = (data.input_names if columns is None
                   else tuple(data.input_names[i] for i in columns))
    bundle = RoleBundle(role, model, input_names, tuple(output_names),
                        None if columns is None else tuple(columns),
                        float(data.metadata.get("mc_max", 1.0)))
    bundle.metadata["holdout_rmse"] = _holdout_rmse(bundle, hold_ds, columns)
    bundle.metadata["mfs_per_input"] = mfs_per_input
    if columns is not None:
        bundle.metadata["pruned_columns"] = list(columns)
    return bundle


def anfis_control(bundle: RoleBundle, qe_vec, w) -> Torque:
    """Per-axis forward pass on (q_e, w), saturated to the training torque bound."""
    if bundle.role != "controller":
        raise ValueError(f"expected a controller bundle, got {bundle.role!r}")
    x = np.array([qe_vec[0], qe_vec[1], qe_vec[2], w[0], w[1], w[2]])
    y = bundle.predict(x)
    m = bundle.mc_max
    return Torque(*(min(m, max(-m, float(v))) for v in y))


def anfis_estimate(bundle: RoleBundle, row: np.ndarray
                   ) -> tuple[Quaternion, AngularVelocity]:
    """Attitude and rate estimate from a sensor row; the quaternion channels
    are renormalized."""
    if bundle.role != "estimator":
        raise ValueError(f"expected an estimator bundle, got {bundle.role!r}")
    y = bundle.predict(row[bundle._columns])
    qn = float(np.linalg.norm(y[:4]))
    if qn < 0.1:
        raise EstimateInvalidError(f"predicted quaternion norm {qn:.3g} below 0.1")
    q = Quaternion(y[0] / qn, y[1] / qn, y[2] / qn, y[3] / qn)
    return q, AngularVelocity(float(y[4]), float(y[5]), float(y[6]))


def anfis_integrated(bundle: RoleBundle, row: np.ndarray) -> Torque:
    """Sensor row straight to saturated control torque."""
    if bundle.role != "integrated":
        raise ValueError(f"expected an integrated bundle, got {bundle.role!r}")
    y = bundle.predict(row[bundle._columns])
    m = bundle.mc_max
    return Torque(*(min(m, max(-m, float(v))) for v in y))


def save_bundle(bundle: RoleBundle, dirpath) -> None:
    """Bundle directory: a manifest plus one model file holding the shared
    premise and the consequent stack."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    anfis.save_model(bundle.model, d / MODEL_FILE)
    manifest = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "role": bundle.role,
        "input_names": list(bundle.input_names),
        "output_names": list(bundle.output_names),
        "input_columns": (list(bundle.input_columns)
                          if bundle.input_columns is not None else None),
        "mc_max": bundle.mc_max,
        "metadata": bundle.metadata,
    }
    with open(d / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


def load_bundle(dirpath) -> RoleBundle:
    d = Path(dirpath)
    manifest_path = d / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"bundle manifest not found: {manifest_path}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle format version in {manifest_path}")
    cols = manifest["input_columns"]
    return RoleBundle(
        role=manifest["role"],
        model=anfis.load_model(d / MODEL_FILE),
        input_names=tuple(manifest["input_names"]),
        output_names=tuple(manifest["output_names"]),
        input_columns=tuple(cols) if cols is not None else None,
        mc_max=float(manifest["mc_max"]),
        metadata=manifest.get("metadata", {}),
    )
