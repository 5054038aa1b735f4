"""The three neuro-fuzzy roles built on the TS core: torque controller,
attitude/rate estimator, and the integrated sensors-to-torque subsystem,
plus their training-data pipelines.

ROLES states each role once: its dataset's input channels, its output
channels, the input columns its bundle reads, its ridge and its default
number of teacher runs; training, the dataset views and the CLI read it.
All three roles learn from one PID teacher-run loop: the controller from
noise-free (q_e, w) runs, the estimator and the integrated subsystem from
views of one sensor dataset.

Each role is a bundle of output channels over one shared premise grid:
one ANFIS model whose consequents are a (channels, rules, inputs + 1)
stack, fit by one multi-output anfis.fit_consequents solve and evaluated
by anfis.forward, so one firing pass serves every channel.  The
15-channel sensor roles read a pruned 9-channel input (the two body-frame
direction triplets plus the gyro): with a fixed position and epoch the
inertial references are constant and carry no information.
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
from .dynamics import (AngularVelocity, EulerAngles, IntegrationDivergedError, Quaternion,
                       Torque)
from .pid import PidGains, saturate
from .sensors import GYRO, MAG_BODY, SENSOR_CHANNELS, SUN_BODY

__all__ = [
    "RoleBundle",
    "RoleDataset",
    "EstimateInvalidError",
    "PRUNED_COLUMNS",
    "ROLES",
    "RoleSpec",
    "generate_controller_data",
    "generate_sensor_data",
    "role_view",
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
PRUNED_COLUMNS = tuple(i for block in (MAG_BODY, SUN_BODY, GYRO)
                       for i in range(block.start, block.stop))

MFS_PER_INPUT = 2          # membership functions per input, every role
HOLDOUT_FRACTION = 0.1     # share of a dataset's runs held out from training
MAX_TRAIN_ROWS = 12000     # training rows kept, by a uniform stride
MAX_DIVERGED_DRAWS = 20    # diverged teacher runs redrawn before giving up

# the initial-condition envelope of teacher runs and campaign runs alike
ANGLE_RANGE_DEG = 15.0     # initial Euler angles, uniform within +-this
RATE_RANGE = 0.1           # initial body rates, rad/s, uniform within +-this
INERTIA_RANGE = 1.0        # campaign plant inertia, kg*m^2, nominal +-this per axis


@dataclass(frozen=True)
class RoleSpec:
    """One role: its dataset's input channels, the output channels it
    learns, the dataset columns its bundle reads (None: all of them), the
    ridge of its fit, and its default number of teacher runs."""
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    columns: tuple[int, ...] | None
    ridge: float
    runs: int


ROLES = {
    "controller": RoleSpec(CONTROLLER_CHANNELS, TORQUE_CHANNELS, None, 1e-2, 15),
    "estimator": RoleSpec(SENSOR_CHANNELS, STATE_CHANNELS, PRUNED_COLUMNS, 0.1, 12),
    "integrated": RoleSpec(SENSOR_CHANNELS, TORQUE_CHANNELS, PRUNED_COLUMNS, 0.1, 12),
}


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

    def split_by_run(self):
        """(train, holdout) split by whole runs, preserving order: the last
        HOLDOUT_FRACTION of the runs, at least one of two or more, are held out."""
        runs = np.unique(self.run_ids)
        n_hold = max(1, int(round(HOLDOUT_FRACTION * len(runs)))) if len(runs) > 1 else 0
        mask = np.isin(self.run_ids, runs[len(runs) - n_hold:])
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
        if len(m.coeffs) != len(self.output_names):
            raise ValueError(f"{self.role} bundle holds {len(m.coeffs)} consequent tables "
                             f"for its {len(self.output_names)} outputs")
        # everything predict() needs that does not depend on the input
        self._extrapolation_warned = False
        r = m.input_ranges
        self._center = 0.5 * (r[:, 0] + r[:, 1])
        self._limit = 1.5 * np.maximum(0.5 * (r[:, 1] - r[:, 0]), 1e-12)
        # the bundle's inputs within a 15-channel sensor row (SENSOR_CHANNELS)
        self._columns = (slice(None) if self.input_columns is None
                         else np.array(self.input_columns, dtype=np.intp))

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
        return anfis.forward(self.model, x)[0]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """(N, channels) outputs; row n equals predict(x[n]) bit for bit."""
        return anfis.forward(self.model, x)


def _random_conditions(rng: np.random.Generator) -> tuple[EulerAngles, AngularVelocity]:
    """Uniform initial Euler angles and body rates within the envelope."""
    return (EulerAngles(*rng.uniform(-ANGLE_RANGE_DEG, ANGLE_RANGE_DEG, size=3)),
            AngularVelocity(*rng.uniform(-RATE_RANGE, RATE_RANGE, size=3)))


def _teacher_runs(gains: PidGains, n_runs: int, seed: int, tag: int, draw, rows,
                  record_sensors: bool = False):
    """The one teacher-run loop: draw a config from the (seed, tag) stream,
    run the PID teacher on it, and redraw with a warning if the run
    diverges; the MAX_DIVERGED_DRAWS-th diverged run raises.  rows(record)
    picks a run's (inputs, targets); returns them stacked over the runs,
    with each row's run id."""
    from .harness import run_closed_loop

    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    inputs, targets, diverged = [], [], 0
    while len(inputs) < n_runs:
        cfg = draw(rng)
        try:
            rec = run_closed_loop(cfg, gains=gains, record_sensors=record_sensors)
        except IntegrationDivergedError as exc:
            diverged += 1
            if diverged == MAX_DIVERGED_DRAWS:
                raise IntegrationDivergedError(
                    f"{diverged} teacher runs diverged; the gains do not hold the plant") from exc
            warnings.warn("closed-loop run diverged during data generation; "
                          "initial condition redrawn", stacklevel=3)
            continue
        x, y = rows(rec)
        inputs.append(x)
        targets.append(y)
    run_ids = np.repeat(np.arange(n_runs), [len(x) for x in inputs])
    return np.vstack(inputs), np.vstack(targets), run_ids


def generate_controller_data(gains: PidGains, n_runs: int = ROLES["controller"].runs,
                             base: SimConfig = SimConfig()) -> RoleDataset:
    """PID teacher trajectories: (q_e, w) -> commanded torque at every step.

    The targets are the teacher's unsaturated commands: the saturation
    clamp is re-applied at inference (anfis_control), so learning the
    smooth pre-clamp map avoids wasting model capacity on the flat
    saturated regions.  Runs noise-free closed loops of the nominal plant
    from randomized initial conditions; of base it reads only dt, duration
    and the seed of the draws.
    """
    def draw(rng):
        euler, omega = _random_conditions(rng)
        return SimConfig(dt=base.dt, duration=base.duration, seed=base.seed,
                         initial_euler=euler, initial_omega=omega)

    # the record's last sample has no step after it, so it is not a training row
    inputs, targets, run_ids = _teacher_runs(
        gains, n_runs, base.seed, 0xC0, draw,
        lambda rec: (np.column_stack([rec.qe[:-1], rec.w[:-1]]), rec.mc_raw[:-1]))
    return RoleDataset(inputs, targets, run_ids, CONTROLLER_CHANNELS, TORQUE_CHANNELS,
                       {"role": "controller", "seed": base.seed, "n_runs": n_runs,
                        "mc_max": gains.mc_max})


def generate_sensor_data(gains: PidGains, n_runs: int = ROLES["estimator"].runs,
                         base: SimConfig = SimConfig()) -> RoleDataset:
    """Sensor trajectories of the nominal plant under PID control, with both
    state and torque targets.  The scenario is base's: its step, duration,
    sensor noise and the seed of the draws; each run gets its own seed.

    Targets are the 7 true-state channels followed by the teacher's 3
    unsaturated torque commands (the clamp is re-applied at inference);
    role_view narrows them to the estimator's or the integrated role's.
    """
    def draw(rng):
        euler, omega = _random_conditions(rng)
        return replace(base, seed=int(rng.integers(0, 2 ** 31)),
                       inertia_nominal=NOMINAL_INERTIA, inertia_true=NOMINAL_INERTIA,
                       initial_euler=euler, initial_omega=omega,
                       controller="pid", estimator="truth", modulator="none")

    inputs, targets, run_ids = _teacher_runs(
        gains, n_runs, base.seed, 0xE5, draw,
        lambda rec: (rec.sensor[:-1],
                     np.column_stack([rec.q[:-1], rec.w[:-1], rec.mc_raw[:-1]])),
        record_sensors=True)
    return RoleDataset(inputs, targets, run_ids,
                       SENSOR_CHANNELS, STATE_CHANNELS + TORQUE_CHANNELS,
                       {"role": "sensor", "seed": base.seed, "n_runs": n_runs,
                        "mc_max": gains.mc_max,
                        "noise": (base.noise.sigma_mag, base.noise.sigma_sun,
                                  base.noise.sigma_gyro)})


def role_view(data: RoleDataset, role: str) -> RoleDataset:
    """The role's dataset: data with its targets narrowed, by name, to the
    role's output channels (a sensor dataset holds the state and the torque)."""
    outputs = ROLES[role].outputs
    cols = [data.target_names.index(name) for name in outputs]
    return RoleDataset(data.inputs, data.targets[:, cols], data.run_ids,
                       data.input_names, outputs, dict(data.metadata, role=role))


def _fit_shared_lse(inputs: np.ndarray, targets: np.ndarray, ridge: float) -> AnfisModel:
    """All channels share fixed grid premises over the padded input ranges;
    one multi-output fit shrunk toward the global linear fit of each channel."""
    lo, hi = inputs.min(axis=0), inputs.max(axis=0)
    pad = np.maximum(1e-6, 0.05 * (hi - lo))
    model = anfis.grid_partition_init(np.column_stack([lo - pad, hi + pad]), MFS_PER_INPUT)
    model.coeffs, rmse = anfis.fit_consequents(model, inputs, targets, ridge)
    model.metadata["train_rmse"] = rmse.tolist()
    return model


def train_controller(data: RoleDataset) -> RoleBundle:
    """Three torque channels fit on (q_e, w)."""
    return _train_role(data, "controller")


def train_estimator(data: RoleDataset) -> RoleBundle:
    """Seven state channels fit on the pruned sensor inputs."""
    return _train_role(data, "estimator")


def train_integrated(data: RoleDataset) -> RoleBundle:
    """Three torque channels fit on the pruned sensor inputs."""
    return _train_role(data, "integrated")


def _train_role(data: RoleDataset, role: str) -> RoleBundle:
    """The one training path: a run-wise holdout split, a strided cap of
    MAX_TRAIN_ROWS training rows, and one shared-premise fit of the role's
    outputs on its input columns."""
    spec = ROLES[role]
    columns = slice(None) if spec.columns is None else list(spec.columns)
    train_ds, hold_ds = data.split_by_run()
    x, y = train_ds.inputs[:, columns], train_ds.targets
    if len(x) > MAX_TRAIN_ROWS:
        stride = int(np.ceil(len(x) / MAX_TRAIN_ROWS))
        x, y = x[::stride], y[::stride]
    model = _fit_shared_lse(x, y, spec.ridge)
    input_names = (data.input_names if spec.columns is None
                   else tuple(data.input_names[i] for i in spec.columns))
    bundle = RoleBundle(role, model, input_names, spec.outputs, spec.columns,
                        float(data.metadata.get("mc_max", 1.0)))
    if len(hold_ds):
        err = bundle.predict_batch(hold_ds.inputs[:, columns]) - hold_ds.targets
        holdout_rmse = [float(np.sqrt(np.mean(e ** 2))) for e in err.T]
    else:
        holdout_rmse = [float("nan")] * len(spec.outputs)
    bundle.metadata["holdout_rmse"] = holdout_rmse
    bundle.metadata["mfs_per_input"] = MFS_PER_INPUT
    if spec.columns is not None:
        bundle.metadata["pruned_columns"] = list(spec.columns)
    return bundle


def anfis_control(bundle: RoleBundle, qe_vec, w) -> Torque:
    """Per-axis forward pass on (q_e, w), saturated to the training torque bound."""
    if bundle.role != "controller":
        raise ValueError(f"expected a controller bundle, got {bundle.role!r}")
    x = np.array([qe_vec[0], qe_vec[1], qe_vec[2], w[0], w[1], w[2]])
    return saturate(bundle.predict(x), bundle.mc_max)


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
    return saturate(bundle.predict(row[bundle._columns]), bundle.mc_max)


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
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        version = manifest.get("format_version")
        if version == BUNDLE_FORMAT_VERSION:
            cols = manifest["input_columns"]
            fields = dict(role=manifest["role"],
                          input_names=tuple(manifest["input_names"]),
                          output_names=tuple(manifest["output_names"]),
                          input_columns=tuple(cols) if cols is not None else None,
                          mc_max=float(manifest["mc_max"]),
                          metadata=manifest.get("metadata", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # not JSON, not an object, or a missing or mistyped entry
        raise ValueError(f"malformed bundle manifest {manifest_path}: {exc!r}") from exc
    if version != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle format version in {manifest_path}")
    return RoleBundle(model=anfis.load_model(d / MODEL_FILE), **fields)
