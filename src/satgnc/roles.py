"""The three neuro-fuzzy roles built on the TS core: torque controller,
attitude/rate estimator, and the integrated sensors-to-torque subsystem,
plus their training-data pipelines.

ROLES states each role once, naming the input channels its bundle reads and
its output channels, with its ridge and default number of teacher runs; the
datasets, training, bundles, the harness and the CLI select channels by name.
All three roles learn from one PID teacher-run loop in the scenario the PID
is tuned on (pid_scenario): the controller from (q_e, w) rows, the estimator
and the integrated subsystem from views of one sensor dataset.

Each role is a bundle of output channels over one shared premise grid:
one ANFIS model whose consequents are a (channels, rules, inputs + 1)
stack, fit by one multi-output anfis.fit_consequents solve and evaluated
by anfis.forward_row (a row) or forward (a batch), so one firing pass
serves every channel.  The sensor roles read 7 of the 15 sensor channels
(so 128 rules): no inertial reference (a constant, since every run flies
at sensors.POSITION and sensors.EPOCH), no ub_body_z and no us_body_x.
Their limit: a dropped component is known from its unit vector only up to
its sign, which stays fixed only inside the teacher runs' envelope.
"""

from __future__ import annotations

import csv
import json
import math
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
from .sensors import SENSOR_CHANNELS, NoiseSpec, sensor_rows

__all__ = [
    "RoleBundle",
    "RoleDataset",
    "EstimateInvalidError",
    "ROLES",
    "RoleSpec",
    "pid_scenario",
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

BUNDLE_FORMAT_VERSION = 3
BUNDLE_FILE = "bundle.json"

CONTROLLER_CHANNELS = ("qe1", "qe2", "qe3", "w1", "w2", "w3")
TORQUE_CHANNELS = ("mc1", "mc2", "mc3")
STATE_CHANNELS = ("q1", "q2", "q3", "q4", "w1", "w2", "w3")

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
    """One role: the input channels its bundle reads, the output channels it
    learns, the ridge of its fit, and its default number of teacher runs."""
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    ridge: float
    runs: int


# the sensor roles' inputs, chosen by holdout and campaign scores of candidate sets
SENSED = ("ub_body_x", "ub_body_y", "us_body_y", "us_body_z", "gyro_x", "gyro_y", "gyro_z")
ROLES = {
    "controller": RoleSpec(CONTROLLER_CHANNELS, TORQUE_CHANNELS, 1e-2, 15),
    "estimator": RoleSpec(SENSED, STATE_CHANNELS, 0.1, 12),
    "integrated": RoleSpec(SENSED, TORQUE_CHANNELS, 0.1, 12),
}
# the roles that read the sensor row; the controller reads (q_e, w)
SENSOR_ROLES = tuple(r for r, spec in ROLES.items() if set(spec.inputs) <= set(SENSOR_CHANNELS))


def _positions(channels: tuple, names: tuple, where: str) -> list[int]:
    """Each of names' position among channels, or a ValueError naming where."""
    if not set(names) <= set(channels):
        raise ValueError(f"{where}: expected channels {', '.join(names)}, "
                         f"found {', '.join(channels)}")
    return [channels.index(name) for name in names]


def write_csv(path, header, rows, preamble: str = "") -> None:
    """Writes the preamble, a header of plain names and rows of numbers as csv.writer would."""
    with open(path, "w", newline="") as fh:
        fh.write("".join([preamble, ",".join(header), "\r\n"]
                         + [f"{repr(row)[1:-1].replace(', ', ',')}\r\n" for row in rows]))


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
                           self.input_names, self.target_names)

    def to_csv(self, path) -> None:
        write_csv(path, ("run",) + self.input_names + self.target_names, (
            [rid] + x + y for rid, x, y in zip(
                self.run_ids.tolist(), self.inputs.tolist(), self.targets.tolist())))

    @staticmethod
    def from_csv(path, role: str) -> "RoleDataset":
        """A role's dataset: the role's outputs last, every channel it reads before."""
        spec = ROLES[role]
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header, first = next(reader, None), next(reader, None)
        if first is None:
            raise ValueError(f"{path}, the {role} role's dataset: "
                             f"no {'header' if header is None else 'data'} row")
        names = tuple(header[1:])
        n_inputs = len(names) - len(spec.outputs)
        if names[n_inputs:] != spec.outputs or not set(spec.inputs) <= set(names[:n_inputs]):
            raise ValueError(f"{path}, the {role} role's dataset: expected channels "
                             f"{', '.join(spec.inputs + spec.outputs)}, found {', '.join(names)}")
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        bad = np.argwhere(~np.isfinite(data))
        if len(bad):        # the header is line 1, so data row i is line i + 2
            i, j = bad[0]
            raise ValueError(f"{path}, the {role} role's dataset: line {i + 2}, channel "
                             f"{header[j]}: non-finite value {data[i, j]}")
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
    mc_max: float = 1.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.model
        if not (math.isfinite(self.mc_max) and self.mc_max > 0.0):
            raise ValueError(f"{self.role} bundle: mc_max {self.mc_max} is not a finite bound > 0")
        if (len(m.coeffs), len(self.input_names)) != (len(self.output_names), m.n_inputs):
            raise ValueError(f"{self.role} bundle holds {len(m.coeffs)} consequent tables for "
                             f"its {len(self.output_names)} outputs and names "
                             f"{len(self.input_names)} inputs for its model's {m.n_inputs}")
        # all predict() needs that does not depend on the input (the envelope in floats)
        self._extrapolation_warned = False
        r = m.input_ranges
        self._center = (0.5 * (r[:, 0] + r[:, 1])).tolist()
        self._limit = (1.5 * np.maximum(0.5 * (r[:, 1] - r[:, 0]), 1e-12)).tolist()
        # the inputs' positions in a SENSOR_CHANNELS row; None for the controller
        self.input_columns = (tuple(_positions(SENSOR_CHANNELS, self.input_names,
                                               f"{self.role} bundle inputs"))
                              if self.role in SENSOR_ROLES else None)

    @property
    def n_inputs(self) -> int:
        return self.model.n_inputs

    def predict(self, x) -> np.ndarray:
        """Channel outputs for one input row (already column-selected), a
        sequence of floats, which it makes one array with the bias 1.0."""
        xa = np.array((*x, 1.0), dtype=float)
        if len(xa) != len(self.input_names) + 1:
            raise ValueError(f"{self.role} bundle expects {self.n_inputs} inputs, "
                             f"got shape {np.shape(x)}")
        if not self._extrapolation_warned and any(
                abs(v - c) > lim for v, c, lim in zip(x, self._center, self._limit)):
            warnings.warn(f"{self.role} bundle evaluated outside 1.5x its "
                          "training envelope; extrapolating", stacklevel=2)
            self._extrapolation_warned = True
        return anfis.forward_row(self.model, xa)

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """(N, channels) outputs; row n equals predict(x[n]) bit for bit."""
        return anfis.forward(self.model, x)


def _random_conditions(rng: np.random.Generator) -> tuple[EulerAngles, AngularVelocity]:
    """Uniform initial Euler angles and body rates within the envelope, as
    Python floats, which the plain-float step arithmetic runs fastest on."""
    return (EulerAngles(*rng.uniform(-ANGLE_RANGE_DEG, ANGLE_RANGE_DEG, size=3).tolist()),
            AngularVelocity(*rng.uniform(-RATE_RANGE, RATE_RANGE, size=3).tolist()))


def _teacher_runs(gains: PidGains, n_runs: int, seed: int, tag: int, draw, rows):
    """The one teacher-run loop: draw a config from the (seed, tag) stream,
    run the PID teacher on it, and redraw with a warning if the run
    diverges; the MAX_DIVERGED_DRAWS-th diverged run raises.  rows(record)
    picks or derives a run's (inputs, targets) from its record; returns
    them stacked over the runs, with each row's run id."""
    from .harness import run_closed_loop

    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    inputs, targets, diverged = [], [], 0
    while len(inputs) < n_runs:
        cfg = draw(rng)
        try:
            rec = run_closed_loop(cfg, gains=gains)
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


def pid_scenario(base: SimConfig) -> SimConfig:
    """The optimal PID's scenario, which tuning flies and the teacher runs
    draw from: base's manoeuvre, step and duration on the nominal plant, with
    the true state, no modulator, no sensor noise and no disturbance."""
    return replace(base, inertia_true=NOMINAL_INERTIA, noise=NoiseSpec(0.0, 0.0, 0.0),
                   disturbance_const=Torque.zero(), disturbance_amp=Torque.zero(),
                   controller="pid", estimator="truth", modulator="none")


def generate_controller_data(gains: PidGains, n_runs: int = ROLES["controller"].runs,
                             base: SimConfig = SimConfig()) -> RoleDataset:
    """PID teacher trajectories: (q_e, w) -> commanded torque at every step.

    The targets are the teacher's unsaturated commands: the saturation
    clamp is re-applied at inference (anfis_control), so learning the
    smooth pre-clamp map avoids wasting model capacity on the flat
    saturated regions.  Each run flies pid_scenario(base), the scenario the
    gains were tuned on, from randomized initial conditions; base's seed
    seeds the draws.
    """
    def draw(rng):
        euler, omega = _random_conditions(rng)
        return replace(pid_scenario(base), initial_euler=euler, initial_omega=omega)

    # the record's last sample has no step after it, so it is not a training row
    inputs, targets, run_ids = _teacher_runs(
        gains, n_runs, base.seed, 0xC0, draw,
        lambda rec: (np.column_stack([rec.qe[:-1], rec.w[:-1]]), rec.mc_raw[:-1]))
    return RoleDataset(inputs, targets, run_ids, CONTROLLER_CHANNELS, TORQUE_CHANNELS)


def generate_sensor_data(gains: PidGains, n_runs: int = ROLES["estimator"].runs,
                         base: SimConfig = SimConfig()) -> RoleDataset:
    """Sensor trajectories of the PID teacher, with both state and torque
    targets.  Each run flies pid_scenario(base) from randomized initial
    conditions, with its own seed drawn from base's; its rows carry base's
    sensor noise.

    Targets are the 7 true-state channels followed by the teacher's 3
    unsaturated torque commands (the clamp is re-applied at inference);
    role_view narrows them to the estimator's or the integrated role's.
    The teacher flies the true state, so its sensors feed nothing back: a
    run's rows are derived after it, from its recorded attitudes and rates,
    and are those a sensor role would read in the loop.
    """
    def draw(rng):
        euler, omega = _random_conditions(rng)
        return replace(pid_scenario(base), seed=int(rng.integers(0, 2 ** 31)),
                       initial_euler=euler, initial_omega=omega)

    inputs, targets, run_ids = _teacher_runs(
        gains, n_runs, base.seed, 0xE5, draw,
        lambda rec: (sensor_rows(rec.q[:-1], rec.w[:-1], base.noise, rec.config.seed),
                     np.column_stack([rec.q[:-1], rec.w[:-1], rec.mc_raw[:-1]])))
    return RoleDataset(inputs, targets, run_ids, SENSOR_CHANNELS, STATE_CHANNELS + TORQUE_CHANNELS)


def role_view(data: RoleDataset, role: str) -> RoleDataset:
    """The role's dataset: data with its targets narrowed, by name, to the
    role's output channels (a sensor dataset holds the state and the torque)."""
    outputs = ROLES[role].outputs
    cols = _positions(data.target_names, outputs, f"the {role} role's targets")
    return RoleDataset(data.inputs, data.targets[:, cols], data.run_ids, data.input_names, outputs)


def train_controller(data: RoleDataset, mc_max: float) -> RoleBundle:
    """Three torque channels fit on (q_e, w)."""
    return _train_role(data, "controller", mc_max)


def train_estimator(data: RoleDataset, mc_max: float) -> RoleBundle:
    """Seven state channels fit on the selected sensor inputs."""
    return _train_role(data, "estimator", mc_max)


def train_integrated(data: RoleDataset, mc_max: float) -> RoleBundle:
    """Three torque channels fit on the selected sensor inputs."""
    return _train_role(data, "integrated", mc_max)


def _train_role(data: RoleDataset, role: str, mc_max: float) -> RoleBundle:
    """The one training path: a run-wise holdout split, a strided cap of
    MAX_TRAIN_ROWS training rows, and one fit of the role's outputs on the
    input channels it names: fixed grid premises over the padded input
    ranges, shared by all channels, and consequents shrunk toward each
    channel's global linear fit.  mc_max: the teacher gains' torque bound."""
    spec = ROLES[role]
    columns = _positions(data.input_names, spec.inputs, f"the {role} role's dataset")
    train_ds, hold_ds = data.split_by_run()
    x, y = train_ds.inputs[:, columns], train_ds.targets
    if len(x) > MAX_TRAIN_ROWS:
        stride = int(np.ceil(len(x) / MAX_TRAIN_ROWS))
        x, y = x[::stride], y[::stride]
    lo, hi = x.min(axis=0), x.max(axis=0)
    pad = np.maximum(1e-6, 0.05 * (hi - lo))
    model = anfis.grid_partition_init(np.column_stack([lo - pad, hi + pad]), MFS_PER_INPUT)
    model.coeffs, rmse = anfis.fit_consequents(model, x, y, spec.ridge)
    bundle = RoleBundle(role, model, spec.inputs, spec.outputs, float(mc_max),
                        {"train_rmse": rmse.tolist()})
    if len(hold_ds):
        err = bundle.predict_batch(hold_ds.inputs[:, columns]) - hold_ds.targets
        holdout_rmse = [float(np.sqrt(np.mean(e ** 2))) for e in err.T]
    else:
        holdout_rmse = [float("nan")] * len(spec.outputs)
    bundle.metadata["holdout_rmse"] = holdout_rmse
    return bundle


def anfis_control(bundle: RoleBundle, qe_vec, w) -> Torque:
    """Per-axis forward pass on (q_e, w), saturated to the training torque bound."""
    if bundle.role != "controller":
        raise ValueError(f"expected a controller bundle, got {bundle.role!r}")
    return saturate(bundle.predict((*qe_vec, *w)).tolist(), bundle.mc_max)


def anfis_estimate(bundle: RoleBundle, row) -> tuple[Quaternion, AngularVelocity]:
    """Attitude and rate estimate from a sensor row; the quaternion channels
    are renormalized.  A quaternion norm below 0.1, or NaN, is invalid."""
    if bundle.role != "estimator":
        raise ValueError(f"expected an estimator bundle, got {bundle.role!r}")
    y = bundle.predict([row[i] for i in bundle.input_columns])
    qn = math.sqrt(y[:4].dot(y[:4]))    # np.linalg.norm(y[:4]), at a third of its cost
    if not qn >= 0.1:
        raise EstimateInvalidError(f"predicted quaternion norm {qn:.3g} below 0.1")
    q1, q2, q3, q4, w1, w2, w3 = y.tolist()
    return Quaternion(q1 / qn, q2 / qn, q3 / qn, q4 / qn), AngularVelocity(w1, w2, w3)


def anfis_integrated(bundle: RoleBundle, row) -> Torque:
    """Sensor row straight to saturated control torque."""
    if bundle.role != "integrated":
        raise ValueError(f"expected an integrated bundle, got {bundle.role!r}")
    return saturate(bundle.predict([row[i] for i in bundle.input_columns]).tolist(), bundle.mc_max)


def save_bundle(bundle: RoleBundle, dirpath) -> None:
    """Bundle directory: one document, BUNDLE_FILE, that holds the bundle and
    its model (the flat a, b and c premise); load_bundle reads it bit for bit."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    m = bundle.model
    doc = {
        "format_version": BUNDLE_FORMAT_VERSION,
        "role": bundle.role,
        "input_names": list(bundle.input_names),
        "output_names": list(bundle.output_names),
        "mc_max": bundle.mc_max,
        "mfs_per_input": list(m.mfs_per_input),
        "input_ranges": m.input_ranges.tolist(),
        "a": m.a.tolist(), "b": m.b.tolist(), "c": m.c.tolist(),
        "consequents": m.coeffs.tolist(),
        "metadata": bundle.metadata,
    }
    with open(d / BUNDLE_FILE, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_bundle(dirpath) -> RoleBundle:
    """The bundle save_bundle wrote to dirpath.  A missing BUNDLE_FILE raises
    FileNotFoundError; a malformed one, or one of another version, ValueError."""
    path = Path(dirpath) / BUNDLE_FILE
    try:
        doc = json.loads(path.read_text())
        if doc.get("format_version") != BUNDLE_FORMAT_VERSION:
            raise ValueError(f"format version {doc.get('format_version')!r}")
        model = AnfisModel(doc["mfs_per_input"], doc["a"], doc["b"], doc["c"],
                           doc["consequents"], doc["input_ranges"])
        return RoleBundle(doc["role"], model, tuple(doc["input_names"]),
                          tuple(doc["output_names"]), float(doc["mc_max"]), doc["metadata"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path} is not a version-{BUNDLE_FORMAT_VERSION} bundle file: "
                         f"{exc!r}") from exc
