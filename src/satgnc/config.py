"""Run configuration: the flat key = value (INI) schema shared by the CLI
commands, plus the nominal scenario defaults used throughout.  The nominal
plant, NOMINAL_INERTIA, is a constant, like the sensors' position and epoch:
every run, teacher run, tuning run and campaign flies around it.

The schema is one table, LAYOUT, which both dump_sim_config and
parse_sim_config walk; every default is SimConfig()'s.  Every output file
echoes its configuration for provenance, so parsing and serialization
must round-trip exactly: floats are written as their shortest exact repr.
"""

from __future__ import annotations

import configparser
import io
import math
import warnings
from dataclasses import dataclass, replace
from functools import reduce

from .dynamics import AngularVelocity, EulerAngles, InertiaTensor, Torque
from .pwpf import PwpfParams
from .sensors import NoiseSpec

__all__ = [
    "SimConfig",
    "MonteCarloConfig",
    "NOMINAL_INERTIA",
    "UNCERTAIN_INERTIA",
    "LAYOUT",
    "load_sim_config",
    "parse_sim_config",
    "dump_sim_config",
]

NOMINAL_INERTIA = InertiaTensor(1.5, 2.6, 3.0)
UNCERTAIN_INERTIA = InertiaTensor(2.5, 4.0, 3.3)

CONTROLLER_KINDS = ("pid", "anfis", "integrated")
ESTIMATOR_KINDS = ("truth", "anfis")
MODULATOR_KINDS = ("none", "pwpf")
MAX_STEPS = 10 ** 6       # a run's record of 10^6 steps takes about 216 MB


@dataclass(frozen=True)
class SimConfig:
    """One closed-loop run: plant, scenario, loop composition, artifacts."""
    dt: float = 0.01
    duration: float = 20.0
    seed: int = 0                      # the run's one seed; it seeds the sensor noise
    inertia_true: InertiaTensor = NOMINAL_INERTIA
    initial_euler: EulerAngles = EulerAngles(10.0, 5.0, 10.0)
    initial_omega: AngularVelocity = AngularVelocity(0.0125, 0.05, 0.075)
    desired_euler: EulerAngles = EulerAngles(5.0, 0.0, 0.0)
    noise: NoiseSpec = NoiseSpec(0.0, 0.0, 0.0)
    disturbance_const: Torque = Torque(0.0, 0.0, 0.0)
    disturbance_amp: Torque = Torque(0.0, 0.0, 0.0)
    disturbance_freq_hz: float = 0.0
    controller: str = "pid"
    estimator: str = "truth"
    modulator: str = "none"
    pwpf: PwpfParams = PwpfParams()
    gains_file: str = ""
    bundle_dir: str = ""

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.duration < math.inf:
            raise ValueError(f"duration must be finite and cover one step, got {self.duration}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not (steps := self.duration / self.dt) <= MAX_STEPS:
            raise ValueError(f"duration {self.duration} / dt {self.dt} is not a finite step "
                             f"count within MAX_STEPS = {MAX_STEPS:,}: {steps:,.0f} steps")
        for name in ("initial_euler", "initial_omega", "desired_euler", "disturbance_const",
                     "disturbance_amp", "disturbance_freq_hz"):
            value = getattr(self, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.controller!r}")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.estimator!r}")
        if self.modulator not in MODULATOR_KINDS:
            raise ValueError(f"unknown modulator kind {self.modulator!r}")
        self.inertia_true.validated()

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True)
class MonteCarloConfig:
    """Robustness campaign on a base run: each run draws its initial
    conditions, and its plant around NOMINAL_INERTIA, in roles' envelope."""
    base: SimConfig
    n_runs: int = 200
    master_seed: int = 0

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")


# The INI layout, stated once and in file order: (section, key, field of
# SimConfig, kind).  A dotted field is one field of a nested record.
# dump_sim_config writes every row; parse_sim_config reads the rows present
# and keeps SimConfig()'s value for the others; it warns of, and ignores,
# any key outside the layout.
LAYOUT = (
    ("simulation", "dt", "dt", "float"),
    ("simulation", "duration", "duration", "float"),
    ("simulation", "seed", "seed", "int"),
    ("inertia", "true", "inertia_true", "triple"),
    ("initial", "euler_deg", "initial_euler", "triple"),
    ("initial", "omega_rad_s", "initial_omega", "triple"),
    ("desired", "euler_deg", "desired_euler", "triple"),
    ("noise", "sigma_mag", "noise.sigma_mag", "float"),
    ("noise", "sigma_sun", "noise.sigma_sun", "float"),
    ("noise", "sigma_gyro", "noise.sigma_gyro", "float"),
    ("disturbance", "constant", "disturbance_const", "triple"),
    ("disturbance", "amplitude", "disturbance_amp", "triple"),
    ("disturbance", "frequency_hz", "disturbance_freq_hz", "float"),
    ("loop", "controller", "controller", "str"),
    ("loop", "estimator", "estimator", "str"),
    ("loop", "modulator", "modulator", "str"),
    ("pwpf", "km", "pwpf.km", "float"),
    ("pwpf", "tm", "pwpf.tm", "float"),
    ("pwpf", "u_on", "pwpf.u_on", "float"),
    ("pwpf", "u_off", "pwpf.u_off", "float"),
    ("pwpf", "thrust", "pwpf.thrust", "float"),
    ("artifacts", "gains_file", "gains_file", "str"),
    ("artifacts", "bundle_dir", "bundle_dir", "str"),
)


def _fmt(v) -> str:
    return repr(float(v))


def _triple(s: str) -> tuple[float, float, float]:
    parts = [float(p) for p in s.replace(",", " ").split()]
    if len(parts) != 3:
        raise ValueError(f"expected three numbers, got {s!r}")
    return tuple(parts)


# kind -> (value to text, (text, SimConfig() value) to value)
_KINDS = {
    "float": (_fmt, lambda s, _: float(s)),
    "int": (str, lambda s, _: int(s)),
    "str": (str, lambda s, _: s),
    "triple": (lambda v: ", ".join(_fmt(x) for x in v),
               lambda s, default: type(default)(*_triple(s))),
}


def dump_sim_config(cfg: SimConfig) -> str:
    cp = configparser.ConfigParser()
    for section, key, path, kind in LAYOUT:
        if not cp.has_section(section):
            cp.add_section(section)
        cp.set(section, key, _KINDS[kind][0](reduce(getattr, path.split("."), cfg)))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_sim_config(text: str, source: str | None = None) -> SimConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed configuration: {exc}") from exc
    base = SimConfig()
    records: dict[str, dict] = {}     # "" holds SimConfig's own fields
    for section, key, path, kind in LAYOUT:
        if cp.has_option(section, key):
            record, _, name = path.rpartition(".")
            records.setdefault(record, {})[name] = _KINDS[kind][1](
                cp.get(section, key), reduce(getattr, path.split("."), base))
    known = {row[:2] for row in LAYOUT}
    ignored = [f"[{s}] {k}" for s in cp.sections() for k in cp[s] if (s, k) not in known]
    if ignored:
        warnings.warn(f"ignored configuration keys outside the layout"
                      f"{'' if source is None else f' in {source}'}: {', '.join(ignored)}",
                      stacklevel=2 if source is None else 3)
    nested = {record: replace(getattr(base, record), **values)
              for record, values in records.items() if record}
    return replace(base, **records.get("", {}), **nested)


def load_sim_config(path) -> SimConfig:
    with open(path) as fh:
        return parse_sim_config(fh.read(), str(path))
