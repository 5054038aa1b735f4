"""Run configuration: the flat key = value (INI) schema shared by the CLI
commands, plus the nominal scenario defaults used throughout.

Every output file echoes its configuration for provenance, so parsing and
serialization must round-trip exactly.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

from .dynamics import AngularVelocity, EulerAngles, InertiaTensor, Torque
from .pwpf import PwpfParams
from .sensors import CalendarInstant, GeoPosition, NoiseSpec

__all__ = [
    "SimConfig",
    "MonteCarloConfig",
    "NOMINAL_INERTIA",
    "UNCERTAIN_INERTIA",
    "load_sim_config",
    "parse_sim_config",
    "dump_sim_config",
]

NOMINAL_INERTIA = InertiaTensor(1.5, 2.6, 3.0)
UNCERTAIN_INERTIA = InertiaTensor(2.5, 4.0, 3.3)

CONTROLLER_KINDS = ("pid", "anfis", "integrated")
ESTIMATOR_KINDS = ("truth", "anfis")
MODULATOR_KINDS = ("none", "pwpf")


@dataclass(frozen=True)
class SimConfig:
    """One closed-loop run: plant, scenario, loop composition, artifacts."""
    dt: float = 0.01
    duration: float = 20.0
    seed: int = 0
    inertia_nominal: InertiaTensor = NOMINAL_INERTIA
    inertia_true: InertiaTensor = NOMINAL_INERTIA
    initial_euler: EulerAngles = EulerAngles(10.0, 5.0, 10.0)
    initial_omega: AngularVelocity = AngularVelocity(0.0125, 0.05, 0.075)
    desired_euler: EulerAngles = EulerAngles(5.0, 0.0, 0.0)
    noise: NoiseSpec = NoiseSpec(0.0, 0.0, 0.0)
    disturbance_const: Torque = Torque(0.0, 0.0, 0.0)
    disturbance_amp: Torque = Torque(0.0, 0.0, 0.0)
    disturbance_freq_hz: float = 0.0
    geo: GeoPosition = GeoPosition(0.0, 0.0, 500.0)
    epoch: CalendarInstant = CalendarInstant(2020, 3, 21, 12, 0, 0.0)
    controller: str = "pid"
    estimator: str = "truth"
    modulator: str = "none"
    pwpf: PwpfParams = PwpfParams()
    gains_file: str = ""
    bundle_dir: str = ""

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.duration < self.dt:
            raise ValueError("duration must cover at least one step")
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {self.controller!r}")
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.estimator!r}")
        if self.modulator not in MODULATOR_KINDS:
            raise ValueError(f"unknown modulator kind {self.modulator!r}")
        self.inertia_nominal.validated()
        self.inertia_true.validated()

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))


@dataclass(frozen=True)
class MonteCarloConfig:
    """Robustness campaign settings layered on a base run configuration."""
    base: SimConfig
    n_runs: int = 200
    angle_range_deg: float = 15.0
    rate_range: float = 0.1
    inertia_range: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")
        if not self.base.inertia_nominal.realizable():
            # the campaign redraws perturbed plants until they are realizable
            raise ValueError("nominal inertia violates the triangle inequality; "
                             "no realizable plant can be drawn around it")


def _fmt(v) -> str:
    return repr(float(v))


def _triple(s: str) -> tuple[float, float, float]:
    parts = [float(p) for p in s.replace(",", " ").split()]
    if len(parts) != 3:
        raise ValueError(f"expected three numbers, got {s!r}")
    return tuple(parts)


def dump_sim_config(cfg: SimConfig) -> str:
    cp = configparser.ConfigParser()
    cp["simulation"] = {
        "dt": _fmt(cfg.dt),
        "duration": _fmt(cfg.duration),
        "seed": str(cfg.seed),
    }
    cp["inertia"] = {
        "nominal": ", ".join(_fmt(v) for v in cfg.inertia_nominal),
        "true": ", ".join(_fmt(v) for v in cfg.inertia_true),
    }
    cp["initial"] = {
        "euler_deg": ", ".join(_fmt(v) for v in cfg.initial_euler),
        "omega_rad_s": ", ".join(_fmt(v) for v in cfg.initial_omega),
    }
    cp["desired"] = {"euler_deg": ", ".join(_fmt(v) for v in cfg.desired_euler)}
    cp["noise"] = {
        "sigma_mag": _fmt(cfg.noise.sigma_mag),
        "sigma_sun": _fmt(cfg.noise.sigma_sun),
        "sigma_gyro": _fmt(cfg.noise.sigma_gyro),
        "seed": str(cfg.noise.seed),
    }
    cp["disturbance"] = {
        "constant": ", ".join(_fmt(v) for v in cfg.disturbance_const),
        "amplitude": ", ".join(_fmt(v) for v in cfg.disturbance_amp),
        "frequency_hz": _fmt(cfg.disturbance_freq_hz),
    }
    cp["geo"] = {
        "latitude_deg": _fmt(cfg.geo.latitude),
        "longitude_deg": _fmt(cfg.geo.longitude),
        "altitude_km": _fmt(cfg.geo.altitude),
        "epoch": "{}-{:02d}-{:02d} {:02d}:{:02d}:{}".format(
            cfg.epoch.year, cfg.epoch.month, cfg.epoch.day,
            cfg.epoch.hour, cfg.epoch.minute, _fmt(cfg.epoch.second)),
    }
    cp["loop"] = {
        "controller": cfg.controller,
        "estimator": cfg.estimator,
        "modulator": cfg.modulator,
    }
    cp["pwpf"] = {
        "km": _fmt(cfg.pwpf.km),
        "tm": _fmt(cfg.pwpf.tm),
        "u_on": _fmt(cfg.pwpf.u_on),
        "u_off": _fmt(cfg.pwpf.u_off),
        "thrust": _fmt(cfg.pwpf.thrust),
    }
    cp["artifacts"] = {
        "gains_file": cfg.gains_file,
        "bundle_dir": cfg.bundle_dir,
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def parse_sim_config(text: str) -> SimConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(f"malformed configuration: {exc}") from exc

    def get(section, key, conv, default):
        if cp.has_option(section, key):
            return conv(cp.get(section, key))
        return default

    base = SimConfig()
    epoch = base.epoch
    if cp.has_option("geo", "epoch"):
        raw = cp.get("geo", "epoch")
        try:
            date_part, time_part = raw.split()
            y, mo, d = (int(p) for p in date_part.split("-"))
            hh, mm, ss = time_part.split(":")
            epoch = CalendarInstant(y, mo, d, int(hh), int(mm), float(ss))
        except ValueError as exc:
            raise ValueError(f"malformed epoch {raw!r}") from exc

    return SimConfig(
        dt=get("simulation", "dt", float, base.dt),
        duration=get("simulation", "duration", float, base.duration),
        seed=get("simulation", "seed", int, base.seed),
        inertia_nominal=InertiaTensor(*get("inertia", "nominal", _triple,
                                           tuple(base.inertia_nominal))),
        inertia_true=InertiaTensor(*get("inertia", "true", _triple,
                                        tuple(base.inertia_true))),
        initial_euler=EulerAngles(*get("initial", "euler_deg", _triple,
                                       tuple(base.initial_euler))),
        initial_omega=AngularVelocity(*get("initial", "omega_rad_s", _triple,
                                           tuple(base.initial_omega))),
        desired_euler=EulerAngles(*get("desired", "euler_deg", _triple,
                                       tuple(base.desired_euler))),
        noise=NoiseSpec(
            sigma_mag=get("noise", "sigma_mag", float, 0.0),
            sigma_sun=get("noise", "sigma_sun", float, 0.0),
            sigma_gyro=get("noise", "sigma_gyro", float, 0.0),
            seed=get("noise", "seed", int, 0),
        ),
        disturbance_const=Torque(*get("disturbance", "constant", _triple, (0.0, 0.0, 0.0))),
        disturbance_amp=Torque(*get("disturbance", "amplitude", _triple, (0.0, 0.0, 0.0))),
        disturbance_freq_hz=get("disturbance", "frequency_hz", float, 0.0),
        geo=GeoPosition(
            latitude=get("geo", "latitude_deg", float, base.geo.latitude),
            longitude=get("geo", "longitude_deg", float, base.geo.longitude),
            altitude=get("geo", "altitude_km", float, base.geo.altitude),
        ),
        epoch=epoch,
        controller=get("loop", "controller", str, base.controller),
        estimator=get("loop", "estimator", str, base.estimator),
        modulator=get("loop", "modulator", str, base.modulator),
        pwpf=PwpfParams(
            km=get("pwpf", "km", float, base.pwpf.km),
            tm=get("pwpf", "tm", float, base.pwpf.tm),
            u_on=get("pwpf", "u_on", float, base.pwpf.u_on),
            u_off=get("pwpf", "u_off", float, base.pwpf.u_off),
            thrust=get("pwpf", "thrust", float, base.pwpf.thrust),
        ),
        gains_file=get("artifacts", "gains_file", str, ""),
        bundle_dir=get("artifacts", "bundle_dir", str, ""),
    )


def load_sim_config(path) -> SimConfig:
    with open(path) as fh:
        return parse_sim_config(fh.read())
