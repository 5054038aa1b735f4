"""Sensor simulation: magnetometer, sun sensor, rate gyro, and the inertial
reference vectors (geomagnetic field direction, sun direction) they measure.

One sampling instant is one 15-channel row laid out by SENSOR_CHANNELS,
which sensor_row builds and the neuro-fuzzy roles read: the closed loop
asks for one row per step, and the teacher data derives a run's rows after
it (sensor_rows).  A run's sensor noise is drawn once from the run's seed
(sensor_noise), and each reading takes its step's share of it; the
direction sensors also take the rows of the step's attitude matrix.

The geomagnetic field is a tilted centered dipole (dipole_field), the one
field model the closed loop uses.  The sun ephemeris is the low-precision
Vallado algorithm (Julian date -> mean longitude -> ecliptic longitude ->
unit vector).
Every run flies at one position and epoch (POSITION, EPOCH), whose inertial
references B_INERTIAL and SUN_INERTIAL are computed once, at import.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import AngularVelocity, dcm_rows

__all__ = [
    "CalendarInstant",
    "GeoPosition",
    "NoiseSpec",
    "SENSOR_CHANNELS",
    "POSITION", "EPOCH", "B_INERTIAL", "SUN_INERTIAL",
    "dipole_field",
    "julian_date",
    "solar_angles",
    "sun_direction_inertial",
    "magnetometer_reading",
    "sun_sensor_reading",
    "gyro_reading",
    "sensor_noise",
    "sensor_row",
    "sensor_rows",
    "unit",
]

EARTH_RADIUS_KM = 6371.2
DIPOLE_B0_NT = 30000.0     # equatorial surface field of the dipole
DIPOLE_TILT_DEG = 11.5     # dipole axis from the rotation axis, toward longitude 0

SENSOR_CHANNELS = (
    "ub_body_x", "ub_body_y", "ub_body_z",
    "us_body_x", "us_body_y", "us_body_z",
    "ub_inertial_x", "ub_inertial_y", "ub_inertial_z",
    "us_inertial_x", "us_inertial_y", "us_inertial_z",
    "gyro_x", "gyro_y", "gyro_z",
)


def unit(v) -> np.ndarray:
    """Normalize a 1-D vector to a unit vector; rejects a zero or non-finite
    one.  Its norm is sqrt(v . v), as np.linalg.norm computes it."""
    v = np.asarray(v, dtype=float)
    mag = math.sqrt(v.dot(v))
    if mag == 0.0 or not math.isfinite(mag):
        raise ValueError(f"vector of zero or non-finite magnitude {mag}")
    return v / mag


class CalendarInstant(NamedTuple):
    """Gregorian UT date and time; julian_date holds for the years 1900-2100."""
    year: int
    month: int
    day: int
    hour: int = 0
    minute: int = 0
    second: float = 0.0


class GeoPosition(NamedTuple):
    """Geocentric position: latitude/longitude in degrees, altitude in km."""
    latitude: float
    longitude: float
    altitude: float


@dataclass(frozen=True)
class NoiseSpec:
    """Per-axis white-noise levels for the three sensors.

    sigma_mag and sigma_sun are in direction-vector units (the magnetometer
    noise is scaled by the local field magnitude before normalization);
    sigma_gyro is in rad/s.
    """
    sigma_mag: float = 0.001
    sigma_sun: float = 0.001
    sigma_gyro: float = 1e-4

    def __post_init__(self):
        if not all(0.0 <= s < math.inf for s in (self.sigma_mag, self.sigma_sun, self.sigma_gyro)):
            raise ValueError("noise standard deviations must be nonnegative and finite")

    @property
    def noiseless(self) -> bool:
        return self.sigma_mag == 0.0 and self.sigma_sun == 0.0 and self.sigma_gyro == 0.0


def julian_date(instant: CalendarInstant) -> float:
    """Julian date of a Gregorian UT instant (Vallado's algorithm).

    INT is truncation toward zero.
    """
    year, month, day, hour, minute, second = instant
    jd = (367 * year
          - int(7 * (year + int((month + 9) / 12)) / 4)
          + int(275 * month / 9)
          + day + 1721013.5)
    jd += ((second / 60.0 + minute) / 60.0 + hour) / 24.0
    return jd


def solar_angles(jd: float) -> tuple[float, float, float, float]:
    """Low-precision solar ephemeris angles at a Julian date, in degrees.

    Returns (mean longitude, mean anomaly, ecliptic longitude, obliquity),
    each reduced mod 360 before any trigonometry.
    """
    t = (jd - 2451545.0) / 36525.0
    lam_m = (280.4606184 + 36000.77005361 * t) % 360.0
    m = (357.5277233 + 35999.05034 * t) % 360.0
    m_r = math.radians(m)
    lam_ecl = (lam_m + 1.914666471 * math.sin(m_r)
               + 0.019994643 * math.sin(2.0 * m_r)) % 360.0
    eps = (23.439291 - 0.0130042 * t) % 360.0
    return lam_m, m, lam_ecl, eps


def sun_direction_inertial(jd: float) -> np.ndarray:
    """Unit vector from Earth to Sun in the geocentric inertial frame.

    Low-precision ephemeris: mean solar longitude and anomaly as linear
    functions of Julian centuries, equation-of-center correction, then the
    ecliptic-to-equatorial projection.
    """
    _, _, lam_deg, eps_deg = solar_angles(jd)
    lam_ecl = math.radians(lam_deg)
    eps = math.radians(eps_deg)
    return np.array([
        math.cos(lam_ecl),
        math.cos(eps) * math.sin(lam_ecl),
        math.sin(eps) * math.sin(lam_ecl),
    ])


def dipole_field(pos: GeoPosition) -> np.ndarray:
    """Field (nT) at pos of a centered dipole tilted DIPOLE_TILT_DEG from the
    rotation axis toward longitude 0.

    The equatorial surface field is DIPOLE_B0_NT, the polar surface field
    exactly twice it, and magnitude falls off as (R/r)^3.  Earth rotation
    is ignored: geographic coordinates are read directly as inertial.
    """
    lat, lon, alt = pos
    lat_r = math.radians(lat)
    lon_r = math.radians(lon)
    r_hat = np.array([math.cos(lat_r) * math.cos(lon_r),
                      math.cos(lat_r) * math.sin(lon_r),
                      math.sin(lat_r)])
    tilt = math.radians(DIPOLE_TILT_DEG)
    m_hat = np.array([math.sin(tilt), 0.0, math.cos(tilt)])
    scale = DIPOLE_B0_NT * (EARTH_RADIUS_KM / (EARTH_RADIUS_KM + alt)) ** 3
    # dipole field, normalized so |B| = DIPOLE_B0_NT at the geomagnetic equator surface
    return scale * (3.0 * float(m_hat @ r_hat) * r_hat - m_hat) * -1.0


POSITION = GeoPosition(0.0, 0.0, 500.0)
EPOCH = CalendarInstant(2020, 3, 21, 12, 0, 0.0)
B_INERTIAL = dipole_field(POSITION)                        # nT
SUN_INERTIAL = sun_direction_inertial(julian_date(EPOCH))
B_INERTIAL.flags.writeable = SUN_INERTIAL.flags.writeable = False    # every run reads them


# what the readings read of the references: their components in floats,
# the magnitudes that scale the direction sensors' noise, the row's block
_B, _SUN = B_INERTIAL.tolist(), SUN_INERTIAL.tolist()
_B_NORM, _SUN_NORM = (math.sqrt(v.dot(v)) for v in (B_INERTIAL, SUN_INERTIAL))
_REFERENCES = (*unit(B_INERTIAL).tolist(), *_SUN)


def sensor_noise(noise: NoiseSpec, seed: int, n: int) -> list:
    """The additive noise of the first n samples of a run of seed: per sample,
    the magnetometer's and the sun sensor's (each scaled by the magnitude of
    its inertial reference) and the gyro's, three Python floats each, or None
    for a zero-sigma sensor.  One standard-normal block holds what per-step
    draws would give, so a run's first n samples draw the same for any length."""
    # the stream of earlier versions, which gave the noise a second seed
    # equal to the run's (SimConfig refuses a negative seed)
    rng = np.random.default_rng([seed & 0x7FFFFFFF, seed])
    drawn = [sigma > 0.0 for sigma in (noise.sigma_mag, noise.sigma_sun, noise.sigma_gyro)]
    scales = (noise.sigma_mag * _B_NORM, noise.sigma_sun * _SUN_NORM, noise.sigma_gyro)
    blocks = iter(rng.standard_normal((n, sum(drawn), 3)).transpose(1, 0, 2))
    return list(zip(*[(next(blocks) * s).tolist() if d else (None,) * n
                      for d, s in zip(drawn, scales)]))


def _body_direction(ref, c, noise: list | None) -> tuple[float, float, float]:
    """ref at the attitude whose dcm_rows are c, plus noise (None: zero), as a body-frame
    unit vector: in floats, x = c00*r0 + c01*r1 + c02*r2 + n0 over sqrt(x*x + y*y + z*z)."""
    r0, r1, r2 = ref
    n0, n1, n2 = (0.0, 0.0, 0.0) if noise is None else noise
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = c
    x = c00 * r0 + c01 * r1 + c02 * r2 + n0
    y = c10 * r0 + c11 * r1 + c12 * r2 + n1
    z = c20 * r0 + c21 * r1 + c22 * r2 + n2
    mag = math.sqrt(x * x + y * y + z * z)
    if mag == 0.0 or not math.isfinite(mag):
        raise ValueError(f"vector of zero or non-finite magnitude {mag}")
    return x / mag, y / mag, z / mag


def magnetometer_reading(c, noise: list | None) -> tuple:
    """Unit magnetic-field direction (B_INERTIAL) in the body frame; c: the attitude's dcm_rows."""
    return _body_direction(_B, c, noise)


def sun_sensor_reading(c, noise: list | None) -> tuple:
    """Unit sun direction (SUN_INERTIAL) in the body frame; c: the attitude's dcm_rows."""
    return _body_direction(_SUN, c, noise)


def gyro_reading(w: AngularVelocity, noise: list | None) -> AngularVelocity:
    """Rate-gyro measurement: true rate plus the step's noise (None: noiseless)."""
    return w if noise is None else AngularVelocity(*map(operator.add, w, noise))


def sensor_row(q, w, noise) -> tuple:
    """One sample in SENSOR_CHANNELS order, [C b, C s, b/|b|, s, w] with each
    reading's noise, at the attitude q (one C for both readings) and rate w;
    noise is the sample's entry of sensor_noise."""
    mag, sun, gyro = noise
    c = dcm_rows(q)
    return (*magnetometer_reading(c, mag), *sun_sensor_reading(c, sun), *_REFERENCES,
            *gyro_reading(w, gyro))


def sensor_rows(q: np.ndarray, w: np.ndarray, noise: NoiseSpec, seed: int) -> np.ndarray:
    """The (N, 15) rows that a run of seed reads at its first N recorded
    attitudes q and rates w, (N, 4) and (N, 3): sensor_row's, bit for bit."""
    return np.array([sensor_row(*sample) for sample
                     in zip(q.tolist(), w.tolist(), sensor_noise(noise, seed, len(q)))])
