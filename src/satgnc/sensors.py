"""Sensor simulation: magnetometer, sun sensor, rate gyro, and the inertial
reference vectors (geomagnetic field direction, sun direction) they measure.

One sampling instant is one 15-channel row laid out by SENSOR_CHANNELS,
which the closed loop fills block by block and the neuro-fuzzy roles read.
The direction sensors take the step's direction cosine matrix and the norm
of their constant inertial reference, taken once per run.

The geomagnetic field is a tilted centered dipole (TiltedDipoleField), the
one field model the closed loop uses.  The sun ephemeris is the low-precision Vallado algorithm
(Julian date -> mean longitude -> ecliptic longitude -> unit vector).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import AngularVelocity

__all__ = [
    "CalendarInstant",
    "GeoPosition",
    "NoiseSpec",
    "SENSOR_CHANNELS",
    "MAG_BODY",
    "SUN_BODY",
    "REFERENCES",
    "GYRO",
    "TiltedDipoleField",
    "julian_date",
    "solar_angles",
    "sun_direction_inertial",
    "magnetometer_reading",
    "sun_sensor_reading",
    "gyro_reading",
    "reference_norm",
    "unit",
]

EARTH_RADIUS_KM = 6371.2

SENSOR_CHANNELS = (
    "ub_body_x", "ub_body_y", "ub_body_z",
    "us_body_x", "us_body_y", "us_body_z",
    "ub_inertial_x", "ub_inertial_y", "ub_inertial_z",
    "us_inertial_x", "us_inertial_y", "us_inertial_z",
    "gyro_x", "gyro_y", "gyro_z",
)
# blocks of the sensor row: magnetometer, sun sensor, both inertial references, gyro
MAG_BODY, SUN_BODY, REFERENCES, GYRO = slice(0, 3), slice(3, 6), slice(6, 12), slice(12, 15)


def unit(v) -> np.ndarray:
    """Normalize to a unit vector; rejects zero input."""
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / n


class CalendarInstant(NamedTuple):
    """Gregorian UT date and time, valid 1900-2100."""
    year: int
    month: int
    day: int
    hour: int = 0
    minute: int = 0
    second: float = 0.0

    def validated(self) -> "CalendarInstant":
        if not (1900 <= self.year <= 2100):
            raise ValueError(f"year {self.year} outside the 1900-2100 validity window")
        if not (1 <= self.month <= 12):
            raise ValueError(f"invalid month {self.month}")
        if not (1 <= self.day <= 31):
            raise ValueError(f"invalid day {self.day}")
        if not (0 <= self.hour < 24 and 0 <= self.minute < 60 and 0.0 <= self.second < 60.0):
            raise ValueError("invalid time of day")
        return self


class GeoPosition(NamedTuple):
    """Geocentric position: latitude/longitude in degrees, altitude in km."""
    latitude: float
    longitude: float
    altitude: float

    def validated(self) -> "GeoPosition":
        if abs(self.latitude) > 90.0:
            raise ValueError(f"latitude {self.latitude} out of range")
        if not (-180.0 < self.longitude <= 180.0):
            raise ValueError(f"longitude {self.longitude} out of range")
        if self.altitude < 0.0:
            raise ValueError("altitude must be nonnegative")
        return self


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
    seed: int = 0

    def __post_init__(self):
        if min(self.sigma_mag, self.sigma_sun, self.sigma_gyro) < 0.0:
            raise ValueError("noise standard deviations must be nonnegative")

    @property
    def noiseless(self) -> bool:
        return self.sigma_mag == 0.0 and self.sigma_sun == 0.0 and self.sigma_gyro == 0.0


def julian_date(instant: CalendarInstant) -> float:
    """Julian date of a Gregorian UT instant (Vallado's algorithm).

    INT is truncation toward zero.
    """
    year, month, day, hour, minute, second = instant.validated()
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


@dataclass(frozen=True)
class TiltedDipoleField:
    """Centered dipole tilted from the rotation axis.

    b0_nt is the equatorial surface field strength; the polar surface field
    is exactly 2*b0_nt and magnitude falls off as (R/r)^3.  Earth rotation
    is ignored: geographic coordinates are read directly as inertial.
    """
    b0_nt: float = 30000.0
    tilt_deg: float = 11.5
    tilt_longitude_deg: float = 0.0

    def _dipole_axis(self) -> np.ndarray:
        tilt = math.radians(self.tilt_deg)
        lon = math.radians(self.tilt_longitude_deg)
        return np.array([math.sin(tilt) * math.cos(lon),
                         math.sin(tilt) * math.sin(lon),
                         math.cos(tilt)])

    def field(self, pos: GeoPosition, instant: CalendarInstant) -> np.ndarray:
        lat, lon, alt = pos.validated()
        lat_r = math.radians(lat)
        lon_r = math.radians(lon)
        r_hat = np.array([math.cos(lat_r) * math.cos(lon_r),
                          math.cos(lat_r) * math.sin(lon_r),
                          math.sin(lat_r)])
        m_hat = self._dipole_axis()
        scale = self.b0_nt * (EARTH_RADIUS_KM / (EARTH_RADIUS_KM + alt)) ** 3
        # dipole field, normalized so |B| = b0 at the geomagnetic equator surface
        return scale * (3.0 * float(m_hat @ r_hat) * r_hat - m_hat) * -1.0


def reference_norm(v_inertial) -> float:
    """Magnitude of a constant inertial reference, which scales its sensor's
    noise; rejects a zero or non-finite reference."""
    mag = float(np.linalg.norm(v_inertial))
    if mag == 0.0 or not math.isfinite(mag):
        raise ValueError("reference vector has zero or non-finite magnitude")
    return mag


def _direction_with_noise(v_inertial: np.ndarray, mag: float, dcm: np.ndarray,
                          sigma: float, rng: np.random.Generator) -> np.ndarray:
    body = dcm @ v_inertial
    if sigma > 0.0:
        body = body + rng.normal(0.0, sigma * mag, size=3)
    return unit(body)


def magnetometer_reading(b_inertial: np.ndarray, b_norm: float, dcm: np.ndarray,
                         noise: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit magnetic-field direction in the body frame (dcm = C_I^B), with
    additive white noise scaled by the field magnitude b_norm."""
    return _direction_with_noise(b_inertial, b_norm, dcm, noise.sigma_mag, rng)


def sun_sensor_reading(u_s_inertial: np.ndarray, s_norm: float, dcm: np.ndarray,
                       noise: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """Unit sun direction in the body frame (dcm = C_I^B), with additive white noise."""
    return _direction_with_noise(u_s_inertial, s_norm, dcm, noise.sigma_sun, rng)


def gyro_reading(w: AngularVelocity, noise: NoiseSpec,
                 rng: np.random.Generator) -> AngularVelocity:
    """Rate-gyro measurement: true rate plus per-axis white noise."""
    if noise.sigma_gyro == 0.0:
        return w
    n = rng.normal(0.0, noise.sigma_gyro, size=3)
    return AngularVelocity(w.w1 + n[0], w.w2 + n[1], w.w3 + n[2])
