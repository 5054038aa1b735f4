"""Sensor-simulation tests: calendar/ephemeris, dipole field, noise model."""

import math

import numpy as np
import pytest

from satgnc import sensors
from satgnc.config import SimConfig
from satgnc.dynamics import AngularVelocity, EulerAngles, Quaternion, euler_to_quat, quat_to_dcm
from satgnc.harness import run_closed_loop
from satgnc.pid import PidGains
from satgnc.sensors import (B_INERTIAL, EPOCH, POSITION, SENSOR_CHANNELS, SUN_INERTIAL,
                            CalendarInstant, GeoPosition, NoiseSpec, _body_direction,
                            dipole_field, gyro_reading, julian_date, magnetometer_reading,
                            sensor_noise, sensor_rows, solar_angles,
                            sun_direction_inertial, sun_sensor_reading, unit)

IDENTITY = Quaternion.identity()


class TestJulianDate:
    def test_epoch_2000(self):
        assert julian_date(CalendarInstant(2000, 1, 1, 12)) == 2451545.0

    def test_known_instant(self):
        # textbook worked example: 1996 Oct 26, 14:20:00 UT
        jd = julian_date(CalendarInstant(1996, 10, 26, 14, 20, 0.0))
        assert jd == pytest.approx(2450383.09722222, abs=1e-8)

    def test_midnight_halfway(self):
        jd0 = julian_date(CalendarInstant(2020, 3, 21, 0))
        jd12 = julian_date(CalendarInstant(2020, 3, 21, 12))
        assert jd12 - jd0 == pytest.approx(0.5)

    def test_one_day_increment(self):
        a = julian_date(CalendarInstant(2020, 2, 28, 6))
        b = julian_date(CalendarInstant(2020, 2, 29, 6))
        assert b - a == pytest.approx(1.0)


class TestSunEphemeris:
    def test_reference_constants_at_epoch(self):
        lam_m, m, _, eps = solar_angles(2451545.0)
        assert lam_m == 280.4606184
        assert m == 357.5277233
        assert eps == 23.439291

    def test_unit_vector(self):
        for jd in (2451545.0, 2458930.0, 2462502.25):
            assert np.linalg.norm(sun_direction_inertial(jd)) == pytest.approx(1.0)

    def test_equinox_direction(self):
        # near the March equinox the sun sits close to the vernal axis
        jd = julian_date(CalendarInstant(2020, 3, 20, 12))
        u = sun_direction_inertial(jd)
        assert u[0] > 0.999

    def test_annual_period(self):
        jd = julian_date(CalendarInstant(2020, 6, 1))
        u1 = sun_direction_inertial(jd)
        u2 = sun_direction_inertial(jd + 365.25)
        assert float(u1 @ u2) > 0.9999


class TestDipoleField:
    @pytest.fixture
    def untilted(self, monkeypatch):
        monkeypatch.setattr(sensors, "DIPOLE_TILT_DEG", 0.0)

    def test_equator_magnitude(self, untilted):
        b = dipole_field(GeoPosition(0.0, 0.0, 0.0))
        assert np.linalg.norm(b) == pytest.approx(30000.0)

    def test_pole_magnitude_doubles(self, untilted):
        b = dipole_field(GeoPosition(90.0, 0.0, 0.0))
        assert np.linalg.norm(b) == pytest.approx(60000.0)

    def test_altitude_falloff_cubed(self, untilted):
        b0 = dipole_field(GeoPosition(0.0, 0.0, 0.0))
        r = 6371.2
        b1 = dipole_field(GeoPosition(0.0, 0.0, r))
        assert np.linalg.norm(b1) == pytest.approx(np.linalg.norm(b0) / 8.0)

    def test_equator_points_north_untitled(self, untilted):
        b = dipole_field(GeoPosition(0.0, 0.0, 500.0))
        assert unit(b) == pytest.approx(np.array([0.0, 0.0, 1.0]))

    def test_tilt_moves_magnetic_equator(self):
        assert sensors.DIPOLE_TILT_DEG == 11.5
        b_geo_eq = dipole_field(GeoPosition(0.0, 0.0, 0.0))
        # geographic equator is no longer the magnetic equator
        assert abs(np.linalg.norm(b_geo_eq) - 30000.0) > 10.0


def test_inertial_references_keep_their_bytes():
    # every sensor dataset reads these two references; a refactor of the
    # field model or the ephemeris must leave them bit for bit (the dipole's
    # y component is -0.0), one little-endian float64 per component
    assert B_INERTIAL.astype("<f8").tobytes().hex() == (
        "eb29609a11a0c2c0" "0000000000000080" "8460f6a0f3e2d640")
    assert SUN_INERTIAL.astype("<f8").tobytes().hex() == (
        "5f9424c7c6fdef3f" "845f371b7ae3953f" "4320f4bd32fa823f")


class TestDirectionalSensors:
    def test_noiseless_is_rotated_reference(self):
        q = euler_to_quat(EulerAngles(40.0, -25.0, 60.0))
        for read, ref in ((magnetometer_reading, B_INERTIAL), (sun_sensor_reading, SUN_INERTIAL)):
            np.testing.assert_allclose(read(q, None), unit(quat_to_dcm(q) @ ref), atol=1e-15)

    def test_float_reading_equals_batched_form(self):
        # a reading in Python floats equals the elementwise numpy form over
        # (N, 3) arrays, in the same order, bit for bit, and the DCM form
        # within 1e-15: the scalar loop and a batched loop can agree exactly
        rng = np.random.default_rng(12)
        q = rng.normal(size=(2000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        mag_noise, sun_noise, _ = zip(*sensor_noise(NoiseSpec(), 12, 2000))
        q1, q2, q3, q4 = q.T
        for read, ref, noise in ((magnetometer_reading, B_INERTIAL, mag_noise),
                                 (sun_sensor_reading, SUN_INERTIAL, sun_noise)):
            r0, r1, r2 = ref
            rows, noise = noise, np.array(noise)      # the readings take float rows
            x = ((1.0 - 2.0 * (q2 * q2 + q3 * q3)) * r0 + 2.0 * (q1 * q2 + q3 * q4) * r1
                 + 2.0 * (q1 * q3 - q2 * q4) * r2) + noise[:, 0]
            y = (2.0 * (q1 * q2 - q3 * q4) * r0 + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * r1
                 + 2.0 * (q2 * q3 + q1 * q4) * r2) + noise[:, 1]
            z = (2.0 * (q1 * q3 + q2 * q4) * r0 + 2.0 * (q2 * q3 - q1 * q4) * r1
                 + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * r2) + noise[:, 2]
            batched = np.column_stack([x, y, z]) / np.sqrt(x * x + y * y + z * z)[:, None]
            got = np.array([read(qk, nk) for qk, nk in zip(q.tolist(), rows)])
            np.testing.assert_array_equal(got, batched)
            dcm_form = [unit(quat_to_dcm(qk) @ ref + nk) for qk, nk in zip(q, noise)]
            np.testing.assert_allclose(got, dcm_form, rtol=0.0, atol=1e-15)

    def test_zero_or_non_finite_direction_rejected(self):
        # a reading whose noise cancels the reference, a non-finite attitude
        # and a non-finite noise row
        cancel = (-SUN_INERTIAL).tolist()
        for q, noise in ((IDENTITY, cancel), ((math.nan, 0.0, 0.0, 1.0), None),
                         (IDENTITY, [math.inf, 0.0, 0.0])):
            with pytest.raises(ValueError, match="zero or non-finite"):
                sun_sensor_reading(q, noise)

    def test_reading_always_unit(self):
        for mag, sun, _ in sensor_noise(NoiseSpec(0.05, 0.05, 0.0), 1, 50):
            for u in (magnetometer_reading(IDENTITY, mag), sun_sensor_reading(IDENTITY, sun)):
                assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_noise_scales_with_field_magnitude(self):
        # the same sigma produces the same angular scatter regardless of units:
        # from the same draws, the magnetometer's noise (in nT) is the sun
        # sensor's scaled by |B| / |s|, so on unit vectors both read alike
        sigma = 0.01
        (mag, _, _), = sensor_noise(NoiseSpec(sigma, 0.0, 0.0), 2, 1)
        (_, sun, _), = sensor_noise(NoiseSpec(0.0, sigma, 0.0), 2, 1)
        b_norm, s_norm = np.linalg.norm(B_INERTIAL), np.linalg.norm(SUN_INERTIAL)
        np.testing.assert_allclose(np.divide(mag, b_norm), np.divide(sun, s_norm), rtol=1e-15)
        np.testing.assert_allclose(magnetometer_reading(IDENTITY, mag),
                                   unit(B_INERTIAL / b_norm + np.divide(sun, s_norm)),
                                   atol=1e-14)

    def test_mean_angular_deviation_matches_sigma(self):
        # small-angle: deviation angle ~ Rayleigh from the two transverse
        # noise components; its mean is sigma * sqrt(pi/2)
        sigma = 0.001
        noise = sensor_noise(NoiseSpec(sigma_sun=sigma), 3, 10000)
        angles = np.empty(len(noise))
        for k, (_, row, _) in enumerate(noise):
            u = sun_sensor_reading(IDENTITY, row)
            angles[k] = math.acos(min(1.0, float(u @ SUN_INERTIAL)))
        predicted = sigma * math.sqrt(math.pi / 2.0)
        assert np.mean(angles) == pytest.approx(predicted, rel=0.10)

    def test_zero_reference_rejected(self):
        for ref in ([0.0, 0.0, 0.0], [math.inf, 0.0, 0.0]):
            with pytest.raises(ValueError, match="zero or non-finite"):
                _body_direction(ref, IDENTITY, None)


class TestUnit:
    def test_equals_division_by_norm(self):
        # bit for bit, over magnitudes from 1e-150 to 1e150
        rng = np.random.default_rng(7)
        for v in rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-150, 150, (2000, 1)):
            np.testing.assert_array_equal(unit(v), v / np.linalg.norm(v))

    def test_zero_and_non_finite_rejected(self):
        for v in (np.zeros(3), [math.nan, 0.0, 1.0], [math.inf, 0.0, 0.0]):
            with pytest.raises(ValueError, match="zero or non-finite"):
                unit(v)


class TestNoiseBlock:
    def test_block_equals_per_step_draws(self):
        # one block holds the numbers per-step draws from the run's [seed,
        # seed] stream in the step's order (magnetometer, sun sensor, gyro)
        # would give, each scaled by its reference's magnitude; a zero-sigma
        # sensor draws nothing
        scales = (np.linalg.norm(B_INERTIAL), np.linalg.norm(SUN_INERTIAL), 1.0)
        for spec in (NoiseSpec(0.001, 0.002, 1e-4), NoiseSpec(0.001, 0.0, 1e-4),
                     NoiseSpec(0.0, 0.002, 0.0)):
            n = 40
            noise = sensor_noise(spec, 4, n)
            assert len(noise) == n
            rng = np.random.default_rng([4, 4])
            for k in range(n):
                for got, sigma, scale in zip(noise[k], (spec.sigma_mag, spec.sigma_sun,
                                                        spec.sigma_gyro), scales):
                    if sigma > 0.0:
                        np.testing.assert_array_equal(
                            got, rng.normal(0.0, sigma * scale, size=3))
                    else:
                        assert got is None

    def test_noiseless_draws_nothing(self):
        assert sensor_noise(NoiseSpec(0.0, 0.0, 0.0), 5, 3) == [(None,) * 3] * 3


class TestGyro:
    def test_noiseless_passthrough(self):
        w = AngularVelocity(0.0125, 0.05, 0.075)
        assert gyro_reading(w, None) == w

    def test_reading_is_rate_plus_noise(self):
        # the closed loop passes the step's noise row as Python floats
        w = AngularVelocity(0.0125, -0.05, 0.075)
        noise = [1e-4, -3e-4, 2e-4]
        got = gyro_reading(w, noise)
        assert isinstance(got, AngularVelocity) and all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, np.asarray(w) + noise)

    def test_noise_statistics(self):
        w = AngularVelocity.zero()
        samples = np.array([gyro_reading(w, row)
                            for _, _, row in sensor_noise(NoiseSpec(sigma_gyro=1e-3), 6, 10000)])
        assert np.std(samples) == pytest.approx(1e-3, rel=0.05)


class TestReadingVector:
    def test_layout(self):
        # a noise-free trajectory reads [C b, C s, b/|b|, s, w] per step, in
        # the order SENSOR_CHANNELS names them; the direction readings rotate
        # in Python floats, so C b and C s match the DCM form within 1e-15
        gains = PidGains(kp=(-3.0, -5.2, -6.0), kd=(-3.0, -5.2, -6.0))
        cfg = SimConfig(duration=1.0, noise=NoiseSpec(0.0, 0.0, 0.0))
        rec = run_closed_loop(cfg, gains=gains)
        rows = sensor_rows(rec.q, rec.w, cfg.noise, cfg.seed)
        b = dipole_field(POSITION)
        s = sun_direction_inertial(julian_date(EPOCH))
        np.testing.assert_array_equal(B_INERTIAL, b)
        np.testing.assert_array_equal(SUN_INERTIAL, s)
        col = {name: i for i, name in enumerate(SENSOR_CHANNELS)}

        def block(prefix):
            return rows[:, [col[prefix + axis] for axis in ("x", "y", "z")]]

        dcms = [quat_to_dcm(q) for q in rec.q]
        np.testing.assert_array_equal(block("ub_body_"), [magnetometer_reading(q, None)
                                                          for q in rec.q.tolist()])
        np.testing.assert_array_equal(block("us_body_"), [sun_sensor_reading(q, None)
                                                          for q in rec.q.tolist()])
        np.testing.assert_allclose(block("ub_body_"), [unit(c @ b) for c in dcms], atol=1e-15)
        np.testing.assert_allclose(block("us_body_"), [unit(c @ s) for c in dcms], atol=1e-15)
        np.testing.assert_array_equal(block("ub_inertial_"), np.tile(unit(b), (len(rec), 1)))
        np.testing.assert_array_equal(block("us_inertial_"), np.tile(s, (len(rec), 1)))
        np.testing.assert_array_equal(block("gyro_"), rec.w)
        assert len(SENSOR_CHANNELS) == rows.shape[1] == 15
        assert len(rows) == len(rec)


class TestNoiseSpecValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_mag=-0.001)

    @pytest.mark.parametrize("field", ["sigma_mag", "sigma_sun", "sigma_gyro"])
    def test_non_finite_sigma_rejected(self, field):
        # sensor_noise's sigma > 0 read a NaN sigma as zero: a noiseless sensor
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                NoiseSpec(**{field: value})

    def test_noiseless_flag(self):
        assert NoiseSpec(0.0, 0.0, 0.0).noiseless
        assert not NoiseSpec().noiseless
