"""Sensor-simulation tests: calendar/ephemeris, dipole field, noise model."""

import math

import numpy as np
import pytest

from satgnc.config import SimConfig
from satgnc.dynamics import AngularVelocity, Quaternion, quat_to_dcm
from satgnc.harness import run_closed_loop
from satgnc.pid import PidGains
from satgnc.sensors import (B_INERTIAL, EPOCH, POSITION, SENSOR_CHANNELS, SUN_INERTIAL,
                            CalendarInstant, GeoPosition, NoiseSpec, TiltedDipoleField,
                            gyro_reading, julian_date, magnetometer_reading,
                            reference_norm, sensor_noise, solar_angles,
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

    def test_validity_window(self):
        with pytest.raises(ValueError):
            julian_date(CalendarInstant(1800, 1, 1))
        with pytest.raises(ValueError):
            julian_date(CalendarInstant(2200, 1, 1))

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            julian_date(CalendarInstant(2020, 13, 1))
        with pytest.raises(ValueError):
            julian_date(CalendarInstant(2020, 1, 1, 24))


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
    def test_equator_magnitude(self):
        f = TiltedDipoleField(tilt_deg=0.0)
        b = f.field(GeoPosition(0.0, 0.0, 0.0))
        assert np.linalg.norm(b) == pytest.approx(30000.0)

    def test_pole_magnitude_doubles(self):
        f = TiltedDipoleField(tilt_deg=0.0)
        b = f.field(GeoPosition(90.0, 0.0, 0.0))
        assert np.linalg.norm(b) == pytest.approx(60000.0)

    def test_altitude_falloff_cubed(self):
        f = TiltedDipoleField(tilt_deg=0.0)
        b0 = f.field(GeoPosition(0.0, 0.0, 0.0))
        r = 6371.2
        b1 = f.field(GeoPosition(0.0, 0.0, r))
        assert np.linalg.norm(b1) == pytest.approx(np.linalg.norm(b0) / 8.0)

    def test_equator_points_north_untitled(self):
        f = TiltedDipoleField(tilt_deg=0.0)
        b = f.field(GeoPosition(0.0, 0.0, 500.0))
        assert unit(b) == pytest.approx(np.array([0.0, 0.0, 1.0]))

    def test_tilt_moves_magnetic_equator(self):
        tilted = TiltedDipoleField(tilt_deg=11.5)
        b_geo_eq = tilted.field(GeoPosition(0.0, 0.0, 0.0))
        # geographic equator is no longer the magnetic equator
        assert abs(np.linalg.norm(b_geo_eq) - 30000.0) > 10.0

    def test_position_validated(self):
        f = TiltedDipoleField()
        with pytest.raises(ValueError):
            f.field(GeoPosition(95.0, 0.0, 0.0))


class TestDirectionalSensors:
    def test_noiseless_is_rotated_reference(self):
        q = Quaternion.from_axis_angle([0.3, -0.5, 0.8], 0.9)
        b_inertial = np.array([10000.0, -20000.0, 5000.0])
        got = magnetometer_reading(b_inertial, q, None)
        want = unit(quat_to_dcm(q) @ b_inertial)
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_float_reading_equals_batched_form(self):
        # a reading in Python floats equals the elementwise numpy form over
        # (N, 3) arrays, in the same order, bit for bit, and the DCM form
        # within 1e-15: the scalar loop and a batched loop can agree exactly
        rng = np.random.default_rng(12)
        q = rng.normal(size=(2000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        mag_noise, sun_noise, _ = sensor_noise(NoiseSpec(), B_INERTIAL, SUN_INERTIAL, 2000, rng)
        q1, q2, q3, q4 = q.T
        for read, ref, noise in ((magnetometer_reading, B_INERTIAL, mag_noise),
                                 (sun_sensor_reading, SUN_INERTIAL, sun_noise)):
            r0, r1, r2 = ref
            x = ((1.0 - 2.0 * (q2 * q2 + q3 * q3)) * r0 + 2.0 * (q1 * q2 + q3 * q4) * r1
                 + 2.0 * (q1 * q3 - q2 * q4) * r2) + noise[:, 0]
            y = (2.0 * (q1 * q2 - q3 * q4) * r0 + (1.0 - 2.0 * (q1 * q1 + q3 * q3)) * r1
                 + 2.0 * (q2 * q3 + q1 * q4) * r2) + noise[:, 1]
            z = (2.0 * (q1 * q3 + q2 * q4) * r0 + 2.0 * (q2 * q3 - q1 * q4) * r1
                 + (1.0 - 2.0 * (q1 * q1 + q2 * q2)) * r2) + noise[:, 2]
            batched = np.column_stack([x, y, z]) / np.sqrt(x * x + y * y + z * z)[:, None]
            got = np.array([read(ref, qk, nk) for qk, nk in zip(q.tolist(), noise)])
            np.testing.assert_array_equal(got, batched)
            dcm_form = [unit(quat_to_dcm(qk) @ ref + nk) for qk, nk in zip(q, noise)]
            np.testing.assert_allclose(got, dcm_form, rtol=0.0, atol=1e-15)

    def test_zero_or_non_finite_direction_rejected(self):
        for ref, q in (([0.0, 0.0, 0.0], IDENTITY), ([1.0, 0.0, 0.0], (math.nan, 0.0, 0.0, 1.0)),
                       ([math.inf, 0.0, 0.0], IDENTITY)):
            with pytest.raises(ValueError, match="zero or non-finite"):
                sun_sensor_reading(np.array(ref), q, None)

    def test_reading_always_unit(self):
        ref = np.array([1.0, 0.0, 0.0])
        noise = sensor_noise(NoiseSpec(0.05, 0.05, 0.0), ref, ref, 50,
                             np.random.default_rng(1))[1]
        for row in noise:
            u = sun_sensor_reading(ref, IDENTITY, row)
            assert np.linalg.norm(u) == pytest.approx(1.0)

    def test_noise_scales_with_field_magnitude(self):
        # the same sigma produces the same angular scatter regardless of units
        spec = NoiseSpec(sigma_mag=0.01)
        small, large = np.array([1.0, 0.0, 0.0]), np.array([30000.0, 0.0, 0.0])
        na = sensor_noise(spec, small, small, 1, np.random.default_rng(2))[0]
        nb = sensor_noise(spec, large, small, 1, np.random.default_rng(2))[0]
        a = magnetometer_reading(small, IDENTITY, na[0])
        b = magnetometer_reading(large, IDENTITY, nb[0])
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_mean_angular_deviation_matches_sigma(self):
        # small-angle: deviation angle ~ Rayleigh from the two transverse
        # noise components; its mean is sigma * sqrt(pi/2)
        sigma = 0.001
        ref = np.array([1.0, 0.0, 0.0])
        noise = sensor_noise(NoiseSpec(sigma_sun=sigma), ref, ref, 10000,
                             np.random.default_rng(3))[1]
        angles = np.empty(len(noise))
        for k, row in enumerate(noise):
            u = sun_sensor_reading(ref, IDENTITY, row)
            angles[k] = math.acos(min(1.0, float(u @ ref)))
        predicted = sigma * math.sqrt(math.pi / 2.0)
        assert np.mean(angles) == pytest.approx(predicted, rel=0.10)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            reference_norm(np.zeros(3))


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
        # one block holds the numbers per-step draws in the step's order
        # (magnetometer, sun sensor, gyro) would give; a zero-sigma sensor
        # draws nothing
        for spec in (NoiseSpec(0.001, 0.002, 1e-4), NoiseSpec(0.001, 0.0, 1e-4),
                     NoiseSpec(0.0, 0.002, 0.0)):
            b = np.array([10000.0, -20000.0, 5000.0])
            # an ephemeris direction whose norm is 1 - 1 ulp, so the scale matters
            s = sun_direction_inertial(julian_date(CalendarInstant(2020, 1, 1)))
            n = 40
            mag, sun, gyro = sensor_noise(spec, b, s, n, np.random.default_rng(4))
            rng = np.random.default_rng(4)
            for k in range(n):
                for got, sigma, scale in ((mag, spec.sigma_mag, reference_norm(b)),
                                          (sun, spec.sigma_sun, reference_norm(s)),
                                          (gyro, spec.sigma_gyro, 1.0)):
                    if sigma > 0.0:
                        np.testing.assert_array_equal(
                            got[k], rng.normal(0.0, sigma * scale, size=3))
                    else:
                        assert got[k] is None

    def test_noiseless_draws_nothing(self):
        rng = np.random.default_rng(5)
        ref = np.array([1.0, 0.0, 0.0])
        assert sensor_noise(NoiseSpec(0.0, 0.0, 0.0), ref, ref, 3, rng) == [(None,) * 3] * 3
        assert rng.standard_normal() == np.random.default_rng(5).standard_normal()


class TestGyro:
    def test_noiseless_passthrough(self):
        w = AngularVelocity(0.0125, 0.05, 0.075)
        assert gyro_reading(w, None) == w

    def test_reading_is_rate_plus_noise(self):
        w = AngularVelocity(0.0125, -0.05, 0.075)
        noise = np.array([1e-4, -3e-4, 2e-4])
        got = gyro_reading(w, noise)
        assert isinstance(got, AngularVelocity) and all(type(v) is float for v in got)
        np.testing.assert_array_equal(got, np.asarray(w) + noise)

    def test_noise_statistics(self):
        ref = np.array([1.0, 0.0, 0.0])
        noise = sensor_noise(NoiseSpec(sigma_gyro=1e-3), ref, ref, 10000,
                             np.random.default_rng(6))[2]
        w = AngularVelocity.zero()
        samples = np.array([gyro_reading(w, row) for row in noise])
        assert np.std(samples) == pytest.approx(1e-3, rel=0.05)


class TestReadingVector:
    def test_layout(self):
        # a noise-free run records [C b, C s, b/|b|, s, w] per step, in the
        # order SENSOR_CHANNELS names them; the direction readings rotate in
        # Python floats, so C b and C s match the DCM form within 1e-15
        gains = PidGains(kp=(-3.0, -5.2, -6.0), kd=(-3.0, -5.2, -6.0))
        cfg = SimConfig(duration=1.0, noise=NoiseSpec(0.0, 0.0, 0.0))
        rec = run_closed_loop(cfg, gains=gains, record_sensors=True)
        b = TiltedDipoleField().field(POSITION)
        s = sun_direction_inertial(julian_date(EPOCH))
        np.testing.assert_array_equal(B_INERTIAL, b)
        np.testing.assert_array_equal(SUN_INERTIAL, s)
        col = {name: i for i, name in enumerate(SENSOR_CHANNELS)}

        def block(prefix):
            return rec.sensor[:, [col[prefix + axis] for axis in ("x", "y", "z")]]

        dcms = [quat_to_dcm(q) for q in rec.q]
        np.testing.assert_array_equal(block("ub_body_"), [magnetometer_reading(b, q, None)
                                                          for q in rec.q.tolist()])
        np.testing.assert_array_equal(block("us_body_"), [sun_sensor_reading(s, q, None)
                                                          for q in rec.q.tolist()])
        np.testing.assert_allclose(block("ub_body_"), [unit(c @ b) for c in dcms], atol=1e-15)
        np.testing.assert_allclose(block("us_body_"), [unit(c @ s) for c in dcms], atol=1e-15)
        np.testing.assert_array_equal(block("ub_inertial_"), np.tile(unit(b), (len(rec), 1)))
        np.testing.assert_array_equal(block("us_inertial_"), np.tile(s, (len(rec), 1)))
        np.testing.assert_array_equal(block("gyro_"), rec.w)
        assert len(SENSOR_CHANNELS) == rec.sensor.shape[1] == 15


class TestNoiseSpecValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma_mag=-0.001)

    def test_noiseless_flag(self):
        assert NoiseSpec(0.0, 0.0, 0.0).noiseless
        assert not NoiseSpec().noiseless
