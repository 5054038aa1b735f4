"""Closed-loop harness tests: runs, metrics, persistence, Monte Carlo."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from satgnc import anfis
from satgnc.config import MonteCarloConfig, SimConfig, UNCERTAIN_INERTIA
from satgnc.dynamics import (AngularVelocity, EulerAngles, InertiaTensor, Quaternion,
                             Torque, quat_to_euler)
from satgnc.harness import (CSV_COLUMNS, MissingBundleError, Metrics, RunRecord,
                            _mc_run_config, compute_metrics, evaluate_controllers,
                            final_euler_error, format_evaluation,
                            fuel_consumption, monte_carlo, needed_roles,
                            run_closed_loop, settling_time, tuning_objective)
from satgnc.pid import PidGains
from satgnc.roles import (ROLES, STATE_CHANNELS, RoleBundle,
                          _random_conditions)
from satgnc.sensors import GYRO, NoiseSpec

GAINS = PidGains(kp=(-3.0, -5.2, -6.0), kd=(-3.0, -5.2, -6.0),
                 kq=(-0.01, -0.01, -0.01), kw=(-0.01, -0.01, -0.01))


def synthetic_record(t, euler_err, desired=(0.0, 0.0, 0.0), applied=None, dt=None):
    """Build a minimal record whose euler history is desired + given error."""
    n = len(t)
    dt = dt if dt is not None else float(t[1] - t[0])
    cfg = SimConfig(dt=dt, duration=float(t[-1]) if t[-1] >= dt else dt,
                    desired_euler=EulerAngles(*desired))
    rec = RunRecord(np.zeros((n, len(CSV_COLUMNS))), cfg)
    rec.t[:] = t
    rec.q[:, 3] = rec.est_q[:, 3] = 1.0
    if applied is not None:
        rec.mc_cmd[:] = rec.applied[:] = applied
    rec.euler[:] = np.asarray(euler_err, dtype=float) + np.asarray(desired)
    return rec


class TestRunClosedLoop:
    def test_equilibrium_stays_put(self):
        cfg = SimConfig(initial_euler=EulerAngles(5.0, 0.0, 0.0),
                        initial_omega=AngularVelocity.zero(),
                        desired_euler=EulerAngles(5.0, 0.0, 0.0))
        rec = run_closed_loop(cfg, gains=GAINS)
        assert np.max(np.abs(rec.mc_cmd)) < 1e-12
        assert np.max(np.abs(final_euler_error(rec))) < 1e-9

    def test_pid_converges_nominal(self):
        rec = run_closed_loop(SimConfig(), gains=GAINS)
        settle = settling_time(rec)
        assert all(s is not None and s <= 20.0 for s in settle)

    def test_noise_stream_of_run_seed(self):
        # the gyro noise is the standard-normal block of the [seed, seed]
        # stream: what a noise seed equal to the run's seed drew
        cfg = SimConfig(duration=1.0, seed=7, noise=NoiseSpec())
        rec = run_closed_loop(cfg, gains=GAINS, record_sensors=True)
        block = np.random.default_rng([7, 7]).standard_normal((len(rec), 3, 3))
        np.testing.assert_allclose(rec.sensor[:, GYRO] - rec.w, 1e-4 * block[:, 2],
                                   rtol=0.0, atol=1e-15)
        # no seed raises: a negative one, or one above 2**31
        for seed in (-1, 2 ** 40):
            run_closed_loop(replace(cfg, seed=seed), gains=GAINS, record_sensors=True)

    def test_deterministic_records(self):
        a = run_closed_loop(SimConfig(seed=4), gains=GAINS)
        b = run_closed_loop(SimConfig(seed=4), gains=GAINS)
        np.testing.assert_array_equal(a.q, b.q)
        np.testing.assert_array_equal(a.mc_cmd, b.mc_cmd)

    def test_uniform_grid_and_lengths(self):
        rec = run_closed_loop(SimConfig(duration=2.0), gains=GAINS)
        assert len(rec) == 201
        np.testing.assert_allclose(np.diff(rec.t), 0.01, atol=1e-12)

    def test_missing_gains_rejected(self):
        with pytest.raises(ValueError, match="gains"):
            run_closed_loop(SimConfig())

    def test_missing_bundle_rejected(self):
        with pytest.raises(MissingBundleError):
            run_closed_loop(SimConfig(controller="anfis"))
        with pytest.raises(MissingBundleError):
            run_closed_loop(SimConfig(estimator="anfis"), gains=GAINS)

    def test_needed_roles(self):
        cases = {("pid", "truth"): [], ("anfis", "truth"): ["controller"],
                 ("integrated", "truth"): ["integrated"], ("pid", "anfis"): ["estimator"],
                 ("anfis", "anfis"): ["controller", "estimator"],
                 ("integrated", "anfis"): ["estimator", "integrated"]}
        for (controller, estimator), want in cases.items():
            cfg = SimConfig(controller=controller, estimator=estimator)
            assert needed_roles(cfg) == want

    def test_wrong_role_bundle_rejected(self, controller_art):
        with pytest.raises(MissingBundleError, match="role"):
            run_closed_loop(SimConfig(estimator="anfis"), gains=GAINS,
                            bundles={"estimator": controller_art["bundle"]})

    def test_quaternion_norm_preserved(self):
        rec = run_closed_loop(SimConfig(duration=5.0), gains=GAINS)
        np.testing.assert_allclose(np.linalg.norm(rec.q, axis=1), 1.0,
                                   atol=1e-12)

    def test_pid_slews_the_short_way(self):
        # -100 to +100 deg of yaw: the short way (160 deg) runs through
        # +/-180, the long way (200 deg) through 0
        cfg = SimConfig(duration=30.0, initial_euler=EulerAngles(0.0, 0.0, -100.0),
                        initial_omega=AngularVelocity.zero(),
                        desired_euler=EulerAngles(0.0, 0.0, 100.0))
        rec = run_closed_loop(cfg, gains=GAINS)
        assert np.min(np.abs(rec.euler[:, 2])) > 45.0
        assert abs(final_euler_error(rec)[2]) < 1.0

    def test_disturbance_biases_steady_state(self):
        quiet = run_closed_loop(SimConfig(), gains=GAINS)
        pushed = run_closed_loop(
            SimConfig(disturbance_const=Torque(0.05, 0.0, 0.0)), gains=GAINS)
        assert (abs(final_euler_error(pushed)[0])
                > abs(final_euler_error(quiet)[0]))

    def test_gimbal_lock_warns_once_per_run(self):
        # a run commanded to 90 deg pitch spends many samples at the
        # singularity; the record reports them in one warning with their count
        cfg = SimConfig(initial_euler=EulerAngles(10.0, 80.0, 10.0),
                        initial_omega=AngularVelocity.zero(),
                        desired_euler=EulerAngles(0.0, 90.0, 0.0))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rec = run_closed_loop(cfg, gains=GAINS)
        locked = np.count_nonzero(np.abs(rec.euler[:, 1]) > 89.99)
        assert locked > 0
        assert [str(w.message) for w in caught if "gimbal lock" in str(w.message)] == [
            f"pitch within 0.01 deg of gimbal lock at {locked} sample(s); yaw set to zero"]

    def test_euler_columns_match_each_attitude(self):
        rec = run_closed_loop(SimConfig(), gains=GAINS)
        single = np.array([quat_to_euler(Quaternion(*q)) for q in rec.q])
        np.testing.assert_allclose(rec.euler, single, rtol=0.0, atol=1e-12)


class TestMetrics:
    def test_fuel_constant_torque_closed_form(self):
        n = 2001
        t = np.linspace(0.0, 20.0, n)
        applied = np.column_stack([np.full(n, 0.1), np.zeros(n), np.zeros(n)])
        rec = synthetic_record(t, np.zeros((n, 3)), applied=applied)
        per_axis, total = fuel_consumption(rec)
        assert per_axis[0] == pytest.approx(2.0)
        assert per_axis[1] == per_axis[2] == 0.0
        assert total == pytest.approx(2.0)

    def test_fuel_zero(self):
        t = np.linspace(0.0, 1.0, 101)
        _, total = fuel_consumption(synthetic_record(t, np.zeros((101, 3))))
        assert total == 0.0

    def test_settling_zero_initial_and_instant_drop(self):
        t = np.linspace(0.0, 10.0, 101)
        err = np.zeros((101, 3))
        err[0, 0] = 1.0   # violates only at the first sample
        rec = synthetic_record(t, err)
        settle = settling_time(rec)
        assert settle[0] == pytest.approx(t[1])
        assert settle[1] == settle[2] == 0.0   # zero initial error

    def test_settling_last_entry_rule(self):
        t = np.arange(0.0, 10.0, 0.1)
        n = len(t)
        err = np.zeros((n, 3))
        err[:, 0] = 10.0 * np.exp(-t)          # settles when 10 e^-t < 0.1
        # axis 1: enters the band, pops back out, re-enters at t = 6.0
        err[:, 1] = 10.0 * np.exp(-t)
        bump = (t >= 5.5) & (t < 6.0)
        err[bump, 1] = 5.0
        rec = synthetic_record(t, err)
        settle = settling_time(rec)
        brute = t[np.nonzero(np.abs(err[:, 0]) > 0.1)[0][-1] + 1]
        assert settle[0] == pytest.approx(brute)
        assert settle[1] == pytest.approx(6.0)

    def test_settling_never(self):
        t = np.linspace(0.0, 10.0, 101)
        err = np.column_stack([np.full(101, 5.0), np.zeros(101), np.zeros(101)])
        rec = synthetic_record(t, err)
        assert settling_time(rec)[0] is None

    def test_error_wrapping(self):
        t = np.linspace(0.0, 1.0, 11)
        err = np.zeros((11, 3))
        rec = synthetic_record(t, err, desired=(179.0, 0.0, 0.0))
        rec.euler[:, 0] = -179.0   # two degrees away across the wrap
        assert final_euler_error(rec)[0] == pytest.approx(2.0)

    def test_error_inside_wrap_not_rounded(self):
        # (err + 180) % 360 - 180 would round 1e-15 to the ulp of 180, 0.0
        t = np.linspace(0.0, 1.0, 11)
        rec = synthetic_record(t, np.full((11, 3), 1e-15))
        assert (final_euler_error(rec) == 1e-15).all()

    def test_compute_metrics_bundles_everything(self):
        rec = run_closed_loop(SimConfig(duration=5.0), gains=GAINS)
        m = compute_metrics(rec)
        assert isinstance(m, Metrics)
        assert m.fuel_total >= 0.0
        assert m.cost_j == rec.cost_j


class TestRecordPersistence:
    def test_csv_round_trip_metrics_exact(self, tmp_path):
        rec = run_closed_loop(SimConfig(duration=2.0, seed=8), gains=GAINS)
        path = tmp_path / "run.csv"
        rec.to_csv(path)
        back = RunRecord.from_csv(path)
        assert back.data.shape == (len(rec), len(CSV_COLUMNS))
        np.testing.assert_array_equal(back.data, rec.data)
        np.testing.assert_array_equal(back.q, rec.q)
        np.testing.assert_array_equal(back.applied, rec.applied)
        assert back.config == rec.config
        assert back.cost_j == rec.cost_j
        a1, t1 = fuel_consumption(rec)
        a2, t2 = fuel_consumption(back)
        np.testing.assert_array_equal(a1, a2)
        assert t1 == t2

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_closed_loop(SimConfig(duration=2.0, seed=9), gains=GAINS).to_csv(p1)
        run_closed_loop(SimConfig(duration=2.0, seed=9), gains=GAINS).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_column_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,q1\n0.0,1.0\n")
        with pytest.raises(ValueError, match="columns"):
            RunRecord.from_csv(path)


class TestTuningObjective:
    def test_finite_and_noise_free(self):
        objective = tuning_objective(SimConfig(noise=NoiseSpec()))
        j = objective(GAINS)
        assert np.isfinite(j) and j > 0.0

    def test_diverging_gains_give_inf(self):
        objective = tuning_objective(SimConfig())
        bad = PidGains(kp=(1e6, 1e6, 1e6), kd=(1e6, 1e6, 1e6), mc_max=1e9)
        assert objective(bad) == np.inf


class TestMonteCarlo:
    def test_running_stats_match_batch(self):
        mc = MonteCarloConfig(base=SimConfig(duration=2.0), n_runs=8,
                              master_seed=21)
        rep = monte_carlo(mc, gains=GAINS)
        assert rep.n_failed == 0
        for k in range(mc.n_runs):
            batch = rep.errors[:k + 1]
            np.testing.assert_allclose(rep.mean[k], batch.mean(axis=0),
                                       atol=1e-12)
            np.testing.assert_allclose(rep.sigma3[k], 3.0 * batch.std(axis=0),
                                       atol=1e-12)

    def test_deterministic_and_worker_invariant(self):
        mc = MonteCarloConfig(base=SimConfig(duration=2.0), n_runs=6,
                              master_seed=5)
        a = monte_carlo(mc, gains=GAINS, workers=1)
        b = monte_carlo(mc, gains=GAINS, workers=2)
        np.testing.assert_array_equal(a.errors, b.errors)
        np.testing.assert_array_equal(a.sigma3, b.sigma3)

    def test_invalid_estimates_counted_as_failed_runs(self):
        # an estimator whose quaternion channels predict zero fails every run
        # on its first step; the campaign still completes and counts them
        names = ROLES["estimator"].inputs
        model = anfis.grid_partition_init(np.tile([-1.5, 1.5], (len(names), 1)), 2)
        model.coeffs = np.zeros((len(STATE_CHANNELS),) + model.coeffs.shape[1:])
        bundle = RoleBundle("estimator", model, names, STATE_CHANNELS)
        mc = MonteCarloConfig(base=SimConfig(duration=1.0, estimator="anfis"),
                              n_runs=3, master_seed=3)
        for workers in (1, 2):
            rep = monte_carlo(mc, gains=GAINS, bundles={"estimator": bundle},
                              workers=workers)
            assert rep.n_failed == mc.n_runs
            assert np.isnan(rep.errors).all() and np.isnan(rep.mean).all()

    @pytest.mark.parametrize("role", ["estimator", "integrated"])
    def test_nan_role_outputs_counted_as_failed_runs(self, role):
        # a NaN estimate is invalid, and a NaN torque is not clamped to full
        # negative torque: either way every run fails and is counted
        spec = ROLES[role]
        model = anfis.grid_partition_init(np.tile([-1.5, 1.5], (len(spec.inputs), 1)), 2)
        model.coeffs = np.full((len(spec.outputs),) + model.coeffs.shape[1:], np.nan)
        bundle = RoleBundle(role, model, spec.inputs, spec.outputs)
        base = SimConfig(duration=1.0, **({"estimator": "anfis"} if role == "estimator"
                                          else {"controller": "integrated"}))
        rep = monte_carlo(MonteCarloConfig(base=base, n_runs=3, master_seed=3), gains=GAINS,
                          bundles={role: bundle})
        assert rep.n_failed == 3 and np.isnan(rep.errors).all()

    def test_float_and_float64_initial_conditions_fly_alike(self):
        # the draws are Python floats; the same values as numpy scalars give
        # the same record, sensors included
        cfg = _mc_run_config(MonteCarloConfig(base=SimConfig(duration=2.0), master_seed=5), 0)
        assert all(type(v) is float for v in (*cfg.initial_euler, *cfg.initial_omega))
        as64 = replace(cfg, initial_euler=EulerAngles(*np.array(cfg.initial_euler)),
                       initial_omega=AngularVelocity(*np.array(cfg.initial_omega)))
        assert type(as64.initial_omega.w1) is np.float64
        a = run_closed_loop(cfg, GAINS, record_sensors=True)
        b = run_closed_loop(as64, GAINS, record_sensors=True)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.sensor, b.sensor)

    def test_sampled_plants_are_realizable(self):
        def triangle(i):
            return i.i1 + i.i2 >= i.i3 and i.i2 + i.i3 >= i.i1 and i.i1 + i.i3 >= i.i2

        for seed in (2024, 0):
            mc = MonteCarloConfig(base=SimConfig(), n_runs=200, master_seed=seed)
            kept = 0
            for k in range(mc.n_runs):
                cfg = _mc_run_config(mc, k)
                assert triangle(cfg.inertia_true), (seed, k, cfg.inertia_true)
                # a realizable first draw is kept, and so is the noise seed
                # drawn after it
                rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
                rng.uniform(size=6)
                first = InertiaTensor(*np.maximum(0.1, np.asarray(mc.base.inertia_nominal)
                                                  + rng.uniform(-1.0, 1.0, size=3)))
                if triangle(first):
                    kept += 1
                    assert cfg.inertia_true == first
                    assert cfg.seed == int(rng.integers(0, 2 ** 31))
            assert 150 < kept < 200
        # there is no realizable plant to draw around an unrealizable nominal one
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            base = SimConfig(inertia_nominal=InertiaTensor(1.0, 1.0, 3.0))
        with pytest.raises(ValueError, match="triangle"):
            MonteCarloConfig(base=base)

    def test_runs_start_within_teacher_envelope(self):
        # a campaign run's attitude and rates are the teacher runs' draw on
        # the run's stream
        mc = MonteCarloConfig(base=SimConfig(), master_seed=2024)
        for k in range(20):
            rng = np.random.default_rng(np.random.SeedSequence([mc.master_seed, k]))
            cfg = _mc_run_config(mc, k)
            assert (cfg.initial_euler, cfg.initial_omega) == _random_conditions(rng)

    def test_report_csv_round_trip_bytes(self, tmp_path):
        mc = MonteCarloConfig(base=SimConfig(duration=2.0), n_runs=4,
                              master_seed=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monte_carlo(mc, gains=GAINS).to_csv(p1)
        monte_carlo(mc, gains=GAINS).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestEvaluation:
    def test_table_layout(self, tuned, bundles):
        rows = evaluate_controllers(tuned["gains"], bundles,
                                    base=SimConfig(duration=5.0))
        assert len(rows) == 6
        conditions = {r["condition"] for r in rows}
        assert len(conditions) == 3
        assert {r["controller"] for r in rows} == {"anfis", "pid"}
        text = format_evaluation(rows)
        assert len(text.splitlines()) == 7

    def test_uncertainty_uses_true_inertia(self, tuned, bundles):
        rows = evaluate_controllers(tuned["gains"], bundles,
                                    base=SimConfig(duration=5.0))
        nominal = [r for r in rows if r["condition"].startswith("without")]
        uncertain = [r for r in rows
                     if r["condition"] == "considering uncertainty"]
        assert nominal[0]["fuel_total"] != uncertain[0]["fuel_total"]
