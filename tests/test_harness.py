"""Closed-loop harness tests: runs, metrics, persistence, Monte Carlo."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from satgnc import anfis, harness
from satgnc.config import (NOMINAL_INERTIA, UNCERTAIN_INERTIA, MonteCarloConfig, SimConfig,
                           parse_sim_config)
from satgnc.dynamics import (AngularVelocity, BodyState, EulerAngles, InertiaTensor,
                             IntegrationDivergedError, Quaternion, Torque, euler_to_quat,
                             integrate_step, quat_multiply, quat_to_euler)
from satgnc.harness import (CSV_COLUMNS, MissingBundleError, Metrics, RunRecord, RunSummary,
                            _mc_final_error, _mc_run_config, compute_metrics,
                            evaluate_controllers, final_euler_error, format_evaluation,
                            fuel_consumption, monte_carlo, needed_roles,
                            run_closed_loop, settling_time, tuning_objective)
from satgnc.pid import PidGains, PidState, default_initial_gains, pid_step
from satgnc.roles import (ROLES, STATE_CHANNELS, RoleBundle, _random_conditions,
                          generate_controller_data, generate_sensor_data)
from satgnc.sensors import SENSOR_CHANNELS, NoiseSpec, sensor_rows

GAINS = PidGains(kp=(-3.0, -5.2, -6.0), kd=(-3.0, -5.2, -6.0),
                 kq=(-0.01, -0.01, -0.01), kw=(-0.01, -0.01, -0.01))
GYRO = slice(SENSOR_CHANNELS.index("gyro_x"), SENSOR_CHANNELS.index("gyro_z") + 1)


def spy_sensor_rows(monkeypatch) -> list:
    """The sensor rows the loop's sensor roles read, appended as they are read."""
    read = []
    for name in ("anfis_estimate", "anfis_integrated"):
        real = getattr(harness, name)
        monkeypatch.setattr(harness, name,
                            lambda bundle, row, real=real: read.append(row) or real(bundle, row))
    return read


def step_order_cost(record) -> float:
    """J of a record as a running sum over its steps: dt * (sum |w_i| + sum
    |qe_i|) at every sample but the last, which no step follows."""
    cost, dt = 0.0, record.config.dt
    for w, qe in zip(record.w[:-1].tolist(), record.qe[:-1].tolist()):
        cost += dt * (abs(w[0]) + abs(w[1]) + abs(w[2]) + abs(qe[0]) + abs(qe[1]) + abs(qe[2]))
    return cost


def synthetic_record(t, euler_err, desired=(0.0, 0.0, 0.0), applied=None, dt=None):
    """Build a minimal record whose euler history is desired + given error."""
    n = len(t)
    dt = dt if dt is not None else float(t[1] - t[0])
    cfg = SimConfig(dt=dt, duration=float(t[-1]) if t[-1] >= dt else dt,
                    desired_euler=EulerAngles(*desired))
    rec = RunRecord(np.zeros((n, len(CSV_COLUMNS))), cfg, 0.0)     # w and qe are zero
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
        rec = run_closed_loop(cfg, gains=GAINS)
        rows = sensor_rows(rec.q, rec.w, cfg.noise, cfg.seed)
        block = np.random.default_rng([7, 7]).standard_normal((len(rec), 3, 3))
        np.testing.assert_allclose(rows[:, GYRO] - rec.w, 1e-4 * block[:, 2],
                                   rtol=0.0, atol=1e-15)

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

    @pytest.mark.parametrize("const, amp", [
        ((1e-3, 0.0, 0.0), (0.0, 0.0, 0.0)),
        ((1e-3, -0.0, 0.0), (0.0, 0.0, 0.0)),     # -0.0: the torque is built every step
        ((1e-3, 0.0, 0.0), (2e-3, -1e-3, 5e-4))])
    def test_disturbance_built_once_is_exact(self, monkeypatch, const, amp):
        # against a reference loop that builds the disturbance torque every
        # step: each step's torque (the sign of a zero included), the record
        # and J, bit for bit.  A 0.1 Hz sine is negative from 5 s on, where
        # -0.0 + 0.0 * sin gives -0.0, and 0.0 before
        cfg = SimConfig(duration=7.0, disturbance_const=Torque(*const),
                        disturbance_amp=Torque(*amp), disturbance_freq_hz=0.1)
        flown, real = [], harness.integrate_step
        monkeypatch.setattr(harness, "integrate_step",
                            lambda state, inertia, mc, md, dt: flown.append(md)
                            or real(state, inertia, mc, md, dt))
        rec = run_closed_loop(cfg, gains=GAINS)
        qc_conj = euler_to_quat(cfg.desired_euler).conjugate()
        state = BodyState(euler_to_quat(cfg.initial_euler), cfg.initial_omega)
        pid_state, dt = PidState(), cfg.dt
        dc, da, rows, torques, cost = cfg.disturbance_const, cfg.disturbance_amp, [], [], 0.0
        for k in range(cfg.n_steps + 1):
            q, w = state
            qe = quat_multiply(q, qc_conj)
            qe_vec = (qe.q1, qe.q2, qe.q3) if qe.q4 >= 0.0 else (-qe.q1, -qe.q2, -qe.q3)
            mc, _ = pid_step(qe_vec, w, pid_state, GAINS, dt)
            rows.append((*q, *w, *qe_vec, *mc, *mc))
            if k < cfg.n_steps:
                cost += dt * (abs(w[0]) + abs(w[1]) + abs(w[2])
                              + abs(qe_vec[0]) + abs(qe_vec[1]) + abs(qe_vec[2]))
                s = math.sin(2.0 * math.pi * cfg.disturbance_freq_hz * (k * dt))
                torques.append(Torque(dc.m1 + da.m1 * s, dc.m2 + da.m2 * s, dc.m3 + da.m3 * s))
                state = integrate_step(state, cfg.inertia_true, mc, torques[-1], dt)
        assert [[v.hex() for v in md] for md in flown] == [[v.hex() for v in md] for md in torques]
        step = rec.data[:, CSV_COLUMNS.index("q1"):CSV_COLUMNS.index("phi")]
        assert step.tobytes() == np.array(rows).tobytes()
        assert rec.cost_j.hex() == cost.hex()

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
        assert m.cost_j == rec.cost_j == step_order_cost(rec) > 0.0


class TestRecordPersistence:
    def test_csv_round_trip_metrics_exact(self, tmp_path):
        # the file holds the run exactly: its "# " echo parses back to the
        # config, its header names CSV_COLUMNS and its body is the matrix
        rec = run_closed_loop(SimConfig(duration=2.0, seed=8), gains=GAINS)
        path = tmp_path / "run.csv"
        rec.to_csv(path)
        lines = path.read_text().splitlines()
        n_head = next(i for i, line in enumerate(lines) if not line.startswith("# "))
        assert parse_sim_config("\n".join(line[2:] for line in lines[:n_head])) == rec.config
        assert tuple(lines[n_head].split(",")) == CSV_COLUMNS
        body = np.loadtxt(lines[n_head + 1:], delimiter=",", ndmin=2)
        assert body.shape == (len(rec), len(CSV_COLUMNS))
        np.testing.assert_array_equal(body, rec.data)

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_closed_loop(SimConfig(duration=2.0, seed=9), gains=GAINS).to_csv(p1)
        run_closed_loop(SimConfig(duration=2.0, seed=9), gains=GAINS).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()


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

    def test_float_and_float64_initial_conditions_fly_alike(self, monkeypatch, bundles):
        # the draws are Python floats; the same values as numpy scalars give
        # the same record, and the same sensor rows in a loop that reads them
        read = spy_sensor_rows(monkeypatch)
        for controller in ("pid", "integrated"):
            base = SimConfig(duration=2.0, controller=controller)
            cfg = _mc_run_config(MonteCarloConfig(base=base, master_seed=5), 0)
            assert all(type(v) is float for v in (*cfg.initial_euler, *cfg.initial_omega))
            as64 = replace(cfg, initial_euler=EulerAngles(*np.array(cfg.initial_euler)),
                           initial_omega=AngularVelocity(*np.array(cfg.initial_omega)))
            assert type(as64.initial_omega.w1) is np.float64
            read.clear()
            a = run_closed_loop(cfg, GAINS, bundles)
            n_read = len(read)
            b = run_closed_loop(as64, GAINS, bundles)
            np.testing.assert_array_equal(a.data, b.data)
            assert n_read == (len(a) if controller == "integrated" else 0)
            np.testing.assert_array_equal(read[:n_read], read[n_read:])

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
                first = InertiaTensor(*np.maximum(0.1, np.asarray(NOMINAL_INERTIA)
                                                  + rng.uniform(-1.0, 1.0, size=3)))
                if triangle(first):
                    kept += 1
                    assert cfg.inertia_true == first
                    assert cfg.seed == int(rng.integers(0, 2 ** 31))
            assert 150 < kept < 200
        # the campaign redraws plants around the nominal one, which is realizable
        assert NOMINAL_INERTIA.realizable()

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


class TestRecordFreeRuns:
    """Tuning and campaign runs log no record; what they read of a run
    equals what its full record gives, bit for bit."""

    def test_tuning_cost_equals_record_cost(self, monkeypatch, tuned):
        real, flown = harness.run_closed_loop, []
        monkeypatch.setattr(harness, "run_closed_loop",
                            lambda cfg, **kw: flown.append(cfg) or real(cfg, **kw))
        objective = tuning_objective(SimConfig())
        diverging = PidGains(kp=(1e6, 1e6, 1e6), kd=(1e6, 1e6, 1e6), mc_max=1e9)
        for gains in (default_initial_gains(NOMINAL_INERTIA), tuned["gains"], diverging):
            j = objective(gains)
            try:
                record = real(flown[-1], gains)
            except IntegrationDivergedError:
                assert gains is diverging and j == np.inf
                continue
            assert np.float64(j).tobytes() == np.float64(record.cost_j).tobytes()
            assert record.cost_j == step_order_cost(record)
            # the benchmark's tracer counts the steps of every run by len()
            summary = real(flown[-1], gains, log=False)
            assert isinstance(summary, RunSummary) and len(summary) == len(record) == 2001
        assert j == np.inf      # the diverging gains came last

    @pytest.mark.parametrize("loop", [
        {"controller": "pid"},
        {"controller": "integrated"},
        {"controller": "anfis", "estimator": "anfis", "modulator": "pwpf"}])
    def test_record_and_summary_cost_equal_step_order_sum(self, tuned, bundles, loop):
        # the loop sums J once, for a logged run and a record-free one alike
        cfg = SimConfig(duration=5.0, noise=NoiseSpec(), seed=3, **loop)
        record = run_closed_loop(cfg, tuned["gains"], bundles)
        summary = run_closed_loop(cfg, tuned["gains"], bundles, log=False)
        assert np.float64(record.cost_j).tobytes() == np.float64(summary.cost_j).tobytes()
        assert record.cost_j == step_order_cost(record) > 0.0
        assert compute_metrics(record).cost_j == record.cost_j

    @pytest.mark.parametrize("loop", [
        {"controller": "integrated"},
        {"controller": "anfis", "estimator": "anfis", "modulator": "pwpf"}])
    def test_campaign_error_equals_record_error(self, tuned, bundles, loop):
        mc = MonteCarloConfig(base=SimConfig(duration=10.0, noise=NoiseSpec(), **loop),
                              n_runs=3, master_seed=17)
        for k in range(mc.n_runs):
            got = _mc_final_error(mc, tuned["gains"], bundles, k)
            record = run_closed_loop(_mc_run_config(mc, k), tuned["gains"], bundles)
            assert got.tobytes() == final_euler_error(record).tobytes()

    @pytest.mark.parametrize("loop", [
        {"controller": "integrated"},
        {"controller": "anfis", "estimator": "anfis", "modulator": "pwpf"}])
    def test_loop_rows_equal_after_run_rows(self, monkeypatch, tuned, bundles, loop):
        # the rows a sensor role reads in the loop are, bit for bit, those
        # derived after the run from its record and seed, as the teacher data
        # derives them; the teacher data reads all but the last sample's
        read = spy_sensor_rows(monkeypatch)
        for seed in (7, -1, 2 ** 40):       # no seed raises
            read.clear()
            cfg = SimConfig(duration=2.0, seed=seed, noise=NoiseSpec(), **loop)
            rec = run_closed_loop(cfg, tuned["gains"], bundles)
            derived = sensor_rows(rec.q, rec.w, cfg.noise, cfg.seed)
            assert np.array(read).tobytes() == derived.tobytes()
            teacher = sensor_rows(rec.q[:-1], rec.w[:-1], cfg.noise, cfg.seed)
            assert teacher.tobytes() == derived[:-1].tobytes()

    def test_failed_campaign_run_is_none(self):
        spec = ROLES["integrated"]
        model = anfis.grid_partition_init(np.tile([-1.5, 1.5], (len(spec.inputs), 1)), 2)
        model.coeffs = np.full((len(spec.outputs),) + model.coeffs.shape[1:], np.nan)
        bundles = {"integrated": RoleBundle("integrated", model, spec.inputs, spec.outputs)}
        mc = MonteCarloConfig(base=SimConfig(duration=1.0, controller="integrated"),
                              n_runs=1, master_seed=3)
        assert _mc_final_error(mc, GAINS, bundles, 0) is None
        with pytest.raises(IntegrationDivergedError):
            run_closed_loop(_mc_run_config(mc, 0), GAINS, bundles)


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


def test_every_pipeline_flies_the_nominal_plant(monkeypatch):
    # whatever plant a base config flies, tuning and the teacher runs fly
    # NOMINAL_INERTIA, evaluation flies it but under uncertainty, and a
    # campaign draws its plants around it; all of them fly base's manoeuvre.
    # Tuning and the teachers fly one scenario, roles.pid_scenario: no
    # disturbance and no loop noise, whatever base sets; the sensor rows
    # alone carry base's noise
    flown = []

    def spy(cfg, gains=None, bundles=None, log=True):
        flown.append(cfg)
        # the evaluation's neuro-fuzzy runs fly as PID runs: no bundle needed
        return real(replace(cfg, controller="pid", estimator="truth"), GAINS, log=log)

    real = harness.run_closed_loop
    monkeypatch.setattr(harness, "run_closed_loop", spy)
    base = SimConfig(duration=0.5, inertia_true=UNCERTAIN_INERTIA,
                     desired_euler=EulerAngles(-3.0, 2.0, 4.0), noise=NoiseSpec(),
                     disturbance_const=Torque(1e-3, -2e-3, 5e-4),
                     disturbance_amp=Torque(2e-3, 1e-3, -1e-3), disturbance_freq_hz=0.2)
    tuning_objective(base)(GAINS)
    generate_controller_data(GAINS, 1, base)
    sensor = generate_sensor_data(GAINS, 1, base)
    assert [cfg.inertia_true for cfg in flown] == [NOMINAL_INERTIA] * 3
    assert [cfg.desired_euler for cfg in flown] == [base.desired_euler] * 3
    assert [(cfg.disturbance_const, cfg.disturbance_amp) for cfg in flown] == [
        (Torque.zero(), Torque.zero())] * 3
    assert [cfg.noise for cfg in flown] == [NoiseSpec(0.0, 0.0, 0.0)] * 3
    q, w = sensor.targets[:, :4], sensor.targets[:, 4:7]
    gyro = sensor.inputs[:, SENSOR_CHANNELS.index("gyro_x"):]
    assert np.all(gyro != w)
    assert sensor.inputs.tobytes() == sensor_rows(q, w, base.noise, flown[2].seed).tobytes()
    flown.clear()
    rows = evaluate_controllers(GAINS, {}, base=base)
    assert [cfg.inertia_true for cfg in flown] == [
        UNCERTAIN_INERTIA if row["condition"] == "considering uncertainty"
        else NOMINAL_INERTIA for row in rows]
    assert {cfg.desired_euler for cfg in flown} == {base.desired_euler}
    for k in range(5):
        run = _mc_run_config(MonteCarloConfig(base=base), k)
        assert run.inertia_true == _mc_run_config(MonteCarloConfig(base=SimConfig()), k).inertia_true
        assert run.desired_euler == base.desired_euler
