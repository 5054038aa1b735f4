"""Acceptance gate: the eleven release criteria, one test (one pass/fail
line under ``pytest -v``) per criterion.  Each test prints its measured
values so a failing run shows how far off the implementation is.

Criterion 7 is a soft directional check: it reports pass/warn and never
fails the suite.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from satgnc import anfis, harness, roles
from satgnc.anfis import (TrainConfig, forward, grid_partition_init,
                          premise_gradient, train)
from satgnc.cli import main
from satgnc.config import MonteCarloConfig, SimConfig
from satgnc.dynamics import (AngularVelocity, BodyState, EulerAngles,
                             InertiaTensor, Quaternion, Torque,
                             angular_momentum, euler_to_quat, integrate_step,
                             kinetic_energy)
from satgnc.harness import (compute_metrics, evaluate_controllers,
                            monte_carlo, run_closed_loop, settling_time)
from satgnc.pid import save_gains
from satgnc.pwpf import PwpfParams, PwpfState, pwpf_step
from satgnc.sensors import CalendarInstant, NoiseSpec, julian_date, solar_angles

NOMINAL = InertiaTensor(1.5, 2.6, 3.0)
LOOP_NOISE = NoiseSpec(0.001, 0.001, 1e-4)
PWPF_LOOP = PwpfParams(km=9.0, tm=0.15, u_on=0.45, u_off=0.15, thrust=0.5)


@pytest.fixture(scope="module")
def eval_rows(tuned, bundles):
    """PID-vs-ANFIS comparison table shared by criteria 6 and 7."""
    return evaluate_controllers(tuned["gains"], bundles, base=SimConfig(),
                                noise=LOOP_NOISE)


def test_c01_dynamics_conserves_energy_momentum_and_norm():
    state = BodyState(euler_to_quat(EulerAngles(10.0, 5.0, 10.0)),
                      AngularVelocity(0.0125, 0.05, 0.075))
    e0 = kinetic_energy(state, NOMINAL)
    h0 = angular_momentum(state, NOMINAL)
    norms = [state.q.norm()]
    t0 = time.perf_counter()
    for _ in range(2000):
        state = integrate_step(state, NOMINAL, Torque.zero(), Torque.zero(),
                               0.01)
        norms.append(state.q.norm())
    seconds = time.perf_counter() - t0
    e_rel = abs(kinetic_energy(state, NOMINAL) - e0) / e0
    h_rel = abs(angular_momentum(state, NOMINAL) - h0) / h0
    drift = float(np.max(np.abs(np.diff(norms))))
    print(f"energy rel {e_rel:.3e}, |Iw| rel {h_rel:.3e}, "
          f"norm drift/step {drift:.3e}, runtime {seconds:.3f} s")
    assert e_rel < 1e-6 and h_rel < 1e-6
    assert drift < 1e-9
    assert seconds < 0.1


def test_c02_ephemeris_reference_values_exact():
    jd = julian_date(CalendarInstant(2000, 1, 1, 12, 0, 0.0))
    lam_m, m_anom, lam_ecl, eps = solar_angles(2451545.0)
    print(f"jd {jd!r}, lambda_M {lam_m!r}, epsilon {eps!r}")
    assert jd == 2451545.0
    assert lam_m == 280.4606184
    assert eps == 23.439291


def test_c03_premise_gradients_match_finite_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        n_in = int(rng.integers(1, 3))
        ranges = np.column_stack([-rng.uniform(0.5, 2.0, n_in),
                                  rng.uniform(0.5, 2.0, n_in)])
        m = grid_partition_init(ranges, 2)
        for start, stop in m.bounds:
            m.a[start:stop] *= rng.uniform(0.5, 1.5, 2)
            m.b[start:stop] *= rng.uniform(0.8, 1.3, 2)
            m.c[start:stop] += rng.normal(0.0, 0.05, 2)
        m.coeffs = rng.normal(0.0, 1.0, m.coeffs.shape)
        x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(10, n_in))
        y = rng.normal(size=(10, 1))
        ga, gb, gc = premise_gradient(m, x, y)

        def loss(mm):
            r = (forward(mm, x) - y).ravel()
            return float(r @ r)

        eps = 1e-6
        for which, grads in (("a", ga), ("b", gb), ("c", gc)):
            for j, an in enumerate(grads):
                mp, mn = m.copy(), m.copy()
                getattr(mp, which)[j] += eps
                getattr(mn, which)[j] -= eps
                fd = (loss(mp) - loss(mn)) / (2.0 * eps)
                worst = max(worst, abs(fd - an) / max(1e-8, abs(fd), abs(an)))
    seconds = time.perf_counter() - t0
    print(f"worst relative deviation {worst:.3e} over 100 models, "
          f"runtime {seconds:.2f} s")
    assert worst < 1e-5
    assert seconds < 5.0


def test_c04_synthetic_takagi_sugeno_recovered():
    rng = np.random.default_rng(10)
    ranges = np.array([[-1.0, 1.0], [-2.0, 2.0]])
    truth = grid_partition_init(ranges, 3)
    truth.coeffs = rng.normal(0.0, 1.0, truth.coeffs.shape)
    x = rng.uniform(ranges[:, 0], ranges[:, 1], size=(500, 2))
    y = forward(truth, x)
    _, history = train(grid_partition_init(ranges, 3), x, y,
                       TrainConfig(epochs=50, learning_rate=0.005, ridge=0.0))
    best = min(history)
    print(f"best RMSE {best:.3e} after {len(history)} epochs")
    assert best < 1e-6


def test_c05_tuned_pid_settles_within_budget(tuned):
    rec = run_closed_loop(SimConfig(), gains=tuned["gains"])
    t0 = time.perf_counter()
    rec2 = run_closed_loop(SimConfig(), gains=tuned["gains"])
    compute_metrics(rec2)
    eval_seconds = time.perf_counter() - t0
    settle = settling_time(rec)
    print(f"settling {['%.2f' % s for s in settle]} s, "
          f"tuning {tuned['seconds']:.1f} s / {tuned['evaluations']} sims, "
          f"evaluation {eval_seconds:.3f} s")
    assert all(s is not None and s <= 20.0 for s in settle)
    assert tuned["seconds"] <= 300.0
    assert tuned["evaluations"] <= 500
    assert eval_seconds < 1.0


def test_c06_neuro_fuzzy_mimicry_and_closed_loop(controller_art, eval_rows):
    bundle = controller_art["bundle"]
    rmse = bundle.metadata["holdout_rmse"]
    anfis_rows = [r for r in eval_rows if r["controller"] == "anfis"]
    settles = {r["condition"]: (r["settle_x"], r["settle_y"], r["settle_z"])
               for r in anfis_rows}
    fuels = [r["fuel_total"] for r in eval_rows]
    print(f"holdout RMSE {['%.4f' % r for r in rmse]} (bound 0.05 * "
          f"{bundle.mc_max}), settling {settles}, fuel totals "
          f"{['%.3f' % f for f in fuels]}")
    assert all(r <= 0.05 * bundle.mc_max for r in rmse)
    for condition, settle in settles.items():
        assert all(s is not None and s <= 20.0 for s in settle), condition
    assert all(0.1 <= f <= 10.0 for f in fuels)


def test_c07_fuel_ordering_soft_check(eval_rows):
    # directional claim only: report pass/warn, never fail
    for condition in ("considering noise", "considering uncertainty"):
        pair = {r["controller"]: r["fuel_total"] for r in eval_rows
                if r["condition"] == condition}
        verdict = "pass" if pair["anfis"] <= pair["pid"] else "warn"
        print(f"{condition}: anfis {pair['anfis']:.4f} vs "
              f"pid {pair['pid']:.4f} N*m*s -> {verdict}")


def test_c08_estimator_accuracy_and_unit_norm(sensor_art):
    ds = sensor_art["clean_estimator_data"]
    bundle = sensor_art["estimator"]
    pred = bundle.predict_batch(ds.inputs[:, list(bundle.input_columns)])
    true_q = ds.targets[:, 0:4]
    qn = pred[:, 0:4] / np.linalg.norm(pred[:, 0:4], axis=1, keepdims=True)
    dots = np.abs(np.clip(np.sum(qn * true_q, axis=1), -1.0, 1.0))
    rms = float(np.sqrt(np.mean((2.0 * np.degrees(np.arccos(dots))) ** 2)))
    rng = np.random.default_rng(3)
    norms = []
    for row in ds.inputs[rng.integers(0, len(ds), size=50)]:
        q, _ = roles.anfis_estimate(bundle, row)
        norms.append(q.norm())
    print(f"attitude RMS {rms:.4f} deg on {len(ds)} held-out samples, "
          f"norm span [{min(norms):.15f}, {max(norms):.15f}]")
    assert rms <= 2.0
    assert all(abs(n - 1.0) < 1e-12 for n in norms)


def test_c09_pwpf_behavior_and_modulated_loop(tuned, monkeypatch):
    params = PwpfParams()
    # zero in, zero out
    state = PwpfState()
    for _ in range(200):
        state, out = pwpf_step(state, Torque.zero(), 0.01, params)
        assert out == Torque.zero()
    # sub-threshold constant command never fires: filter settles at Km*c < u_on
    sub = 0.9 * params.u_on / params.km
    state = PwpfState()
    fired = False
    for _ in range(2000):
        state, out = pwpf_step(state, Torque(sub, 0.0, 0.0), 0.01, params)
        fired = fired or out[0] != 0.0
    assert not fired
    # duty cycle monotone in command magnitude
    duties = []
    for c in np.linspace(0.12, 0.9, 8):
        state = PwpfState()
        on = 0
        for _ in range(4000):
            state, out = pwpf_step(state, Torque(c, 0.0, 0.0), 0.01, params)
            on += out[0] != 0.0
        duties.append(on / 4000.0)
    assert all(b >= a - 1e-12 for a, b in zip(duties, duties[1:]))
    # modulated closed loop reaches the 5% band inside 20 s
    cfg = SimConfig(modulator="pwpf", pwpf=PWPF_LOOP)
    rec = run_closed_loop(cfg, gains=tuned["gains"])
    monkeypatch.setattr(harness, "SETTLING_BAND", 0.05)
    settle = settling_time(rec)
    print(f"duty sweep {['%.3f' % d for d in duties]}, modulated settling "
          f"{['%.2f' % s for s in settle]} s")
    assert all(s is not None and s <= 20.0 for s in settle)


def test_c10_monte_carlo_campaign(bundles):
    base = SimConfig(controller="integrated", noise=LOOP_NOISE)
    mc = MonteCarloConfig(base=base, n_runs=200, master_seed=2024)
    t0 = time.perf_counter()
    rep = monte_carlo(mc, bundles=bundles, workers=1)
    seconds = time.perf_counter() - t0
    # running statistics against batch recomputation
    stat_dev = 0.0
    for k in range(mc.n_runs):
        batch = rep.errors[:k + 1]
        stat_dev = max(stat_dev,
                       float(np.max(np.abs(rep.mean[k] - batch.mean(axis=0)))),
                       float(np.max(np.abs(rep.sigma3[k]
                                           - 3.0 * batch.std(axis=0)))))
    # determinism per master seed: a fresh short campaign reproduces the
    # same per-run errors (run k depends only on the master seed and k)
    again = monte_carlo(replace(mc, n_runs=5), bundles=bundles, workers=1)
    print(f"{mc.n_runs} runs in {seconds:.1f} s, {rep.n_failed} failed, "
          f"max |error| {rep.max_abs_error:.4f} deg, "
          f"running-vs-batch deviation {stat_dev:.2e}")
    assert rep.n_failed == 0
    assert stat_dev <= 1e-12
    assert rep.max_abs_error < 0.2
    assert seconds < 120.0
    np.testing.assert_array_equal(again.errors, rep.errors[:5])


def test_c11_cli_reruns_are_byte_identical(tuned, bundles, tmp_path):
    cfg_path = tmp_path / "run.ini"
    gains_path = tmp_path / "gains.ini"
    bundle_dir = tmp_path / "bundles"
    save_gains(tuned["gains"], gains_path)
    for role, bundle in bundles.items():
        roles.save_bundle(bundle, bundle_dir / role)
    cfg_path.write_text(
        "[simulation]\ndt = 0.01\nduration = 2.0\nseed = 0\n"
        "[noise]\nsigma_mag = 0.001\nsigma_sun = 0.001\nsigma_gyro = 0.0001\n"
        f"[artifacts]\ngains_file = {gains_path}\nbundle_dir = {bundle_dir}\n")
    commands = {
        "simulate": ["simulate", "--config", str(cfg_path)],
        "tune-pid": ["tune-pid", "--config", str(cfg_path), "--budget", "50"],
        "gen-data": ["gen-data", "--config", str(cfg_path),
                     "--role", "controller", "--runs", "2"],
        "evaluate": ["evaluate", "--config", str(cfg_path)],
        "monte-carlo": ["monte-carlo", "--config", str(cfg_path),
                        "--runs", "3"],
    }
    identical = {}
    for name, argv in commands.items():
        a, b = tmp_path / f"{name}_a.out", tmp_path / f"{name}_b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        identical[name] = a.read_bytes() == b.read_bytes()
    # train consumes the gen-data output and writes a bundle directory
    data = tmp_path / "gen-data_a.out"
    t_a, t_b = tmp_path / "train_a", tmp_path / "train_b"
    for out in (t_a, t_b):
        assert main(["train", "--config", str(cfg_path), "--role",
                     "controller", "--data", str(data),
                     "--out", str(out)]) == 0
    identical["train"] = all(
        (t_a / p.name).read_bytes() == p.read_bytes()
        for p in t_b.iterdir())
    print("byte-identical reruns: " + ", ".join(
        f"{k}={'yes' if v else 'NO'}" for k, v in identical.items()))
    assert all(identical.values())
