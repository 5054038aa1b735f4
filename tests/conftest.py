"""Shared fixtures: the tuned gains and trained role bundles are expensive
to produce, so they are built once per session and reused by the unit and
acceptance tests alike.  Build wall-clock times are captured because some
acceptance criteria bound them.
"""

import time

import pytest

from satgnc import roles
from satgnc.config import NOMINAL_INERTIA, SimConfig
from satgnc.harness import tuning_objective
from satgnc.pid import default_gain_bounds, default_initial_gains, optimize_gains
from satgnc.sensors import NoiseSpec

TUNING_BUDGET = 500


@pytest.fixture(scope="session")
def tuned():
    """Optimized PID gains for the nominal scenario, with timing."""
    objective = tuning_objective(SimConfig())
    initial = default_initial_gains(NOMINAL_INERTIA)
    t0 = time.perf_counter()
    result = optimize_gains(objective, initial, budget=TUNING_BUDGET,
                            bounds=default_gain_bounds(NOMINAL_INERTIA))
    seconds = time.perf_counter() - t0
    return {"gains": result.gains, "seconds": seconds,
            "evaluations": result.n_evaluations, "cost": result.cost}


@pytest.fixture(scope="session")
def controller_art(tuned):
    """Teacher dataset and trained torque-mimicry bundle."""
    data = roles.generate_controller_data(tuned["gains"], base=SimConfig(seed=7))
    t0 = time.perf_counter()
    bundle = roles.train_controller(data)
    seconds = time.perf_counter() - t0
    return {"data": data, "bundle": bundle, "seconds": seconds}


@pytest.fixture(scope="session")
def sensor_art(tuned):
    """Noisy sensor dataset plus the estimator and integrated bundles trained
    on its two role views, and a zero-noise estimator dataset for held-out
    estimation-accuracy checks."""
    noisy = roles.generate_sensor_data(tuned["gains"],
                                       base=SimConfig(seed=11, noise=NoiseSpec()))
    estimator = roles.train_estimator(roles.role_view(noisy, "estimator"))
    integrated = roles.train_integrated(roles.role_view(noisy, "integrated"))
    clean = roles.role_view(roles.generate_sensor_data(
        tuned["gains"], base=SimConfig(seed=13, noise=NoiseSpec(0.0, 0.0, 0.0))), "estimator")
    return {"data": noisy, "estimator": estimator, "integrated": integrated,
            "clean_estimator_data": clean}


@pytest.fixture(scope="session")
def bundles(controller_art, sensor_art):
    """All three trained role bundles keyed the way the harness expects."""
    return {
        "controller": controller_art["bundle"],
        "estimator": sensor_art["estimator"],
        "integrated": sensor_art["integrated"],
    }
