"""The benchmark's tracer finds every function it names in the program, and
its wrappers fit the results they wrap.

perfbench/tracing.py names the traced functions by module and attribute;
one that a change deletes or renames is reported absent at run time, and
its per-layer metrics drop out of the benchmark's report.  It counts the
steps of every run by len() of what run_closed_loop returns, a record or a
RunSummary.
"""

import importlib.util
from pathlib import Path

from satgnc import harness
from satgnc.config import NOMINAL_INERTIA, MonteCarloConfig, SimConfig
from satgnc.pid import default_initial_gains

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    real = harness.run_closed_loop
    tracer = load_tracing().Tracer()
    try:
        tracer.install()        # the lookup the benchmark makes
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert harness.run_closed_loop is real


def test_traced_runs_count_every_sample_flown():
    # one tuning simulation and a 2-run campaign (no record), and one logged
    # run: the kinds of run the benchmark's stages make
    gains = default_initial_gains(NOMINAL_INERTIA)
    base = SimConfig(duration=1.0)
    real, tracer = harness.run_closed_loop, load_tracing().Tracer()
    try:
        tracer.install()
        harness.tuning_objective(base)(gains)
        report = harness.monte_carlo(MonteCarloConfig(base, n_runs=2, master_seed=5), gains)
        record = harness.run_closed_loop(SimConfig(duration=0.5), gains)
    finally:
        tracer.uninstall()
    assert harness.run_closed_loop is real and report.n_failed == 0
    runs, flown = 4, 3 * (base.n_steps + 1) + len(record)
    totals = tracer.totals()
    assert totals["counts"]["harness.steps"] == flown == 3 * 101 + 51
    assert totals["calls"]["harness.run_closed_loop"] == runs
    assert totals["calls"]["pid.pid_step"] == flown
    assert totals["calls"]["dynamics.integrate_step"] == flown - runs
