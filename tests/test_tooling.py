"""The benchmark's tracer finds every function it names in the program, its
wrappers fit the results they wrap, and its checks read what the CLI writes.

perfbench/tracing.py names the traced functions by module and attribute;
one that a change deletes or renames is reported absent at run time, and
its per-layer metrics drop out of the benchmark's report.  It counts the
steps of every run by len() of what run_closed_loop returns, a record or a
RunSummary.  perfbench/run.py reads the bundle directories train writes
with load_bundle, and the datasets gen-data writes with its own reader.
tools/cmdtime.py times whole commands as child processes in two trees.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from satgnc import harness
from satgnc.cli import main
from satgnc.config import NOMINAL_INERTIA, MonteCarloConfig, SimConfig
from satgnc.pid import default_initial_gains, save_gains
from satgnc.roles import load_bundle

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name: str, directory: Path = PERFBENCH):
    spec = importlib.util.spec_from_file_location(f"{directory.name}_{name}",
                                                  directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    real = harness.run_closed_loop
    tracer = load_perfbench("tracing").Tracer()
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
    real, tracer = harness.run_closed_loop, load_perfbench("tracing").Tracer()
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
    assert totals["calls"]["dynamics.quaternion_error"] == flown
    assert totals["calls"]["dynamics.integrate_step"] == flown - runs


def test_benchmark_reads_trained_bundles(tmp_path, monkeypatch):
    # check_training's read: a bundle directory train wrote, by load_bundle,
    # its input_columns, and predict_batch on a dataset gen-data wrote, as
    # perfbench/checks.py reads it
    monkeypatch.chdir(tmp_path)
    checks = load_perfbench("checks")
    save_gains(default_initial_gains(NOMINAL_INERTIA), "gains.ini")
    Path("run.ini").write_text("[simulation]\nduration = 5.0\n\n"
                               "[artifacts]\ngains_file = gains.ini\nbundle_dir = bundles\n")
    for role, n_inputs in (("controller", 6), ("integrated", 15)):
        for argv in (["gen-data", "--role", role, "--runs", "2", "--out", f"{role}.csv"],
                     ["train", "--role", role, "--data", f"{role}.csv"]):
            assert main([argv[0], "--config", "run.ini", *argv[1:]]) == 0
        bundle = load_bundle(Path("bundles") / role)
        x, y = checks.read_dataset(f"{role}.csv", n_inputs)
        cols = bundle.input_columns
        assert (cols is None) == (role == "controller")
        pred = bundle.predict_batch(x if cols is None else x[:, list(cols)])
        # on the held-out run, the worst channel's RMSE that train recorded
        held = np.loadtxt(f"{role}.csv", delimiter=",", skiprows=1, usecols=0) == 1
        assert pred.shape == y.shape and held.sum() == len(held) // 2
        assert checks.check_rmse(pred[held], y[held], bundle.mc_max) == pytest.approx(
            max(bundle.metadata["holdout_rmse"]), rel=1e-12)


def test_cmdtime_pairs_each_command(tmp_path, capsys):
    # tools/cmdtime.py, this tree against itself: two timed pairs of a short
    # simulation, each child's wall time and peak RSS; a failing command is named
    cmdtime = load_perfbench("cmdtime", ROOT / "tools")
    save_gains(default_initial_gains(NOMINAL_INERTIA), tmp_path / "gains.ini")
    (tmp_path / "run.ini").write_text("[simulation]\nduration = 0.2\n\n"
                                      "[artifacts]\ngains_file = gains.ini\n")
    argv = [str(ROOT), "--pairs", "2", "--cwd", str(tmp_path)]
    assert cmdtime.main(argv + ["simulate --config run.ini --out r.csv"]) == 0
    (result,) = json.loads(capsys.readouterr().out)["commands"]
    assert result["command"] == "simulate --config run.ini --out r.csv"
    assert len(result["pair_ratios"]) == 2 and set(result["median_s"]) == {"this", "other"}
    for side in ("this", "other"):
        assert len(result["wall_s"][side]) == len(result["peak_rss_mb"][side]) == 2
        assert min(result["peak_rss_mb"][side]) > 1.0
    with pytest.raises(SystemExit, match="missing.ini"):
        cmdtime.main(argv + ["simulate --config missing.ini"])
