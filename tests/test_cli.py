"""End-to-end command-line tests on a miniature scenario.

Every command is exercised through main(); reruns with identical inputs
must produce byte-identical artifacts.
"""

import filecmp
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from satgnc import roles
from satgnc.cli import build_parser, main
from satgnc.pid import PidGains, save_gains

MINI_CONFIG = """\
[simulation]
dt = 0.01
duration = 2.0
seed = 0

[noise]
sigma_mag = 0.001
sigma_sun = 0.001
sigma_gyro = 0.0001

[loop]
controller = pid
estimator = truth

[artifacts]
gains_file = {gains}
bundle_dir = {bundles}
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with a mini config plus tuned gains and trained bundles."""
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "run.ini"
    cfg.write_text(MINI_CONFIG.format(gains=d / "gains.ini",
                                      bundles=d / "bundles"))
    assert main(["tune-pid", "--config", str(cfg), "--budget", "60"]) == 0
    for role, runs in (("controller", "3"), ("estimator", "2"),
                       ("integrated", "2")):
        data = d / f"{role}.csv"
        assert main(["gen-data", "--config", str(cfg), "--role", role,
                     "--runs", runs, "--out", str(data)]) == 0
        assert main(["train", "--config", str(cfg), "--role", role,
                     "--data", str(data)]) == 0
    return d


def cfg_path(workdir):
    return str(workdir / "run.ini")


class TestSimulate:
    def test_row_count_and_rerun_bytes(self, workdir):
        out1, out2 = workdir / "r1.csv", workdir / "r2.csv"
        assert main(["simulate", "--config", cfg_path(workdir),
                     "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg_path(workdir),
                     "--out", str(out2)]) == 0
        lines = out1.read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")]
        assert len(data_rows) == 1 + 201   # header + duration/dt + 1 samples
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_nothing_without_noise_in_loop(self, workdir):
        # truth estimator ignores the sensors, so the seed cannot matter
        a, b = workdir / "s1.csv", workdir / "s2.csv"
        main(["simulate", "--config", cfg_path(workdir), "--seed", "1",
              "--out", str(a)])
        main(["simulate", "--config", cfg_path(workdir), "--seed", "2",
              "--out", str(b)])
        ra = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        rb = [l for l in b.read_text().splitlines() if not l.startswith("#")]
        assert ra == rb


class TestTunePid:
    def test_rerun_byte_identical(self, workdir, tmp_path):
        g1, g2 = tmp_path / "g1.ini", tmp_path / "g2.ini"
        for out in (g1, g2):
            assert main(["tune-pid", "--config", cfg_path(workdir),
                         "--budget", "60", "--out", str(out)]) == 0
        assert g1.read_bytes() == g2.read_bytes()


class TestGenDataAndTrain:
    @pytest.mark.parametrize("role", ["controller", "estimator", "integrated"])
    def test_gen_data_rerun_byte_identical(self, workdir, tmp_path, role):
        d1, d2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        for out in (d1, d2):
            assert main(["gen-data", "--config", cfg_path(workdir),
                         "--role", role, "--runs", "2",
                         "--out", str(out)]) == 0
        assert d1.read_bytes() == d2.read_bytes()

    def test_train_rerun_byte_identical(self, workdir, tmp_path):
        data = workdir / "controller.csv"
        b1, b2 = tmp_path / "b1", tmp_path / "b2"
        for out in (b1, b2):
            assert main(["train", "--config", cfg_path(workdir),
                         "--role", "controller", "--data", str(data),
                         "--out", str(out)]) == 0
        files = sorted(p.name for p in b1.iterdir())
        assert files == [roles.BUNDLE_FILE]
        match, mismatch, errors = filecmp.cmpfiles(b1, b2, files, shallow=False)
        assert mismatch == [] and errors == []

    def test_train_needs_no_gains_file(self, workdir, tmp_path):
        # the fit reads the dataset alone: the bound is the actuator's, so
        # a config with no gains_file trains the same bundle
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulation]\nduration = 2.0\n")
        out = tmp_path / "bundle"
        assert main(["train", "--config", str(cfg), "--role", "controller",
                     "--data", str(workdir / "controller.csv"), "--out", str(out)]) == 0
        assert main(["train", "--config", cfg_path(workdir), "--role", "controller",
                     "--data", str(workdir / "controller.csv"),
                     "--out", str(tmp_path / "with_gains")]) == 0
        doc = (out / roles.BUNDLE_FILE).read_text()
        assert doc == (tmp_path / "with_gains" / roles.BUNDLE_FILE).read_text()
        assert "mc_max" not in json.loads(doc)

    @pytest.mark.parametrize("role, data", [
        ("estimator", "controller"), ("integrated", "estimator"), ("controller", "estimator"),
        ("integrated", "controller"), ("controller", "integrated")])
    def test_train_rejects_another_roles_dataset(self, workdir, tmp_path, capsys,
                                                 monkeypatch, role, data):
        # refused before any fit, naming the file and the expected and found channels
        monkeypatch.setattr(roles, f"train_{role}", lambda *args: pytest.fail("fit started"))
        path = workdir / f"{data}.csv"
        assert main(["train", "--config", cfg_path(workdir), "--role", role,
                     "--data", str(path), "--out", str(tmp_path / "bundle")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}, the {role} role's")
        assert "expected channels" in err and "found" in err
        assert not (tmp_path / "bundle").exists()

    @pytest.mark.parametrize("channel, value", [("mc3", "nan"), ("gyro_x", "inf")])
    def test_train_rejects_non_finite_dataset(self, workdir, tmp_path, capfd, channel, value):
        # one bad target or input ends train in one line naming the file, before
        # a fit writes NaN consequents or LAPACK prints its complaints
        lines = (workdir / "integrated.csv").read_text().split("\n")
        cells = lines[3].split(",")
        cells[lines[0].split(",").index(channel)] = value
        lines[3] = ",".join(cells)
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(lines))
        assert main(["train", "--config", cfg_path(workdir), "--role", "integrated",
                     "--data", str(path), "--out", str(tmp_path / "bundle")]) == 1
        assert capfd.readouterr().err == (f"error: {path}, the integrated role's dataset: "
                                          f"line 4, channel {channel}: non-finite value {value}\n")
        assert not (tmp_path / "bundle").exists()

    def test_diverging_teacher_fails(self, tmp_path, capsys):
        # gains that diverge from every start at a 1 s step end gen-data,
        # not loop in it
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINI_CONFIG.format(gains=tmp_path / "gains.ini", bundles="").replace(
            "dt = 0.01\nduration = 2.0", "dt = 1.0\nduration = 20.0"))
        save_gains(PidGains(kp=(1e6,) * 3, kd=(1e6,) * 3), tmp_path / "gains.ini")
        with pytest.warns(UserWarning, match="redrawn"):
            rc = main(["gen-data", "--config", str(cfg), "--role", "controller",
                       "--runs", "2", "--out", str(tmp_path / "c.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {roles.MAX_DIVERGED_DRAWS} teacher runs diverged")

    def test_missing_dataset_fails(self, workdir, capsys):
        rc = main(["train", "--config", cfg_path(workdir),
                   "--role", "controller", "--data", "missing.csv"])
        assert rc == 1
        assert "missing.csv" in capsys.readouterr().err


class TestSimulateAnfis:
    def test_neuro_fuzzy_loop_runs(self, workdir, tmp_path):
        cfg = tmp_path / "anfis.ini"
        text = (workdir / "run.ini").read_text().replace(
            "controller = pid", "controller = anfis").replace(
            "estimator = truth", "estimator = anfis")
        cfg.write_text(text)
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()


class TestEvaluate:
    def test_table_and_rerun(self, workdir, tmp_path, capsys):
        t1, t2 = tmp_path / "t1.txt", tmp_path / "t2.txt"
        for out in (t1, t2):
            assert main(["evaluate", "--config", cfg_path(workdir),
                         "--out", str(out)]) == 0
        capsys.readouterr()
        lines = t1.read_text().splitlines()
        assert len(lines) == 7   # header + 3 conditions x 2 controllers
        assert t1.read_bytes() == t2.read_bytes()


class TestMonteCarlo:
    def test_campaign_and_rerun(self, workdir, tmp_path):
        m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        for out in (m1, m2):
            assert main(["monte-carlo", "--config", cfg_path(workdir),
                         "--runs", "3", "--out", str(out)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        rows = [l for l in m1.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 1 + 3

    def test_worker_override_same_bytes(self, workdir, tmp_path):
        m1, m2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(["monte-carlo", "--config", cfg_path(workdir), "--runs",
                     "3", "--workers", "1", "--out", str(m1)]) == 0
        assert main(["monte-carlo", "--config", cfg_path(workdir), "--runs",
                     "3", "--workers", "2", "--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()


class TestDiagnostics:
    def test_missing_config(self, capsys):
        assert main(["simulate", "--config", "absent.ini"]) == 1
        assert "absent.ini" in capsys.readouterr().err

    def test_missing_gains(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulation]\nduration = 1.0\n")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "gains" in capsys.readouterr().err

    def test_missing_gains_file_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINI_CONFIG.format(gains=tmp_path / "absent.ini", bundles=""))
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: gains file not found: {tmp_path / 'absent.ini'}\n"

    def test_missing_bundle_names_path(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        text = (workdir / "run.ini").read_text().replace(
            "controller = pid", "controller = anfis").replace(
            str(workdir / "bundles"), str(tmp_path / "nowhere"))
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "nowhere" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["truncated", "version 2", "no output_names",
                                       "earlier format"])
    def test_malformed_bundle_file(self, workdir, tmp_path, capsys, fault):
        # each ends the run with an error line that names the bundle file; a
        # directory in the earlier format (manifest.json and model.json) has none
        bundles = tmp_path / "bundles"
        shutil.copytree(workdir / "bundles", bundles)
        path = bundles / "controller" / roles.BUNDLE_FILE
        text = path.read_text()
        doc = json.loads(text)
        if fault == "truncated":
            path.write_text(text[:len(text) // 2])
        elif fault == "version 2":
            path.write_text(json.dumps(dict(doc, format_version=2)))
        elif fault == "no output_names":
            del doc["output_names"]
            path.write_text(json.dumps(doc))
        else:
            path.unlink()
            for name in ("manifest.json", "model.json"):
                (path.parent / name).write_text('{"format_version": 2}\n')
        cfg = tmp_path / "run.ini"
        cfg.write_text((workdir / "run.ini").read_text().replace(
            "controller = pid", "controller = anfis").replace(
            str(workdir / "bundles"), str(bundles)))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("fault", ["not ini", "no kp_y"])
    def test_malformed_gains_file(self, workdir, tmp_path, capsys, fault):
        gains = tmp_path / "gains.ini"
        shutil.copy(workdir / "gains.ini", gains)
        text = gains.read_text()
        gains.write_text("not an ini file\n" if fault == "not ini" else
                         "".join(l for l in text.splitlines(True) if not l.startswith("kp_y")))
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINI_CONFIG.format(gains=gains, bundles=workdir / "bundles"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed gains file {gains}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["gen-data", "--role", "controller", "--runs", "0"], "--runs"),
        (["gen-data", "--role", "estimator", "--runs", "-3"], "--runs"),
        (["monte-carlo", "--runs", "0"], "--runs"),
        (["monte-carlo", "--runs", "2", "--workers", "0"], "--workers"),
        (["monte-carlo", "--runs", "2", "--workers", "-2"], "--workers")])
    def test_count_below_one_rejected(self, workdir, capsys, argv, flag):
        # not the role's default run count, an empty dataset or a serial campaign
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--config", cfg_path(workdir), *argv[1:]])
        assert exc.value.code != 0
        assert f"error: argument {flag}: must be at least 1, got " in capsys.readouterr().err

    def test_torque_bound_is_not_an_option(self, workdir, tmp_path, capsys):
        # the bound is the actuator's, pid.MC_MAX; tune-pid takes none
        out = tmp_path / "gains.ini"
        with pytest.raises(SystemExit) as exc:
            main(["tune-pid", "--config", cfg_path(workdir), "--mc-max", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mc-max 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("simulate", []), ("tune-pid", ["--budget", "50"]),
        ("gen-data", ["--role", "controller", "--runs", "1"]), ("evaluate", []),
        ("monte-carlo", ["--runs", "1"])])
    def test_negative_seed_rejected(self, workdir, tmp_path, capsys, command, extra):
        # numpy's "expected non-negative integer" named no setting, and
        # simulate ran the sensor noise of the seed's absolute value
        out = tmp_path / "out"
        assert main([command, "--config", cfg_path(workdir), "--seed", "-1", *extra,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("old", ["gains version 1", "bundle version 3"])
    def test_earlier_format_names_file(self, workdir, tmp_path, capsys, old):
        # files of the format that carried a torque bound (mc_max) are
        # refused, so one tuned at another bound never flies at MC_MAX unnoticed
        gains, bundles = tmp_path / "gains.ini", tmp_path / "bundles"
        shutil.copy(workdir / "gains.ini", gains)
        shutil.copytree(workdir / "bundles", bundles)
        if old == "gains version 1":
            path = gains
            text = gains.read_text().replace("version = 2", "version = 1")
            gains.write_text(text.replace("[gains]\n", "[gains]\nmc_max = 1.0\n"))
        else:
            path = bundles / "controller" / roles.BUNDLE_FILE
            doc = json.loads(path.read_text())
            path.write_text(json.dumps(dict(doc, format_version=3, mc_max=1.0)))
        cfg = tmp_path / "run.ini"
        cfg.write_text(MINI_CONFIG.format(gains=gains, bundles=bundles))
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "t.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "version" in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("section, key, value", [
        ("simulation", "duration", "inf"), ("simulation", "dt", "nan"),
        ("noise", "sigma_mag", "nan"), ("pwpf", "km", "nan")])
    def test_non_finite_setting_rejected(self, tmp_path, capsys, section, key, value):
        # an infinite duration overflowed the step count, a NaN dt failed
        # converting it, and a NaN sigma or km flew with no noise or no pulses
        cfg, out = tmp_path / "bad.ini", tmp_path / "run.csv"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "tune-pid"])
    @pytest.mark.parametrize("section, key, value, field", [
        ("disturbance", "constant", "nan, 0, 0", "disturbance_const"),
        ("disturbance", "amplitude", "0, inf, 0", "disturbance_amp"),
        ("disturbance", "frequency_hz", "nan", "disturbance_freq_hz"),
        ("initial", "euler_deg", "nan, 0, 0", "initial_euler"),
        ("initial", "omega_rad_s", "0, 0, -inf", "initial_omega"),
        ("desired", "euler_deg", "0, nan, 0", "desired_euler")])
    def test_non_finite_scenario_rejected(self, workdir, tmp_path, capsys, command,
                                          section, key, value, field):
        # simulate failed mid-run without naming the setting, or ran (a NaN
        # frequency beside no amplitude); tune-pid zeroes the disturbance and
        # wrote gains
        cfg, out = tmp_path / "bad.ini", tmp_path / "out"
        cfg.write_text((workdir / "run.ini").read_text() + f"\n[{section}]\n{key} = {value}\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} must be finite") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "tune-pid"])
    def test_subnormal_step_rejected(self, tmp_path, capsys, command):
        # duration / dt overflowed to inf, and the step count ended the run
        # with an OverflowError traceback
        cfg, out = tmp_path / "bad.ini", tmp_path / "out"
        cfg.write_text("[simulation]\ndt = 1e-320\nduration = 1.0\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: duration 1.0 / dt 1e-320") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "tune-pid"])
    def test_step_count_over_limit_rejected(self, tmp_path, capsys, command):
        # 2e10 steps: simulate failed allocating a 447 GiB record, and
        # tune-pid ran on for hours
        cfg, out = tmp_path / "bad.ini", tmp_path / "out"
        cfg.write_text("[simulation]\ndt = 1e-9\nduration = 20.0\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: duration 20.0 / dt 1e-09 is not a finite step count within "
            "MAX_STEPS = 1,000,000: 20,000,000,000 steps\n")
        assert not out.exists()

    def test_unwritable_output_fails(self, workdir, tmp_path, capsys):
        # an --out that names a directory
        assert main(["simulate", "--config", cfg_path(workdir), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, missing", [("", "header"), ("run,qe1\r\n", "data")])
    def test_empty_dataset_fails(self, workdir, tmp_path, capsys, text, missing):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        assert main(["train", "--config", cfg_path(workdir), "--role", "controller",
                     "--data", str(path), "--out", str(tmp_path / "bundle")]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}, the controller role's dataset: no {missing} row\n")

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code != 0

    def test_benchmark_argv_parses(self):
        # every flag and role value the benchmark driver passes; a rejected
        # one would end its run in SystemExit
        parser = build_parser()
        argvs = [["tune-pid", "--config", "c.ini", "--budget", "100", "--seed", "0"],
                 ["simulate", "--config", "c.ini", "--seed", "2", "--out", "r.csv"],
                 ["monte-carlo", "--config", "c.ini", "--runs", "2", "--seed", "3",
                  "--workers", "1", "--out", "m.csv"]]
        for role in ("controller", "estimator", "integrated"):
            argvs += [["gen-data", "--config", "c.ini", "--role", role, "--runs", "4",
                       "--seed", "1", "--out", f"{role}.csv"],
                      ["train", "--config", "c.ini", "--role", role,
                       "--data", f"{role}.csv"]]
        for argv in argvs:
            assert parser.parse_args(argv).command == argv[0]

    def test_train_rejects_seed(self, capsys):
        # the fit draws no random numbers, so train takes no seed
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", "c.ini", "--role", "controller",
                  "--data", "controller.csv", "--seed", "1"])
        assert exc.value.code != 0
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_role_rejected(self, workdir, capsys):
        with pytest.raises(SystemExit):
            main(["gen-data", "--config", cfg_path(workdir),
                  "--role", "oracle"])

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[[[not ini")
        assert main(["simulate", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err
