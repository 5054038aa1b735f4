"""Each output check passes on the program's real output and fails once
that output is corrupted.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from satgnc.cli import main  # noqa: E402
from satgnc.pid import default_initial_gains, save_gains  # noqa: E402
from satgnc.config import NOMINAL_INERTIA  # noqa: E402

CONFIGS = HERE / "configs"
PWPF = "\n[pwpf]\nkm = 9.0\ntm = 0.15\nu_on = 0.45\nu_off = 0.15\nthrust = 0.5\n"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """A PID record, a PWPF-modulated PID record and a 20 s PID campaign."""
    d = tmp_path_factory.mktemp("outputs")
    save_gains(default_initial_gains(NOMINAL_INERTIA), d / "gains.ini")
    train = (CONFIGS / "train.ini").read_text().replace(
        "gains_file = gains.ini", f"gains_file = {d / 'gains.ini'}")
    (d / "pid.ini").write_text(train)
    (d / "pwpf.ini").write_text(
        train.replace("modulator = none", "modulator = pwpf") + PWPF)
    for name in ("pid", "pwpf"):
        assert main(["simulate", "--config", str(d / f"{name}.ini"),
                     "--out", str(d / f"{name}.csv")]) == 0
    assert main(["monte-carlo", "--config", str(d / "pid.ini"), "--runs", "3",
                 "--seed", "7", "--workers", "1", "--out", str(d / "mc.csv")]) == 0
    return d


def test_propagation(outputs):
    rec = checks.read_record(outputs / "pid.csv")
    assert checks.check_propagation(rec) < 1e-13
    rec["w"][300, 1] += 1e-7
    with pytest.raises(checks.CheckError, match="re-propagated"):
        checks.check_propagation(rec)
    rec = checks.read_record(outputs / "pid.csv")
    rec["applied"][40, 2] *= -1.0
    with pytest.raises(checks.CheckError, match="re-propagated"):
        checks.check_propagation(rec)


def test_euler(outputs):
    rec = checks.read_record(outputs / "pid.csv")
    assert checks.check_euler(rec) < 1e-12
    rec["euler"][10] = rec["euler"][10, ::-1]
    with pytest.raises(checks.CheckError, match="Euler"):
        checks.check_euler(rec)


def test_unit_norm(outputs):
    rec = checks.read_record(outputs / "pid.csv")
    assert checks.check_unit_norm(rec) < 1e-14
    rec["est_q"][5] *= 1.0 + 1e-9
    with pytest.raises(checks.CheckError, match="norm"):
        checks.check_unit_norm(rec)


def test_settling(outputs):
    rec = checks.read_record(outputs / "pid.csv")
    assert checks.check_settles(rec, within_s=20.0) <= 20.0
    rec["euler"][-1, 0] += 1.0
    assert math.isinf(max(checks.settling_times(rec)))
    with pytest.raises(checks.CheckError, match="settles"):
        checks.check_settles(rec, within_s=20.0)


def test_pwpf_levels(outputs):
    rec = checks.read_record(outputs / "pwpf.csv")
    assert checks.check_pwpf_levels(rec) > 0
    rec["applied"][100, 0] = 0.5 * rec["thrust"]
    with pytest.raises(checks.CheckError, match="thrust"):
        checks.check_pwpf_levels(rec)


def test_campaign_stats(outputs):
    camp = checks.read_campaign(outputs / "mc.csv")
    assert checks.check_campaign_stats(camp) <= checks.STATS_TOL
    camp["sigma3"][1, 2] += 1e-9
    with pytest.raises(checks.CheckError, match="running statistics"):
        checks.check_campaign_stats(camp)
    camp = checks.read_campaign(outputs / "mc.csv")
    camp["n_failed"] = 1
    with pytest.raises(checks.CheckError, match="n_failed"):
        checks.check_campaign_stats(camp)


def test_final_errors(outputs):
    camp = checks.read_campaign(outputs / "mc.csv")
    bound = checks.settling_band_bound_deg(15.0, (5.0, 0.0, 0.0))
    assert bound == pytest.approx(0.2)
    assert checks.check_final_errors(camp, bound) < bound
    camp["errors"][2, 1] = -1.5 * bound
    with pytest.raises(checks.CheckError, match="final Euler error"):
        checks.check_final_errors(camp, bound)


def test_deadband_bound():
    # u_on / (km * min|kp|) = 0.45 / (9 * 3) -> 2 asin(1/60) = 1.9101 deg
    bound = checks.deadband_bound_deg([-3.0, -5.0, -6.0], 9.0, 0.45, 2.0)
    assert bound == pytest.approx(math.degrees(2.0 * math.asin(1.0 / 60.0)) + 2.0)


def test_rmse_and_attitude_rms():
    rng = np.random.default_rng(0)
    targets = rng.normal(size=(200, 3))
    assert checks.check_rmse(targets + 0.01, targets, 0.05) == pytest.approx(0.01)
    with pytest.raises(checks.CheckError, match="RMSE"):
        checks.check_rmse(targets + 0.1, targets, 0.05)
    q = rng.normal(size=(200, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    assert checks.check_attitude_rms(3.0 * q, -q, 2.0) < 1e-5
    tilt = np.column_stack([q[:, 1:], q[:, :1]])
    with pytest.raises(checks.CheckError, match="attitude RMS"):
        checks.check_attitude_rms(tilt, q, 2.0)
