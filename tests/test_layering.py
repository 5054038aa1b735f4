"""Import layering: a module loads only the layers below it, and a command
only what it runs.

The package root exports nothing, so importing one module runs that
module's own imports and no more.  Each case imports one module alone, or
runs one command, in a fresh interpreter, and lists the modules that loaded.
scipy and the process pool are imported inside the calls that use them:
scipy.optimize by the gain search, scipy.linalg by a fit's ridge solve, the
pool by a campaign with more than one worker.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satgnc.pid import default_initial_gains, save_gains

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "satgnc").glob("[!_]*.py"))
TOP = ("harness", "cli")        # the layers above the rest, lowest first


def loaded_by(code: str, cwd=SRC) -> set[str]:
    code += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=cwd, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    return set(json.loads(out.stdout.splitlines()[-1]))


def scipy_of(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.partition(".")[0] == "scipy"}


@pytest.mark.parametrize("module", MODULES)
def test_module_loads_only_lower_layers(module):
    loaded = loaded_by(f"import satgnc.{module}")
    assert f"satgnc.{module}" in loaded
    above = TOP[TOP.index(module) + 1:] if module in TOP else TOP
    assert not loaded & {f"satgnc.{name}" for name in above}
    assert not scipy_of(loaded)
    assert "concurrent.futures.process" not in loaded


def test_each_command_loads_what_it_runs(tmp_path):
    # a short PID scenario, its gains, and a controller dataset to fit
    (tmp_path / "run.ini").write_text("[simulation]\nduration = 1.0\n\n"
                                      "[artifacts]\ngains_file = gains.ini\n")
    save_gains(default_initial_gains((1.5, 2.6, 3.0)), tmp_path / "gains.ini")

    def command(*argv):
        return loaded_by(f"from satgnc.cli import main; assert main({list(argv)!r}) == 0",
                         cwd=tmp_path)

    for argv in (["simulate", "--out", "run.csv"], ["monte-carlo", "--runs", "1"],
                 ["gen-data", "--role", "controller", "--runs", "2", "--out", "c.csv"]):
        loaded = command(argv[0], "--config", "run.ini", *argv[1:])
        assert not scipy_of(loaded) and "concurrent.futures.process" not in loaded, argv
    loaded = command("train", "--config", "run.ini", "--role", "controller", "--data", "c.csv")
    assert "scipy.linalg" in loaded and "scipy.optimize" not in loaded
    loaded = command("tune-pid", "--config", "run.ini", "--budget", "50")
    assert "scipy.optimize" in loaded
