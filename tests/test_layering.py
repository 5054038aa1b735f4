"""Import layering: a module loads only the layers below it.

The package root exports nothing, so importing one module runs that
module's own imports and no more.  Each case imports one module alone, in
a fresh interpreter, and lists the modules that import loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
NO_SCIPY = ("dynamics", "sensors", "pwpf", "config")
BELOW_HARNESS = NO_SCIPY + ("anfis", "pid", "roles")


def loaded_by(module: str) -> set[str]:
    code = f"import json, sys, satgnc.{module}; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=SRC, timeout=60)
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("module", BELOW_HARNESS)
def test_module_loads_only_lower_layers(module):
    loaded = loaded_by(module)
    assert f"satgnc.{module}" in loaded
    assert not loaded & {"satgnc.harness", "satgnc.cli"}
    if module in NO_SCIPY:
        assert not {name for name in loaded if name.partition(".")[0] == "scipy"}
