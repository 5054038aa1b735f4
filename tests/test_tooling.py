"""The benchmark's tracer finds every function it names in the program.

perfbench/tracing.py names the traced functions by module and attribute;
one that a change deletes or renames is reported absent at run time, and
its per-layer metrics drop out of the benchmark's report.
"""

import importlib.util
from pathlib import Path

from satgnc import harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    real = harness.run_closed_loop
    tracer = tracing.Tracer()
    try:
        tracer.install()        # the lookup the benchmark makes
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert harness.run_closed_loop is real
