"""Span tracing for the benchmark, done from outside the program.

Each traced function is replaced, for the length of a traced phase, by a
wrapper at every name its callers look it up by: a module-level function is
swapped in every ``satgnc`` module whose globals hold it (``harness`` calls
its own imported ``integrate_step``, ``cli`` its own ``monte_carlo``), a
method on its class.  A name that no longer exists is reported as absent
and skipped.

Spans (name, start, end) are kept in memory and written out once, at the
end of the run, with the parent and the operation (root span) of each,
worked out from how the spans nest.  A span's self time is its duration
minus the time covered by its traced children.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time
from collections import Counter

import numpy as np

# (layer, function, module, attribute path): the per-layer metrics are
# "<layer>.<function>.calls" and "<layer>.<function>.self_s"
TRACED = (
    ("harness", "run_closed_loop", "satgnc.harness", "run_closed_loop"),
    ("harness", "monte_carlo", "satgnc.harness", "monte_carlo"),
    ("dynamics", "integrate_step", "satgnc.dynamics", "integrate_step"),
    ("dynamics", "quat_to_euler", "satgnc.dynamics", "quat_to_euler"),
    ("dynamics", "quaternion_error", "satgnc.dynamics", "quaternion_error"),
    ("sensors", "magnetometer_reading", "satgnc.sensors", "magnetometer_reading"),
    ("sensors", "sun_sensor_reading", "satgnc.sensors", "sun_sensor_reading"),
    ("sensors", "gyro_reading", "satgnc.sensors", "gyro_reading"),
    ("pid", "pid_step", "satgnc.pid", "pid_step"),
    ("pid", "optimize_gains", "satgnc.pid", "optimize_gains"),
    ("pwpf", "pwpf_step", "satgnc.pwpf", "pwpf_step"),
    ("roles", "anfis_integrated", "satgnc.roles", "anfis_integrated"),
    ("roles", "anfis_control", "satgnc.roles", "anfis_control"),
    ("roles", "anfis_estimate", "satgnc.roles", "anfis_estimate"),
    ("roles", "RoleBundle.predict_batch", "satgnc.roles", "RoleBundle.predict_batch"),
    ("roles", "generate_controller_data", "satgnc.roles", "generate_controller_data"),
    ("roles", "generate_sensor_data", "satgnc.roles", "generate_sensor_data"),
    ("roles", "train_controller", "satgnc.roles", "train_controller"),
    ("roles", "train_estimator", "satgnc.roles", "train_estimator"),
    ("roles", "train_integrated", "satgnc.roles", "train_integrated"),
    ("anfis", "train", "satgnc.anfis", "train"),
    ("anfis", "premise_gradient", "satgnc.anfis", "premise_gradient"),
    ("anfis", "design_matrix", "satgnc.anfis", "design_matrix"),
    ("anfis", "solve_consequents", "satgnc.anfis", "solve_consequents"),
    ("io", "RoleDataset.to_csv", "satgnc.roles", "RoleDataset.to_csv"),
    ("io", "RoleDataset.from_csv", "satgnc.roles", "RoleDataset.from_csv"),
    ("io", "save_bundle", "satgnc.roles", "save_bundle"),
    ("io", "load_bundle", "satgnc.roles", "load_bundle"),
    ("io", "MonteCarloReport.to_csv", "satgnc.harness", "MonteCarloReport.to_csv"),
)
FUNCTIONS = tuple(f"{layer}.{fn}" for layer, fn, _, _ in TRACED)

# counts taken at the layer boundaries; the last three from the program's
# own warnings, matched on their text
COUNTS = ("harness.steps", "harness.unrealizable_plants",
          "anfis.underflow_fallbacks", "roles.envelope_warnings")
_UNDERFLOW = re.compile(r"(\d+) sample\(s\) fired no rule above the underflow")


class Tracer:
    """Spans and counts of one process's traced phases."""

    def __init__(self):
        self.enabled = False
        self.absent: list[str] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.counts: Counter = Counter()
        self._spans: list[tuple[int, float, float]] = []   # (name id, start, end)
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span.  It runs on every call, so it only reads the
        clock twice and appends; nesting and self times are worked out from
        the spans afterwards."""
        nid = self._id(name)
        add = self._spans.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add((nid, t0, clock()))

        if on_result is None:
            return traced

        @functools.wraps(fn)
        def traced_result(*args, **kwargs):
            out = traced(*args, **kwargs)
            on_result(out)
            return out
        return traced_result

    def operation(self, name: str, fn, *args):
        """Call fn as one operation, a root span "op.<name>"."""
        if not self.enabled:
            return fn(*args)
        return self.wrap(f"op.{name}", fn)(*args)

    def _count_steps(self, record) -> None:
        self.counts["harness.steps"] += len(record)

    def install(self) -> None:
        """Swap every traced function for its wrapper."""
        importlib.import_module("satgnc.cli")      # the entry point loads every layer
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "satgnc" or n.startswith("satgnc."))]
        self.absent = []
        for (_, _, modname, path), name in zip(TRACED, FUNCTIONS):
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                self.absent.append(name)
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
            elif isinstance(owner, type):
                func = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(name, func)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, staticmethod(wrapped)
                        if isinstance(raw, staticmethod) else wrapped)
            else:
                wrapped = self.wrap(name, raw, self._count_steps
                                    if name == "harness.run_closed_loop" else None)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patches.append((mod, key, raw))
                            setattr(mod, key, wrapped)
        self.enabled = True

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches = []
        self.enabled = False

    def count_warning(self, message: str) -> None:
        if not self.enabled:
            return
        if "violates the triangle inequality" in message:
            self.counts["harness.unrealizable_plants"] += 1
        elif "training envelope" in message:
            self.counts["roles.envelope_warnings"] += 1
        else:
            m = _UNDERFLOW.search(message)
            if m:
                self.counts["anfis.underflow_fallbacks"] += int(m.group(1))

    def spans(self) -> dict:
        """Every span with its parent (the innermost span enclosing it) and
        its operation (the root span enclosing it); -1 for none."""
        table = np.array(self._spans, dtype=float).reshape(-1, 3)
        name = table[:, 0].astype(np.int64)
        start, end = table[:, 1], table[:, 2]
        parent = np.full(len(table), -1, dtype=np.int64)
        op = np.full(len(table), -1, dtype=np.int64)
        open_spans: list[int] = []
        for i in np.lexsort((-end, start)).tolist():   # parents before children
            while open_spans and end[open_spans[-1]] <= start[i]:
                open_spans.pop()
            if open_spans:
                parent[i] = open_spans[-1]
                op[i] = open_spans[0]
            open_spans.append(i)
        return {"names": np.array(self.names), "name": name, "start": start,
                "end": end, "parent": parent, "op": op}

    def totals(self) -> dict:
        """Calls and self seconds by name, the counts, and the operations'
        wall time.  Self time is a span's duration minus its children's."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        inner = sp["parent"] >= 0
        child = np.bincount(sp["parent"][inner], weights=dur[inner],
                            minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(sp["name"], minlength=n)
        self_s = np.bincount(sp["name"], weights=dur - child, minlength=n)
        return {
            "calls": {k: int(calls[i]) for i, k in enumerate(self.names)},
            "self_s": {k: float(self_s[i]) for i, k in enumerate(self.names)},
            "counts": dict(self.counts),
            "op_wall_s": float(dur[sp["parent"] < 0].sum()),
            "absent": list(self.absent),
        }
