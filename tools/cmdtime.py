"""Paired wall time and peak RSS of satgnc commands, in this tree and another.

    python tools/cmdtime.py OTHER_TREE [--pairs N] [--cwd DIR] COMMAND [COMMAND ...]

OTHER_TREE is a second source tree of this repository, such as a
``git archive`` of the parent commit unpacked in a scratch directory.  Each
COMMAND is one quoted satgnc command line, for example
"simulate --config integrated.ini --out run.csv".

Every run is a fresh child process, ``python -m satgnc.cli COMMAND`` with the
tree's ``src`` first on PYTHONPATH, in the working directory DIR, so both
trees read the same inputs.  Each command first runs once per tree, untimed
(it compiles the tree's bytecode and warms the file cache); then each of the
N pairs runs it once in each tree, alternating which tree goes first.  A
child's wall time runs from its start to its exit, and its peak RSS is its
own ru_maxrss, from ``os.wait4`` on that child.

Prints one JSON document: per command, each side's median wall time, the
per-pair ratios (this tree's time over the other's) with their median, and
each child's wall time and peak RSS, in pair order.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THIS = Path(__file__).resolve().parents[1]


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def check_tree(tree: Path) -> None:
    """Refuses a tree whose src/ is not what its children would import."""
    out = subprocess.run([sys.executable, "-c", "import satgnc; print(satgnc.__file__)"],
                         env=_env(tree), capture_output=True, text=True, check=False)
    want = tree / "src" / "satgnc" / "__init__.py"
    if out.returncode or Path(out.stdout.strip()).resolve() != want.resolve():
        raise SystemExit(f"{tree}: a child would not import satgnc from {want}: "
                         f"{out.stdout.strip() or out.stderr.strip()}")


def run_child(tree: Path, argv: list[str], cwd: Path) -> tuple[float, float]:
    """Wall seconds and peak RSS (MB) of one satgnc command run in tree."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "satgnc.cli", *argv], cwd=cwd,
                                env=_env(tree), stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)     # reaped here, not by Popen
        if proc.returncode:
            err.seek(0)
            raise SystemExit(f"{tree}: satgnc {shlex.join(argv)} exited {proc.returncode}\n"
                             f"{err.read().decode(errors='replace')[-2000:]}")
    return seconds, usage.ru_maxrss / 1024.0        # ru_maxrss is in KiB on Linux


def pair_command(command: str, other: Path, pairs: int, cwd: Path) -> dict:
    argv = shlex.split(command)
    trees = {"this": THIS, "other": other}
    for tree in trees.values():
        run_child(tree, argv, cwd)
    wall = {side: [] for side in trees}
    rss = {side: [] for side in trees}
    for i in range(pairs):
        order = ("this", "other") if i % 2 == 0 else ("other", "this")
        for side in order:
            seconds, peak = run_child(trees[side], argv, cwd)
            wall[side].append(round(seconds, 4))
            rss[side].append(round(peak, 1))
    ratios = [round(a / b, 4) for a, b in zip(wall["this"], wall["other"])]
    return {
        "command": command,
        "median_s": {side: round(statistics.median(v), 4) for side, v in wall.items()},
        "pair_ratios": ratios,
        "median_ratio": round(statistics.median(ratios), 4),
        "wall_s": wall,
        "peak_rss_mb": rss,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("other", type=Path, help="the other source tree")
    p.add_argument("commands", nargs="+", help="one quoted satgnc command line each")
    p.add_argument("--pairs", type=int, default=5, help="timed pairs per command")
    p.add_argument("--cwd", type=Path, default=Path.cwd(), help="the commands' working directory")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    other = args.other.resolve()
    for tree in (THIS, other):
        check_tree(tree)
    results = [pair_command(c, other, args.pairs, args.cwd.resolve()) for c in args.commands]
    print(json.dumps({"this": str(THIS), "other": str(other), "pairs": args.pairs,
                      "order": "pair i runs this tree first for even i, the other first for odd i",
                      "commands": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
