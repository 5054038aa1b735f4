"""Command-line interface.

Subcommands: simulate, tune-pid, gen-data, train, evaluate, monte-carlo.
Every command takes a config file and an --out override, and all but train
a --seed override; exit status is 0 on success, nonzero with a diagnostic.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import roles
from .config import NOMINAL_INERTIA, MonteCarloConfig, load_sim_config
from .harness import (evaluate_controllers, format_evaluation, monte_carlo,
                      needed_roles, run_closed_loop, tuning_objective)
from .pid import (default_gain_bounds, default_initial_gains, load_gains,
                  optimize_gains, save_gains)
from .sensors import NoiseSpec


class CliError(RuntimeError):
    pass


def _count(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _load_config(args):
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file not found: {path}")
    cfg = load_sim_config(path)
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _load_run_gains(cfg):
    if not cfg.gains_file:
        raise CliError("config has no gains_file; run tune-pid first")
    return load_gains(cfg.gains_file)       # FileNotFoundError naming it if missing


def _load_bundles(cfg, needed):
    if needed and not cfg.bundle_dir:
        raise CliError("config has no bundle_dir; run train first")
    # a missing bundle file raises FileNotFoundError naming it
    return {role: roles.load_bundle(Path(cfg.bundle_dir) / role) for role in needed}


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    gains = _load_run_gains(cfg) if cfg.controller == "pid" else None
    bundles = _load_bundles(cfg, needed_roles(cfg))
    rec = run_closed_loop(cfg, gains=gains, bundles=bundles)
    out = args.out or "run_record.csv"
    rec.to_csv(out)
    print(f"wrote {len(rec)} samples to {out}")
    return 0


def cmd_tune_pid(args) -> int:
    cfg = _load_config(args)
    result = optimize_gains(tuning_objective(cfg), default_initial_gains(NOMINAL_INERTIA),
                            budget=args.budget, bounds=default_gain_bounds(NOMINAL_INERTIA))
    out = args.out or (cfg.gains_file or "gains.ini")
    Path(out).parent.mkdir(parents=True, exist_ok=True)     # as train makes its bundle_dir
    save_gains(result.gains, out, extra={
        "cost": result.cost,
        "evaluations": result.n_evaluations,
        "seed": cfg.seed,
        "budget": args.budget,
    })
    print(f"tuned gains (J = {result.cost:.6f}, "
          f"{result.n_evaluations} evaluations) -> {out}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    gains = _load_run_gains(cfg)
    n_runs = args.runs or roles.ROLES[args.role].runs
    generate = (roles.generate_sensor_data if args.role in roles.SENSOR_ROLES
                else roles.generate_controller_data)
    ds = roles.role_view(generate(gains, n_runs, cfg), args.role)
    out = args.out or f"{args.role}_data.csv"
    ds.to_csv(out)
    print(f"wrote {len(ds)} samples to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    ds = roles.RoleDataset.from_csv(args.data, args.role)  # FileNotFoundError if missing
    # train_* is looked up by name at call time, so a wrapper swapped in is called
    bundle = getattr(roles, f"train_{args.role}")(ds)
    out = args.out or (str(Path(cfg.bundle_dir) / args.role) if cfg.bundle_dir
                       else args.role)
    roles.save_bundle(bundle, out)
    rmse = bundle.metadata.get("holdout_rmse")
    print(f"trained {args.role} bundle -> {out} (holdout RMSE per channel: "
          f"{[f'{r:.4g}' for r in rmse]})")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    gains = _load_run_gains(cfg)
    bundles = _load_bundles(cfg, ["controller", "estimator"])
    noise = cfg.noise if not cfg.noise.noiseless else NoiseSpec()
    rows = evaluate_controllers(gains, bundles, base=cfg, noise=noise)
    table = format_evaluation(rows)
    print(table)
    if args.out:
        Path(args.out).write_text(table + "\n")
    return 0


def cmd_monte_carlo(args) -> int:
    cfg = _load_config(args)
    gains = _load_run_gains(cfg) if cfg.controller == "pid" else None
    bundles = _load_bundles(cfg, needed_roles(cfg))
    mc = MonteCarloConfig(base=cfg, n_runs=args.runs,
                          master_seed=args.seed if args.seed is not None else cfg.seed)
    report = monte_carlo(mc, gains=gains, bundles=bundles, workers=args.workers)
    out = args.out or "monte_carlo.csv"
    report.to_csv(out)
    print(f"{mc.n_runs} runs ({report.n_failed} failed), "
          f"max |final error| = {report.max_abs_error:.4f} deg -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="satgnc",
                                description="satellite attitude GNC toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed_help="seed override"):
        sp.add_argument("--config", required=True, help="run configuration file")
        if seed_help:
            sp.add_argument("--seed", type=int, default=None, help=seed_help)
        sp.add_argument("--out", default=None, help="output path override")

    sp = sub.add_parser("simulate", help="one closed-loop run to CSV")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("tune-pid", help="optimize the PID gains")
    common(sp, seed_help="recorded in the gains file only: tuning runs are noise-free")
    sp.add_argument("--budget", type=int, default=500,
                    help="simulation evaluation budget")
    sp.set_defaults(func=cmd_tune_pid)

    sp = sub.add_parser("gen-data", help="generate a training dataset")
    common(sp)
    sp.add_argument("--role", required=True, choices=tuple(roles.ROLES))
    sp.add_argument("--runs", type=_count, default=None,
                    help="number of teacher runs (default: the role's own)")
    sp.set_defaults(func=cmd_gen_data)

    sp = sub.add_parser("train", help="train a role bundle from a dataset")
    common(sp, seed_help=None)
    sp.add_argument("--role", required=True, choices=tuple(roles.ROLES))
    sp.add_argument("--data", required=True, help="dataset CSV path")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("evaluate", help="PID vs neuro-fuzzy comparison table")
    common(sp)
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("monte-carlo", help="robustness campaign")
    common(sp)
    sp.add_argument("--runs", type=_count, default=200)
    sp.add_argument("--workers", type=_count, default=1, help="worker processes")
    sp.set_defaults(func=cmd_monte_carlo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
