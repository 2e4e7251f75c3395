"""Command line front end.

Subcommands: ``run`` one experiment, ``suite`` the benchmark grid,
``wine`` the regression comparison, ``scale`` the high-dimensional
Michalewicz study, ``plot`` SVG rendering from experiment CSVs, and
``gradcheck`` the finite-difference suite.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .harness import (
    CLASSIC_ALGORITHMS,
    DIFF_ALGORITHMS,
    ExperimentConfig,
    _coerce,
    load_experiment,
    parse_config_file,
    run_experiment,
)
from .plots import emit_boxplot_svg, emit_convergence_svg

GRID_PROBLEMS = ("ackley", "michalewicz", "rosenbrock", "griewank")
GRID_DIMS = (30, 50)
GRID_ALGOS = tuple(CLASSIC_ALGORITHMS) + tuple(DIFF_ALGORITHMS)

# the evolved wine arm's own defaults; explicit flags override them
WINE_EVOLVED = dict(pop=30, lr=1.0, sigma0=0.1, loss="mean", patience=10)


def _flag_type(name: str):
    def parse(text: str):
        try:
            return _coerce(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _add_config_flags(p: argparse.ArgumentParser, skip=()) -> None:
    """One flag per ExperimentConfig field, defaulting to 'not provided'."""
    for f in fields(ExperimentConfig):
        if f.name in skip:
            continue
        p.add_argument(
            "--" + f.name.replace("_", "-"), type=_flag_type(f.name),
            default=None, choices=f.metadata.get("choices"),
            metavar="BOOL" if isinstance(f.default, bool) else None,
            help=f.metadata.get("help"),
        )


def _cli_overrides(args: argparse.Namespace) -> dict:
    names = {f.name for f in fields(ExperimentConfig)}
    return {
        k: v for k, v in vars(args).items() if k in names and v is not None
    }


def _make_config(args: argparse.Namespace, **forced) -> ExperimentConfig:
    vals: dict = {}
    if getattr(args, "config", None):
        vals.update(parse_config_file(args.config))
    vals.update(_cli_overrides(args))
    vals.update(forced)
    return ExperimentConfig(**vals)


def _cmd_run(args) -> int:
    cfg = _make_config(args)
    run_experiment(cfg)
    return 0


def _cmd_suite(args) -> int:
    problems = args.problems.split(",") if args.problems else list(GRID_PROBLEMS)
    dims = [int(d) for d in args.dims.split(",")] if args.dims else list(GRID_DIMS)
    algos = args.algos.split(",") if args.algos else list(GRID_ALGOS)
    base = _cli_overrides(args)
    failures = 0
    for problem in problems:
        for dim in dims:
            for algo in algos:
                vals = dict(base)
                vals.update(
                    algo=algo, problem=problem, dim=dim,
                    budget=args.evals_per_dim * dim,
                )
                vals.setdefault("pop", 100)
                vals.setdefault("runs", 5)
                if algo == "cmaes-diff":
                    # same interior start as the scale study
                    vals.setdefault("sigma0", 1.0)
                try:
                    run_experiment(ExperimentConfig(**vals))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    failures += 1
    return 1 if failures else 0


def _cmd_wine(args) -> int:
    base = _cli_overrides(args)
    evo = {**WINE_EVOLVED, **base, "algo": "cmaes-diff", "problem": "wine",
           "label": "cmaes-diff-wine"}
    adam = {**base, "algo": "adam", "problem": "wine", "pop": 1,
            "lr": args.adam_lr, "label": "adam-wine"}
    # both configs are checked before either arm runs
    evo_cfg, adam_cfg = ExperimentConfig(**evo), ExperimentConfig(**adam)
    evo_stats, _ = run_experiment(evo_cfg)
    adam_stats, _ = run_experiment(adam_cfg)
    print(
        f"final MSE: cmaes-diff mean={evo_stats.mean:.4g} "
        f"(min {evo_stats.min:.4g}, max {evo_stats.max:.4g}) | "
        f"adam mean={adam_stats.mean:.4g} "
        f"(min {adam_stats.min:.4g}, max {adam_stats.max:.4g})"
    )
    return 0


def _cmd_scale(args) -> int:
    base = _cli_overrides(args)
    for algo in ("cmaes", "cmaes-diff"):
        vals = dict(base, algo=algo, problem="michalewicz")
        if algo == "cmaes-diff":
            # start the gradient arm interior: a box-wide initial step puts
            # most samples outside the box, where selection and gradients
            # see the boundary penalty rather than the objective
            vals.setdefault("sigma0", 1.0)
        run_experiment(ExperimentConfig(**vals))
    return 0


def _cmd_plot(args) -> int:
    curves = {}
    finals = {}
    for d in args.dirs:
        label, evals, runs, fin = load_experiment(d)
        curves[label] = (evals, runs)
        finals[label] = fin
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    conv = emit_convergence_svg(curves, str(out / "convergence.svg"),
                                title=args.title, log_y=args.log_y)
    box = emit_boxplot_svg(finals, str(out / "boxplot.svg"),
                           title=args.title, log_y=args.log_y)
    print(conv)
    print(box)
    return 0


def _cmd_gradcheck(args) -> int:
    from .gradcheck import run_all

    results = run_all(seed=args.seed, h=args.step)
    worst = 0.0
    failed = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name:<42s} max_err={r.max_err:.3e}  tol={r.tol:.1e}")
        worst = max(worst, r.max_err)
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed, "
          f"worst error {worst:.3e}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradevo",
        description="Classical and differentiable evolutionary optimization "
                    "with learned hyperparameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("--config", default=None,
                   help="key=value file; explicit flags override it")
    _add_config_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("suite", help="benchmark grid: problems x dims x algorithms")
    p.add_argument("--problems", default=None,
                   help=f"comma list (default {','.join(GRID_PROBLEMS)})")
    p.add_argument("--dims", default=None,
                   help="comma list of dimensions (default 30,50)")
    p.add_argument("--algos", default=None,
                   help="comma list (default: all eight)")
    p.add_argument("--evals-per-dim", dest="evals_per_dim",
                   type=int, default=5000,
                   help="budget = this x dim (default 5000)")
    _add_config_flags(p, skip=("algo", "problem", "dim", "budget", "label"))
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("wine", help="network regression: evolved vs backprop")
    p.add_argument("--adam-lr", dest="adam_lr", type=float,
                   default=0.001, help="backprop arm learning rate")
    # --pop, --lr, --sigma0, --loss and --patience set the evolved arm; the
    # backprop arm is a population of one whose lr is --adam-lr, and each of
    # its epochs counts as one evaluation of --budget
    _add_config_flags(p, skip=("algo", "problem", "dim", "lo", "hi", "label"))
    p.set_defaults(fn=_cmd_wine, budget=3000, runs=10)

    p = sub.add_parser("scale", help="high-dimensional Michalewicz study")
    _add_config_flags(p, skip=("algo", "problem", "label"))
    p.set_defaults(fn=_cmd_scale, dim=100, budget=100000)

    p = sub.add_parser("plot", help="render SVGs from experiment directories")
    p.add_argument("dirs", nargs="+", help="experiment output directories")
    p.add_argument("--out-dir", dest="out_dir", default=".")
    p.add_argument("--title", default="")
    p.add_argument("--log-y", dest="log_y", action="store_true")
    p.set_defaults(fn=_cmd_plot)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-5,
                   help="central difference step")
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
