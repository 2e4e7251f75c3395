"""Experiment orchestration: configs, seeded runs, CSV and figure output.

An experiment is `runs` independent seeded optimizations of one algorithm
on one problem. Every arm, the wine backprop baseline included, takes one
path: ``build_algo`` makes the algorithm and ``run_single`` drives it
through ``outer.run_loop``. Each run writes a per-generation CSV, the
experiment writes one summary CSV and a timing log (wall time stays out of
the CSVs so identical seeds give byte-identical data files). Per-run seed
is base seed + run index, so scheduling order cannot change results.
"""

from __future__ import annotations

import csv
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import par
from .classic import ClassicCmaes, ClassicDe, ClassicGa, ClassicPso, check_pop
from .diffevo import ALGORITHMS as DIFF_ALGORITHMS
from .diffevo import DiffConfig
from .outer import Adam, PlateauScheduler, RunError, run_loop
from .plots import SummaryStats, summary_stats
from .problems import Problem, benchmark_names, make_problem
from .relax import RelaxConfig, Rng
from .wine import Backprop, WineProblem, write_synthetic_wine
# importable from here by name: perfbench/spans.py wraps harness.mlp_forward
from .wine import mlp_forward  # noqa: F401

ENV_OUTDIR = "GRADEVO_OUTDIR"

CLASSIC_ALGORITHMS = {
    "pso": ClassicPso,
    "ga": ClassicGa,
    "de": ClassicDe,
    "cmaes": ClassicCmaes,
}
# "adam" (wine.Backprop) trains the wine network by plain backprop; it is
# the baseline arm of the regression comparison, not an evolutionary one.
ALGO_NAMES = tuple(CLASSIC_ALGORITHMS) + tuple(DIFF_ALGORITHMS) + ("adam",)


PROBLEM_NAMES = benchmark_names() + ("wine",)


def _flag(default, help=None, choices=None):
    """A config field whose metadata also describes its command-line flag."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, flat so it pickles to workers.

    Every field is also a command-line flag: ``--`` plus the field name
    with ``_`` written as ``-``, typed by ``_coerce``, with the ``help`` and
    ``choices`` from the field metadata.
    """

    algo: str = _flag(
        "cmaes-diff", "algorithm (classical name or <name>-diff)", ALGO_NAMES)
    problem: str = _flag("sphere", choices=PROBLEM_NAMES)
    dim: int = _flag(30, "problem dimensionality")
    pop: int = _flag(100, "population size")
    budget: int = _flag(150000, "total fitness evaluations per run")
    runs: int = _flag(5, "independent seeded runs")
    seed: int = _flag(0, "base seed; run i uses seed+i")
    lr: float = _flag(
        0.01, "outer Adam learning rate (0 freezes the hyperparameters)")
    loss: str = _flag(
        "best", "generation loss: best candidate or population mean",
        ("best", "mean"))
    tau: float = _flag(1.0, "relaxation temperature (ga-diff and de-diff)")
    sigma0: float = _flag(0.0, "initial CMA-ES step size (0 = default)")
    variant: str = _flag("rand1", "DE mutation variant", ("rand1", "best1"))
    elitism: bool = True
    hard_masks: bool = _flag(
        True, "straight-through masks instead of soft blends")
    hard_selection: bool = _flag(
        False, "straight-through parent selection instead of soft mixtures "
               "(ga-diff and de-diff)")
    patience: int = _flag(100, "plateau generations before the lr halves")
    lr_factor: float = 0.5
    min_lr: float = 1e-5
    lo: float = _flag(-100.0, "box lower bound")
    hi: float = _flag(100.0, "box upper bound")
    wine_data: str = _flag(
        "", "path to the semicolon-separated wine table "
            "(default: a bundled synthetic stand-in)")
    out_dir: str = _flag("", "output root (default: $GRADEVO_OUTDIR or cwd)")
    workers: int = _flag(1, "parallel worker processes")
    label: str = _flag("", "experiment directory name")

    def __post_init__(self):
        if self.algo not in ALGO_NAMES:
            raise ValueError(
                f"unknown algorithm {self.algo!r}; choose from {ALGO_NAMES}"
            )
        if self.problem not in PROBLEM_NAMES:
            raise ValueError(
                f"unknown problem {self.problem!r}; choose from {PROBLEM_NAMES}"
            )
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.budget < self.pop:
            raise ValueError(
                f"budget must be >= pop ({self.pop}), got {self.budget}"
            )
        if self.lr < 0.0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.sigma0 < 0.0:
            raise ValueError(f"sigma0 must be >= 0, got {self.sigma0}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if not 0.0 < self.lr_factor < 1.0:
            raise ValueError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.min_lr < 0.0:
            raise ValueError(f"min_lr must be >= 0, got {self.min_lr}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.loss not in ("best", "mean"):
            raise ValueError(f"loss must be 'best' or 'mean', got {self.loss!r}")
        if self.variant not in ("rand1", "best1"):
            raise ValueError(
                f"variant must be 'rand1' or 'best1', got {self.variant!r}"
            )
        if self.algo == "adam" and self.problem != "wine":
            raise ValueError("the adam arm only applies to the wine problem")
        if self.problem == "wine":
            # the network fixes the wine problem's size and weight box
            for f in fields(self):
                value = getattr(self, f.name)
                if f.name in ("dim", "lo", "hi") and value != f.default:
                    raise ValueError(
                        f"{f.name} does not apply to the wine problem, got {value}"
                    )
        else:
            # the benchmark holds its own rules on dim, lo and hi
            make_problem(self.problem, self.dim, self.lo, self.hi)
        # the algorithms hold their own smallest population
        check_pop(self.algo, self.pop)

    def resolved_label(self) -> str:
        if self.label:
            return self.label
        if self.problem == "wine":
            return f"{self.algo}-wine"
        return f"{self.algo}-{self.problem}-d{self.dim}"


_DEFAULTS = ExperimentConfig()


def _coerce(key: str, text: str):
    cur = getattr(_DEFAULTS, key)
    if isinstance(cur, bool):           # bool before int: bool is an int
        low = text.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"expected a boolean for {key!r}, got {text!r}")
    if isinstance(cur, int):
        return int(text)
    if isinstance(cur, float):
        return float(text)
    return text


def parse_config_file(path: str) -> dict:
    """Flat key=value text, ``#`` comments; returns coerced overrides."""
    names = {f.name for f in fields(ExperimentConfig)}
    vals: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in names:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            vals[key] = _coerce(key, text)
    return vals


def synthetic_wine_path() -> str:
    """Materialize the bundled synthetic wine table once per machine."""
    path = Path(tempfile.gettempdir()) / "gradevo-synthetic-wine.csv"
    if not path.exists():
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".csv")
        os.close(fd)
        write_synthetic_wine(tmp)
        os.replace(tmp, path)           # atomic; content is deterministic
    return str(path)


def build_problem(cfg: ExperimentConfig) -> Problem:
    if cfg.problem == "wine":
        path = cfg.wine_data or synthetic_wine_path()
        # the perturbed targets are part of the dataset: one noise draw per
        # experiment (keyed on the base seed), shared by every run and arm
        return WineProblem.from_file(path, noise_seed=cfg.seed)
    return make_problem(cfg.problem, cfg.dim, cfg.lo, cfg.hi)


def build_algo(cfg: ExperimentConfig, problem: Problem, seed: int):
    rng = Rng(seed)
    if cfg.algo == "adam":
        return Backprop(problem, rng)
    if cfg.algo == "pso":
        return ClassicPso(problem, cfg.pop, rng)
    if cfg.algo == "ga":
        return ClassicGa(problem, cfg.pop, rng)
    if cfg.algo == "de":
        return ClassicDe(problem, cfg.pop, rng, variant=cfg.variant)
    if cfg.algo == "cmaes":
        return ClassicCmaes(problem, cfg.pop, rng, sigma0=cfg.sigma0 or None)
    dc = DiffConfig(
        loss=cfg.loss,
        relax=RelaxConfig(tau=cfg.tau, hard_masks=cfg.hard_masks,
                          hard_selection=cfg.hard_selection),
        elitism=cfg.elitism,
    )
    cls = DIFF_ALGORITHMS[cfg.algo]
    if cfg.algo == "de-diff":
        return cls(problem, cfg.pop, rng, dc, variant=cfg.variant)
    if cfg.algo == "cmaes-diff":
        return cls(problem, cfg.pop, rng, dc, sigma0=cfg.sigma0 or None)
    return cls(problem, cfg.pop, rng, dc)


def run_single(cfg: ExperimentConfig, run_idx: int):
    """One seeded run; module-level so process pools can import it."""
    problem = build_problem(cfg)
    algo = build_algo(cfg, problem, cfg.seed + run_idx)
    opt = sched = None
    if hasattr(algo, "tape"):
        opt = Adam(algo.tape.params, lr=cfg.lr)
    if cfg.algo in DIFF_ALGORITHMS:
        sched = PlateauScheduler(opt, patience=cfg.patience,
                                 factor=cfg.lr_factor, min_lr=cfg.min_lr)
    records, err = run_loop(algo, problem, cfg.budget, opt, sched, run=run_idx)
    return run_idx, records, err


def _fnum(x) -> str:
    # repr round-trips doubles exactly, keeping CSVs byte-stable per seed
    return repr(float(x))


def write_run_csv(path, records: list) -> None:
    hyper_keys = list(records[0].hyper.keys()) if records else []
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["run", "generation", "n_evals", "best_fitness", "lr"]
                   + hyper_keys)
        for r in records:
            w.writerow(
                [r.run, r.generation, r.n_evals, _fnum(r.best_fitness),
                 _fnum(r.lr)] + [_fnum(r.hyper[k]) for k in hyper_keys]
            )


_SUMMARY_FIELDS = ("label", "algo", "problem", "dim", "pop", "budget",
                   "runs", "seed", "mean", "std", "median", "min", "max",
                   "q1", "q3", "failed")


def write_summary_csv(path, cfg: ExperimentConfig, stats: SummaryStats,
                      failed: int) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(_SUMMARY_FIELDS)
        w.writerow([
            cfg.resolved_label(), cfg.algo, cfg.problem, cfg.dim, cfg.pop,
            cfg.budget, cfg.runs, cfg.seed, _fnum(stats.mean),
            _fnum(stats.std), _fnum(stats.median), _fnum(stats.min),
            _fnum(stats.max), _fnum(stats.q1), _fnum(stats.q3), failed,
        ])


def experiment_dir(cfg: ExperimentConfig) -> Path:
    root = Path(cfg.out_dir or os.environ.get(ENV_OUTDIR, "") or os.getcwd())
    return root / cfg.resolved_label()


def run_experiment(cfg: ExperimentConfig, quiet: bool = False):
    """Execute all runs, write CSVs and timing, return (stats, exp_dir).

    BLAS is pinned to one thread here and in each worker process before
    any run, so the CSVs do not depend on the machine's thread count.
    A failed run still writes its partial CSV and is excluded from the
    summary, with a one-line warning; its full traceback goes to
    ``errors.log``. Only a fully failed experiment raises.
    """
    exp_dir = experiment_dir(cfg)
    exp_dir.mkdir(parents=True, exist_ok=True)
    blas_threads = par.pin_blas()
    t0 = time.perf_counter()

    results: dict[int, tuple[list, object]] = {}
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 initializer=par.pin_blas) as pool:
            futures = [pool.submit(run_single, cfg, i) for i in range(cfg.runs)]
            for fut in futures:
                idx, records, err = fut.result()
                results[idx] = (records, err)
    else:
        for i in range(cfg.runs):
            idx, records, err = run_single(cfg, i)
            results[idx] = (records, err)
    wall = time.perf_counter() - t0

    finals = []
    failures = []
    for i in range(cfg.runs):
        records, err = results[i]
        write_run_csv(exp_dir / f"run_{i:03d}.csv", records)
        if err is not None or not records:
            failures.append((i, err or RunError("no records", "no records")))
        else:
            finals.append(records[-1].best_fitness)

    # a rerun into the same directory must not keep an older run's log
    (exp_dir / "errors.log").unlink(missing_ok=True)
    if failures:
        with open(exp_dir / "errors.log", "w") as fh:
            for i, err in failures:
                fh.write(f"run {i}:\n{err.traceback.rstrip()}\n\n")
    for i, err in failures:
        print(f"warning: run {i} of {cfg.resolved_label()} failed: "
              f"{err} (see {exp_dir / 'errors.log'})",
              file=sys.stderr)
    if not finals:
        raise RuntimeError(
            f"all {cfg.runs} runs of {cfg.resolved_label()} failed; "
            f"first error: {failures[0][1]}"
        )

    stats = summary_stats(finals)
    write_summary_csv(exp_dir / "summary.csv", cfg, stats, len(failures))
    with open(exp_dir / "timing.log", "w") as fh:
        fh.write(f"wall_seconds={wall:.3f}\n")
        fh.write(f"completed={len(finals)} failed={len(failures)}\n")
        fh.write(f"pool_threads={par.width()}\n")
        fh.write(f"blas_threads={blas_threads}\n")
    if not quiet:
        print(
            f"{cfg.resolved_label()}: mean={stats.mean:.6g} "
            f"std={stats.std:.6g} median={stats.median:.6g} "
            f"min={stats.min:.6g} max={stats.max:.6g} "
            f"({len(finals)}/{cfg.runs} runs, {wall:.1f}s)"
        )
    return stats, exp_dir


def load_run_csv(path):
    """Read one per-run CSV back as (header, rows as float array)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    return header, np.array(rows, dtype=float)


def load_experiment(exp_dir):
    """Collect an experiment directory into (label, evals, curves, finals).

    ``evals`` is the shared n_evals axis (truncated to the shortest run),
    ``curves`` the (runs, G) best-fitness matrix, ``finals`` the last
    best fitness of each completed run.
    """
    exp_dir = Path(exp_dir)
    run_files = sorted(exp_dir.glob("run_*.csv"))
    if not run_files:
        raise FileNotFoundError(f"no run CSVs under {exp_dir}")
    label = exp_dir.name
    summary = exp_dir / "summary.csv"
    if summary.exists():
        with open(summary, newline="") as fh:
            reader = csv.reader(fh)
            head = next(reader)
            row = next(reader)
            label = row[head.index("label")]
    series = []
    evals = None
    for rf in run_files:
        header, rows = load_run_csv(rf)
        if rows.size == 0:
            continue
        series.append(rows[:, header.index("best_fitness")])
        e = rows[:, header.index("n_evals")]
        evals = e if evals is None or len(e) < len(evals) else evals
    if not series:
        raise ValueError(f"every run CSV under {exp_dir} is empty")
    g = min(len(s) for s in series)
    curves = np.stack([s[:g] for s in series])
    finals = np.array([s[-1] for s in series])
    return label, np.asarray(evals)[:g], curves, finals
