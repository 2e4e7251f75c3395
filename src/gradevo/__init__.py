"""Differentiable evolutionary optimization on a reverse-mode tape.

Classical PSO, GA, DE and CMA-ES next to fully differentiable variants
whose stochastic operators are reparameterized, letting an outer Adam
loop learn the strategy parameters from the optimization loss itself.
"""

from .tape import Param, Tape, Var
from .relax import RelaxConfig, Rng, gumbel_sigmoid, gumbel_softmax, logistic_noise
from .problems import BenchmarkProblem, BoxDomain, Problem, benchmark_names, make_problem
from .wine import MlpSpec, WineProblem, load_wine, noisy_targets, write_synthetic_wine
from .classic import (
    ClassicCmaes,
    ClassicDe,
    ClassicGa,
    ClassicPso,
    cma_constants,
    tournament_select,
)
from .diffevo import ALGORITHMS, DiffCmaes, DiffConfig, DiffDe, DiffGa, DiffPso
from .outer import Adam, PlateauScheduler, RunRecord, run_loop
from .gradcheck import CheckResult, fd_check, generation_checks, op_checks, run_all
from .plots import emit_boxplot_svg, emit_convergence_svg, quartiles, summary_stats
from .harness import (
    ALGO_NAMES,
    ExperimentConfig,
    build_algo,
    build_problem,
    load_experiment,
    parse_config_file,
    run_experiment,
    run_single,
)
from . import kernels

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ALGO_NAMES",
    "Adam",
    "BenchmarkProblem",
    "BoxDomain",
    "CheckResult",
    "ClassicCmaes",
    "ClassicDe",
    "ClassicGa",
    "ClassicPso",
    "DiffCmaes",
    "DiffConfig",
    "DiffDe",
    "DiffGa",
    "DiffPso",
    "ExperimentConfig",
    "MlpSpec",
    "Param",
    "PlateauScheduler",
    "Problem",
    "RelaxConfig",
    "Rng",
    "RunRecord",
    "Tape",
    "Var",
    "WineProblem",
    "benchmark_names",
    "build_algo",
    "build_problem",
    "cma_constants",
    "emit_boxplot_svg",
    "emit_convergence_svg",
    "fd_check",
    "generation_checks",
    "gumbel_sigmoid",
    "gumbel_softmax",
    "kernels",
    "load_experiment",
    "load_wine",
    "logistic_noise",
    "make_problem",
    "noisy_targets",
    "op_checks",
    "parse_config_file",
    "quartiles",
    "run_all",
    "run_experiment",
    "run_loop",
    "run_single",
    "summary_stats",
    "tournament_select",
    "write_synthetic_wine",
]
