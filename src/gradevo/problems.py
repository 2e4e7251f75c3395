"""Benchmark objectives over a box, evaluated on arrays and on the tape.

Each problem evaluates (a) a raw (n, d) array batch for the classical
algorithms and (b) an on-tape (n, d) Var batch for the differentiable
algorithms. A benchmark's value is its ``kernels.<name>_batch`` on both:
on the tape it is one node whose vjp is ``kernels.<name>_grad``, so a
differentiable run scores a point bit for bit as a classical one does.
Every call bumps ``n_evals`` by the number of individuals evaluated,
which is what the budget loop and the CSV records count.

All five benchmark functions share one search domain, the box
[-100, 100]^d, including Michalewicz.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .tape import Tape, Var


class BoxDomain:
    """Axis-aligned box with per-dimension bounds."""

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=np.float64).ravel()
        self.upper = np.asarray(upper, dtype=np.float64).ravel()
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper must have the same length")
        if np.any(self.lower >= self.upper):
            raise ValueError("every lower bound must be strictly below its upper")
        self.dim = self.lower.size
        self.width = self.upper - self.lower

    @classmethod
    def cube(cls, dim: int, lo: float = -100.0, hi: float = 100.0) -> "BoxDomain":
        return cls(np.full(dim, lo), np.full(dim, hi))

    def sample(self, rng, n: int) -> np.ndarray:
        """n uniform points, shape (n, dim)."""
        u = rng.uniform(n, self.dim)
        return self.lower + u * self.width

    def clip(self, X: np.ndarray) -> np.ndarray:
        return np.clip(X, self.lower, self.upper)

    def contains(self, X: np.ndarray) -> bool:
        return bool(np.all(X >= self.lower) and np.all(X <= self.upper))


class Problem:
    """Minimisation objective over a box domain.

    Subclasses implement ``_eval_array`` and ``_eval_pop``; the public
    wrappers handle shape checks and the evaluation counter.
    """

    def __init__(self, name: str, domain: BoxDomain):
        self.name = name
        self.domain = domain
        self.dim = domain.dim
        self.n_evals = 0

    def _eval_array(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_pop(self, tape: Tape, X: Var) -> Var:
        raise NotImplementedError

    def eval_array(self, X: np.ndarray) -> np.ndarray:
        """Raw batch evaluation, (n, d) -> (n,)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"{self.name}: expected (n, {self.dim}), got {X.shape}")
        self.n_evals += X.shape[0]
        return self._eval_array(X)

    def eval_pop(self, tape: Tape, X: Var) -> Var:
        """On-tape batch evaluation, (n, d) Var -> (n, 1) Var."""
        if X.cols != self.dim:
            raise ValueError(f"{self.name}: expected (n, {self.dim}), got {X.shape}")
        self.n_evals += X.rows
        return self._eval_pop(tape, X)

    def reset_evals(self) -> None:
        self.n_evals = 0


class BenchmarkProblem(Problem):
    """One of the benchmark functions of ``kernels``, looked up by name at
    call time so wrappers installed on the module see every call."""

    def _eval_array(self, X):
        return getattr(kernels, f"{self.name}_batch")(X)

    def _eval_pop(self, tape, X):
        """The population's values as one node. Its vjp evaluates the
        kernel's closed-form gradient only on the rows whose incoming
        gradient is nonzero (the winner alone under a "best" loss), scales
        each by that row's gradient, and leaves the other rows zero. The
        kernels are row by row, so a reached row's gradient is bitwise the
        one a call on every row would give."""
        xv = X.value

        def vjp(g):
            rows = np.flatnonzero(g[:, 0])
            grad = np.zeros(xv.shape)
            grad[rows] = g[rows] * getattr(kernels, f"{self.name}_grad")(
                xv[rows])
            return (grad,)

        return tape._record(self.name, self._eval_array(xv).reshape(-1, 1),
                            (X,), vjp)


_BENCHMARKS = ("sphere", "ackley", "griewank", "rosenbrock", "michalewicz")


def benchmark_names() -> tuple[str, ...]:
    return _BENCHMARKS


def make_problem(name: str, dim: int, lo: float = -100.0, hi: float = 100.0) -> Problem:
    """Instantiate a benchmark by name on [lo, hi]^dim."""
    key = name.strip().lower()
    if key not in _BENCHMARKS:
        raise ValueError(
            f"unknown problem {name!r}; choose from {sorted(_BENCHMARKS)}"
        )
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if key == "rosenbrock" and dim < 2:
        raise ValueError("rosenbrock needs dimension >= 2")
    return BenchmarkProblem(key, BoxDomain.cube(dim, lo, hi))
