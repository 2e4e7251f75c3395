"""Benchmark objectives with two evaluation paths.

Each problem evaluates (a) a raw (n, d) array batch for the classical
algorithms and (b) an on-tape (n, d) Var batch for the differentiable
algorithms. Every call bumps ``n_evals`` by the number of individuals
evaluated, which is what the budget loop and the CSV records count.

All four benchmark functions share one search domain, the box
[-100, 100]^d, including Michalewicz.
"""

from __future__ import annotations

import math

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
    def __init__(self, name, domain, array_fn, pop_fn):
        super().__init__(name, domain)
        self._array_fn = array_fn
        self._pop_fn = pop_fn

    def _eval_array(self, X):
        return self._array_fn(X)

    def _eval_pop(self, tape, X):
        return self._pop_fn(tape, X)


# ---------------------------------------------------------------------------
# on-tape formulations; the array twins live in kernels.py
# ---------------------------------------------------------------------------


def _sphere_pop(tape: Tape, X: Var) -> Var:
    return tape.row_sum(tape.mul(X, X))


def _ackley_pop(tape: Tape, X: Var) -> Var:
    d = X.cols
    inv_d = tape.constant([[1.0 / d]])
    s1 = tape.mul(tape.row_sum(tape.mul(X, X)), inv_d)
    t1 = tape.mul(
        tape.exp(tape.mul(tape.sqrt(s1), tape.constant([[-0.2]]))),
        tape.constant([[-20.0]]),
    )
    c = tape.mul(X, tape.constant(np.full(X.shape, 2.0 * np.pi)))
    s2 = tape.mul(tape.row_sum(tape.cos(c)), inv_d)
    t2 = tape.neg(tape.exp(s2))
    return tape.add(tape.add(t1, t2), tape.constant([[20.0 + math.e]]))


def _griewank_pop(tape: Tape, X: Var) -> Var:
    d = X.cols
    s = tape.mul(tape.row_sum(tape.mul(X, X)), tape.constant([[1.0 / 4000.0]]))
    inv_sqrt_i = (1.0 / np.sqrt(np.arange(1.0, d + 1.0))).reshape(1, d)
    scaled = tape.mul_rowvec(X, tape.constant(inv_sqrt_i))
    p = tape.row_prod(tape.cos(scaled))
    return tape.add(tape.sub(s, p), tape.constant([[1.0]]))


def _rosenbrock_pop(tape: Tape, X: Var) -> Var:
    d = X.cols
    if d < 2:
        raise ValueError("rosenbrock needs dimension >= 2")
    a = tape.slice_cols(X, 0, d - 1)
    b = tape.slice_cols(X, 1, d)
    t1 = tape.powc(tape.sub(b, tape.mul(a, a)), 2.0)
    t2 = tape.powc(tape.sub(tape.constant([[1.0]]), a), 2.0)
    return tape.row_sum(tape.add(tape.mul(t1, tape.constant([[100.0]])), t2))


def _michalewicz_pop(tape: Tape, X: Var) -> Var:
    d = X.cols
    i_over_pi = (np.arange(1.0, d + 1.0) / np.pi).reshape(1, d)
    inner = tape.sin(tape.mul_rowvec(tape.mul(X, X), tape.constant(i_over_pi)))
    terms = tape.mul(tape.sin(X), tape.powc(inner, 20.0))
    return tape.neg(tape.row_sum(terms))


# array kernels resolve through the module at call time so wrappers
# installed on the module are seen by problems built earlier too
_BENCHMARKS = {
    "sphere": ("sphere_batch", _sphere_pop),
    "ackley": ("ackley_batch", _ackley_pop),
    "griewank": ("griewank_batch", _griewank_pop),
    "rosenbrock": ("rosenbrock_batch", _rosenbrock_pop),
    "michalewicz": ("michalewicz_batch", _michalewicz_pop),
}


def benchmark_names() -> tuple[str, ...]:
    return tuple(_BENCHMARKS)


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
    kernel_name, pop_fn = _BENCHMARKS[key]
    array_fn = lambda X, _n=kernel_name: getattr(kernels, _n)(X)  # noqa: E731
    return BenchmarkProblem(key, BoxDomain.cube(dim, lo, hi), array_fn, pop_fn)
