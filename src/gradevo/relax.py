"""Reparameterized stochastic building blocks.

Two samplers cover the discrete random operators in the differentiable
algorithms (the CMA-ES Gaussian sample, mean + sigma * L z, is
``classic.CmaState.sample``, recorded on the tape by ``diffevo.cma_sample``):

* ``gumbel_sigmoid``: Binary-Concrete relaxation of a Bernoulli gate,
  soft = sigmoid((log u - log(1 - u) + alpha) / tau), optionally followed by
  a straight-through hard threshold at 0.5 so P(hard = 1) = sigmoid(alpha)
  for any temperature.
* ``gumbel_softmax``: Concrete relaxation of a categorical draw,
  softmax((-log(-log u) + logits) / tau), optionally straight-through
  one-hot at the argmax, so P(argmax = j) = softmax(logits)_j for any
  temperature.

Noise enters as plain constants, so gradients flow only through the
distribution parameters (the pathwise estimator). Both samplers take the
uniform draws ``u``, of the output's shape, from the caller, so frozen-noise
gradient checks and the classical-equivalence tests pass their own. The
scaled logits join the noise through plain ``Tape.add``, so a scalar, row,
column or full-shape logit broadcasts onto the draws by the tape's one rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tape import Tape, Var

_UCLIP = 1e-12


class Rng:
    """Seeded random source; all algorithm randomness flows through one.

    Uniform draws are clipped to (1e-12, 1 - 1e-12) so logit transforms stay
    finite.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._g = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, rows: int, cols: int = 1) -> np.ndarray:
        u = self._g.random((rows, cols))
        return np.clip(u, _UCLIP, 1.0 - _UCLIP)

    def normal(self, rows: int, cols: int = 1) -> np.ndarray:
        return self._g.standard_normal((rows, cols))

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        return self._g.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._g.permutation(n)

    def distinct_indices(self, n: int, k: int, exclude: int) -> np.ndarray:
        """k distinct indices from range(n), all different from ``exclude``."""
        if k >= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n} excluding one")
        picked: list[int] = []
        while len(picked) < k:
            c = int(self._g.integers(0, n))
            if c != exclude and c not in picked:
                picked.append(c)
        return np.array(picked, dtype=np.int64)


@dataclass
class RelaxConfig:
    """Shared knobs for the relaxed operators inside a differentiable run.

    ``tau`` is the relaxation temperature (fixed, not learned).
    ``hard_masks`` switches Bernoulli gates to straight-through hard 0/1
    forwards. ``hard_selection`` does the same for categorical parent picks;
    the default keeps them soft mixtures. The knobs act on the GA and DE
    selections and gates; ``DiffCmaes`` recombines by log rank whatever
    they say.
    """

    tau: float = 1.0
    hard_masks: bool = True
    hard_selection: bool = False

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError(f"temperature must be positive, got {self.tau}")


def logistic_noise(u: np.ndarray) -> np.ndarray:
    """log u - log(1 - u): a standard logistic sample from a uniform one."""
    return np.log(u) - np.log1p(-u)


def gumbel_sigmoid(tape: Tape, alpha: Var, tau: float = 1.0, *,
                   u: np.ndarray, hard: bool = True) -> Var:
    """Relaxed Bernoulli gates of the shape of the uniform draws ``u``,
    with logit ``alpha`` a scalar, a row, a column or of that shape.

    Returns soft values in (0, 1), or with ``hard`` a straight-through mask
    whose forward entries are exactly 0.0 or 1.0 (threshold soft > 0.5).
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    u = np.clip(np.asarray(u, dtype=np.float64), _UCLIP, 1.0 - _UCLIP)
    noise_c = tape.constant(logistic_noise(u) / tau)
    s = tape.add(noise_c, tape.mul(alpha, tape.constant([[1.0 / tau]])))
    soft = tape.sigmoid(s)
    if not hard:
        return soft
    hard_vals = (soft.value > 0.5).astype(np.float64)
    return tape.straight_through(tape.constant(hard_vals), soft)


def gumbel_softmax(tape: Tape, logits: Var, tau: float = 1.0, *,
                   u: np.ndarray, forbid=None, hard: bool = False) -> Var:
    """Relaxed categorical rows over the shared (1, N) ``logits`` row.

    The uniform draws ``u`` are (rows, N), and the result has that many
    independent rows, each a point on the simplex. ``forbid`` is an
    optional boolean (rows, N) mask of categories forced to exactly zero
    weight (used to keep an individual from selecting itself). With
    ``hard`` the forward is the one-hot argmax, straight-through.
    """
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")
    n = logits.cols
    if n < 2:
        raise ValueError(f"categorical relaxation needs >= 2 categories, got {n}")
    u = np.clip(np.asarray(u, dtype=np.float64), _UCLIP, 1.0 - _UCLIP)
    if u.ndim != 2 or u.shape[1] != n:
        raise ValueError(f"u has shape {u.shape}, expected (rows, {n})")
    rows = u.shape[0]
    g = -np.log(-np.log(u))   # standard Gumbel noise
    if forbid is not None:
        forbid = np.asarray(forbid, dtype=bool)
        if forbid.shape != (rows, n):
            raise ValueError(f"forbid has shape {forbid.shape}, expected ({rows}, {n})")
        g = np.where(forbid, -1e30, g)
    # constant per-row shift by the max perturbed logit keeps exp in range and
    # leaves gradients untouched (softmax shift invariance)
    total = g + logits.value
    shift = total.max(axis=1, keepdims=True)
    noise_c = tape.constant((g - shift) / tau)
    a_scaled = tape.mul(logits, tape.constant([[1.0 / tau]]))
    s = tape.add(noise_c, a_scaled)
    e = tape.exp(s)
    denom = tape.row_sum(e)
    soft = tape.mul(e, tape.powc(denom, -1.0))
    if not hard:
        return soft
    winners = np.argmax(soft.value, axis=1)
    onehot = np.zeros((rows, n))
    onehot[np.arange(rows), winners] = 1.0
    return tape.straight_through(tape.constant(onehot), soft)
