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
gradient checks and the classical-equivalence tests pass their own. Each
sampler records one tape node whose vjp is the closed-form Concrete one
(Jang et al., ICLR 2017; Maddison et al., ICLR 2017): s (1 - s) / tau for
the sigmoid, s (g - (g . s)) / tau per row for the softmax. The hard
forward sits inside the same node and keeps the soft vjp, which makes it
the straight-through estimator. A scalar, row, column or full-shape
``gumbel_sigmoid`` logit is stretched onto the draws along its axes of
length 1, and its gradient is summed back over the stretched axes.
"""

from __future__ import annotations

import numpy as np

from .tape import Tape, Var, _as2d, _reduce_to, _sigmoid, _stretches_onto

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

    def permutation(self, n: int, rows: int = None) -> np.ndarray:
        """A permutation of range(n); with ``rows``, a (rows, n) array of
        them, drawn from the stream as ``rows`` successive single calls
        would draw them."""
        if rows is None:
            return self._g.permutation(n)
        return self._g.permuted(np.broadcast_to(np.arange(n), (rows, n)),
                                axis=1)

    def distinct_indices(self, n: int, k: int, exclude) -> np.ndarray:
        """k distinct indices from range(n), all different from ``exclude``.

        With an array ``exclude``, a (len(exclude), k) array: row r excludes
        ``exclude[r]``, and the rows are drawn as successive single calls
        would draw them. Each call takes scalar integers in [0, n) and keeps
        a value that is neither excluded nor already picked. The values come
        from one block of ``integers(0, n, size=m)``, which yields m scalar
        draws; the stream is then rewound and advanced by exactly the number
        of values used, so every later draw is unchanged.
        """
        if k >= n:
            raise ValueError(f"cannot draw {k} distinct indices from {n} excluding one")
        ex = np.atleast_1d(exclude).tolist()
        # the expected number of draws for one row
        per_row = sum(n / (n - 1 - j) for j in range(k))
        state = self._g.bit_generator.state
        drawn: list[int] = []
        used = 0
        flat: list[int] = []
        for r, e in enumerate(ex):
            picked: list[int] = []
            while len(picked) < k:
                if used == len(drawn):
                    m = int(1.25 * per_row * (len(ex) - r)) + 8
                    drawn += self._g.integers(0, n, size=m).tolist()
                c = drawn[used]
                used += 1
                if c != e and c not in picked:
                    picked.append(c)
            flat += picked
        self._g.bit_generator.state = state
        self._g.integers(0, n, size=used)
        out = np.array(flat, dtype=np.int64).reshape(-1, k)
        return out if np.ndim(exclude) else out[0]


def check_tau(tau: float) -> None:
    """Raise ValueError unless the temperature ``tau`` is positive."""
    if tau <= 0.0:
        raise ValueError(f"temperature must be positive, got {tau}")


def logistic_noise(u: np.ndarray) -> np.ndarray:
    """log u - log(1 - u): a standard logistic sample from a uniform one."""
    return np.log(u) - np.log1p(-u)


def gumbel_sigmoid(tape: Tape, alpha: Var, tau: float = 1.0, *,
                   u: np.ndarray, hard: bool = True) -> Var:
    """Relaxed Bernoulli gates of the shape of the uniform draws ``u``,
    with logit ``alpha`` a scalar, a row, a column or of that shape. Every
    draw must lie strictly inside (0, 1), as ``Rng.uniform``'s do.

    Returns soft values in (0, 1), or with ``hard`` a straight-through mask
    whose forward entries are exactly 0.0 or 1.0 (threshold soft > 0.5).
    One tape node; its vjp, soft (1 - soft) / tau summed onto the shape of
    ``alpha``, is the soft one for either forward.
    """
    check_tau(tau)
    noise = _as2d(logistic_noise(u) / tau)
    shape = alpha.shape
    if not _stretches_onto(shape, noise.shape):
        raise ValueError(f"alpha has shape {shape}, which does not "
                         f"broadcast onto u's {noise.shape}")
    inv_tau = 1.0 / tau
    soft = _sigmoid(noise + alpha.value * inv_tau)

    def vjp(g):
        return (_reduce_to(g * soft * (1.0 - soft), shape) * inv_tau,)

    value = (soft > 0.5).astype(np.float64) if hard else soft
    return tape._record("gumbel_sigmoid", value, (alpha,), vjp)


def gumbel_softmax(tape: Tape, logits: Var, tau: float = 1.0, *,
                   u: np.ndarray, forbid=None, hard: bool = False) -> Var:
    """Relaxed categorical rows over the shared (1, N) ``logits`` row.

    The uniform draws ``u`` are (rows, N), each strictly inside (0, 1) as
    ``Rng.uniform``'s are, and the result has that many independent rows,
    each a point on the simplex. ``forbid`` is an
    optional boolean (rows, N) mask of categories forced to exactly zero
    weight (used to keep an individual from selecting itself). With
    ``hard`` the forward is the one-hot argmax, straight-through. One tape
    node; its vjp is the softmax one, s (g - (g . s)) / tau per row,
    summed over the rows, for either forward.
    """
    check_tau(tau)
    n = logits.cols
    if n < 2:
        raise ValueError(f"categorical relaxation needs >= 2 categories, got {n}")
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
    inv_tau = 1.0 / tau
    e = np.exp((g - shift) / tau + logits.value * inv_tau)
    denom = e.sum(axis=1, keepdims=True)
    recip = np.power(denom, -1.0)
    soft = e * recip
    shape = logits.shape

    def vjp(gy):
        # the rounding of the chain e * (1 / sum e): the quotient's term
        # first, then the sum's, each as its own product
        gd = _reduce_to(gy * e, recip.shape) * -1.0 * np.power(denom, -2.0)
        ge = gy * recip + gd
        return (_reduce_to(ge * e, shape) * inv_tau,)

    if not hard:
        return tape._record("gumbel_softmax", soft, (logits,), vjp)
    onehot = np.zeros((rows, n))
    onehot[np.arange(rows), np.argmax(soft, axis=1)] = 1.0
    return tape._record("gumbel_softmax", onehot, (logits,), vjp)
