"""Red-wine quality regression: data handling and the MLP loss on the tape.

The regression target is the quality score plus multiplicative-style noise,
target_i = quality_i + exp(z_i) with z_i ~ N(0, 1), drawn per run seed. The
noise floor of the mean-squared error is therefore Var[exp(Z)] =
(e - 1) * e, about 4.67, which is what a perfect regressor converges to.

Features are used raw, deliberately unstandardised, and the 1665 network
parameters start uniform in [-10, 10]: with tanh hidden units this puts most
of the first layer deep into saturation, the regime the experiment probes.

``load_wine`` reads the standard semicolon-separated table (12 columns,
header row). ``write_synthetic_wine`` generates a fixed, seed-pinned table in
the same format with realistic feature scales for offline runs; pass a real
winequality-red.csv to ``load_wine`` and everything downstream is unchanged.

``mlp_forward`` is the network's forward pass, shared by both evaluation
paths: it returns the loss of every parameter row of a (k, P) batch and
the residuals, and computes each row's hidden activations in one
(n, n_hidden) array per chunk of rows, so it never holds the
(k, n, n_hidden) activations. ``eval_array`` keeps the losses alone.
``eval_pop`` records the whole batch as a single tape node, ``mlp_mse``,
whose parent is the (k, P) population and whose hand-written vjp
(Griewank & Walther, *Evaluating Derivatives*, ch. 6) reads the residuals
back, so the tape holds one node per population instead of a graph per
candidate. The vjp recomputes the activations of each row it reaches into
its chunk's array with the forward's own calls, except the row the array
still holds (checkpointing, ibid. ch. 12), so the gradient has the bits
of a pass that stored them.

b1 is stored right after the row-major W1, so each row's first layer is
one gemm of the inputs with a ones column, ``[F | 1] @ [W1; b1]``, and the
vjp forms the gradient of that block as one gemm too. No pass of either
broadcasts a vector across the (n, n_hidden) activations.

``Backprop`` is the study's baseline arm: plain full-batch backprop on the
same network, driven by the same generation loop as the evolved arms.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from . import par
from .problems import BoxDomain, Problem
from .tape import Tape, Var

WINE_COLUMNS = (
    "fixed acidity",
    "volatile acidity",
    "citric acid",
    "residual sugar",
    "chlorides",
    "free sulfur dioxide",
    "total sulfur dioxide",
    "density",
    "pH",
    "sulphates",
    "alcohol",
    "quality",
)

N_FEATURES = 11
_SYNTH_SEED = 761843902
_SYNTH_ROWS = 1599

# per-feature generation profile: mean, std, lower clip, decimals
_FEATURE_PROFILE = (
    (8.32, 1.74, 4.0, 1),     # fixed acidity
    (0.53, 0.18, 0.10, 2),    # volatile acidity
    (0.27, 0.19, 0.0, 2),     # citric acid
    (2.54, 1.41, 0.9, 1),     # residual sugar
    (0.087, 0.047, 0.012, 3), # chlorides
    (15.9, 10.5, 1.0, 1),     # free sulfur dioxide
    (46.5, 32.9, 6.0, 1),     # total sulfur dioxide
    (0.9967, 0.0019, 0.990, 5),
    (3.31, 0.15, 2.7, 2),     # pH
    (0.66, 0.17, 0.33, 2),    # sulphates
    (10.42, 1.07, 8.4, 1),    # alcohol
)


def write_synthetic_wine(path: str, n_rows: int = _SYNTH_ROWS) -> str:
    """Write a deterministic stand-in table in the UCI red-wine format.

    The file is identical across calls (internal fixed seed): feature
    marginals match the published summary statistics and quality correlates
    positively with alcohol and negatively with volatile acidity, as in the
    real data. Returns the path.
    """
    g = np.random.Generator(np.random.PCG64(_SYNTH_SEED))
    z = g.standard_normal((n_rows, N_FEATURES))
    cols = []
    for j, (mu, sd, lo, dec) in enumerate(_FEATURE_PROFILE):
        col = np.maximum(mu + sd * z[:, j], lo)
        cols.append(np.round(col, dec))
    q_latent = 5.64 + 0.45 * z[:, 10] - 0.35 * z[:, 1] + 0.18 * z[:, 9] \
        + 0.55 * g.standard_normal(n_rows)
    quality = np.clip(np.rint(q_latent), 3, 8).astype(int)

    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(";".join(f'"{c}"' for c in WINE_COLUMNS) + "\n")
        for i in range(n_rows):
            fields = []
            for j, (_, _, _, dec) in enumerate(_FEATURE_PROFILE):
                fields.append(f"{cols[j][i]:.{dec}f}")
            fields.append(str(quality[i]))
            fh.write(";".join(fields) + "\n")
    return path


def load_wine(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse a semicolon-separated wine table.

    Returns (features, quality) with features (n, 11) and quality (n,).
    Malformed rows raise ValueError naming the 1-based line number.
    """
    features = []
    quality = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh, delimiter=";", quotechar='"')
        for ln, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if ln == 1:
                if len(row) != len(WINE_COLUMNS):
                    raise ValueError(
                        f"{path}: line 1: expected {len(WINE_COLUMNS)} header "
                        f"fields, got {len(row)}"
                    )
                continue
            if len(row) != len(WINE_COLUMNS):
                raise ValueError(
                    f"{path}: line {ln}: expected {len(WINE_COLUMNS)} fields, "
                    f"got {len(row)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError:
                bad = next(v for v in row if not _is_float(v))
                raise ValueError(
                    f"{path}: line {ln}: could not parse field {bad!r}"
                ) from None
            features.append(vals[:N_FEATURES])
            quality.append(vals[N_FEATURES])
    if not features:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(features), np.asarray(quality)


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def noisy_targets(quality: np.ndarray, seed: int) -> np.ndarray:
    """quality + exp(N(0, 1)), one independent draw per row per seed."""
    g = np.random.Generator(np.random.PCG64(int(seed)))
    return quality + np.exp(g.standard_normal(quality.shape[0]))


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected n_in -> n_hidden (tanh) -> 1 regressor."""

    n_in: int = N_FEATURES
    n_hidden: int = 128

    @property
    def n_params(self) -> int:
        return self.n_in * self.n_hidden + 2 * self.n_hidden + 1

    def unpack_spans(self):
        """Column spans of (W1, b1, W2, b2) inside the flat parameter row.

        W1 is stored row-major: parameter k of the first span sits at
        W1[k // n_hidden, k % n_hidden]. b1 follows it, so the first two
        spans together are one contiguous (n_in + 1, n_hidden) block
        ``[W1; b1]``, the matrix ``mlp_forward`` multiplies ``[F | 1]`` by.
        """
        a = self.n_in * self.n_hidden
        b = a + self.n_hidden
        c = b + self.n_hidden
        return (0, a), (a, b), (b, c), (c, c + 1)


@dataclass
class RowChunk:
    """One chunk of a batch's parameter rows and the (n, n_hidden) array
    in which the forward pass computed each of its rows' activations.
    ``held`` is the row whose activations that array holds now, -1 before
    any."""

    rows: range
    h: np.ndarray
    held: int = -1


def mlp_forward(X: np.ndarray, features: np.ndarray, targets: np.ndarray,
                spec: MlpSpec, *, with_ones: np.ndarray = None):
    """Mean-squared error of the network of each row of a (k, P) batch.

    Returns ``(losses, r, chunks)``: the (k,) losses, the (k, n, 1)
    residuals prediction - target, and the ``RowChunk`` of each chunk of
    rows. A chunk computes every row's tanh activations in its one
    (n, n_hidden) array, so the pass holds one activation array per chunk,
    not one per row; the array still holds the chunk's last row. The first
    layer is one gemm, ``[F | 1] @ [W1; b1]`` (``_hidden``): the bias
    rides on a ones column, so no pass broadcasts b1 across the
    activations. The rows are independent and ``par.run`` spreads the
    chunks over the CPUs; each writes only its own rows of the losses and
    residuals and squares residuals into its own scratch, so the losses
    are bitwise the same at any pool width. A batch of one row (the
    backprop arm) is one chunk; its tanh is then spread over data-row
    chunks instead (``_data_chunks``). The gemms stay whole, because row
    blocks of a product change its bits.

    ``with_ones`` is ``[F | 1]`` for a caller that keeps it, such as
    ``WineProblem``; it is built from ``features`` when omitted.
    """
    if X.ndim != 2 or X.shape[1] != spec.n_params:
        raise ValueError(f"params must be (k, {spec.n_params}), got {X.shape}")
    _, _, (w2a, w2b), (b2a, b2b) = spec.unpack_spans()
    k, n = X.shape[0], features.shape[0]
    f1 = _with_ones(features) if with_ones is None else with_ones
    t = targets.reshape(n, 1)
    chunks = [RowChunk(part, np.empty((n, spec.n_hidden)))
              for part in par.split(k)]
    cuts = _data_chunks(n, len(chunks))
    r = np.empty((k, n, 1))
    losses = np.empty(k)

    def rows(chunk, sq):
        for i in chunk.rows:
            p, ri = X[i], r[i]
            _hidden(f1, p, spec, cuts, chunk.h)
            chunk.held = i
            np.matmul(chunk.h, p[w2a:w2b].reshape(spec.n_hidden, 1), out=ri)
            ri += p[b2a:b2b]
            ri -= t
            losses[i] = np.power(ri, 2.0, out=sq).mean()

    par.run(rows, chunks, np.empty((len(chunks), n, 1)))
    return losses, r, chunks


def _hidden(f1, p, spec, cuts, out) -> None:
    """Row p's activations tanh([F | 1] @ [W1; b1]) in ``out``, the tanh
    over the data-row slices ``cuts``: the same calls, and so the same
    bits, wherever they run."""
    (w1a, _), (_, b1b), _, _ = spec.unpack_spans()
    np.matmul(f1, p[w1a:b1b].reshape(spec.n_in + 1, spec.n_hidden), out=out)
    par.run(_tanh, [out[c] for c in cuts])


def _data_chunks(n: int, row_chunks: int) -> list:
    """Slices of the n data rows for the elementwise passes of a batch
    whose parameter rows run as ``row_chunks`` chunks: several when those
    are one chunk, which leaves the other CPUs idle, and else one. An
    elementwise pass gives the same bits on any slice of its input."""
    cuts = par.split(n) if row_chunks == 1 else [range(n)]
    return [slice(c.start, c.stop) for c in cuts]


def _tanh(a: np.ndarray) -> None:
    np.tanh(a, out=a)


def _one_minus_square(a: np.ndarray, out: np.ndarray) -> None:
    np.square(a, out=out)
    np.subtract(1.0, out, out=out)


def _with_ones(features: np.ndarray) -> np.ndarray:
    """The (n, n_in + 1) inputs ``[F | 1]`` whose product with the
    contiguous ``[W1; b1]`` block is the first layer's pre-activation."""
    return np.hstack([features, np.ones((features.shape[0], 1))])


class WineProblem(Problem):
    """Full-batch MSE of the 1665-parameter MLP on a wine table.

    The search box is [-10, 10]^1665, matching the uniform initialisation.
    """

    def __init__(self, features: np.ndarray, targets: np.ndarray,
                 spec: MlpSpec = MlpSpec(), lo: float = -10.0, hi: float = 10.0):
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if features.ndim != 2 or features.shape[1] != spec.n_in:
            raise ValueError(f"features must be (n, {spec.n_in})")
        if targets.shape[0] != features.shape[0]:
            raise ValueError("features and targets disagree on row count")
        super().__init__("wine", BoxDomain.cube(spec.n_params, lo, hi))
        self.spec = spec
        self.features = features
        self.targets = targets
        self._f1 = _with_ones(features)

    @classmethod
    def from_file(cls, path: str, noise_seed: int, **kw) -> "WineProblem":
        feats, quality = load_wine(path)
        return cls(feats, noisy_targets(quality, noise_seed), **kw)

    def _eval_array(self, X):
        return mlp_forward(X, self.features, self.targets, self.spec,
                           with_ones=self._f1)[0]

    def _eval_pop(self, tape, X):
        """The population's losses as one ``mlp_mse`` node.

        Its vjp is the reverse of ``mlp_forward``, row by row, over the
        rows whose loss gets a gradient. It keeps no activations of its
        own: it walks each forward chunk's rows last-first, uses the row
        the chunk's array still holds as it is, and recomputes every other
        row's activations into that array with the forward's own calls
        (``_hidden``), so they have the forward's bits (checkpointing,
        Griewank & Walther, *Evaluating Derivatives*, ch. 12). Each chunk
        records the row its array holds, so a second backward over the
        node recomputes what the first overwrote. With gs = 2 g r / n and
        d = 1 - h², the gradient of ``[W1; b1]`` is ``([F | 1] ⊙ gs)ᵀ d``
        with its columns scaled by W2: one gemm written straight into the
        row's gradient, with no pass that broadcasts W2 or b1 across the
        (n, n_hidden) activations. ``par.run`` spreads the chunks with a
        reached row over the CPUs; each has its own scratch and writes
        only its rows of the gradient, so the gradient is bitwise the same
        at any pool width. With one such chunk, the tanh and d are formed
        over data-row chunks, as in ``mlp_forward``.
        """
        xv, F, f1, spec = X.value, self.features, self._f1, self.spec
        losses, r, chunks = mlp_forward(xv, F, self.targets, spec,
                                        with_ones=f1)
        (w1a, _), (_, b1b), (w2a, w2b), (b2a, _) = spec.unpack_spans()
        n_in, n_hidden = spec.n_in, spec.n_hidden
        n = F.shape[0]

        def vjp(g):
            # a row whose loss gets no gradient (every row but the winner
            # under a "best" loss) keeps its zeros
            grad = np.zeros(xv.shape)
            reached = [(c, [i for i in reversed(c.rows) if g[i, 0]])
                       for c in chunks]
            reached = [(c, idx) for c, idx in reached if idx]
            if not reached:
                return (grad,)

            def rows(work, gs, f1gs, d):
                chunk, idx = work
                hi = chunk.h
                for i in idx:
                    if chunk.held != i:
                        _hidden(f1, xv[i], spec, cuts, hi)
                        chunk.held = i
                    np.multiply((g[i, 0] / n) * 2.0, r[i], out=gs)
                    np.matmul(hi.T, gs, out=grad[i, w2a:w2b].reshape(n_hidden, 1))
                    grad[i, b2a] = gs.sum()
                    par.run(_one_minus_square, [hi[c] for c in cuts],
                            [d[c] for c in cuts])
                    np.multiply(f1, gs, out=f1gs)
                    g1 = grad[i, w1a:b1b].reshape(n_in + 1, n_hidden)
                    np.matmul(f1gs.T, d, out=g1)
                    g1 *= xv[i, w2a:w2b]

            m = len(reached)
            cuts = _data_chunks(n, m)
            par.run(rows, reached, np.empty((m, n, 1)),
                    np.empty((m, n, n_in + 1)), np.empty((m, n, n_hidden)))
            return (grad,)

        return tape._record("mlp_mse", losses.reshape(-1, 1), (X,), vjp)


class Backprop:
    """The backprop baseline as a population of one.

    The network weights are the single tape param ``theta``, drawn uniform
    in the box. One generation is one full-batch epoch: ``generation()``
    returns the MSE of ``theta`` on the tape and the caller backpropagates
    it and steps Adam. An epoch counts as one evaluation, so both arms of
    the study share the budget axis.
    """

    name = "adam"
    pop_size = 1

    def __init__(self, problem: WineProblem, rng):
        self.problem = problem
        self.tape = Tape()
        self.theta = self.tape.param("theta", problem.domain.sample(rng, 1))
        self.best_fitness = math.inf
        self._loss = math.inf

    def generation(self) -> Var:
        loss = self.problem.eval_pop(self.tape, self.theta.raw)
        self._loss = float(loss.value[0, 0])
        return loss

    def update_state(self) -> None:
        self.best_fitness = min(self.best_fitness, self._loss)

    def hyperparams(self) -> dict:
        return {}
