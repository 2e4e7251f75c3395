"""Outer optimisation loop: Adam over tape params, LR plateau scheduling,
and the generation loop shared by every run: classical, differentiable and
the wine backprop baseline.

One outer iteration is one inner generation: build the generation graph,
backpropagate the generation loss, drop the graph, step every trainable
slot with Adam, drop the gradients, adjust the learning rate on
stagnation, then commit the stepped state. Each buffer is released once
its last reader is done, so a generation never holds its graph and
Adam's step, or its gradients and the commit, at once. A
run over ``max_evals`` evaluations performs exactly
ceil(max_evals / pop_size) generations of pop_size evaluations each; the
algorithm evaluates its first population when it is constructed, and that
evaluation is not part of the count.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field

import numpy as np

from . import par
from .tape import Param

# a slot of at least this many entries is stepped in chunks on the CPUs
SPLIT_ENTRIES = 1 << 16


class Adam:
    """Adam with bias correction over named tape params.

    ``step()`` replaces each slot's value by value plus its displacement.
    A differentiable generation has already written its staged candidate
    into the slots it stages, so the step lands on the candidate, not on
    the value the graph was recorded at. Only the gradients and the
    moments ``m`` and ``v`` are read; the displacement is scratch, dropped
    once added. A missing gradient counts as zero (the slot keeps its
    value); a non-finite gradient is an error naming the parameter.

    The update is elementwise, so a slot of at least ``SPLIT_ENTRIES``
    entries (the packed wine factor) is cut into contiguous chunks that
    ``par.run`` steps on the CPUs. Each chunk computes in the new value and
    displacement arrays allocated before the split, with the rounding of
    the serial formula, so the step is bitwise the same at any pool width.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params, lr: float = 0.01):
        self.params: list[Param] = list(params)
        if lr < 0.0:
            raise ValueError(f"learning rate must be >= 0, got {lr}")
        self.lr = float(lr)
        self.t = 0
        self._m = {p.name: np.zeros(p.raw.value.shape) for p in self.params}
        self._v = {p.name: np.zeros(p.raw.value.shape) for p in self.params}

    def step(self) -> None:
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t

        def update(x, g, m, v, xn, d):
            # with the rounding of b1 * m + (1 - b1) * g and
            # x - lr * (m / bc1) / (sqrt(v / bc2) + eps); the new value xn
            # and the displacement d serve as scratch on the way
            m *= b1
            np.multiply(g, 1.0 - b1, d)
            m += d
            v *= b2
            np.multiply(g, g, d)
            d *= 1.0 - b2
            v += d
            np.divide(v, bc2, xn)
            np.sqrt(xn, xn)
            xn += eps
            np.divide(m, bc1, d)
            d *= -lr
            d /= xn
            np.add(x, d, xn)

        for p in self.params:
            value = p.raw.value
            g = p.raw.grad
            if g is None:
                g = np.zeros(value.shape)
            if not np.all(np.isfinite(g)):
                raise RuntimeError(
                    f"non-finite gradient for parameter {p.name!r}"
                )
            new, delta = np.empty(value.shape), np.empty(value.shape)
            slot = (value, g, self._m[p.name], self._v[p.name], new, delta)
            if value.size < SPLIT_ENTRIES:
                update(*slot)
            else:
                flat = [a.reshape(-1) for a in slot]
                par.run(lambda part: update(*(a[part.start:part.stop]
                                              for a in flat)),
                        par.split(value.size))
            p.raw.value = new


class PlateauScheduler:
    """Halve the learning rate after ``patience`` non-improving generations.

    Improvement means the monitored value drops below the best seen by more
    than ``tol``; anything smaller counts as no improvement. The learning
    rate never goes below ``min_lr``.
    """

    factor = 0.5
    tol = 1e-12

    def __init__(self, optimizer: Adam, patience: int = 100,
                 min_lr: float = 1e-5):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.optimizer = optimizer
        self.patience = int(patience)
        self.min_lr = float(min_lr)
        self.best = math.inf
        self.bad = 0

    def step(self, metric: float) -> float:
        if metric < self.best - self.tol:
            self.best = float(metric)
            self.bad = 0
        else:
            self.bad += 1
            if self.bad >= self.patience:
                self.optimizer.lr = max(
                    self.optimizer.lr * self.factor, self.min_lr
                )
                self.bad = 0
        return self.optimizer.lr


@dataclass
class RunRecord:
    """One generation's bookkeeping row."""

    run: int
    generation: int
    n_evals: int
    best_fitness: float
    lr: float
    hyper: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RunError:
    """Why a run stopped: ``summary`` is the one-line ``Type: message``
    and ``traceback`` the full formatted traceback. ``str()`` gives the
    summary."""

    summary: str
    traceback: str

    def __str__(self) -> str:
        return self.summary


def run_loop(algo, problem, max_evals: int, optimizer: Adam = None,
             scheduler: PlateauScheduler = None, run: int = 0):
    """Drive ``algo`` for ceil(max_evals / pop_size) generations.

    Works for both classical algorithms (plain ``generation()`` calls) and
    on-tape ones, the differentiable algorithms and the wine backprop arm.
    An on-tape generation runs generation / backward / reset / step /
    zero_grad / scheduler / commit: the graph is dropped as soon as
    backward has read it, since the step reads only the param gradients,
    which survive ``reset``, and those are dropped as soon as the step has
    read them. Returns
    (records, error): on an exception the records collected so far come
    back along with a ``RunError`` carrying the traceback; otherwise
    error is None.
    """
    if max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    n_gens = math.ceil(max_evals / algo.pop_size)
    is_diff = hasattr(algo, "tape")
    records: list[RunRecord] = []

    offset = problem.n_evals

    try:
        for g in range(n_gens):
            if is_diff:
                tape = algo.tape
                tape.backward(algo.generation())
                tape.reset()
                if optimizer is not None:
                    optimizer.step()
                tape.zero_grad()
                if scheduler is not None:
                    scheduler.step(algo.current_best())
                algo.update_state()
                best = algo.best_fitness
            else:
                best = algo.generation()
            lr = optimizer.lr if optimizer is not None else 0.0
            records.append(
                RunRecord(run, g, problem.n_evals - offset, float(best),
                          float(lr), algo.hyperparams())
            )
    except Exception as exc:  # partial records plus the traceback
        # a message over several lines still makes a one-line summary
        summary = f"{type(exc).__name__}: {exc}".replace("\n", " ")
        return records, RunError(summary, traceback.format_exc())
    return records, None
