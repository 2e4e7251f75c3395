"""Hot numeric kernels: benchmark batch evaluation and classical operators.

Kernels are pure numpy functions of arrays; no random draws happen in
here. Callers look them up through this module at call time, so wrappers
installed on the module (timing spans, for instance) see every call.
"""

from __future__ import annotations

import math

import numpy as np

# the only backend; recorded by the benchmark environment report
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# benchmark batch evaluation, (n, d) -> (n,)
# ---------------------------------------------------------------------------


def sphere_batch(X):
    return np.sum(X * X, axis=1)


def ackley_batch(X):
    d = X.shape[1]
    s1 = np.sum(X * X, axis=1) / d
    s2 = np.sum(np.cos(2.0 * np.pi * X), axis=1) / d
    return -20.0 * np.exp(-0.2 * np.sqrt(s1)) - np.exp(s2) + 20.0 + math.e


def griewank_batch(X):
    d = X.shape[1]
    idx = np.sqrt(np.arange(1.0, d + 1.0))
    s = np.sum(X * X, axis=1) / 4000.0
    p = np.prod(np.cos(X / idx), axis=1)
    return s - p + 1.0


def rosenbrock_batch(X):
    a = X[:, :-1]
    b = X[:, 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=1)


def michalewicz_batch(X):
    d = X.shape[1]
    idx = np.arange(1.0, d + 1.0)
    inner = np.sin(idx * X * X / np.pi)
    return -np.sum(np.sin(X) * inner**20, axis=1)


# ---------------------------------------------------------------------------
# classical operator kernels
# ---------------------------------------------------------------------------


def sbx_children(p1, p2, u, eta):
    e = 1.0 / (eta + 1.0)
    beta = np.where(u < 0.5, (2.0 * u) ** e, (1.0 / (2.0 * (1.0 - u))) ** e)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return c1, c2


def poly_mutation(x, u, gate, eta, lo, hi):
    e = 1.0 / (eta + 1.0)
    delta = np.where(
        u < 0.5, (2.0 * u) ** e - 1.0, 1.0 - (2.0 * (1.0 - u)) ** e
    )
    out = np.where(gate, x + delta * (hi - lo), x)
    return np.clip(out, lo, hi)


def de_trial(pop, donor, tau, jrand, cr, lo, hi):
    n, d = pop.shape
    take = tau < cr
    take[np.arange(n), jrand] = True
    return np.clip(np.where(take, donor, pop), lo, hi)


def pso_step(x, v, pbest, gbest, r1, r2, omega, c1, c2, vmax, lo, hi):
    vn = omega * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest - x)
    vn = np.clip(vn, -vmax, vmax)
    xn = np.clip(x + vn, lo, hi)
    return xn, vn
