"""Hot numeric kernels: benchmark batch evaluation and classical operators.

Kernels are pure numpy functions of arrays; no random draws happen in
here. Callers look them up through this module at call time, so wrappers
installed on the module (timing spans, for instance) see every call.

Each benchmark ``<name>_batch`` is the one definition of that function's
value, on and off the tape; its ``<name>_grad`` twin is the closed-form
gradient the tape node's vjp scales by the incoming row gradient. The
vjp calls it on the rows that gradient reaches only, so a gradient is
row by row: a row's result does not depend on the other rows passed.
"""

from __future__ import annotations

import math

import numpy as np

# the only backend; recorded by the benchmark environment report
BACKEND = "numpy"


# ---------------------------------------------------------------------------
# benchmark batch evaluation, (n, d) -> (n,), and its gradient, (n, d) -> (n, d)
# ---------------------------------------------------------------------------


def sphere_batch(X):
    return np.sum(X * X, axis=1)


def sphere_grad(X):
    return 2.0 * X


def ackley_batch(X):
    d = X.shape[1]
    s1 = np.sum(X * X, axis=1) / d
    s2 = np.sum(np.cos(2.0 * np.pi * X), axis=1) / d
    return -20.0 * np.exp(-0.2 * np.sqrt(s1)) - np.exp(s2) + 20.0 + math.e


def ackley_grad(X):
    d = X.shape[1]
    r = np.sqrt(np.sum(X * X, axis=1, keepdims=True) / d)
    s2 = np.sum(np.cos(2.0 * np.pi * X), axis=1, keepdims=True) / d
    # the first term is a cone with its tip at the origin: dividing by inf
    # there gives its subgradient 0 instead of 0 * inf
    t1 = 4.0 * np.exp(-0.2 * r) / (d * np.where(r > 0.0, r, np.inf))
    return t1 * X + (2.0 * np.pi / d) * np.exp(s2) * np.sin(2.0 * np.pi * X)


def griewank_batch(X):
    d = X.shape[1]
    idx = np.sqrt(np.arange(1.0, d + 1.0))
    s = np.sum(X * X, axis=1) / 4000.0
    p = np.prod(np.cos(X / idx), axis=1)
    return s - p + 1.0


def griewank_grad(X):
    d = X.shape[1]
    idx = np.sqrt(np.arange(1.0, d + 1.0))
    u = X / idx
    c = np.cos(u)
    # the product of every cosine but the j-th, from running products on
    # either side, which stays exact where a cosine is zero
    loo = np.ones(X.shape)
    np.cumprod(c[:, :-1], axis=1, out=loo[:, 1:])
    loo[:, :-1] *= np.cumprod(c[:, :0:-1], axis=1)[:, ::-1]
    return X / 2000.0 + np.sin(u) / idx * loo


def rosenbrock_batch(X):
    a = X[:, :-1]
    b = X[:, 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=1)


def rosenbrock_grad(X):
    a = X[:, :-1]
    t = 200.0 * (X[:, 1:] - a * a)
    G = np.zeros(X.shape)
    G[:, :-1] = -2.0 * a * t - 2.0 * (1.0 - a)
    G[:, 1:] += t
    return G


def michalewicz_batch(X):
    d = X.shape[1]
    idx = np.arange(1.0, d + 1.0)
    # sin(theta)**20 by squarings, as in michalewicz_grad
    s4 = np.square(np.square(np.sin(idx * X * X / np.pi)))
    return -np.sum(np.sin(X) * (np.square(np.square(s4)) * s4), axis=1)


def michalewicz_grad(X):
    d = X.shape[1]
    idx = np.arange(1.0, d + 1.0)
    theta = idx * X * X / np.pi
    s = np.sin(theta)
    # s**19 by squarings: np.power costs over ten times as much
    s2 = s * s
    s4 = s2 * s2
    s8 = s4 * s4
    s19 = s8 * s8 * s2 * s
    return -(np.cos(X) * (s19 * s)
             + np.sin(X) * s19 * np.cos(theta) * ((40.0 / np.pi) * idx * X))


# ---------------------------------------------------------------------------
# classical operator kernels
# ---------------------------------------------------------------------------


# the first SBX child; the second is sbx_children(p2, p1, u, eta)
def sbx_children(p1, p2, u, eta):
    e = 1.0 / (eta + 1.0)
    beta = np.where(u < 0.5, (2.0 * u) ** e, (1.0 / (2.0 * (1.0 - u))) ** e)
    return 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)


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
