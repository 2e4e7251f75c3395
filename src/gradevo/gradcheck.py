"""Finite-difference verification of tape gradients.

``fd_check`` compares the analytic gradient of a rebuilt loss against
central differences with step h. The error metric per element is
|analytic - fd| / max(|analytic|, |fd|, 1), i.e. relative for gradients of
magnitude above one and absolute below, which keeps the check meaningful
when the true gradient is near zero.

``op_checks`` covers every differentiable tape operation and the wine,
benchmark and CMA-ES sample nodes at generic random points (inputs kept
away from kinks and branch boundaries so the finite difference is valid).
``generation_checks`` differentiates one full generation of each of the
four learnable algorithms with frozen noise, run in fully soft mode:
straight-through estimators deliberately disagree with finite differences
of their own hard forward, so the FD comparison uses the soft graph and the
straight-through identity (hard forward, soft backward) is checked
separately in the op suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diffevo import DiffCmaes, DiffConfig, DiffDe, DiffGa, DiffPso, cma_sample
from .problems import benchmark_names, make_problem
from .relax import RelaxConfig, Rng
from .tape import Param, Tape, Var
from .wine import MlpSpec, WineProblem

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float = DEFAULT_TOL

    @property
    def ok(self) -> bool:
        return self.max_err < self.tol


def _err(analytic: np.ndarray, fd: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
    return float(np.max(np.abs(analytic - fd) / scale))


def fd_check(build_loss: Callable[[], Var], tape: Tape,
             params: list[Param] = None, h: float = DEFAULT_H) -> dict[str, float]:
    """Max elementwise error per param between backprop and central FD.

    ``build_loss`` must reconstruct the loss from current param values; it
    is called 2 * n_elements + 1 times with the tape reset in between.
    """
    if params is None:
        params = list(tape.params)
    tape.reset()
    tape.zero_grad()
    loss = build_loss()
    tape.backward(loss)
    analytic = {
        p.name: (p.raw.grad.copy() if p.raw.grad is not None
                 else np.zeros_like(p.raw.value))
        for p in params
    }
    errs = {}
    for p in params:
        base = p.raw.value.copy()
        fd = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            p.raw.value = base.copy()
            p.raw.value[idx] = base[idx] + h
            tape.reset()
            f_plus = build_loss().item()
            p.raw.value = base.copy()
            p.raw.value[idx] = base[idx] - h
            tape.reset()
            f_minus = build_loss().item()
            fd[idx] = (f_plus - f_minus) / (2.0 * h)
        p.raw.value = base
        errs[p.name] = _err(analytic[p.name], fd)
    tape.reset()
    tape.zero_grad()
    return errs


def _away_from(rng, shape, lo, hi, avoid=(), margin=0.05):
    """Uniform draw in [lo, hi] with every entry at least ``margin`` from
    each value in ``avoid`` (nudged outward, not resampled, so the draw
    count stays fixed)."""
    x = lo + (hi - lo) * rng.uniform(*shape)
    for a in avoid:
        close = np.abs(x - a) < margin
        x = np.where(close, a + np.sign(x - a + 1e-9) * margin, x)
    return x


def op_checks(seed: int = 0, h: float = DEFAULT_H) -> list[CheckResult]:
    """FD-verify every differentiable op; oracle-verify straight-through,
    whose defined gradient differs from plain FD."""
    rng = Rng(seed)
    results: list[CheckResult] = []

    def run(name, build, tape, kind="op"):
        errs = fd_check(build, tape, h=h)
        results.append(CheckResult(f"{kind}:{name}", max(errs.values())))

    _weights: dict[tuple, np.ndarray] = {}

    def weighted(tape, v):
        # weight matrices are frozen per (check, shape) so the rebuilt loss
        # is the same function of the params on every FD evaluation
        key = (len(results), v.shape)
        if key not in _weights:
            _weights[key] = rng.normal(*v.shape)
        w = tape.constant(_weights[key])
        return tape.sum(tape.mul(v, w))

    # --- binary elementwise, matched shapes and scalar broadcast
    for name in ("add", "sub", "mul"):
        t = Tape()
        a = t.param("a", _away_from(rng, (2, 3), -2, 2))
        b = t.param("b", _away_from(rng, (2, 3), -2, 2))
        run(name, lambda t=t, a=a, b=b, name=name:
            weighted(t, getattr(t, name)(a.raw, b.raw)), t)
        t = Tape()
        a = t.param("a", _away_from(rng, (2, 3), -2, 2))
        s = t.param("s", _away_from(rng, (1, 1), -2, 2))
        run(name + ":scalar", lambda t=t, a=a, s=s, name=name:
            weighted(t, getattr(t, name)(a.raw, s.raw)), t)

    t = Tape()
    a = t.param("a", _away_from(rng, (2, 3), 0.2, 2.0))
    b = t.param("b", _away_from(rng, (2, 3), -1.5, 1.5))
    run("pow", lambda: weighted(t, t.pow(a.raw, b.raw)), t)

    t = Tape()
    a = t.param("a", _away_from(rng, (2, 3), 0.3, 2.0))
    run("powc", lambda: weighted(t, t.powc(a.raw, 1.7)), t)
    t = Tape()
    a = t.param("a", _away_from(rng, (2, 3), -2, 2))
    run("powc:int", lambda: weighted(t, t.powc(a.raw, 3.0)), t)

    # --- unary elementwise
    for name, lo, hi in (
        ("neg", -2, 2),
        ("exp", -2, 2),
        ("sigmoid", -3, 3),
    ):
        t = Tape()
        a = t.param("a", _away_from(rng, (2, 3), lo, hi))
        run(name, lambda t=t, a=a, name=name:
            weighted(t, getattr(t, name)(a.raw)), t)

    # --- reductions
    for name in ("sum", "mean"):
        t = Tape()
        a = t.param("a", _away_from(rng, (3, 4), -2, 2))
        run(name, lambda t=t, a=a, name=name: getattr(t, name)(a.raw), t)

    t = Tape()
    vals = np.linspace(-2, 2, 12).reshape(3, 4)
    a = t.param("a", vals + 0.01 * rng.normal(3, 4))
    run("min_with_index", lambda: t.min_with_index(a.raw)[0], t)

    t = Tape()
    a = t.param("a", _away_from(rng, (3, 4), -2, 2))
    run("row_sum", lambda: weighted(t, t.row_sum(a.raw)), t)

    # --- linear algebra
    t = Tape()
    a = t.param("a", _away_from(rng, (2, 3), -2, 2))
    b = t.param("b", _away_from(rng, (3, 2), -2, 2))
    run("matmul", lambda: weighted(t, t.matmul(a.raw, b.raw)), t)

    # --- row and column broadcasts
    t = Tape()
    a = t.param("a", _away_from(rng, (3, 4), -2, 2))
    b = t.param("b", _away_from(rng, (1, 4), -2, 2))
    run("add_rowvec", lambda: weighted(t, t.add_rowvec(a.raw, b.raw)), t)
    t = Tape()
    a = t.param("a", _away_from(rng, (3, 4), -2, 2))
    b = t.param("b", _away_from(rng, (1, 4), -2, 2))
    run("mul_rowvec", lambda: weighted(t, t.mul_rowvec(a.raw, b.raw)), t)
    t = Tape()
    a = t.param("a", _away_from(rng, (3, 4), -2, 2))
    b = t.param("b", _away_from(rng, (3, 1), -2, 2))
    run("mul_colvec", lambda: weighted(t, t.mul_colvec(a.raw, b.raw)), t)

    # --- clamp: entries pushed clear of the bounds on both sides
    t = Tape()
    av = _away_from(rng, (3, 4), -2, 2, avoid=(-1.0, 1.0), margin=0.2)
    a = t.param("a", av)
    run("clamp", lambda: weighted(t, t.clamp(a.raw, -1.0, 1.0)), t)

    # --- straight-through: analytic grad of the ST graph vs FD of the soft
    t = Tape()
    a = t.param("a", _away_from(rng, (2, 3), -2, 2))
    wst = rng.normal(2, 3)

    def soft_graph():
        return t.sum(t.mul(t.sigmoid(a.raw), t.constant(wst)))

    def st_graph():
        soft = t.sigmoid(a.raw)
        hard = (soft.value > 0.5).astype(float)
        return t.sum(t.mul(t.straight_through(t.constant(hard), soft),
                           t.constant(wst)))

    t.reset(); t.zero_grad()
    st_loss = st_graph()
    t.backward(st_loss)
    st_grad = a.raw.grad.copy()
    errs = fd_check(soft_graph, t, h=h)
    t.reset(); t.zero_grad()
    soft_loss = soft_graph()
    t.backward(soft_loss)
    soft_grad = a.raw.grad.copy()
    results.append(CheckResult("op:straight_through",
                               max(_err(st_grad, soft_grad), errs["a"])))

    # --- the wine MLP loss node, k = 3 networks on 6 rows (drawn last)
    spec = MlpSpec(n_in=3, n_hidden=4)
    prob = WineProblem(rng.normal(6, 3), rng.normal(6, 1), spec)
    t = Tape()
    a = t.param("a", _away_from(rng, (3, spec.n_params), -1, 1))
    run("mlp_mse", lambda: weighted(t, prob.eval_pop(t, a.raw)), t,
        kind="wine")

    # --- each benchmark's node, 3 points in 4-D (drawn after the wine
    # check, so the points above stay put); no coordinate near 0 keeps
    # Ackley off its cone tip at the origin
    for name in benchmark_names():
        prob = make_problem(name, 4)
        t = Tape()
        a = t.param("x", _away_from(rng, (3, 4), -3, 3, avoid=(0.0,),
                                    margin=0.1))
        run(name, lambda t=t, a=a, prob=prob:
            weighted(t, prob.eval_pop(t, a.raw)), t, kind="problem")

    # --- the CMA-ES sample node, d = 3 and lambda = 4 (drawn last)
    t = Tape()
    mu = t.param("mu", _away_from(rng, (1, 3), -2, 2))
    s = t.param("log_sigma", _away_from(rng, (1, 1), -1, 1))
    L = t.param("L", _away_from(rng, (1, 6), -2, 2))
    z = rng.normal(3, 4)
    run("sample", lambda: weighted(t, cma_sample(t, mu.raw, s.raw, L.raw, z)),
        t, kind="cma")

    return results


def generation_checks(seed: int = 0, h: float = DEFAULT_H) -> list[CheckResult]:
    """Differentiate one full generation of each learnable algorithm.

    Small instances, frozen noise, fully soft relaxations (the
    straight-through hard paths are exercised elsewhere; finite differences
    need a smooth forward).
    """
    soft = DiffConfig(relax=RelaxConfig(tau=1.0, hard_masks=False,
                                        hard_selection=False))
    results = []

    def check(name, algo):
        noise = algo.draw_noise()
        errs = fd_check(lambda: algo.generation(noise=noise), algo.tape, h=h)
        results.append(CheckResult(f"generation:{name}", max(errs.values())))

    p = make_problem("sphere", 2, -5.0, 5.0)
    check("pso-diff", DiffPso(p, 2, Rng(seed + 1), cfg=soft))

    p = make_problem("sphere", 2, -5.0, 5.0)
    check("ga-diff", DiffGa(p, 3, Rng(seed + 2), cfg=soft))

    p = make_problem("sphere", 2, -5.0, 5.0)
    check("de-diff", DiffDe(p, 4, Rng(seed + 3), cfg=soft))

    p = make_problem("sphere", 3, -5.0, 5.0)
    check("cmaes-diff", DiffCmaes(p, 4, Rng(seed + 4), cfg=soft, sigma0=1.0))

    return results


def run_all(seed: int = 0, h: float = DEFAULT_H) -> list[CheckResult]:
    return op_checks(seed, h) + generation_checks(seed, h)
