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

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classic import CmaState
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
    results: list[CheckResult] = []

    def check(name):
        # a stream per check, keyed by the seed and a stable hash of its
        # name, so adding, removing or reordering checks moves no other
        # check's points or weights; a weight matrix is drawn on first use
        # and frozen per shape, so the rebuilt loss is the same function of
        # the params on every FD evaluation
        rng = Rng((seed << 32) | zlib.crc32(name.encode()))
        frozen: dict[tuple, np.ndarray] = {}

        def weighted(tape, v):
            if v.shape not in frozen:
                frozen[v.shape] = rng.normal(*v.shape)
            return tape.sum(tape.mul(v, tape.constant(frozen[v.shape])))

        return rng, weighted

    def run(name, build, tape):
        errs = fd_check(build, tape, h=h)
        results.append(CheckResult(name, max(errs.values())))

    # --- binary elementwise, matched shapes and each broadcast
    for op in ("add", "sub", "mul"):
        for suffix, shape in (("", (2, 3)), (":scalar", (1, 1)),
                              (":row", (1, 3)), (":col", (2, 1))):
            name = f"op:{op}{suffix}"
            rng, weighted = check(name)
            t = Tape()
            a = t.param("a", _away_from(rng, (2, 3), -2, 2))
            b = t.param("b", _away_from(rng, shape, -2, 2))
            run(name, lambda t=t, a=a, b=b, op=op, weighted=weighted:
                weighted(t, getattr(t, op)(a.raw, b.raw)), t)

    rng, weighted = check("op:pow")
    t = Tape()
    a = t.param("a", _away_from(rng, (2, 3), 0.2, 2.0))
    b = t.param("b", _away_from(rng, (2, 3), -1.5, 1.5))
    run("op:pow", lambda: weighted(t, t.pow(a.raw, b.raw)), t)

    for name, lo, hi, c in (("op:powc", 0.3, 2.0, 1.7),
                            ("op:powc:int", -2, 2, 3.0)):
        rng, weighted = check(name)
        t = Tape()
        a = t.param("a", _away_from(rng, (2, 3), lo, hi))
        run(name, lambda t=t, a=a, c=c, weighted=weighted:
            weighted(t, t.powc(a.raw, c)), t)

    # --- unary elementwise
    for op, lo, hi in (("exp", -2, 2), ("sigmoid", -3, 3)):
        rng, weighted = check(f"op:{op}")
        t = Tape()
        a = t.param("a", _away_from(rng, (2, 3), lo, hi))
        run(f"op:{op}", lambda t=t, a=a, op=op, weighted=weighted:
            weighted(t, getattr(t, op)(a.raw)), t)

    # --- reductions
    for op in ("sum", "mean"):
        rng, _ = check(f"op:{op}")
        t = Tape()
        a = t.param("a", _away_from(rng, (3, 4), -2, 2))
        run(f"op:{op}", lambda t=t, a=a, op=op: getattr(t, op)(a.raw), t)

    rng, _ = check("op:min_with_index")
    t = Tape()
    vals = np.linspace(-2, 2, 12).reshape(3, 4)
    a = t.param("a", vals + 0.01 * rng.normal(3, 4))
    run("op:min_with_index", lambda: t.min_with_index(a.raw)[0], t)

    rng, weighted = check("op:row_sum")
    t = Tape()
    a = t.param("a", _away_from(rng, (3, 4), -2, 2))
    run("op:row_sum", lambda: weighted(t, t.row_sum(a.raw)), t)

    # --- linear algebra
    rng, weighted = check("op:matmul")
    t = Tape()
    a = t.param("a", _away_from(rng, (2, 3), -2, 2))
    b = t.param("b", _away_from(rng, (3, 2), -2, 2))
    run("op:matmul", lambda: weighted(t, t.matmul(a.raw, b.raw)), t)

    # --- clamp: entries pushed clear of the bounds on both sides
    rng, weighted = check("op:clamp")
    t = Tape()
    av = _away_from(rng, (3, 4), -2, 2, avoid=(-1.0, 1.0), margin=0.2)
    a = t.param("a", av)
    run("op:clamp", lambda: weighted(t, t.clamp(a.raw, -1.0, 1.0)), t)

    # --- straight-through: analytic grad of the ST graph vs FD of the soft
    rng, _ = check("op:straight_through")
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

    # --- the wine MLP loss node, k = 3 networks on 6 rows
    rng, weighted = check("wine:mlp_mse")
    spec = MlpSpec(n_in=3, n_hidden=4)
    prob = WineProblem(rng.normal(6, 3), rng.normal(6, 1), spec)
    t = Tape()
    a = t.param("a", _away_from(rng, (3, spec.n_params), -1, 1))
    run("wine:mlp_mse", lambda: weighted(t, prob.eval_pop(t, a.raw)), t)

    # --- each benchmark's node, 3 points in 4-D; no coordinate near 0
    # keeps Ackley off its cone tip at the origin
    for bench in benchmark_names():
        name = f"problem:{bench}"
        rng, weighted = check(name)
        prob = make_problem(bench, 4)
        t = Tape()
        a = t.param("x", _away_from(rng, (3, 4), -3, 3, avoid=(0.0,),
                                    margin=0.1))
        run(name, lambda t=t, a=a, prob=prob, weighted=weighted:
            weighted(t, prob.eval_pop(t, a.raw)), t)

    # --- the CMA-ES sample node, d = 3 and lambda = 4
    rng, weighted = check("cma:sample")
    t = Tape()
    mu = t.param("mu", _away_from(rng, (1, 3), -2, 2))
    s = t.param("log_sigma", _away_from(rng, (1, 1), -1, 1))
    L = t.param("L", _away_from(rng, (1, 6), -2, 2))
    z = rng.normal(3, 4)
    cma = CmaState(make_problem("sphere", 3).domain, 4)
    run("cma:sample",
        lambda: weighted(t, cma_sample(t, cma, mu.raw, s.raw, L.raw, z)), t)

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
