"""Differentiable variants of PSO, GA, DE and CMA-ES.

Each generation is recorded on the tape as one differentiable transformation
from the current state to a staged candidate population, with all randomness
reparameterized: Gaussian moves are location-scale transforms of constant
normal draws, Bernoulli gates are Binary-Concrete relaxations (optionally
straight-through hard), and parent selection is a Gumbel-Softmax mixture
over learnable logits. The generation loss (best or mean candidate fitness)
is therefore differentiable with respect to the algorithm's own
hyperparameters and the population itself.

The life cycle per generation is: ``generation()`` builds the graph and
stages candidates, the caller runs ``backward`` and an optimizer step, and
``update_state(optimizer)`` commits. The commit rule is uniform: a trainable
slot with a staged candidate becomes candidate value plus the optimizer's
displacement for that slot; slots without a candidate keep their stepped
values. With learning rate zero every displacement vanishes and the forward
pass reduces exactly to the classical algorithm.

Bookkeeping (personal/global bests, parent fitnesses, CMA evolution paths)
is refreshed from detached values of the evaluated candidates, never through
the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classic import (
    ClassicDe,
    ClassicGa,
    ClassicPso,
    CmaState,
    Population,
    pack_lower,
    unpack_lower,
)
# no commit calls it: kept only because perfbench/spans.py wraps
# diffevo.cholesky_with_jitter by name
from .classic import cholesky_with_jitter  # noqa: F401
from .problems import Problem
from .relax import RelaxConfig, Rng, gumbel_sigmoid, gumbel_softmax
from .tape import Tape, Var, _sigmoid


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def check_dim(algo: str, dim: int) -> None:
    """Raise ValueError when ``algo`` cannot run in ``dim`` dimensions:
    ga-diff starts its mutation logits at logit(1/d), infinite at d = 1."""
    if algo == "ga-diff" and dim < 2:
        raise ValueError(f"ga-diff needs at least 2 dimensions, got {dim}")


@dataclass
class DiffConfig:
    """Knobs shared by the four differentiable algorithms.

    ``loss`` picks the generation loss: "best" routes the gradient through
    the single best candidate, "mean" spreads it over the whole batch.
    ``relax`` carries the relaxation temperature and the soft/hard switches.
    ``elitism`` controls the explicit best-individual injection in GA and DE.
    """

    loss: str = "best"
    relax: RelaxConfig = None
    elitism: bool = True

    def __post_init__(self):
        if self.loss not in ("best", "mean"):
            raise ValueError(f"loss must be 'best' or 'mean', got {self.loss!r}")
        if self.relax is None:
            self.relax = RelaxConfig()


class DiffAlgorithm(Population):
    """Shared plumbing: tape and staging."""

    name = "diff"

    def __init__(self, problem: Problem, pop_size: int, rng: Rng,
                 cfg: DiffConfig = None):
        super().__init__(problem, pop_size, rng)
        self.cfg = cfg if cfg is not None else DiffConfig()
        self.tape = Tape()
        self._staged = None

    def _loss_from(self, fit: Var) -> Var:
        if self.cfg.loss == "mean":
            return self.tape.mean(fit)
        loss, _ = self.tape.min_with_index(fit)
        return loss

    def _delta(self, optimizer, name: str, like: np.ndarray) -> np.ndarray:
        if optimizer is None:
            return np.zeros_like(like)
        return optimizer.delta(name, like.shape)

    def current_best(self) -> float:
        """Best-so-far including the staged (not yet committed) candidates."""
        if self._staged is not None:
            staged = float(np.min(self._staged["fit"]))
            return min(self.best_fitness, staged)
        return self.best_fitness

    def _need_staged(self):
        if self._staged is None:
            raise RuntimeError("update_state called before generation")
        return self._staged


class DiffPso(DiffAlgorithm):
    """Particle swarm with per-particle learnable inertia and pull weights.

    omega, c1 and c2 live in R^N (one scalar per particle, starting at
    ``ClassicPso``'s constants) and the population itself is a trainable
    slot. The velocity buffer is plain state updated from detached values.
    """

    name = "pso-diff"

    def __init__(self, problem, pop_size, rng, cfg=None, init=None):
        super().__init__(problem, pop_size, rng, cfg)
        n, d = self.pop_size, problem.dim
        x0, self.pfit = self._first_population(init)
        self.pX = self.tape.param("X", x0)
        self.pbest = x0.copy()
        self.p_omega = self.tape.param("omega", np.full((n, 1), ClassicPso.omega))
        self.p_c1 = self.tape.param("c1", np.full((n, 1), ClassicPso.c1))
        self.p_c2 = self.tape.param("c2", np.full((n, 1), ClassicPso.c2))
        self.vmax = ClassicPso.velocity_clamp * problem.domain.width
        self.V = np.zeros((n, d))

    def draw_noise(self) -> dict:
        n, d = self.pop_size, self.problem.dim
        return {"r1": self.rng.uniform(n, d), "r2": self.rng.uniform(n, d)}

    def hyperparams(self) -> dict:
        return {
            "omega_mean": float(self.p_omega.raw.value.mean()),
            "c1_mean": float(self.p_c1.raw.value.mean()),
            "c2_mean": float(self.p_c2.raw.value.mean()),
        }

    def generation(self, noise: dict = None) -> Var:
        if noise is None:
            noise = self.draw_noise()
        t = self.tape
        dom = self.problem.domain
        X = self.pX.raw
        v_const = t.constant(self.V)
        r1 = t.constant(noise["r1"])
        r2 = t.constant(noise["r2"])
        pb = t.constant(self.pbest)
        gb = t.constant(self.best_x.reshape(1, -1))

        inertia = t.mul(v_const, self.p_omega.raw)
        # kernels.pso_step's product order: at lr 0 this is ClassicPso exactly
        cognitive = t.mul(t.mul(r1, self.p_c1.raw), t.sub(pb, X))
        social = t.mul(t.mul(r2, self.p_c2.raw), t.sub(gb, X))
        v_new = t.clamp(t.add(t.add(inertia, cognitive), social),
                        -self.vmax, self.vmax)
        x_new = t.clamp(t.add(X, v_new), dom.lower, dom.upper)
        fit = self.problem.eval_pop(t, x_new)
        self._staged = {
            "x_values": x_new.value.copy(),
            "v_values": v_new.value.copy(),
            "fit": fit.value.ravel().copy(),
        }
        return self._loss_from(fit)

    def update_state(self, optimizer=None) -> None:
        st = self._need_staged()
        dom = self.problem.domain
        committed = dom.clip(st["x_values"] + self._delta(optimizer, "X", st["x_values"]))
        self.pX.raw.value = committed
        self.V = st["v_values"]
        fit = st["fit"]
        better = fit < self.pfit
        self.pbest[better] = st["x_values"][better]
        self.pfit[better] = fit[better]
        self._track_best(st["x_values"], fit)
        self._staged = None


class DiffGa(DiffAlgorithm):
    """Real-coded GA with learnable operator parameters.

    Parent selection is a Gumbel-Softmax mixture over one (1, N) logit row
    (soft by default). The SBX spread exponent and the polynomial
    mutation exponent are learned through log-parameterizations, the
    per-offspring crossover gate through one logit, and the per-gene
    mutation gates through a logit vector in R^D. The crossover gate blends
    the SBX child with the first parent; mutation adds its offset through
    the (relaxed) gate mask. Each starts at ``ClassicGa``'s constants and
    its mutation rate 1/d.
    """

    name = "ga-diff"

    def __init__(self, problem, pop_size, rng, cfg=None, init=None):
        check_dim(self.name, problem.dim)
        super().__init__(problem, pop_size, rng, cfg)
        n, d = self.pop_size, problem.dim
        x0, self.fit = self._first_population(init)
        self.pX = self.tape.param("X", x0)
        self.p_log_eta_c = self.tape.param("log_eta_c",
                                           [[math.log(ClassicGa.eta_c)]])
        self.p_log_eta_m = self.tape.param("log_eta_m",
                                           [[math.log(ClassicGa.eta_m)]])
        self.p_cx_logit = self.tape.param(
            "cx_logit", [[_logit(ClassicGa.crossover_rate)]])
        self.p_mut_logits = self.tape.param(
            "mut_logits", np.full((1, d), _logit(1.0 / d))
        )
        self.p_sel_logits = self.tape.param("sel_logits", np.zeros((1, n)))

    def draw_noise(self) -> dict:
        n, d = self.pop_size, self.problem.dim
        return {
            "sel_u1": self.rng.uniform(n, n),
            "sel_u2": self.rng.uniform(n, n),
            "cx_u": self.rng.uniform(n, 1),
            "sbx_u": self.rng.uniform(n, d),
            "mut_gate_u": self.rng.uniform(n, d),
            "mut_u": self.rng.uniform(n, d),
        }

    def hyperparams(self) -> dict:
        return {
            "eta_c": float(np.exp(self.p_log_eta_c.raw.value[0, 0])),
            "eta_m": float(np.exp(self.p_log_eta_m.raw.value[0, 0])),
            "crossover_prob": float(_sigmoid(self.p_cx_logit.raw.value)[0, 0]),
            "mutation_prob_mean": float(
                _sigmoid(self.p_mut_logits.raw.value).mean()
            ),
        }

    def _two_branch(self, t: Tape, u: np.ndarray, lo_fn, hi_fn) -> Var:
        """Blend the u < 0.5 branch with the u >= 0.5 branch; the branch
        choice depends only on the constant draw, so it is gradient-safe."""
        lo_mask = t.constant((u < 0.5).astype(float))
        hi_mask = t.constant((u >= 0.5).astype(float))
        return t.add(t.mul(lo_mask, lo_fn()), t.mul(hi_mask, hi_fn()))

    def generation(self, noise: dict = None) -> Var:
        if noise is None:
            noise = self.draw_noise()
        t = self.tape
        rc = self.cfg.relax
        d = self.problem.dim
        dom = self.problem.domain
        X = self.pX.raw

        s1 = gumbel_softmax(t, self.p_sel_logits.raw, rc.tau,
                            u=noise["sel_u1"], hard=rc.hard_selection)
        s2 = gumbel_softmax(t, self.p_sel_logits.raw, rc.tau,
                            u=noise["sel_u2"], hard=rc.hard_selection)
        P1 = t.matmul(s1, X)
        P2 = t.matmul(s2, X)

        # SBX spread: beta = (2u)^(1/(eta_c+1)) below the split point,
        # (1/(2(1-u)))^(1/(eta_c+1)) above it
        eta_c = t.exp(self.p_log_eta_c.raw)
        e_c = t.powc(eta_c + 1.0, -1.0)
        u = noise["sbx_u"]
        beta = self._two_branch(
            t, u,
            lambda: t.pow(t.constant(2.0 * u), e_c),
            lambda: t.pow(t.constant(1.0 / (2.0 * (1.0 - u))), e_c),
        )
        child = t.mul(
            t.add(t.mul(beta + 1.0, P1), t.mul(1.0 - beta, P2)),
            t.constant([[0.5]]),
        )

        gate = gumbel_sigmoid(t, self.p_cx_logit.raw, rc.tau, u=noise["cx_u"],
                              hard=rc.hard_masks)
        crossed = t.add(t.mul(child, gate), t.mul(P1, 1.0 - gate))

        # polynomial mutation offset scaled by the box width, gated per gene
        eta_m = t.exp(self.p_log_eta_m.raw)
        e_m = t.powc(eta_m + 1.0, -1.0)
        um = noise["mut_u"]
        delta = self._two_branch(
            t, um,
            lambda: t.pow(t.constant(2.0 * um), e_m) - 1.0,
            lambda: 1.0 - t.pow(t.constant(2.0 * (1.0 - um)), e_m),
        )
        mask = gumbel_sigmoid(t, self.p_mut_logits.raw, rc.tau,
                              u=noise["mut_gate_u"], hard=rc.hard_masks)
        width = t.constant(dom.width.reshape(1, d))
        mutated = t.add(crossed, t.mul(t.mul(mask, delta), width))
        cand = t.clamp(mutated, dom.lower, dom.upper)

        fit = self.problem.eval_pop(t, cand)
        self._staged = {
            "x_values": cand.value.copy(),
            "fit": fit.value.ravel().copy(),
        }
        return self._loss_from(fit)

    def update_state(self, optimizer=None) -> None:
        st = self._need_staged()
        dom = self.problem.domain
        committed = dom.clip(st["x_values"] + self._delta(optimizer, "X", st["x_values"]))
        fit = st["fit"].copy()
        self._track_best(st["x_values"], st["fit"])
        if self.cfg.elitism and self.best_fitness < fit.min():
            w = int(np.argmax(fit))
            committed[w] = self.best_x
            fit[w] = self.best_fitness
        self.pX.raw.value = committed
        self.fit = fit
        self._staged = None


class DiffDe(DiffAlgorithm):
    """Differential evolution with learnable F, CR and parent logits.

    The scale factor is F = exp(phi); the crossover probability enters as a
    logit driving a Binary-Concrete mask with the usual forced coordinate;
    donors mix parents through Gumbel-Softmax rows (self-index excluded).
    Replacement keeps greedy semantics in the forward pass and routes the
    backward pass through the trial vectors (straight-through), and the
    incumbent best replaces the worst slot when elitism is on. F and CR
    start at ``ClassicDe``'s constants.
    """

    name = "de-diff"

    def __init__(self, problem, pop_size, rng, cfg=None,
                 variant: str = "rand1", init=None):
        if variant not in ("rand1", "best1"):
            raise ValueError(f"unknown DE variant {variant!r}")
        super().__init__(problem, pop_size, rng, cfg)
        x0, self.fit = self._first_population(init)
        self.pX = self.tape.param("X", x0)
        self.p_phi = self.tape.param("phi", [[math.log(ClassicDe.f_scale)]])
        self.p_cr_logit = self.tape.param("cr_logit", [[_logit(ClassicDe.cr)]])
        self.p_sel_logits = self.tape.param("sel_logits",
                                            np.zeros((1, self.pop_size)))
        self.variant = variant

    def draw_noise(self) -> dict:
        n, d = self.pop_size, self.problem.dim
        k = 3 if self.variant == "rand1" else 2
        out = {}
        for role in range(k):
            out[f"sel_u{role + 1}"] = self.rng.uniform(n, n)
        out["cross_u"] = self.rng.uniform(n, d)
        out["jrand"] = self.rng.integers(0, d, size=n).astype(np.int64)
        return out

    def hyperparams(self) -> dict:
        return {
            "f_scale": float(np.exp(self.p_phi.raw.value[0, 0])),
            "cr": float(_sigmoid(self.p_cr_logit.raw.value)[0, 0]),
        }

    def generation(self, noise: dict = None) -> Var:
        if noise is None:
            noise = self.draw_noise()
        t = self.tape
        rc = self.cfg.relax
        n, d = self.pop_size, self.problem.dim
        dom = self.problem.domain
        X = self.pX.raw
        x_prev = X.value.copy()

        forbid = np.eye(n, dtype=bool)

        def mix(u):
            s = gumbel_softmax(t, self.p_sel_logits.raw, rc.tau, u=u,
                               forbid=forbid, hard=rc.hard_selection)
            return t.matmul(s, X)

        F = t.exp(self.p_phi.raw)
        if self.variant == "rand1":
            x1, x2, x3 = mix(noise["sel_u1"]), mix(noise["sel_u2"]), mix(noise["sel_u3"])
            donor = t.add(x1, t.mul(t.sub(x2, x3), F))
        else:
            x1, x2 = mix(noise["sel_u1"]), mix(noise["sel_u2"])
            toward_best = t.sub(t.constant(self.best_x.reshape(1, d)), X)
            donor = t.add(X, t.add(t.mul(toward_best, F), t.mul(t.sub(x1, x2), F)))

        mask = gumbel_sigmoid(t, self.p_cr_logit.raw, rc.tau, u=noise["cross_u"],
                              hard=rc.hard_masks)
        J = np.zeros((n, d))
        J[np.arange(n), noise["jrand"]] = 1.0
        mask_full = t.add(t.mul(mask, t.constant(1.0 - J)), t.constant(J))
        trial = t.clamp(t.add(X, t.mul(mask_full, t.sub(donor, X))),
                        dom.lower, dom.upper)
        tfit = self.problem.eval_pop(t, trial)

        win = tfit.value.ravel() <= self.fit
        hard_rows = np.where(win[:, None], trial.value, x_prev)
        new_x = t.straight_through(t.constant(hard_rows), trial)

        self._staged = {
            "x_values": new_x.value.copy(),
            "trial_values": trial.value.copy(),
            "win": win,
            "fit": tfit.value.ravel().copy(),
        }
        return self._loss_from(tfit)

    def update_state(self, optimizer=None) -> None:
        st = self._need_staged()
        dom = self.problem.domain
        committed = dom.clip(st["x_values"] + self._delta(optimizer, "X", st["x_values"]))
        fit = np.where(st["win"], st["fit"], self.fit)
        self._track_best(st["trial_values"], st["fit"])
        if self.cfg.elitism:
            w = int(np.argmax(fit))
            committed[w] = self.best_x
            fit[w] = self.best_fitness
        self.pX.raw.value = committed
        self.fit = fit
        self._staged = None


def cma_sample(tape: Tape, cma: CmaState, mu: Var, log_sigma: Var,
               packed: Var, z: np.ndarray) -> Var:
    """``cma.sample`` as one tape node over the params mu, log sigma and
    packed L at constant normal draws z; its vjp, the chain rule of
    mu + (sigma M)ᵀ with M = L z, keeps M, z and sigma, not the dense L."""
    sigma = float(np.exp(log_sigma.value[0, 0]))
    X, M = cma.sample(mu.value, sigma, packed.value, z)

    def vjp(G):
        return (G.sum(axis=0, keepdims=True),
                np.array([[(G.T * M).sum()]]) * sigma,
                pack_lower((G.T * sigma) @ z.T))

    return tape._record("cma_sample", X, (mu, log_sigma, packed), vjp)


class DiffCmaes(DiffAlgorithm):
    """CMA-ES whose mean, log step size and Cholesky factor take gradient
    steps on top of the classical update.

    The factor slot ``"L"`` holds only the lower triangle of L, packed row
    by row into a (1, d(d+1)/2) row (``classic.pack_lower``), so Adam
    steps only the entries that can move; ``factor()`` unpacks it. The
    generation samples x_i = mu + sigma * L z_i, classical CMA-ES's own
    draw, as one tape node (``cma_sample``) and evaluates f at clamp(x_i).
    The box follows the rule of ``BoxPenalty``:
    selection and the loss see f(clamp x) + sum_j gamma_j (x_j - clamp(x)_j)^2,
    with gamma_j = boost_j * IQR(f) / (sigma^2 * mean(diag C)) held constant
    on the tape, so the loss differentiates with respect to mu, log(sigma)
    and the packed entries of L through the penalty wherever the clamp
    passes no gradient.
    After the optimizer has stepped those slots, ``CmaState.commit``
    applies the classical update to the stepped sigma and factor at
    detached values of the unclamped draws, with the log-rank weights over
    the penalized fitness and the binary h_sigma gate. Neither is on the
    tape, so the relaxation settings do not touch them, and at learning
    rate zero the run is classical CMA-ES. The mean commits as candidate
    plus its own displacement. The best point tracked is a clamped one
    with its unpenalised fitness.
    """

    name = "cmaes-diff"

    def __init__(self, problem, pop_size=None, rng=None, cfg=None,
                 sigma0: float = None, mean0=None):
        super().__init__(problem, CmaState.lam(problem.dim, pop_size), rng, cfg)
        self.cma = CmaState(problem.domain, self.pop_size)
        mean, sigma, packed = self.cma.start(rng, sigma0, mean0)
        self.p_mu = self.tape.param("mu", mean.reshape(1, -1))
        self.p_log_sigma = self.tape.param("log_sigma", [[math.log(sigma)]])
        self.p_L = self.tape.param("L", packed)

    def draw_noise(self) -> dict:
        return {"z": self.rng.normal(self.problem.dim, self.pop_size)}

    def hyperparams(self) -> dict:
        return {"sigma": float(np.exp(self.p_log_sigma.raw.value[0, 0]))}

    def factor(self) -> np.ndarray:
        """The current factor L as a C-contiguous (d, d) lower-triangular
        matrix."""
        return unpack_lower(self.p_L.raw.value, self.problem.dim)

    def generation(self, noise: dict = None) -> Var:
        if noise is None:
            noise = self.draw_noise()
        t = self.tape
        dom = self.problem.domain
        cma = self.cma

        z = noise["z"]
        sigma = float(np.exp(self.p_log_sigma.raw.value[0, 0]))
        Xs = cma_sample(t, cma, self.p_mu.raw, self.p_log_sigma.raw,
                        self.p_L.raw, z)
        Xc = t.clamp(Xs, dom.lower, dom.upper)
        fit = self.problem.eval_pop(t, Xc)
        f = fit.value.ravel().copy()

        sel = fit
        if np.any(Xs.value != Xc.value):
            gamma = cma.box.weights(np.sort(f), sigma, cma.mean_diag_c)
            gap = t.sub(Xs, Xc)
            pen = t.mul(t.mul(gap, gap), t.constant(gamma.reshape(1, -1)))
            sel = t.add(fit, t.row_sum(pen))

        self._staged = {
            "x_values": Xc.value.copy(),
            "x_raw": Xs.value.copy(),
            "fit": f,
            "sel_fit": sel.value.ravel().copy(),
            "z": z.copy(),
            "mu_prev": self.p_mu.raw.value.ravel().copy(),
            "sigma_prev": sigma,
        }
        return self._loss_from(sel)

    def update_state(self, optimizer=None) -> None:
        st = self._need_staged()
        cma = self.cma
        d = self.problem.dim
        mu_cand, sigma_new, packed = cma.commit(
            st["x_raw"], st["z"], cma.rank_weights(st["sel_fit"]),
            st["mu_prev"], st["sigma_prev"],
            float(np.exp(self.p_log_sigma.raw.value[0, 0])), self.p_L.raw.value)
        mu_new = mu_cand + self._delta(optimizer, "mu", mu_cand.reshape(1, d)).ravel()
        self.p_mu.raw.value = mu_new.reshape(1, d)
        cma.box.observe(mu_new)
        self.p_log_sigma.raw.value = np.array([[math.log(sigma_new)]])
        self.p_L.raw.value = packed

        self._track_best(st["x_values"], st["fit"])
        self._staged = None


ALGORITHMS = {
    "pso-diff": DiffPso,
    "ga-diff": DiffGa,
    "de-diff": DiffDe,
    "cmaes-diff": DiffCmaes,
}
