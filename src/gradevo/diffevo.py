"""Differentiable variants of PSO, GA, DE and CMA-ES.

Each generation is recorded on the tape as one differentiable transformation
from the current state to a staged candidate population, with all randomness
reparameterized: Gaussian moves are location-scale transforms of constant
normal draws, Bernoulli gates are Binary-Concrete relaxations (optionally
straight-through hard), and parent selection is a Gumbel-Softmax mixture
over learnable logits. The generation loss (best or mean candidate fitness)
is therefore differentiable with respect to the algorithm's own
hyperparameters and the population itself.

The life cycle per generation is: ``generation()`` builds the graph,
stages the candidates and writes each staged slot's candidate into the
slot's value (X for ``pso-diff`` and ``ga-diff``, the greedy survivors
for ``de-diff``, the recombined mean for ``cmaes-diff``); the caller runs
``backward``, drops the graph and steps the optimizer, and
``update_state()`` commits. Every vjp keeps the arrays it read at record
time, so the write does not move a gradient. The commit rule is uniform:
a trainable slot with a staged candidate becomes candidate plus the
optimizer's displacement, which the step itself adds, clipped to the box
for a population; slots without a candidate keep their stepped values.
With learning rate zero every displacement vanishes, and then:

* ``pso-diff`` and ``cmaes-diff`` are classical PSO and CMA-ES;
* ``de-diff`` with hard masks and hard selection is classical DE under
  shared noise, but from its own Gumbel rows two donor roles can pick the
  same parent, which classical DE never does;
* ``ga-diff`` is not classical GA yet: its parent selection ignores
  fitness, where ``ClassicGa`` runs a tournament.

Each variation step is one tape node with a hand-written vjp: the two
relaxed samplers of ``relax``, ``pso_move`` (inertia, both pulls and both
clamps), ``ga_variation`` (SBX, crossover-gate blend, gated polynomial
mutation, clamp), ``de_variation`` (rand1 or best1 donor, binomial mask
with the forced gene, clamp), ``cma_sample`` and ``box_penalty``, the
CMA-ES box penalty. A generation of ``pso-diff`` records 3 nodes beyond
its params, ``ga-diff`` 9, a rand1 ``de-diff`` 10 and ``cmaes-diff`` 5,
or 4 when no draw leaves the box.

Bookkeeping (personal/global bests, parent fitnesses, CMA evolution paths)
is refreshed from detached values of the evaluated candidates, never through
the graph.
"""

from __future__ import annotations

import math

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
from .relax import Rng, check_tau, gumbel_sigmoid, gumbel_softmax
from .tape import Tape, Var, _reduce_to, _sigmoid


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def check_dim(algo: str, dim: int) -> None:
    """Raise ValueError when ``algo`` cannot run in ``dim`` dimensions:
    ga-diff starts its mutation logits at logit(1/d), infinite at d = 1."""
    if algo == "ga-diff" and dim < 2:
        raise ValueError(f"ga-diff needs at least 2 dimensions, got {dim}")


class DiffAlgorithm(Population):
    """Shared plumbing: tape, staging and the generation loss.

    ``loss`` picks the generation loss: "best" routes the gradient through
    the single best candidate, "mean" spreads it over the whole batch.
    """

    name = "diff"

    def __init__(self, problem: Problem, pop_size: int, rng: Rng,
                 loss: str = "best"):
        if loss not in ("best", "mean"):
            raise ValueError(f"loss must be 'best' or 'mean', got {loss!r}")
        super().__init__(problem, pop_size, rng)
        self.loss = loss
        self.tape = Tape()
        self._staged = None

    def _loss_from(self, fit: Var) -> Var:
        if self.loss == "mean":
            return self.tape.mean(fit)
        loss, _ = self.tape.min_with_index(fit)
        return loss

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

    def __init__(self, problem, pop_size, rng, loss="best", init=None):
        super().__init__(problem, pop_size, rng, loss)
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
        x_new, v_new = pso_move(
            t, self.pX.raw, self.p_omega.raw, self.p_c1.raw, self.p_c2.raw,
            self.V, noise["r1"], noise["r2"], self.pbest,
            self.best_x.reshape(1, -1), self.vmax, self.problem.domain)
        fit = self.problem.eval_pop(t, x_new)
        self._staged = {
            "x_values": x_new.value.copy(),
            "v_values": v_new,
            "fit": fit.value.ravel().copy(),
        }
        self.pX.raw.value = self._staged["x_values"]
        return self._loss_from(fit)

    def update_state(self) -> None:
        st = self._need_staged()
        self.pX.raw.value = self.problem.domain.clip(self.pX.raw.value)
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
    its mutation rate 1/d. ``tau`` is the temperature of every relaxed
    draw, ``hard_masks`` makes both gates straight-through 0/1 and
    ``hard_selection`` the parent picks one-hot. As in ``ClassicGa``, the
    best point so far replaces the worst child when every child is worse.
    """

    name = "ga-diff"

    def __init__(self, problem, pop_size, rng, loss="best", tau=1.0,
                 hard_masks=True, hard_selection=False, init=None):
        check_dim(self.name, problem.dim)
        check_tau(tau)
        super().__init__(problem, pop_size, rng, loss)
        self.tau = tau
        self.hard_masks = hard_masks
        self.hard_selection = hard_selection
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

    def generation(self, noise: dict = None) -> Var:
        if noise is None:
            noise = self.draw_noise()
        t = self.tape
        X = self.pX.raw

        s1 = gumbel_softmax(t, self.p_sel_logits.raw, self.tau,
                            u=noise["sel_u1"], hard=self.hard_selection)
        s2 = gumbel_softmax(t, self.p_sel_logits.raw, self.tau,
                            u=noise["sel_u2"], hard=self.hard_selection)
        P1 = t.matmul(s1, X)
        P2 = t.matmul(s2, X)
        gate = gumbel_sigmoid(t, self.p_cx_logit.raw, self.tau,
                              u=noise["cx_u"], hard=self.hard_masks)
        mask = gumbel_sigmoid(t, self.p_mut_logits.raw, self.tau,
                              u=noise["mut_gate_u"], hard=self.hard_masks)
        cand = ga_variation(t, P1, P2, self.p_log_eta_c.raw,
                            self.p_log_eta_m.raw, gate, mask, noise["sbx_u"],
                            noise["mut_u"], self.problem.domain)

        fit = self.problem.eval_pop(t, cand)
        self._staged = {
            "x_values": cand.value.copy(),
            "fit": fit.value.ravel().copy(),
        }
        self.pX.raw.value = self._staged["x_values"]
        return self._loss_from(fit)

    def update_state(self) -> None:
        st = self._need_staged()
        committed = self.problem.domain.clip(self.pX.raw.value)
        fit = st["fit"].copy()
        self._track_best(st["x_values"], st["fit"])
        if self.best_fitness < fit.min():
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
    ``tau``, ``hard_masks`` and ``hard_selection`` set the relaxed draws as
    in ``DiffGa``. Replacement is greedy and off the tape: the loss reaches
    the population through the trial vectors only. As in ``ClassicDe``,
    the one-to-one replacement alone keeps the best point. F and CR start
    at ``ClassicDe``'s constants.
    """

    name = "de-diff"

    def __init__(self, problem, pop_size, rng, loss="best", tau=1.0,
                 hard_masks=True, hard_selection=False, variant="rand1",
                 init=None):
        if variant not in ("rand1", "best1"):
            raise ValueError(f"unknown DE variant {variant!r}")
        check_tau(tau)
        super().__init__(problem, pop_size, rng, loss)
        self.tau = tau
        self.hard_masks = hard_masks
        self.hard_selection = hard_selection
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
        X = self.pX.raw

        forbid = np.eye(self.pop_size, dtype=bool)
        roles = 3 if self.variant == "rand1" else 2
        donors = [t.matmul(gumbel_softmax(t, self.p_sel_logits.raw, self.tau,
                                          u=noise[f"sel_u{r + 1}"],
                                          forbid=forbid,
                                          hard=self.hard_selection), X)
                  for r in range(roles)]
        mask = gumbel_sigmoid(t, self.p_cr_logit.raw, self.tau,
                              u=noise["cross_u"], hard=self.hard_masks)
        best = self.best_x if self.variant == "best1" else None
        trial = de_variation(t, X, donors, self.p_phi.raw, mask, noise["jrand"],
                             self.problem.domain, best)
        tfit = self.problem.eval_pop(t, trial)

        win = tfit.value.ravel() <= self.fit
        self._staged = {
            "trial_values": trial.value.copy(),
            "win": win,
            "fit": tfit.value.ravel().copy(),
        }
        self.pX.raw.value = np.where(win[:, None], trial.value, X.value)
        return self._loss_from(tfit)

    def update_state(self) -> None:
        st = self._need_staged()
        self._track_best(st["trial_values"], st["fit"])
        self.pX.raw.value = self.problem.domain.clip(self.pX.raw.value)
        self.fit = np.where(st["win"], st["fit"], self.fit)
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


def box_penalty(tape: Tape, cma: CmaState, X: Var, Xc: Var, fit: Var,
                sigma: float) -> Var:
    """``BoxPenalty.penalize`` as one tape node over the draws X, their
    clamp Xc and its fitness column, with gamma held constant; ``fit``
    itself when every draw is inside the box. Its vjp sums each term as
    the chain of small tape ops it replaces did, so the gradients are
    bitwise that chain's."""
    sel, gap, gamma = cma.box.penalize(X.value, Xc.value, fit.value.ravel(),
                                       sigma, cma.mean_diag_c)
    if gap is None:
        return fit

    def vjp(g):
        g2 = g * gamma
        g_gap = g2 * gap + g2 * gap
        return g_gap, -g_gap, g

    return tape._record("box_penalty", sel.reshape(-1, 1), (X, Xc, fit), vjp)


def _clamp(value: np.ndarray, domain):
    # tape.clamp's value and its inside mask, at the domain's bounds
    return (np.clip(value, domain.lower, domain.upper),
            (value > domain.lower) & (value < domain.upper))


def pso_move(tape: Tape, X: Var, omega: Var, c1: Var, c2: Var,
             V: np.ndarray, r1: np.ndarray, r2: np.ndarray,
             pbest: np.ndarray, gbest: np.ndarray, vmax: np.ndarray,
             domain) -> tuple[Var, np.ndarray]:
    """The PSO move as one tape node over X and the per-particle omega, c1
    and c2: v = clamp(omega V + c1 r1 (pbest - X) + c2 r2 (gbest - X),
    ±vmax), x = clamp(X + v) to the box, in ``kernels.pso_step``'s product
    order. Returns x's node and the new velocity.

    Forward and vjp evaluate the expressions of the chain of small tape
    ops this node replaces, in its order, and sum each gradient's terms in
    the order the tape's reverse walk added them, so both are bitwise that
    chain's. ``ga_variation`` and ``de_variation`` keep the same rule.
    """
    xv = X.value
    inertia = V * omega.value
    pull1 = r1 * c1.value
    to_pbest = pbest - xv
    pull2 = r2 * c2.value
    to_gbest = gbest - xv
    moved = inertia + pull1 * to_pbest + pull2 * to_gbest
    v_new = np.clip(moved, -vmax, vmax)
    v_inside = (moved > -vmax) & (moved < vmax)
    x_new, x_inside = _clamp(xv + v_new, domain)

    def vjp(g):
        g_x = g * x_inside
        g_v = g_x * v_inside
        g_pull2 = g_v * to_gbest
        g_pull1 = g_v * to_pbest
        return ((g_x + -(g_v * pull2)) + -(g_v * pull1),
                _reduce_to(g_v * V, omega.shape),
                _reduce_to(g_pull1 * r1, c1.shape),
                _reduce_to(g_pull2 * r2, c2.shape))

    return tape._record("pso_move", x_new, (X, omega, c1, c2), vjp), v_new


def _pow_grad(g, out, base):
    # d/de of out = base**e, summed to the scalar exponent; zero at base 0
    log = np.log(base, out=np.zeros(base.shape), where=base > 0.0)
    return _reduce_to(g * out * log, (1, 1))


def ga_variation(tape: Tape, P1: Var, P2: Var, log_eta_c: Var,
                 log_eta_m: Var, gate: Var, mask: Var, sbx_u: np.ndarray,
                 mut_u: np.ndarray, domain) -> Var:
    """GA variation as one tape node: the SBX child of the parent rows P1
    and P2 with spread exponent 1 / (exp(log_eta_c) + 1), blended with P1
    by the (n, 1) crossover gate, plus the polynomial mutation offset with
    exponent 1 / (exp(log_eta_m) + 1) times the box width through the
    (n, d) gene mask, clamped to the box. Each of the two spreads takes
    its u < 0.5 branch or its other one by the constant draw, so the
    choice passes no gradient."""
    p1, p2, gv, mv = P1.value, P2.value, gate.value, mask.value
    eta_c = np.exp(log_eta_c.value)
    eta_c1 = eta_c + 1.0
    e_c = np.power(eta_c1, -1.0)
    lo_c = (sbx_u < 0.5).astype(float)
    hi_c = (sbx_u >= 0.5).astype(float)
    base_lo_c = 2.0 * sbx_u
    base_hi_c = 1.0 / (2.0 * (1.0 - sbx_u))
    beta_lo = np.power(base_lo_c, e_c)
    beta_hi = np.power(base_hi_c, e_c)
    beta = lo_c * beta_lo + hi_c * beta_hi
    beta_p = beta + 1.0
    beta_m = 1.0 - beta
    child = (beta_p * p1 + beta_m * p2) * 0.5
    keep = 1.0 - gv
    crossed = child * gv + p1 * keep

    eta_m = np.exp(log_eta_m.value)
    eta_m1 = eta_m + 1.0
    e_m = np.power(eta_m1, -1.0)
    lo_m = (mut_u < 0.5).astype(float)
    hi_m = (mut_u >= 0.5).astype(float)
    base_lo_m = 2.0 * mut_u
    base_hi_m = 2.0 * (1.0 - mut_u)
    delta_lo = np.power(base_lo_m, e_m)
    delta_hi = np.power(base_hi_m, e_m)
    delta = lo_m * (delta_lo - 1.0) + hi_m * (1.0 - delta_hi)
    width = domain.width.reshape(1, -1)
    cand, inside = _clamp(crossed + mv * delta * width, domain)

    def vjp(g):
        g_mut = g * inside
        g_step = g_mut * width
        g_delta = g_step * mv
        g_e_m = (_pow_grad(-(g_delta * hi_m), delta_hi, base_hi_m)
                 + _pow_grad(g_delta * lo_m, delta_lo, base_lo_m))
        g_child = g_mut * gv
        g_gate = (-_reduce_to(g_mut * p1, keep.shape)
                  + _reduce_to(g_mut * child, gv.shape))
        g_sum = g_child * 0.5
        g_beta = -(g_sum * p2) + g_sum * p1
        g_e_c = (_pow_grad(g_beta * hi_c, beta_hi, base_hi_c)
                 + _pow_grad(g_beta * lo_c, beta_lo, base_lo_c))
        return (g_mut * keep + g_sum * beta_p,
                g_sum * beta_m,
                g_e_c * -1.0 * np.power(eta_c1, -2.0) * eta_c,
                g_e_m * -1.0 * np.power(eta_m1, -2.0) * eta_m,
                g_gate,
                _reduce_to(g_step * delta, mv.shape))

    return tape._record("ga_variation", cand,
                        (P1, P2, log_eta_c, log_eta_m, gate, mask), vjp)


def de_variation(tape: Tape, X: Var, donors: list, phi: Var, mask: Var,
                 jrand: np.ndarray, domain, best: np.ndarray = None) -> Var:
    """DE variation as one tape node: the donor with scale F = exp(phi),
    rand1 x1 + F (x2 - x3) from three donor rows, or with ``best`` best1
    X + F (best - X) + F (x1 - x2) from two; the binomial crossover of
    X toward it through the (n, d) mask, with gene ``jrand[i]`` of row i
    forced to the donor's; the box clamp."""
    xv = X.value
    F = np.exp(phi.value)
    J = np.zeros(xv.shape)
    J[np.arange(xv.shape[0]), jrand] = 1.0
    free = 1.0 - J
    if best is None:
        x1, x2, x3 = (v.value for v in donors)
        spread = x2 - x3
        donor = x1 + spread * F
    else:
        x1, x2 = (v.value for v in donors)
        to_best = best.reshape(1, -1) - xv
        spread = x1 - x2
        donor = xv + (to_best * F + spread * F)
    take = mask.value * free + J
    to_donor = donor - xv
    trial, inside = _clamp(xv + take * to_donor, domain)

    def vjp(g):
        g_pre = g * inside
        g_donor = g_pre * take
        g_mask = _reduce_to(g_pre * to_donor * free, mask.shape)
        g_spread = g_donor * F
        g_F = _reduce_to(g_donor * spread, (1, 1))
        g_X = g_pre + -g_donor
        if best is None:
            return (g_X, g_donor, g_spread, -g_spread, g_F * F, g_mask)
        g_F = g_F + _reduce_to(g_donor * to_best, (1, 1))
        return ((g_X + g_donor) + -g_spread, g_spread, -g_spread, g_F * F,
                g_mask)

    return tape._record("de_variation", trial, (X, *donors, phi, mask), vjp)


class DiffCmaes(DiffAlgorithm):
    """CMA-ES whose mean, log step size and Cholesky factor take gradient
    steps on top of the classical update.

    The factor slot ``"L"`` holds only the lower triangle of L, packed row
    by row into a (1, d(d+1)/2) row (``classic.pack_lower``), so Adam
    steps only the entries that can move; ``factor()`` unpacks it. The
    generation samples x_i = mu + sigma * L z_i, classical CMA-ES's own
    draw, as one tape node (``cma_sample``) and evaluates f at clamp(x_i).
    The box follows the rule of ``BoxPenalty``, recorded as one node
    (``box_penalty``): selection and the loss see
    f(clamp x) + sum_j gamma_j (x_j - clamp(x)_j)^2, with
    gamma_j = boost_j * IQR(f) / (sigma^2 * mean(diag C)) held constant
    on the tape, so the loss differentiates with respect to mu, log(sigma)
    and the packed entries of L through the penalty wherever the clamp
    passes no gradient.
    The generation computes the log-rank weights over the penalized
    fitness once, stages them and writes the recombined mean w X into the
    mean slot, so the optimizer steps the candidate mean. After the
    optimizer has stepped the three slots, ``CmaState.commit`` applies the
    classical update to the stepped sigma and factor at detached values of
    the unclamped draws, with the staged weights and the binary h_sigma
    gate; the mean keeps its step. Neither is on the tape, so at learning
    rate zero the run is classical CMA-ES. The best point tracked is a
    clamped one with its unpenalised fitness.
    """

    name = "cmaes-diff"

    def __init__(self, problem, pop_size=None, rng=None, loss="best",
                 sigma0: float = None, mean0=None):
        super().__init__(problem, CmaState.lam(problem.dim, pop_size), rng,
                         loss)
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
        sel = box_penalty(t, cma, Xs, Xc, fit, sigma)

        x_raw = Xs.value.copy()
        w = cma.rank_weights(sel.value.ravel())
        self._staged = {
            "x_values": Xc.value.copy(),
            "x_raw": x_raw,
            "fit": f,
            "w": w,
            "sel_fit": sel.value.ravel().copy(),
            "z": z.copy(),
            "mu_prev": self.p_mu.raw.value.ravel().copy(),
            "sigma_prev": sigma,
        }
        self.p_mu.raw.value = (w @ x_raw).reshape(1, -1)
        return self._loss_from(sel)

    def update_state(self) -> None:
        st = self._need_staged()
        cma = self.cma
        _, sigma_new, packed = cma.commit(
            st["x_raw"], st["z"], st["w"], st["mu_prev"], st["sigma_prev"],
            float(np.exp(self.p_log_sigma.raw.value[0, 0])), self.p_L.raw.value)
        cma.box.observe(self.p_mu.raw.value.ravel())
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
