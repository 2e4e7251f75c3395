"""Classical population algorithms: PSO, real-coded GA, DE and CMA-ES.

These are the plain, non-differentiable references. They share a calling
convention with the differentiable variants: construct with a problem, a
population size and an Rng, then call ``generation()`` repeatedly; each call
costs exactly ``pop_size`` evaluations. The initial population evaluation
(PSO/GA/DE) happens lazily on the first generation and is not part of that
per-generation count.

``generation(noise=...)`` accepts a dict produced by ``draw_noise()`` so
tests can freeze or share the stochastic draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtpqrt, dtpttr, dtrttp

from . import kernels
from .problems import Problem
from .relax import Rng


@dataclass(frozen=True)
class CmaConstants:
    """Strategy constants shared by the classical and learnable CMA-ES.

    Derived from the standard log-rank recombination weights over the top
    half of the population, the weights both variants recombine with.
    """

    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float


def cma_constants(dim: int, lam: int) -> CmaConstants:
    mu = lam // 2
    w = np.log((lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    weights = w / w.sum()
    me = float(1.0 / np.sum(weights**2))
    c_sigma = (me + 2.0) / (dim + me + 5.0)
    d_sigma = (
        1.0 + 2.0 * max(0.0, math.sqrt((me - 1.0) / (dim + 1.0)) - 1.0) + c_sigma
    )
    c_c = (4.0 + me / dim) / (dim + 4.0 + 2.0 * me / dim)
    c_1 = 2.0 / ((dim + 1.3) ** 2 + me)
    c_mu = min(1.0 - c_1, 2.0 * (me - 2.0 + 1.0 / me) / ((dim + 2.0) ** 2 + me))
    chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim * dim))
    return CmaConstants(mu, weights, me, c_sigma, d_sigma, c_c, c_1, c_mu, chi_n)


# A lower triangle packed row by row is, element for element, the upper
# triangle of its transpose packed column by column: LAPACK's packed
# layout with uplo 'U'. dtpttr and dtrttp then copy it exactly.
def unpack_lower(packed: np.ndarray, n: int) -> np.ndarray:
    """The C-contiguous (n, n) lower-triangular matrix of a packed row."""
    return dtpttr(n, packed.ravel(), uplo="U")[0].T


def pack_lower(L: np.ndarray) -> np.ndarray:
    """The (1, n(n+1)/2) row of the lower triangle of L, row by row."""
    return dtrttp(L.T, uplo="U")[0].reshape(1, -1)


# The smallest population of each family's classical and -diff variants,
# read by their constructors and by harness.ExperimentConfig: tournaments
# and Gumbel-Softmax picks need two members, DE's donor three others.
MIN_POP = {"ga": 2, "de": 4, "cmaes": 2}


def check_pop(algo: str, pop: int) -> None:
    """Raise ValueError when ``pop`` is below the smallest population of
    ``algo``, a classical name or its ``-diff`` variant (1 for the rest)."""
    need = MIN_POP.get(algo.removesuffix("-diff"), 1)
    if pop < need:
        raise ValueError(
            f"{algo} needs a population of at least {need}, got {pop}")


def tournament_select(fit: np.ndarray, rng: Rng, k: int) -> int:
    """Index of the tournament winner: k entrants drawn without replacement,
    lowest fitness wins, earlier entrant wins ties."""
    n = fit.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"tournament size {k} out of range for population {n}")
    order = rng.permutation(n)[:k]
    return int(order[np.argmin(fit[order])])


def _finite_factor(L: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(np.diag(L))):
        raise RuntimeError("covariance factor has a non-finite diagonal")
    return L


# no commit calls it: kept only because perfbench/spans.py looks it up by
# name here and in diffevo
def cholesky_with_jitter(C: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor with escalating diagonal jitter.

    Starts at 1e-12 * trace(C)/d and multiplies by 10 for up to 6 retries
    before giving up with a diagnostic error. A factor whose diagonal is not
    finite raises RuntimeError: the LAPACK Cholesky returns NaN rows for a
    NaN input instead of failing.
    """
    d = C.shape[0]
    try:
        return _finite_factor(np.linalg.cholesky(C))
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-12 * max(np.trace(C), 1e-300) / d
    eye = np.eye(d)
    for _ in range(6):
        try:
            return _finite_factor(np.linalg.cholesky(C + jitter * eye))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise RuntimeError(
        f"covariance factorization failed at jitter {jitter:.3e}; "
        "matrix is badly conditioned or not symmetric"
    )


class BoxPenalty:
    """The box rule shared by both CMA-ES variants: repair plus penalty
    (Hansen et al., IEEE TEC 13(1), 2009; Hansen, arXiv:1604.00772).

    A sample x is evaluated at its repair clip(x) but ranked and recombined
    by f(clip x) + sum_i gamma_i (x_i - clip(x)_i)^2, and the mean, the
    evolution paths and the covariance are updated from the unrepaired x.
    Clipped points alone would pull the mean onto the box faces and corners.

    gamma_i = boost_i * IQR(f) / (sigma^2 * mean(diag C)): a sample one
    standard deviation outside the box in one coordinate costs one
    interquartile range of the generation's fitness (nearest-rank quartiles
    of the lambda values). When that IQR is zero, as when every sample is
    repaired to the same point, the last positive IQR / (sigma^2
    mean(diag C)) is reused, and 1 before there is one, so the weight never
    vanishes. boost_i starts at 1 and grows by 1.1 in every generation that
    ends with the mean outside the box in coordinate i. The reference only
    grows it once the mean is more than about 3 sigma out; where the box
    face holds good values (Ackley's integer lattice), the mean rests a
    fraction of sigma outside and that threshold is never reached.
    """

    grow = 1.1

    def __init__(self, domain):
        self.domain = domain
        self.unit = 1.0
        self.boost = np.ones(domain.dim)

    def weights(self, sorted_fit: np.ndarray, sigma: float,
                mean_diag_c: float) -> np.ndarray:
        """gamma per coordinate, from the generation's fitness in ascending
        order."""
        n = sorted_fit.size
        iqr = sorted_fit[(3 * n - 1) // 4] - sorted_fit[(n - 1) // 4]
        unit = iqr / (sigma * sigma * mean_diag_c)
        if unit > 0.0 and math.isfinite(unit):
            self.unit = float(unit)
        return self.unit * self.boost

    def observe(self, mean: np.ndarray) -> None:
        """Grow the weights of the coordinates where the new mean is out."""
        dom = self.domain
        self.boost[(mean < dom.lower) | (mean > dom.upper)] *= self.grow


class CmaState:
    """The one CMA-ES update of both CMA-ES variants: evolution paths,
    cumulative step-size adaptation (at most a factor of e per generation,
    sigma floored above zero), the h_sigma stall gate and the rank-one plus
    rank-mu update of the Cholesky factor (Hansen, arXiv:1604.00772), and
    their one Gaussian sample, ``sample``. The caller holds the factor as
    its lower triangle packed row by row into a (1, d(d+1)/2) row.

    The new covariance is a L Lᵀ + U Uᵀ, with L the given factor, a > 0,
    and U holding the lambda + 1 rank-one and rank-mu columns. Its factor
    comes from a QR of [sqrt(a) Lᵀ; Uᵀ] (Igel, Suttorp & Hansen, GECCO
    2006), without forming C, at every lambda; the update raises
    RuntimeError when the factor is not finite. Both variants recombine
    with ``rank_weights`` and gate with the binary h_sigma, so at learning
    rate zero the differentiable variant is the classical one.
    """

    def __init__(self, domain, lam: int):
        self.k = cma_constants(domain.dim, lam)
        self.box = BoxPenalty(domain)
        self.mean_diag_c = 1.0          # mean(diag C) of the committed factor
        self.p_sigma = np.zeros(domain.dim)
        self.p_c = np.zeros(domain.dim)
        self.gen_count = 0

    @staticmethod
    def sample(mean, sigma: float, packed: np.ndarray, z: np.ndarray):
        """The draws X = mean + sigma (L z)ᵀ, C-contiguous (lambda, d), and
        M = L z (d, lambda), for normal draws z and a packed factor L."""
        M = unpack_lower(packed, z.shape[0]) @ z
        X = np.multiply(M.T, sigma, order="C")
        X += mean
        return X, M

    def rank_weights(self, sel_fit: np.ndarray) -> np.ndarray:
        """The log-rank weights on the mu lowest values of ``sel_fit`` (ties
        to the earlier draw) and zero on the rest."""
        w = np.zeros(sel_fit.shape[0])
        w[np.argsort(sel_fit, kind="stable")[: self.k.mu]] = self.k.weights
        return w

    def commit(self, X: np.ndarray, z: np.ndarray, w: np.ndarray,
               mu_prev: np.ndarray, sigma_prev: float, sigma: float,
               packed: np.ndarray):
        """Update from the unclipped draws X = mu_prev + sigma_prev (L z)ᵀ
        (lambda, d), their normal draws z (d, lambda) and recombination
        weights w over all lambda rows, applied to a step size sigma and a
        packed factor that may have moved since the draws. Returns the
        candidate mean w X, the new sigma and the new packed factor."""
        k = self.k
        d = X.shape[1]
        mu_cand = w @ X

        # the conjugate path uses the weighted raw draws directly, which
        # equals whitening the selection shift, but cannot be amplified by a
        # factor the gradient steps have made ill conditioned. mu_eff comes
        # from the realized weights (1 / sum w^2), which keeps the path
        # input at unit variance under random selection whatever the
        # weights are; the fixed log-rank constants only set the time scales
        dz = z @ w
        cs = k.c_sigma
        mu_eff_t = 1.0 / float(w @ w)
        self.p_sigma = (1.0 - cs) * self.p_sigma + math.sqrt(
            cs * (2.0 - cs) * mu_eff_t
        ) * dz

        self.gen_count += 1
        norm = float(np.linalg.norm(self.p_sigma))
        denom = math.sqrt(1.0 - (1.0 - cs) ** (2 * self.gen_count))
        thresh = (1.4 + 2.0 / (d + 1.0)) * k.chi_n
        h_sig = 1.0 if norm / denom < thresh else 0.0

        cc = k.c_c
        self.p_c = (1.0 - cc) * self.p_c + h_sig * math.sqrt(
            cc * (2.0 - cc) * mu_eff_t
        ) * ((mu_cand - mu_prev) / sigma_prev)

        # the R of a QR of [sqrt(a) Lᵀ; Uᵀ] has RᵀR = a L Lᵀ + U Uᵀ = C_new;
        # sqrt(a) scales the factor while it is still packed; the
        # Fortran-order upper triangle dtpttr unpacks is sqrt(a) Lᵀ
        Y = (X - mu_prev) / sigma_prev
        delta_h = (1.0 - h_sig) * cc * (2.0 - cc)
        a = 1.0 - k.c_1 - k.c_mu + k.c_1 * delta_h
        Ut = np.vstack([math.sqrt(k.c_1) * self.p_c,
                        np.sqrt(k.c_mu * w)[:, None] * Y])
        sLt = dtpttr(d, (math.sqrt(a) * packed).ravel(), uplo="U")[0]
        R, _, _, info = dtpqrt(0, min(32, d), sLt, Ut,
                               overwrite_a=1, overwrite_b=1)
        if info != 0:
            raise RuntimeError(f"covariance factor update failed: info {info}")
        # dtpqrt takes a NaN without failing
        L_new = _finite_factor(R.T * np.where(np.diag(R) < 0.0, -1.0, 1.0))
        self.mean_diag_c = float(np.vdot(L_new, L_new)) / d

        csa_log = min(1.0, max(-1.0, (cs / k.d_sigma) * (norm / k.chi_n - 1.0)))
        sigma_new = max(sigma * math.exp(csa_log), 1e-300)
        return mu_cand, sigma_new, pack_lower(L_new)


class ClassicPso:
    """Global-best particle swarm with inertia weight.

    v' = omega v + c1 r1 (pbest - x) + c2 r2 (gbest - x), then x' = x + v'.
    Velocities clamp to +-velocity_clamp times the box width per dimension;
    positions clamp to the box.
    """

    name = "pso"

    def __init__(self, problem: Problem, pop_size: int, rng: Rng,
                 omega: float = 0.7298, c1: float = 1.49618, c2: float = 1.49618,
                 velocity_clamp: float = 0.2, init=None):
        self.problem = problem
        self.pop_size = int(pop_size)
        self.rng = rng
        self.omega = float(omega)
        self.c1 = float(c1)
        self.c2 = float(c2)
        dom = problem.domain
        self.vmax = velocity_clamp * dom.width
        self.X = dom.clip(np.array(init, dtype=float)) if init is not None \
            else dom.sample(rng, self.pop_size)
        self.V = np.zeros_like(self.X)
        self._initialised = False
        self.pbest = None
        self.pfit = None
        self.best_x = None
        self.best_fitness = math.inf

    def _ensure_init(self):
        if self._initialised:
            return
        fit = self.problem.eval_array(self.X)
        self.pbest = self.X.copy()
        self.pfit = fit.copy()
        b = int(np.argmin(fit))
        self.best_x = self.X[b].copy()
        self.best_fitness = float(fit[b])
        self._initialised = True

    def draw_noise(self) -> dict:
        n, d = self.X.shape
        return {"r1": self.rng.uniform(n, d), "r2": self.rng.uniform(n, d)}

    def hyperparams(self) -> dict:
        return {"omega": self.omega, "c1": self.c1, "c2": self.c2}

    def generation(self, noise: dict = None) -> float:
        self._ensure_init()
        if noise is None:
            noise = self.draw_noise()
        dom = self.problem.domain
        self.X, self.V = kernels.pso_step(
            self.X, self.V, self.pbest, self.best_x,
            noise["r1"], noise["r2"], self.omega, self.c1, self.c2,
            self.vmax, dom.lower, dom.upper,
        )
        fit = self.problem.eval_array(self.X)
        better = fit < self.pfit
        self.pbest[better] = self.X[better]
        self.pfit[better] = fit[better]
        b = int(np.argmin(self.pfit))
        if self.pfit[b] < self.best_fitness:
            self.best_fitness = float(self.pfit[b])
            self.best_x = self.pbest[b].copy()
        return self.best_fitness


class ClassicGa:
    """Generational real-coded GA: tournament selection, SBX, polynomial
    mutation, single elite.

    Each generation builds pop_size offspring (one SBX child per offspring
    slot; the crossover gate fires per offspring) and the incumbent best
    replaces the worst offspring, so the best fitness never increases and
    each generation costs exactly pop_size evaluations.
    """

    name = "ga"

    def __init__(self, problem: Problem, pop_size: int, rng: Rng,
                 crossover_rate: float = 0.9, mutation_rate: float = None,
                 eta_c: float = 15.0, eta_m: float = 20.0,
                 k_tournament: int = 2, init=None):
        check_pop(self.name, pop_size)
        self.problem = problem
        self.pop_size = int(pop_size)
        self.rng = rng
        self.crossover_rate = float(crossover_rate)
        self.mutation_rate = (
            1.0 / problem.dim if mutation_rate is None else float(mutation_rate)
        )
        self.eta_c = float(eta_c)
        self.eta_m = float(eta_m)
        self.k_tournament = int(k_tournament)
        dom = problem.domain
        self.X = dom.clip(np.array(init, dtype=float)) if init is not None \
            else dom.sample(rng, self.pop_size)
        self.fit = None
        self.best_x = None
        self.best_fitness = math.inf
        self._initialised = False

    def _ensure_init(self):
        if self._initialised:
            return
        self.fit = self.problem.eval_array(self.X)
        b = int(np.argmin(self.fit))
        self.best_x = self.X[b].copy()
        self.best_fitness = float(self.fit[b])
        self._initialised = True

    def draw_noise(self) -> dict:
        self._ensure_init()
        n, d = self.X.shape
        parents = np.empty((n, 2), dtype=np.int64)
        for i in range(n):
            parents[i, 0] = tournament_select(self.fit, self.rng, self.k_tournament)
            parents[i, 1] = tournament_select(self.fit, self.rng, self.k_tournament)
        return {
            "parents": parents,
            "cx_gate": self.rng.uniform(n, 1).ravel(),
            "sbx_u": self.rng.uniform(n, d),
            "mut_gate": self.rng.uniform(n, d),
            "mut_u": self.rng.uniform(n, d),
        }

    def hyperparams(self) -> dict:
        return {
            "eta_c": self.eta_c,
            "eta_m": self.eta_m,
            "crossover_rate": self.crossover_rate,
            "mutation_rate": self.mutation_rate,
        }

    def generation(self, noise: dict = None) -> float:
        self._ensure_init()
        if noise is None:
            noise = self.draw_noise()
        dom = self.problem.domain
        p1 = self.X[noise["parents"][:, 0]]
        p2 = self.X[noise["parents"][:, 1]]
        crossed, _ = kernels.sbx_children(p1, p2, noise["sbx_u"], self.eta_c)
        gate = (noise["cx_gate"] < self.crossover_rate)[:, None]
        children = np.where(gate, crossed, p1)
        children = kernels.poly_mutation(
            children, noise["mut_u"], noise["mut_gate"] < self.mutation_rate,
            self.eta_m, dom.lower, dom.upper,
        )
        cfit = self.problem.eval_array(children)
        b = int(np.argmin(cfit))
        if cfit[b] < self.best_fitness:
            self.best_fitness = float(cfit[b])
            self.best_x = children[b].copy()
        else:
            w = int(np.argmax(cfit))
            children[w] = self.best_x
            cfit[w] = self.best_fitness
        self.X = children
        self.fit = cfit
        return self.best_fitness


class ClassicDe:
    """Differential evolution with binomial crossover and greedy replacement.

    Mutation variants: "rand1" (x_r1 + F (x_r2 - x_r3)) and "best1"
    (current-to-best/1: x_i + F (x_best - x_i) + F (x_r1 - x_r2)). Trials
    clamp to the box; a slot is replaced when the trial is no worse, so
    per-slot fitness never worsens. No extra elitism: greedy replacement
    already preserves the best.
    """

    name = "de"

    def __init__(self, problem: Problem, pop_size: int, rng: Rng,
                 f_scale: float = 0.5, cr: float = 0.9,
                 variant: str = "rand1", init=None):
        if variant not in ("rand1", "best1"):
            raise ValueError(f"unknown DE variant {variant!r}")
        check_pop(self.name, pop_size)
        self.problem = problem
        self.pop_size = int(pop_size)
        self.rng = rng
        self.f_scale = float(f_scale)
        self.cr = float(cr)
        self.variant = variant
        dom = problem.domain
        self.X = dom.clip(np.array(init, dtype=float)) if init is not None \
            else dom.sample(rng, self.pop_size)
        self.fit = None
        self.best_x = None
        self.best_fitness = math.inf
        self._initialised = False

    def _ensure_init(self):
        if self._initialised:
            return
        self.fit = self.problem.eval_array(self.X)
        b = int(np.argmin(self.fit))
        self.best_x = self.X[b].copy()
        self.best_fitness = float(self.fit[b])
        self._initialised = True

    def draw_noise(self) -> dict:
        n, d = self.X.shape
        k = 3 if self.variant == "rand1" else 2
        idx = np.empty((n, k), dtype=np.int64)
        for i in range(n):
            idx[i] = self.rng.distinct_indices(n, k, exclude=i)
        return {
            "idx": idx,
            "tau": self.rng.uniform(n, d),
            "jrand": self.rng.integers(0, d, size=n).astype(np.int64),
        }

    def hyperparams(self) -> dict:
        return {"f_scale": self.f_scale, "cr": self.cr}

    def generation(self, noise: dict = None) -> float:
        self._ensure_init()
        if noise is None:
            noise = self.draw_noise()
        dom = self.problem.domain
        idx = noise["idx"]
        F = self.f_scale
        if self.variant == "rand1":
            donors = self.X[idx[:, 0]] + F * (self.X[idx[:, 1]] - self.X[idx[:, 2]])
        else:
            donors = (
                self.X
                + F * (self.best_x[None, :] - self.X)
                + F * (self.X[idx[:, 0]] - self.X[idx[:, 1]])
            )
        trial = kernels.de_trial(
            self.X, donors, noise["tau"], noise["jrand"], self.cr,
            dom.lower, dom.upper,
        )
        tfit = self.problem.eval_array(trial)
        win = tfit <= self.fit
        self.X[win] = trial[win]
        self.fit[win] = tfit[win]
        b = int(np.argmin(self.fit))
        if self.fit[b] < self.best_fitness:
            self.best_fitness = float(self.fit[b])
            self.best_x = self.X[b].copy()
        return self.best_fitness


class ClassicCmaes:
    """CMA-ES with cumulative step-size adaptation and rank-one plus rank-mu
    covariance updates (``CmaState``), recombining the best half with the
    log-rank weights. The covariance is kept only as its packed lower
    Cholesky factor ``L``. The box is handled by ``BoxPenalty``: offspring
    are evaluated at their clipped points, ranked by that fitness plus the
    distance penalty, and the distribution is updated from the unclipped
    offspring. The best point reported is a clipped one with its
    unpenalised fitness.
    """

    name = "cmaes"

    def __init__(self, problem: Problem, pop_size: int = None, rng: Rng = None,
                 sigma0: float = None, mean0=None):
        self.problem = problem
        d = problem.dim
        self.pop_size = int(pop_size) if pop_size else 4 + int(3 * math.log(d))
        check_pop(self.name, self.pop_size)
        self.rng = rng
        dom = problem.domain
        self.mean = (
            np.array(mean0, dtype=float).ravel()
            if mean0 is not None else dom.sample(rng, 1)[0]
        )
        self.sigma = float(sigma0) if sigma0 else 0.3 * float(dom.width.max())
        self.L = pack_lower(np.eye(d))
        self.cma = CmaState(dom, self.pop_size)
        self.best_x = None
        self.best_fitness = math.inf

    def draw_noise(self) -> dict:
        return {"z": self.rng.normal(self.problem.dim, self.pop_size)}

    def hyperparams(self) -> dict:
        return {"sigma": self.sigma}

    def factor(self) -> np.ndarray:
        """The current factor L as a C-contiguous (d, d) lower-triangular
        matrix."""
        return unpack_lower(self.L, self.problem.dim)

    def generation(self, noise: dict = None) -> float:
        if noise is None:
            noise = self.draw_noise()
        cma = self.cma
        z = noise["z"]
        X, _ = cma.sample(self.mean, self.sigma, self.L, z)
        Xc = self.problem.domain.clip(X)
        fit = self.problem.eval_array(Xc)
        sel_fit = fit
        if np.any(X != Xc):
            gamma = cma.box.weights(np.sort(fit), self.sigma, cma.mean_diag_c)
            gap = X - Xc
            sel_fit = fit + (gap * gap * gamma).sum(axis=1)

        self.mean, self.sigma, self.L = cma.commit(
            X, z, cma.rank_weights(sel_fit), self.mean, self.sigma, self.sigma,
            self.L)
        cma.box.observe(self.mean)

        b = int(np.argmin(fit))
        if fit[b] < self.best_fitness:
            self.best_fitness = float(fit[b])
            self.best_x = Xc[b].copy()
        return self.best_fitness
