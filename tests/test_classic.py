"""Classical algorithms: frozen operator oracles and behavioural invariants."""

import math

import numpy as np
import pytest

from gradevo import kernels
from gradevo.classic import (
    ClassicCmaes,
    ClassicDe,
    ClassicGa,
    ClassicPso,
    cholesky_with_jitter,
    cma_constants,
    tournament_select,
)
from gradevo.problems import make_problem
from gradevo.relax import Rng


# --- operator oracles -------------------------------------------------------

def test_sbx_frozen_oracle():
    # u = 0.25, eta = 15: beta = 0.5^(1/16) = 0.9576032806985737
    # children of (0, 1): (1-beta)/2 and (1+beta)/2
    p1 = np.array([[0.0]])
    p2 = np.array([[1.0]])
    u = np.array([[0.25]])
    c1, c2 = kernels.sbx_children(p1, p2, u, 15.0)
    np.testing.assert_allclose(c1[0, 0], 0.02119835965071315, atol=1e-5)
    np.testing.assert_allclose(c2[0, 0], 0.9788016403492869, atol=1e-5)


def test_sbx_identity_at_half():
    # u = 0.5 gives beta = 1: children equal parents
    p1 = np.array([[3.0, -2.0]])
    p2 = np.array([[7.0, 4.0]])
    u = np.full((1, 2), 0.5)
    c1, c2 = kernels.sbx_children(p1, p2, u, 15.0)
    np.testing.assert_allclose(c1, p1, atol=1e-12)
    np.testing.assert_allclose(c2, p2, atol=1e-12)


def test_sbx_preserves_parent_mean():
    rng = np.random.default_rng(0)
    p1 = rng.normal(size=(6, 4))
    p2 = rng.normal(size=(6, 4))
    u = rng.random((6, 4))
    c1, c2 = kernels.sbx_children(p1, p2, u, 15.0)
    np.testing.assert_allclose(c1 + c2, p1 + p2, atol=1e-12)


def test_polynomial_mutation_frozen_oracle():
    # u = 0.1, eta = 20, box [-100, 100]:
    # delta = 0.2^(1/21) - 1 = -0.07377667396743226, offset = delta * 200
    x = np.zeros((1, 1))
    u = np.array([[0.1]])
    gate = np.array([[True]])
    lo, hi = np.array([-100.0]), np.array([100.0])
    out = kernels.poly_mutation(x, u, gate, 20.0, lo, hi)
    np.testing.assert_allclose(out[0, 0], -14.755334793486451, atol=1e-5)
    # mirrored draw walks the same distance up
    out_hi = kernels.poly_mutation(x, np.array([[0.9]]), gate, 20.0, lo, hi)
    np.testing.assert_allclose(out_hi[0, 0], 14.755334793486451, atol=1e-5)


def test_polynomial_mutation_identity_cases():
    x = np.array([[5.0, -3.0]])
    lo, hi = np.array([-100.0, -100.0]), np.array([100.0, 100.0])
    # u = 0.5 gives delta = 0; a closed gate leaves the value alone
    same = kernels.poly_mutation(x, np.full((1, 2), 0.5), np.ones((1, 2), bool),
                                 20.0, lo, hi)
    np.testing.assert_allclose(same, x, atol=1e-12)
    gated = kernels.poly_mutation(x, np.full((1, 2), 0.01), np.zeros((1, 2), bool),
                                  20.0, lo, hi)
    np.testing.assert_array_equal(gated, x)


def test_polynomial_mutation_respects_box():
    x = np.full((1, 1), 99.0)
    out = kernels.poly_mutation(x, np.array([[0.999]]), np.array([[True]]),
                                20.0, np.array([-100.0]), np.array([100.0]))
    assert out[0, 0] <= 100.0


def test_de_trial_jrand_coordinate_always_from_donor():
    n, d = 6, 5
    rng = np.random.default_rng(2)
    X = rng.normal(size=(n, d))
    donors = X + 1.0
    tau = np.ones((n, d))  # cr = 0 would keep every parent coordinate
    jrand = rng.integers(0, d, size=n).astype(np.int64)
    lo, hi = np.full(d, -100.0), np.full(d, 100.0)
    trial = kernels.de_trial(X, donors, tau, jrand, 0.0, lo, hi)
    np.testing.assert_allclose(trial[np.arange(n), jrand], donors[np.arange(n), jrand])
    off = trial.copy()
    off[np.arange(n), jrand] = X[np.arange(n), jrand]
    np.testing.assert_allclose(off, X)


def test_tournament_full_size_returns_best():
    fit = np.array([4.0, 1.0, 3.0, 2.0])
    for seed in range(10):
        assert tournament_select(fit, Rng(seed), k=4) == 1


def test_tournament_k1_is_uniform():
    fit = np.array([4.0, 1.0, 3.0, 2.0])
    r = Rng(0)
    picks = np.array([tournament_select(fit, r, k=1) for _ in range(8000)])
    counts = np.bincount(picks, minlength=4)
    se = math.sqrt(0.25 * 0.75 * 8000)
    for c in counts:
        assert abs(c - 2000) < 3 * se


def test_tournament_k2_prefers_better_half():
    # with k=2 the best individual wins every tournament it enters:
    # P(pick best of n=2... ) for n=4: P = 1 - (3/4 choose pairs without best)
    fit = np.array([1.0, 2.0, 3.0, 4.0])
    r = Rng(1)
    picks = np.array([tournament_select(fit, r, k=2) for _ in range(12000)])
    counts = np.bincount(picks, minlength=4) / 12000
    # exact probabilities for k=2 of n=4: rank r wins iff both entrants rank >= r
    # P(best) = 1 - (3/4)(2/3)... direct: P(i) = 2 * (n - 1 - rank_i) / (n (n-1)) + 1/n * 0
    # enumerate: pairs (i, j), winner = lower fitness; P(0) = 3/6, P(1) = 2/6, P(2) = 1/6
    expect = np.array([3 / 6, 2 / 6, 1 / 6, 0.0])
    assert np.all(np.abs(counts - expect) < 0.02)
    assert tournament_select(fit, Rng(0), k=4) == 0
    with pytest.raises(ValueError):
        tournament_select(fit, Rng(0), k=5)


def test_cholesky_with_jitter_recovers_and_reports():
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    L = cholesky_with_jitter(A)
    np.testing.assert_allclose(L @ L.T, A, atol=1e-12)
    # singular matrix: jitter repairs it
    S = np.array([[1.0, 1.0], [1.0, 1.0]])
    L2 = cholesky_with_jitter(S)
    assert np.all(np.isfinite(L2))
    with pytest.raises(RuntimeError, match="factorization failed"):
        cholesky_with_jitter(np.array([[0.0, 5.0], [5.0, 0.0]]))


def test_cma_constants_shapes_and_ranges():
    k = cma_constants(10, 20)
    assert k.mu == 10
    np.testing.assert_allclose(k.weights.sum(), 1.0, rtol=1e-12)
    assert np.all(np.diff(k.weights) < 0)  # strictly decreasing
    assert 1.0 < k.mu_eff <= k.mu
    for c in (k.c_sigma, k.c_c, k.c_1, k.c_mu):
        assert 0.0 < c < 1.0
    assert k.d_sigma >= 1.0
    # chi_n approximates E|N(0,I_10)| = sqrt(10) (1 - 1/40 + 1/2100)
    np.testing.assert_allclose(k.chi_n, math.sqrt(10) * (1 - 1 / 40 + 1 / 2100),
                               rtol=1e-12)


# --- behavioural invariants --------------------------------------------------

def test_pso_best_never_worsens():
    prob = make_problem("ackley", 6)
    algo = ClassicPso(prob, pop_size=12, rng=Rng(0))
    prev = math.inf
    for _ in range(40):
        best = algo.generation()
        assert best <= prev + 1e-15
        prev = best


def test_pso_positions_and_velocities_bounded():
    prob = make_problem("sphere", 4)
    algo = ClassicPso(prob, pop_size=8, rng=Rng(3))
    for _ in range(25):
        algo.generation()
        assert prob.domain.contains(algo.X)
        assert np.all(np.abs(algo.V) <= algo.vmax + 1e-12)


def test_ga_best_never_worsens_and_elite_present():
    prob = make_problem("griewank", 5)
    algo = ClassicGa(prob, pop_size=16, rng=Rng(1))
    prev = math.inf
    for _ in range(40):
        best = algo.generation()
        assert best <= prev + 1e-15
        prev = best
        # the elite individual sits somewhere in the population
        gap = np.abs(algo.X - algo.best_x).sum(axis=1).min()
        assert gap == 0.0


def test_de_per_slot_fitness_never_worsens():
    prob = make_problem("rosenbrock", 5)
    algo = ClassicDe(prob, pop_size=10, rng=Rng(2))
    algo._ensure_init()
    prev = algo.fit.copy()
    for _ in range(100):
        algo.generation()
        assert np.all(algo.fit <= prev + 1e-15)
        prev = algo.fit.copy()


def test_de_identity_when_f0_cr1_rand1_collapses_donors():
    # F = 0 makes every donor a population member; with greedy replacement
    # fitness still never worsens and the trial equals x_r1 exactly
    prob = make_problem("sphere", 3)
    algo = ClassicDe(prob, pop_size=6, rng=Rng(4), f_scale=0.0, cr=1.0)
    algo._ensure_init()
    X_before = algo.X.copy()
    noise = algo.draw_noise()
    algo.generation(noise)
    donors = X_before[noise["idx"][:, 0]]
    # every accepted slot must equal its donor row
    win = prob.eval_array(donors) <= prob.eval_array(X_before)
    prob.reset_evals()
    np.testing.assert_allclose(algo.X[win], donors[win], atol=1e-12)


def test_de_variant_validation():
    prob = make_problem("sphere", 3)
    with pytest.raises(ValueError):
        ClassicDe(prob, pop_size=6, rng=Rng(0), variant="rand2")
    with pytest.raises(ValueError):
        ClassicDe(prob, pop_size=3, rng=Rng(0))


def test_cmaes_zero_noise_keeps_mean():
    prob = make_problem("sphere", 4)
    algo = ClassicCmaes(prob, pop_size=8, rng=Rng(5))
    mean_before = algo.mean.copy()
    noise = {"z": np.zeros((4, 8))}
    algo.generation(noise)
    # all samples collapse onto the mean, so recombination returns it
    np.testing.assert_allclose(algo.mean, mean_before, atol=1e-12)


def test_cmaes_invariants_over_generations():
    prob = make_problem("ackley", 5)
    algo = ClassicCmaes(prob, pop_size=12, rng=Rng(6))
    prev = math.inf
    for _ in range(30):
        best = algo.generation()
        assert best <= prev + 1e-15
        prev = best
        np.testing.assert_allclose(algo.C, algo.C.T, atol=1e-10)
        assert np.all(np.linalg.eigvalsh(algo.C) > 0)
        assert algo.sigma > 0


def test_cmaes_converges_on_sphere():
    # the acceptance-gate bar: 1e-8 on the 10-D sphere within 10k evals
    prob = make_problem("sphere", 10)
    algo = ClassicCmaes(prob, pop_size=20, rng=Rng(0))
    best = math.inf
    while prob.n_evals < 10_000:
        best = algo.generation()
    assert best < 1e-8


def test_cmaes_box_keeps_mean_off_ackley_corners():
    # Ackley's bounds sit on its cosine lattice: recombining clipped samples
    # pinned the mean to +-100, where every coordinate has cos = 1
    prob = make_problem("ackley", 30)
    algo = ClassicCmaes(prob, pop_size=100, rng=Rng(0))
    for _ in range(1500):
        algo.generation()
    dom = prob.domain
    assert np.all(algo.mean > dom.lower + 1e-6)
    assert np.all(algo.mean < dom.upper - 1e-6)
    assert dom.contains(algo.best_x)
    assert prob.eval_array(algo.best_x[None, :])[0] == algo.best_fitness


def test_cmaes_ranks_outside_samples_by_penalty():
    # every sample clips to the same corner, so only the penalty can rank
    # them: the mean, updated from the unclipped samples, takes a step of
    # about sigma towards the box instead of jumping onto the corner
    prob = make_problem("sphere", 3)
    algo = ClassicCmaes(prob, pop_size=8, rng=Rng(1), sigma0=1.0,
                        mean0=np.full(3, 150.0))
    algo.generation()
    assert np.linalg.norm(algo.mean - 100.0) < np.linalg.norm([50.0] * 3)
    assert np.all(algo.mean > 100.0)
    assert algo.box.unit == 1.0     # zero fitness spread keeps the fallback
    np.testing.assert_allclose(algo.best_x, np.full(3, 100.0))
    assert algo.best_fitness == 30_000.0


def test_default_population_rule():
    prob = make_problem("sphere", 30)
    algo = ClassicCmaes(prob, pop_size=None, rng=Rng(0))
    assert algo.pop_size == 4 + int(3 * math.log(30))
