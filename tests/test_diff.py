"""Differentiable algorithms: classical equivalence at lr=0, gradients,
staging semantics."""

import math

import numpy as np
import pytest

from gradevo import cli
from gradevo.classic import (
    ClassicCmaes,
    ClassicDe,
    ClassicPso,
    CmaState,
    pack_lower,
    unpack_lower,
)
from gradevo.diffevo import (
    DiffCmaes,
    DiffConfig,
    DiffDe,
    DiffGa,
    DiffPso,
    cma_sample,
)
from gradevo.harness import CLASSIC_ALGORITHMS, ExperimentConfig, run_single
from gradevo.outer import Adam, run_loop
from gradevo.problems import benchmark_names, make_problem
from gradevo.relax import RelaxConfig, Rng
from gradevo.tape import Tape

ALGOS = {
    "pso-diff": DiffPso,
    "ga-diff": DiffGa,
    "de-diff": DiffDe,
    "cmaes-diff": DiffCmaes,
}


def drive(algo, noise=None):
    """One full uncommitted-then-committed generation without an optimizer."""
    loss = algo.generation(noise)
    algo.tape.backward(loss)
    algo.update_state()
    algo.tape.reset()
    algo.tape.zero_grad()
    return loss


# --- exact classical equivalence with shared noise and lr = 0 ----------------

def test_pso_matches_classical_with_shared_noise():
    prob_c = make_problem("ackley", 3)
    prob_d = make_problem("ackley", 3)
    rng = Rng(0)
    X0 = prob_c.domain.sample(rng, 5)
    classic = ClassicPso(prob_c, pop_size=5, rng=Rng(1), init=X0)
    diff = DiffPso(prob_d, pop_size=5, rng=Rng(2), init=X0)
    for _ in range(3):
        noise = {"r1": rng.uniform(5, 3), "r2": rng.uniform(5, 3)}
        classic.generation(dict(noise))
        drive(diff, dict(noise))
        np.testing.assert_allclose(diff.pX.raw.value, classic.X, atol=1e-10)
        np.testing.assert_allclose(diff.V, classic.V, atol=1e-10)
        np.testing.assert_allclose(diff.pbest, classic.pbest, atol=1e-10)
        assert abs(diff.best_fitness - classic.best_fitness) < 1e-10


def test_pso_at_lr_zero_is_classical_pso_bit_for_bit():
    # the pulls multiply in the order of kernels.pso_step, so every
    # position, velocity and best is ClassicPso's exactly
    prob = make_problem("rosenbrock", 6)
    rng = Rng(4)
    X0 = prob.domain.sample(rng, 8)
    ref = ClassicPso(make_problem("rosenbrock", 6), pop_size=8, rng=Rng(1),
                     init=X0)
    diff = DiffPso(prob, pop_size=8, rng=Rng(2), init=X0)
    opt = Adam(diff.parameters(), lr=0.0)
    for _ in range(10):
        noise = {"r1": rng.uniform(8, 6), "r2": rng.uniform(8, 6)}
        ref.generation(dict(noise))
        _diff_step(diff, opt, dict(noise))
        np.testing.assert_array_equal(diff.pX.raw.value, ref.X)
        np.testing.assert_array_equal(diff.V, ref.V)
        np.testing.assert_array_equal(diff.pbest, ref.pbest)
        np.testing.assert_array_equal(diff.pfit, ref.pfit)
        assert diff.best_fitness == ref.best_fitness


def test_de_matches_classical_with_shared_noise():
    # classical index picks map onto hard Gumbel-Softmax rows by putting the
    # largest uniform at the chosen parent; the crossover draw maps through
    # u -> 1 - u because the hard gate fires at u > 1 - cr instead of u < cr
    prob_c = make_problem("griewank", 3)
    prob_d = make_problem("griewank", 3)
    n, d = 5, 3
    rng = Rng(3)
    X0 = prob_c.domain.sample(rng, n)
    classic = ClassicDe(prob_c, pop_size=n, rng=Rng(1), init=X0)
    cfg = DiffConfig(elitism=False,
                     relax=RelaxConfig(hard_masks=True, hard_selection=True))
    diff = DiffDe(prob_d, pop_size=n, rng=Rng(2), cfg=cfg, init=X0)

    for _ in range(3):
        idx = np.empty((n, 3), dtype=np.int64)
        for i in range(n):
            idx[i] = rng.distinct_indices(n, 3, exclude=i)
        tau_u = rng.uniform(n, d)
        jrand = rng.integers(0, d, size=n).astype(np.int64)

        classic.generation({"idx": idx, "tau": tau_u, "jrand": jrand})

        sel = {}
        for role in range(3):
            u = np.full((n, n), 0.01)
            u[np.arange(n), idx[:, role]] = 0.99
            sel[f"sel_u{role + 1}"] = u
        drive(diff, {**sel, "cross_u": 1.0 - tau_u, "jrand": jrand})

        np.testing.assert_allclose(diff.pX.raw.value, classic.X, atol=1e-10)
        np.testing.assert_allclose(diff.fit, classic.fit, atol=1e-10)
        assert abs(diff.best_fitness - classic.best_fitness) < 1e-10


def _diff_step(algo, opt, noise=None):
    """One differentiable generation committed after an optimizer step."""
    algo.tape.zero_grad()
    loss = algo.generation(noise)
    algo.tape.backward(loss)
    opt.step()
    algo.update_state(opt)
    algo.tape.reset()


@pytest.mark.parametrize("problem, d, pop, sigma0", [
    ("sphere", 10, 6, None),        # pop + 1 < d
    ("ackley", 5, 8, 150.0),        # pop + 1 >= d
])
def test_cmaes_hard_limit_matches_classical_with_shared_noise(
        problem, d, pop, sigma0):
    # the commit recombines by log rank with the binary h_sigma gate
    # whatever the relaxation settings, so at lr 0 it is the classical one
    soft = RelaxConfig(tau=0.3, hard_masks=False, hard_selection=False)
    for cfg in (DiffConfig(), DiffConfig(relax=soft)):
        rng = Rng(0)
        mean0 = make_problem(problem, d).domain.sample(rng, 1)[0]
        ref = ClassicCmaes(make_problem(problem, d), pop_size=pop, rng=Rng(1),
                           sigma0=sigma0, mean0=mean0)
        diff = DiffCmaes(make_problem(problem, d), pop_size=pop, rng=Rng(2),
                         cfg=cfg, sigma0=sigma0, mean0=mean0)
        opt = Adam(diff.parameters(), lr=0.0)
        for _ in range(3):
            noise = {"z": rng.normal(d, pop)}
            ref.generation(dict(noise))
            _diff_step(diff, opt, dict(noise))
            np.testing.assert_allclose(diff.p_mu.raw.value.ravel(), ref.mean,
                                       rtol=0.0, atol=1e-10)
            assert abs(diff.hyperparams()["sigma"] - ref.sigma) < 1e-10
            np.testing.assert_allclose(diff.factor(), ref.factor(),
                                       rtol=0.0, atol=1e-10)
            assert abs(diff.best_fitness - ref.best_fitness) < 1e-10
        # samples clipped: the penalty set a weight from a positive spread
        assert ref.cma.box.unit != 1.0


def test_cma_sample_node_is_the_classical_draw():
    # one node holds CmaState.sample's draws; its vjp is the chain rule of
    # mu + (sigma L z)ᵀ and keeps no dense (d, d) factor
    d, lam = 6, 4
    g = np.random.default_rng(0)
    mu, packed = g.normal(size=(1, d)), g.normal(size=(1, d * (d + 1) // 2))
    log_sigma, z = np.array([[-0.3]]), g.normal(size=(d, lam))
    sigma = math.exp(-0.3)
    X_ref, M = CmaState.sample(mu, sigma, packed, z)
    L = unpack_lower(packed, d)
    assert X_ref.flags.c_contiguous and X_ref.shape == (lam, d)
    np.testing.assert_array_equal(M, L @ z)
    np.testing.assert_array_equal(X_ref, mu + sigma * (L @ z).T)

    t = Tape()
    pm, ps, pl = (t.param(n, v) for n, v in
                  (("mu", mu), ("log_sigma", log_sigma), ("L", packed)))
    X = cma_sample(t, pm.raw, ps.raw, pl.raw, z)
    assert len(t.nodes) == 4 and X.op == "cma_sample"
    np.testing.assert_array_equal(X.value, X_ref)
    G = g.normal(size=(lam, d))
    t.backward(t.sum(t.mul(X, t.constant(G))))
    np.testing.assert_allclose(pm.raw.grad, G.sum(axis=0, keepdims=True),
                               rtol=1e-14)
    np.testing.assert_allclose(ps.raw.grad, [[sigma * np.sum(G.T * (L @ z))]],
                               rtol=1e-14)
    np.testing.assert_allclose(pl.raw.grad, pack_lower(sigma * G.T @ z.T),
                               rtol=1e-14)
    kept = [c.cell_contents for c in X._vjp.__closure__]
    assert all(getattr(v, "shape", None) != (d, d) for v in kept)


def test_both_cmaes_arms_need_two_offspring(tmp_path, capsys):
    for cls in (ClassicCmaes, DiffCmaes):
        with pytest.raises(ValueError, match="population of at least 2"):
            cls(make_problem("sphere", 5), pop_size=1, rng=Rng(0))
    for algo in ("cmaes", "cmaes-diff"):
        rc = cli.main(["run", "--algo", algo, "--problem", "sphere",
                       "--dim", "5", "--pop", "1", "--budget", "20",
                       "--runs", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert (f"{algo} needs a population of at least 2, got 1"
                in capsys.readouterr().err)


# --- gradients exist and flow to the learnable knobs -------------------------

@pytest.mark.parametrize("name", list(ALGOS))
@pytest.mark.parametrize("problem", ["sphere", "ackley", "rosenbrock", "griewank"])
def test_gradients_reach_hyperparameters(name, problem):
    prob = make_problem(problem, 10)
    algo = ALGOS[name](prob, pop_size=8, rng=Rng(0))
    loss = algo.generation()
    algo.tape.backward(loss)
    got_any = False
    for p in algo.parameters():
        g = p.raw.grad
        if g is not None:
            assert np.all(np.isfinite(g)), (name, problem, p.name)
            got_any = got_any or np.any(g != 0.0)
    assert got_any, f"no nonzero gradient reached any parameter of {name}"


def test_pso_per_particle_hyperparameters_get_distinct_gradients():
    prob = make_problem("sphere", 4)
    algo = DiffPso(prob, pop_size=6, rng=Rng(1))
    loss = algo.generation()
    algo.tape.backward(loss)
    g = algo.p_omega.raw.grad
    assert g.shape == (6, 1)


# --- staging and commit semantics --------------------------------------------

def test_update_before_generation_raises():
    prob = make_problem("sphere", 3)
    for cls in ALGOS.values():
        algo = cls(prob, pop_size=6, rng=Rng(0))
        with pytest.raises(RuntimeError, match="before generation"):
            algo.update_state()


def test_staged_state_clears_after_commit():
    prob = make_problem("sphere", 3)
    algo = DiffPso(prob, pop_size=6, rng=Rng(0))
    algo.generation()
    assert algo._staged is not None
    algo.update_state()
    assert algo._staged is None


def test_current_best_sees_staged_candidates():
    prob = make_problem("sphere", 3)
    algo = DiffPso(prob, pop_size=6, rng=Rng(0))
    algo.generation()
    staged_best = float(np.min(algo._staged["fit"]))
    assert algo.current_best() <= staged_best
    assert algo.current_best() <= algo.best_fitness


def test_best_fitness_never_worsens_across_commits():
    for name, cls in ALGOS.items():
        prob = make_problem("ackley", 5)
        algo = cls(prob, pop_size=8, rng=Rng(2))
        prev = math.inf
        for _ in range(15):
            drive(algo)
            assert algo.best_fitness <= prev + 1e-15, name
            prev = algo.best_fitness


def test_population_stays_in_box():
    for name, cls in ALGOS.items():
        if name == "cmaes-diff":
            continue  # distribution parameters, not a population slot
        prob = make_problem("sphere", 4)
        algo = cls(prob, pop_size=7, rng=Rng(3))
        for _ in range(10):
            drive(algo)
        assert prob.domain.contains(algo.pX.raw.value), name


def test_exp_parameters_stay_positive():
    # DE's F and CMA's sigma live as logs: any committed value must be positive
    prob = make_problem("rosenbrock", 4)
    de = DiffDe(prob, pop_size=6, rng=Rng(4))
    cma = DiffCmaes(prob, pop_size=6, rng=Rng(4))
    for _ in range(10):
        drive(de)
        drive(cma)
        assert de.hyperparams()["f_scale"] > 0
        assert cma.hyperparams()["sigma"] > 0


def test_loss_mode_mean_and_best():
    prob = make_problem("sphere", 3)
    a = DiffPso(prob, pop_size=5, rng=Rng(5), cfg=DiffConfig(loss="best"))
    noise = a.draw_noise()
    la = a.generation(dict(noise))
    assert la.item() == float(np.min(a._staged["fit"]))
    prob2 = make_problem("sphere", 3)
    b = DiffPso(prob2, pop_size=5, rng=Rng(5), cfg=DiffConfig(loss="mean"))
    lb = b.generation(dict(noise))
    assert abs(lb.item() - float(np.mean(b._staged["fit"]))) < 1e-12
    with pytest.raises(ValueError):
        DiffConfig(loss="median")


def test_replay_determinism():
    def run(cls):
        prob = make_problem("griewank", 4)
        algo = cls(prob, pop_size=6, rng=Rng(7))
        for _ in range(5):
            drive(algo)
        return algo.best_fitness

    for cls in ALGOS.values():
        assert run(cls) == run(cls)


def test_generation_cost_is_population_size():
    for name, cls in ALGOS.items():
        prob = make_problem("sphere", 4)
        algo = cls(prob, pop_size=9, rng=Rng(8))
        init = getattr(algo, "_ensure_init", None)
        if init is not None:
            init()
        base = prob.n_evals
        drive(algo)
        assert prob.n_evals - base == 9, name


def test_ga_elitism_injects_best():
    prob = make_problem("ackley", 4)
    algo = DiffGa(prob, pop_size=8, rng=Rng(9))
    for _ in range(5):
        drive(algo)
    gap = np.abs(algo.pX.raw.value - algo.best_x).sum(axis=1).min()
    assert gap == 0.0


def test_de_needs_four_members():
    prob = make_problem("sphere", 3)
    with pytest.raises(ValueError):
        DiffDe(prob, pop_size=3, rng=Rng(0))
    with pytest.raises(ValueError):
        DiffDe(prob, pop_size=6, rng=Rng(0), variant="rand2")


def test_cmaes_samples_follow_mean_and_sigma():
    prob = make_problem("sphere", 3)
    algo = DiffCmaes(prob, pop_size=5, rng=Rng(10), sigma0=1e-9,
                     mean0=np.full(3, 2.0))
    algo.generation({"z": np.zeros((3, 5))})
    np.testing.assert_allclose(algo._staged["x_values"], np.full((5, 3), 2.0),
                               atol=1e-7)


def test_cmaes_box_keeps_mean_off_ackley_corners():
    # recombining clamped samples used to end this run with all five mean
    # coordinates at +-100, best 20 - 20 exp(-20), the lattice-corner value
    prob = make_problem("ackley", 5)
    algo = DiffCmaes(prob, pop_size=20, rng=Rng(0), sigma0=1.0)
    opt = Adam(algo.parameters(), lr=0.01)
    records, err = run_loop(algo, prob, max_evals=300 * 20, optimizer=opt)
    assert err is None and len(records) == 300
    dom = prob.domain
    mean = algo.p_mu.raw.value.ravel()
    assert np.all(mean > dom.lower + 1e-6)
    assert np.all(mean < dom.upper - 1e-6)
    assert dom.contains(algo.best_x)
    assert prob.eval_array(algo.best_x[None, :])[0] == algo.best_fitness


@pytest.mark.parametrize("name", list(ALGOS) + list(CLASSIC_ALGORITHMS))
@pytest.mark.parametrize("problem", benchmark_names())
def test_best_fitness_is_the_array_value_of_best_x(name, problem):
    # the fitness node's value is the array kernel's, and every arm
    # evaluates C-ordered rows, so the recorded best is, bit for bit, the
    # array value of best_x; the classical arms run at d = 30, since a
    # 5-term row sum is too short for its order to show
    classical = name in CLASSIC_ALGORITHMS
    prob = make_problem(problem, 30 if classical else 5)
    algo = {**ALGOS, **CLASSIC_ALGORITHMS}[name](prob, pop_size=10, rng=Rng(3))
    opt = None if classical else Adam(algo.parameters(), lr=0.01)
    records, err = run_loop(algo, prob, max_evals=30 * 10, optimizer=opt)
    assert err is None and len(records) == 30
    value = prob.eval_array(algo.best_x[None, :])[0]
    assert np.float64(value).tobytes() == np.float64(algo.best_fitness).tobytes()


@pytest.mark.parametrize("name", list(ALGOS))
def test_runs_through_the_ackley_origin(name):
    # on [0, 10]^2 the box corner is Ackley's minimum, where clamped
    # samples land; its gradient there must stay finite
    cfg = ExperimentConfig(algo=name, problem="ackley", dim=2, lo=0.0,
                           hi=10.0, pop=8, budget=800, runs=1, seed=0)
    _, records, err = run_single(cfg, 0)
    assert err is None, err
    assert len(records) == 100


def test_cmaes_penalty_gradient_points_into_box():
    # the mean sits outside the box, so every sample clamps to the corner
    # (100, 100, 100): the clamp passes no gradient and the fitness spread
    # is zero, yet the loss must still pull mu back inside
    prob = make_problem("sphere", 3)
    algo = DiffCmaes(prob, pop_size=6, rng=Rng(0), sigma0=1e-3,
                     mean0=np.full(3, 150.0))
    loss = algo.generation()
    assert np.all(algo._staged["x_values"] == 100.0)
    algo.tape.backward(loss)
    grad = algo.p_mu.raw.grad.ravel()
    assert np.all(grad > 1.0)       # a descent step lowers every coordinate
    # bookkeeping keeps the unpenalised value of the clamped point
    assert algo.current_best() == 30_000.0


# --- CMA-ES factor commit ------------------------------------------------------

def _cmaes_generations(cls, d, pop, n_gens, on_commit):
    """Run n_gens generations of cls on sphere-d, DiffCmaes at lr 1.0;
    on_commit sees the algorithm, its staged values (None for ClassicCmaes)
    and the arguments of the generation's ``CmaState.commit``."""
    prob = make_problem("sphere", d)
    algo = cls(prob, pop_size=pop, rng=Rng(0))
    calls = []
    commit = algo.cma.commit

    def spy(*args):
        calls.append((getattr(algo, "_staged", None), args))
        return commit(*args)

    algo.cma.commit = spy
    opt = Adam(algo.parameters(), lr=1.0) if cls is DiffCmaes else None
    for _ in range(n_gens):
        if opt is None:
            algo.generation()
        else:
            _diff_step(algo, opt)
        staged, args = calls[-1]
        on_commit(algo, dict(staged or {}), *args)
    return algo


def _commit_target(cma, X, z, w, mu_prev, sigma_prev, sigma, packed):
    """a L_s L_sᵀ + U Uᵀ assembled densely from the committed paths, the
    factor L_s and the weights w the commit was given."""
    k, d = cma.k, X.shape[1]
    norm = np.linalg.norm(cma.p_sigma)
    denom = math.sqrt(1.0 - (1.0 - k.c_sigma) ** (2 * cma.gen_count))
    thresh = (1.4 + 2.0 / (d + 1.0)) * k.chi_n
    h_sig = 1.0 if norm / denom < thresh else 0.0
    a = 1.0 - k.c_1 - k.c_mu + k.c_1 * (1.0 - h_sig) * k.c_c * (2.0 - k.c_c)
    Y = (X - mu_prev) / sigma_prev
    U = np.column_stack([math.sqrt(k.c_1) * cma.p_c,
                         (np.sqrt(k.c_mu * w)[:, None] * Y).T])
    L_s = unpack_lower(packed, d)
    return a * L_s @ L_s.T + U @ U.T


@pytest.mark.parametrize("d", [40, 5])
def test_cmaes_factor_update_matches_dense_covariance(d):
    # the factor is updated by QR without forming C, with pop + 1 below d
    # and above it
    for cls in (DiffCmaes, ClassicCmaes):
        residuals = []

        def check(algo, st, *args):
            w = args[2]
            np.testing.assert_array_equal(
                np.sort(w)[::-1], np.r_[algo.cma.k.weights, [0.0] * 3])
            if cls is DiffCmaes:
                # the log-rank weights sit on the best penalized fitness
                np.testing.assert_array_equal(
                    w, algo.cma.rank_weights(st["sel_fit"]))
            L = algo.factor()
            assert L.flags.c_contiguous
            assert np.all(np.triu(L, 1) == 0.0)
            assert np.all(np.diag(L) > 0.0)
            target = _commit_target(algo.cma, *args)
            residuals.append(
                np.linalg.norm(L @ L.T - target) / np.linalg.norm(target))
            np.testing.assert_allclose(algo.cma.mean_diag_c,
                                       np.trace(L @ L.T) / d,
                                       rtol=1e-14, atol=0.0)

        _cmaes_generations(cls, d, 6, 3, check)
        assert len(residuals) == 3 and max(residuals) <= 1e-14, (cls, residuals)


def test_cmaes_adam_steps_only_the_packed_lower_triangle():
    d = 40
    prob = make_problem("sphere", d)
    algo = DiffCmaes(prob, pop_size=6, rng=Rng(0))
    opt = Adam(algo.parameters(), lr=1.0)
    records, err = run_loop(algo, prob, 12, opt)
    assert err is None and len(records) == 2
    packed = (1, d * (d + 1) // 2)
    assert algo.p_L.raw.shape == opt._m["L"].shape == opt._v["L"].shape == packed
    assert np.all(opt._v["L"] > 0.0)


@pytest.mark.parametrize("d", [40, 5])
def test_cmaes_non_finite_draw_fails_the_commit(d):
    algo = DiffCmaes(make_problem("sphere", d), pop_size=6, rng=Rng(0))
    algo.generation()
    algo._staged["x_raw"][2, 1] = np.nan
    with pytest.raises(RuntimeError, match="non-finite"):
        algo.update_state()
    algo = ClassicCmaes(make_problem("sphere", d), pop_size=6, rng=Rng(0))
    noise = algo.draw_noise()
    noise["z"][1, 2] = np.nan             # L = I: draw 2 is NaN in x_1
    with pytest.raises(RuntimeError, match="non-finite"):
        algo.generation(noise)
