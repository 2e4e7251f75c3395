"""Differentiable algorithms: classical equivalence at lr=0, gradients,
staging semantics."""

import math
import tracemalloc

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
    DiffDe,
    DiffGa,
    DiffPso,
    box_penalty,
    cma_sample,
)
from gradevo.gradcheck import weighted_sum
from gradevo.harness import CLASSIC_ALGORITHMS, ExperimentConfig, run_single
from gradevo import classic
from gradevo.outer import Adam, run_loop
from gradevo.problems import BoxDomain, benchmark_names, make_problem
from gradevo.relax import Rng
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
    opt = Adam(diff.tape.params, lr=0.0)
    for _ in range(10):
        noise = {"r1": rng.uniform(8, 6), "r2": rng.uniform(8, 6)}
        ref.generation(dict(noise))
        _diff_step(diff, opt, dict(noise))
        np.testing.assert_array_equal(diff.pX.raw.value, ref.X)
        np.testing.assert_array_equal(diff.V, ref.V)
        np.testing.assert_array_equal(diff.pbest, ref.pbest)
        np.testing.assert_array_equal(diff.pfit, ref.pfit)
        assert diff.best_fitness == ref.best_fitness


@pytest.mark.parametrize("variant", ["rand1", "best1"])
def test_de_matches_classical_with_shared_noise(variant):
    # classical index picks map onto hard Gumbel-Softmax rows by putting the
    # largest uniform at the chosen parent; the crossover draw maps through
    # u -> 1 - u because the hard gate fires at u > 1 - cr instead of u < cr
    prob_c = make_problem("griewank", 3)
    prob_d = make_problem("griewank", 3)
    n, d = 5, 3
    roles = 3 if variant == "rand1" else 2
    rng = Rng(3)
    X0 = prob_c.domain.sample(rng, n)
    classic = ClassicDe(prob_c, pop_size=n, rng=Rng(1), variant=variant,
                        init=X0)
    diff = DiffDe(prob_d, pop_size=n, rng=Rng(2), hard_masks=True,
                  hard_selection=True, variant=variant, init=X0)

    for _ in range(3):
        idx = rng.distinct_indices(n, roles, exclude=np.arange(n))
        tau_u = rng.uniform(n, d)
        jrand = rng.integers(0, d, size=n).astype(np.int64)

        classic.generation({"idx": idx, "tau": tau_u, "jrand": jrand})

        sel = {}
        for role in range(roles):
            u = np.full((n, n), 0.01)
            u[np.arange(n), idx[:, role]] = 0.99
            sel[f"sel_u{role + 1}"] = u
        drive(diff, {**sel, "cross_u": 1.0 - tau_u, "jrand": jrand})

        np.testing.assert_allclose(diff.pX.raw.value, classic.X, atol=1e-10)
        np.testing.assert_allclose(diff.fit, classic.fit, atol=1e-10)
        assert abs(diff.best_fitness - classic.best_fitness) < 1e-10


def _diff_step(algo, opt, noise=None):
    """One differentiable generation committed after an optimizer step, in
    ``run_loop``'s order."""
    algo.tape.backward(algo.generation(noise))
    algo.tape.reset()
    opt.step()
    algo.tape.zero_grad()
    algo.update_state()


@pytest.mark.parametrize("problem, d, pop, sigma0", [
    ("sphere", 10, 6, None),        # pop + 1 < d
    ("ackley", 5, 8, 150.0),        # pop + 1 >= d
])
def test_cmaes_hard_limit_matches_classical_with_shared_noise(
        problem, d, pop, sigma0):
    # the commit recombines by log rank with the binary h_sigma gate, so at
    # lr 0 it is the classical one
    rng = Rng(0)
    mean0 = make_problem(problem, d).domain.sample(rng, 1)[0]
    ref = ClassicCmaes(make_problem(problem, d), pop_size=pop, rng=Rng(1),
                       sigma0=sigma0, mean0=mean0)
    diff = DiffCmaes(make_problem(problem, d), pop_size=pop, rng=Rng(2),
                     sigma0=sigma0, mean0=mean0)
    opt = Adam(diff.tape.params, lr=0.0)
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
    cma = CmaState(make_problem("sphere", d).domain, lam)
    X_ref, M = cma.sample(mu, sigma, packed, z)
    L = unpack_lower(packed, d)
    assert X_ref.flags.c_contiguous and X_ref.shape == (lam, d)
    np.testing.assert_array_equal(M, L @ z)
    np.testing.assert_array_equal(X_ref, mu + sigma * (L @ z).T)

    t = Tape()
    pm, ps, pl = (t.param(n, v) for n, v in
                  (("mu", mu), ("log_sigma", log_sigma), ("L", packed)))
    X = cma_sample(t, cma, pm.raw, ps.raw, pl.raw, z)
    assert len(t.nodes) == 4 and X.op == "cma_sample"
    np.testing.assert_array_equal(X.value, X_ref)
    G = g.normal(size=(lam, d))
    t.backward(weighted_sum(t, X, G))
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
    for p in algo.tape.params:
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
    a = DiffPso(prob, pop_size=5, rng=Rng(5), loss="best")
    noise = a.draw_noise()
    la = a.generation(dict(noise))
    assert la.item() == float(np.min(a._staged["fit"]))
    prob2 = make_problem("sphere", 3)
    b = DiffPso(prob2, pop_size=5, rng=Rng(5), loss="mean")
    lb = b.generation(dict(noise))
    assert abs(lb.item() - float(np.mean(b._staged["fit"]))) < 1e-12
    with pytest.raises(ValueError):
        DiffPso(make_problem("sphere", 3), pop_size=5, rng=Rng(5),
                loss="median")


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
    opt = Adam(algo.tape.params, lr=0.01)
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
    opt = None if classical else Adam(algo.tape.params, lr=0.01)
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


def _old_penalty_chain(xs, xc, f, W, inside, gamma, loss):
    """The generation tail the box_penalty node replaced, replayed in
    numpy: sub(Xs, Xc), mul(gap, gap), mul by constant(gamma), row_sum and
    add(fit, .), then the loss; the reverse walk adds each node's gradient
    terms in tape order, down through a linear fitness node (f = Xc W,
    vjp g Wᵀ) and the clamp. Returns the penalised column and the gradients
    of Xs, Xc and fit."""
    gap = xs - xc
    sq = gap * gap
    gam = gamma.reshape(1, -1)
    sel = f + (sq * gam).sum(axis=1, keepdims=True)
    if loss == "best":
        g = np.zeros(sel.shape)
        g.flat[int(np.argmin(sel))] = 1.0
    else:
        g = np.full(sel.shape, 1.0 / sel.size)
    g_sq = np.repeat(g, xs.shape[1], axis=1) * gam
    g_gap = g_sq * gap
    g_gap = g_gap + g_sq * gap          # mul(gap, gap): both operands
    g_xc = -g_gap                       # sub, before the fitness node
    g_xc = g_xc + g @ W.T
    g_xs = g_gap + g_xc * inside        # sub, before the clamp
    return sel, g_xs, g_xc, g


@pytest.mark.parametrize("loss", ["best", "mean"])
def test_box_penalty_node_is_the_old_chain_bit_for_bit(loss):
    # rows inside the box, outside it and exactly on a face; row 1, out in
    # two coordinates and on a face in the third, has the lowest fitness,
    # so the "best" loss reaches the penalty too
    d, lam, sigma = 3, 5, 0.7
    g = np.random.default_rng(4)
    dom = BoxDomain.cube(d, -1.0, 1.0)
    W = g.normal(size=(d, 1))
    xs = g.uniform(-0.9, 0.9, size=(lam, d))
    xs[1] = -np.sign(W.ravel()) * [1.05, 1.0, 1.1]
    xs[2] = [1.0, -1.0, 0.5]
    xs[4, 1] = 1.3
    cma = CmaState(dom, lam)
    cma.mean_diag_c = 1.9
    cma.box.boost = np.array([1.0, 1.21, 1.1])

    t = Tape()
    X = t.param("X", xs)
    Xc = t.clamp(X.raw, dom.lower, dom.upper)
    fit = t._record("linear", Xc.value @ W, (Xc,), lambda gf: (gf @ W.T,))
    sel = box_penalty(t, cma, X.raw, Xc, fit, sigma)
    assert sel.op == "box_penalty" and len(t.nodes) == 4
    top = t.min_with_index(sel)[0] if loss == "best" else t.mean(sel)
    t.backward(top)

    f = Xc.value @ W
    s = np.sort(f.ravel())
    gamma = (s[3] - s[1]) / (sigma * sigma * 1.9) * cma.box.boost
    inside = (xs > -1.0) & (xs < 1.0)
    want = _old_penalty_chain(xs, dom.clip(xs), f, W, inside, gamma, loss)
    for got, ref in zip((sel.value, X.raw.grad, Xc.grad, fit.grad), want):
        assert got.shape == ref.shape
        np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))
    # the penalty reaches Xs where the clamp passes no gradient
    assert np.all(X.raw.grad[1, [0, 2]] != 0.0)


def test_box_penalty_is_fit_itself_inside_the_box():
    # no draw leaves the box: no node, and the IQR scale keeps its value
    cma = CmaState(BoxDomain.cube(2, -1.0, 1.0), 4)
    t = Tape()
    X = t.param("X", np.full((4, 2), 0.5))
    fit = t.param("fit", [[1.0], [2.0], [3.0], [4.0]])
    assert box_penalty(t, cma, X.raw, X.raw, fit.raw, 0.3) is fit.raw
    assert cma.box.unit == 1.0


@pytest.mark.parametrize("cls", [DiffGa, DiffDe])
def test_nonpositive_tau_is_rejected_before_any_evaluation(cls):
    prob = make_problem("sphere", 3)
    for tau in (0.0, -1.0):
        with pytest.raises(ValueError, match="temperature must be positive"):
            cls(prob, 6, Rng(0), tau=tau)
    assert prob.n_evals == 0


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
    opt = Adam(algo.tape.params, lr=1.0) if cls is DiffCmaes else None
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
    opt = Adam(algo.tape.params, lr=1.0)
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


def _commit_inputs(d, lam, seed=0):
    """A CmaState on a d-box and the arguments of one commit: draws from a
    random lower-triangular factor whose diagonal entries have both signs,
    so that R's diagonal has both too."""
    g = np.random.default_rng(seed)
    cma = CmaState(make_problem("sphere", d).domain, lam)
    L = np.tril(g.normal(size=(d, d)) / math.sqrt(d))
    diag = L[np.diag_indices(d)]
    L[np.diag_indices(d)] = np.sign(diag) * (np.abs(diag) + 0.5)
    packed = pack_lower(L)
    mu_prev, sigma = g.normal(size=d), 0.7
    z = g.normal(size=(d, lam))
    X, _ = cma.sample(mu_prev, sigma, packed, z)
    w = cma.rank_weights(g.normal(size=lam))
    return cma, (X, z, w, mu_prev, sigma, sigma, packed)


def test_commit_packs_r_in_place_bitwise_as_the_dense_formula(monkeypatch):
    # the rows of R flipped in place and packed as they lie give the bits
    # of the packed, mean(diag C) and factor of Rᵀ * sign
    d = 300
    cma, args = _commit_inputs(d, 30)
    qr, tpqrt = [], classic._tpqrt

    def spy(A, B, nb):
        tpqrt(A, B, nb)
        qr.append(A.copy())

    monkeypatch.setattr(classic, "_tpqrt", spy)
    _, _, packed = cma.commit(*args)
    R = qr[0]
    assert np.any(np.diag(R) < 0.0) and np.any(np.diag(R) > 0.0)
    L_ref = R.T * np.where(np.diag(R) < 0.0, -1.0, 1.0)
    np.testing.assert_array_equal(packed, pack_lower(L_ref))
    assert cma.mean_diag_c == float(np.vdot(L_ref, L_ref)) / d
    kept, L = cma._dense
    assert kept is packed
    np.testing.assert_array_equal(L, L_ref)


def test_commit_hands_its_dense_factor_to_the_next_sample_only():
    d, lam = 50, 8
    cma, args = _commit_inputs(d, lam)
    mean, _, packed = cma.commit(*args)
    # the kept factor is the packed row's, laid out as unpack_lower's
    L = cma._dense[1]
    np.testing.assert_array_equal(L, unpack_lower(packed, d))
    assert L.flags.c_contiguous
    assert np.all(np.triu(L, 1) == 0.0)
    # a row that is not the committed object is unpacked, never served
    # the kept factor; any sample drops it
    z = np.random.default_rng(1).normal(size=(d, lam))
    other = 2.0 * packed
    X, M = cma.sample(mean, 0.5, other, z)
    np.testing.assert_array_equal(M, unpack_lower(other, d) @ z)
    assert cma._dense is None
    _, _, packed = cma.commit(*args)
    X, M = cma.sample(mean, 0.5, packed, z)
    np.testing.assert_array_equal(M, unpack_lower(packed, d) @ z)
    np.testing.assert_array_equal(X, mean + 0.5 * M.T)
    assert cma._dense is None


def test_unpacked_factors_are_zero_above_the_diagonal():
    # dtpttr writes only the triangle it unpacks: the rest is whatever the
    # array held, and a freed block of the same size is what the next
    # array of that size is likely given
    d = 200
    cma, args = _commit_inputs(d, 12)
    np.full((d, d), np.nan, order="F")          # made and freed at once
    assert not np.triu(unpack_lower(args[-1], d), 1).any()
    np.full((d, d), np.nan, order="F")
    cma.commit(*args)
    assert not np.triu(cma._dense[1], 1).any()


def test_qr_of_the_negated_blocks_is_the_negated_r_bitwise():
    # commit hands dtpqrt -[sqrt(a) Lᵀ; Uᵀ] and so gets -R without a pass
    # over R; Householder QR is odd in its input
    d, m = 40, 9
    g = np.random.default_rng(3)
    A = np.asfortranarray(np.triu(g.normal(size=(d, d))))
    B = np.asfortranarray(g.normal(size=(m, d)))
    R, R_neg = A.copy(order="F"), np.asfortranarray(-A)
    classic._tpqrt(R, B.copy(order="F"), 8)
    classic._tpqrt(R_neg, np.asfortranarray(-B), 8)
    np.testing.assert_array_equal(R_neg.view(np.int64), (-R).view(np.int64))


def test_lapack_wrappers_reject_arrays_they_cannot_pass():
    with pytest.raises(ValueError, match="packed entries"):
        unpack_lower(np.zeros((1, 5)), 3)
    with pytest.raises(ValueError, match="square"):
        pack_lower(np.zeros((3, 4)))
    A, B = np.eye(3, order="F"), np.zeros((2, 3), order="F")
    with pytest.raises(ValueError, match="Fortran-order"):
        classic._tpqrt(A, np.zeros((2, 3)), 2)
    with pytest.raises(ValueError, match="block 4"):
        classic._tpqrt(A, B, 4)


def test_committed_packed_row_is_read_only():
    cma, args = _commit_inputs(6, 4)
    _, _, packed = cma.commit(*args)
    with pytest.raises(ValueError, match="read-only"):
        packed[0, 0] = 1.0


def test_commit_peak_memory_stays_within_one_factor_and_two_rows():
    # R is packed where it lies: one dense d x d array at a time
    d = 600
    cma, args = _commit_inputs(d, 30)
    tracemalloc.start()
    try:
        cma.commit(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (d * d + d * (d + 1))
