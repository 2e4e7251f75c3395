"""Outer loop: Adam, plateau scheduling, and the shared generation driver."""

import numpy as np
import pytest

from gradevo import par
from gradevo.diffevo import DiffCmaes, DiffDe, DiffGa, DiffPso
from gradevo.classic import ClassicPso
from gradevo.outer import SPLIT_ENTRIES, Adam, PlateauScheduler, run_loop
from gradevo.problems import make_problem
from gradevo.relax import Rng
from gradevo.tape import Tape


def scalar_param(tape, v):
    return tape.param("p", np.array([[v]]))


def test_adam_leaves_value_alone_without_gradient():
    tape = Tape()
    p = scalar_param(tape, 3.0)
    opt = Adam([p], lr=0.5)
    opt.step()
    np.testing.assert_array_equal(p.raw.value.view(np.int64),
                                  np.array([[3.0]]).view(np.int64))


def test_adam_first_step_is_signed_lr():
    # bias correction makes the first update -lr * g / (|g| + eps)
    tape = Tape()
    p = scalar_param(tape, 1.0)
    p.raw.grad = np.array([[4.2]])
    opt = Adam([p], lr=0.01)
    opt.step()
    assert abs(p.raw.value[0, 0] - (1.0 - 0.01)) < 1e-8
    q = scalar_param(Tape(), 1.0)
    q.raw.grad = np.array([[-0.003]])
    Adam([q], lr=0.01).step()
    want = 1.0 + 0.01 * 0.003 / (0.003 + 1e-8)
    assert abs(q.raw.value[0, 0] - want) < 1e-12


def test_adam_rejects_non_finite_gradient():
    tape = Tape()
    p = tape.param("omega", np.ones((2, 1)))
    p.raw.grad = np.array([[1.0], [np.nan]])
    opt = Adam([p])
    with pytest.raises(RuntimeError, match="omega"):
        opt.step()


def serial_adam(value, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The unchunked Adam update, written out: (value, last delta)."""
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    for t, g in enumerate(grads, start=1):
        bc1 = 1.0 - b1**t
        bc2 = 1.0 - b2**t
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        gg = g * g
        gg *= 1.0 - b2
        v += gg
        delta = m / bc1
        delta *= -lr
        den = v / bc2
        np.sqrt(den, out=den)
        den += eps
        delta /= den
        value = value + delta
    return value, delta


@pytest.mark.parametrize("width", [1, 2, 3])
def test_adam_step_is_bitwise_the_serial_formula(monkeypatch, width):
    monkeypatch.setattr(par, "_width", width)
    rng = np.random.default_rng(width)
    shapes = {"big": (1, SPLIT_ENTRIES + 12345), "small": (3, 7)}
    start = {n: rng.normal(size=s) for n, s in shapes.items()}
    grads = {n: [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3, size=s)
                 for _ in range(3)] for n, s in shapes.items()}
    tape = Tape()
    params = [tape.param(n, start[n]) for n in shapes]
    opt = Adam(params, lr=0.05)
    for step in range(3):
        for p in params:
            p.raw.grad = grads[p.name][step]
        opt.step()
    for p in params:
        want, _ = serial_adam(start[p.name], grads[p.name], 0.05)
        np.testing.assert_array_equal(p.raw.value.view(np.int64),
                                      want.view(np.int64))
    # a value written between steps, as a generation writes its staged
    # candidate, is what the next step lands on
    cand = {n: rng.normal(size=s) for n, s in shapes.items()}
    for p in params:
        p.raw.value = cand[p.name].copy()
        p.raw.grad = grads[p.name][0]
    opt.step()
    for p in params:
        _, want_delta = serial_adam(start[p.name],
                                    grads[p.name] + [grads[p.name][0]], 0.05)
        np.testing.assert_array_equal(
            p.raw.value.view(np.int64),
            (cand[p.name] + want_delta).view(np.int64))


def test_adam_validates_learning_rate():
    with pytest.raises(ValueError):
        Adam([], lr=-0.1)


def test_scheduler_halves_on_plateau_and_respects_floor():
    opt = Adam([], lr=0.8)
    sched = PlateauScheduler(opt, patience=3, min_lr=0.15)
    sched.step(10.0)         # baseline: first metric always improves on inf
    for _ in range(3):
        sched.step(10.0)
    assert opt.lr == 0.4
    sched.step(5.0)          # improvement resets the counter
    assert opt.lr == 0.4
    for _ in range(6):
        sched.step(5.0)
    assert opt.lr == 0.15    # 0.4 -> 0.2 -> floor, not 0.1
    with pytest.raises(ValueError):
        PlateauScheduler(opt, patience=0)


def test_run_loop_generation_count_and_eval_bookkeeping():
    prob = make_problem("sphere", 3)
    algo = ClassicPso(prob, pop_size=10, rng=Rng(0))
    records, err = run_loop(algo, prob, max_evals=95)
    assert err is None
    assert len(records) == 10          # ceil(95 / 10)
    for g, rec in enumerate(records):
        assert rec.generation == g
        assert rec.n_evals == (g + 1) * 10
        assert rec.lr == 0.0
        assert isinstance(rec.hyper, dict)


def test_run_loop_single_generation_when_budget_equals_pop():
    prob = make_problem("sphere", 3)
    algo = ClassicPso(prob, pop_size=10, rng=Rng(0))
    records, err = run_loop(algo, prob, max_evals=10)
    assert err is None and len(records) == 1


def test_run_loop_rejects_empty_budget():
    prob = make_problem("sphere", 3)
    algo = ClassicPso(prob, pop_size=10, rng=Rng(0))
    with pytest.raises(ValueError):
        run_loop(algo, prob, max_evals=0)


def test_run_loop_returns_partial_records_on_failure():
    prob = make_problem("sphere", 3)
    algo = ClassicPso(prob, pop_size=5, rng=Rng(0))
    real = prob.eval_array
    calls = {"n": 0}

    def bomb(X):
        calls["n"] += 1
        if calls["n"] > 2:          # two generations, then blow up
            raise FloatingPointError("kaboom")
        return real(X)

    prob.eval_array = bomb
    records, err = run_loop(algo, prob, max_evals=50)
    assert str(err) == "FloatingPointError: kaboom"
    assert err.traceback.startswith("Traceback (most recent call last):")
    assert "in bomb" in err.traceback
    assert len(records) == 2


def test_run_loop_monotone_best_for_diff_algorithm():
    prob = make_problem("ackley", 5)
    algo = DiffPso(prob, pop_size=10, rng=Rng(1))
    opt = Adam(algo.tape.params, lr=0.01)
    records, err = run_loop(algo, prob, max_evals=300, optimizer=opt)
    assert err is None
    bests = [r.best_fitness for r in records]
    assert all(b <= a + 1e-15 for a, b in zip(bests, bests[1:]))
    assert bests[-1] < bests[0]


def test_run_loop_scheduler_decays_lr_on_stall():
    prob = make_problem("sphere", 2)
    algo = DiffPso(prob, pop_size=5, rng=Rng(2))
    opt = Adam(algo.tape.params, lr=0.02)
    sched = PlateauScheduler(opt, patience=5, min_lr=1e-6)
    records, err = run_loop(algo, prob, max_evals=1500,
                            optimizer=opt, scheduler=sched)
    assert err is None
    assert records[-1].lr < 0.02    # a 2-D sphere stalls well inside 300 gens


def test_diff_cmaes_descends_sphere():
    prob = make_problem("sphere", 10)
    algo = DiffCmaes(prob, pop_size=20, rng=Rng(3))
    opt = Adam(algo.tape.params, lr=0.01)
    sched = PlateauScheduler(opt, patience=100)
    records, err = run_loop(algo, prob, max_evals=8000,
                            optimizer=opt, scheduler=sched)
    assert err is None
    assert records[-1].best_fitness < 1e-6


def test_hyper_record_tracks_learned_values():
    prob = make_problem("sphere", 4)
    algo = DiffCmaes(prob, pop_size=8, rng=Rng(4))
    opt = Adam(algo.tape.params, lr=0.05)
    records, err = run_loop(algo, prob, max_evals=400, optimizer=opt)
    assert err is None
    sigmas = [r.hyper["sigma"] for r in records]
    assert all(s > 0 for s in sigmas)
    assert sigmas[0] != sigmas[-1]


DIFF_ARMS = [DiffPso, DiffGa, DiffDe, DiffCmaes]


def _bits(a):
    return np.asarray(a).view(np.int64)


@pytest.mark.parametrize("cls", DIFF_ARMS, ids=lambda c: c.name)
def test_commit_is_the_candidate_plus_the_adam_displacement(cls):
    # generation writes the staged candidate into the slot, Adam steps it,
    # and the commit clips a population: X (or mu) = clip(candidate + the
    # serial formula's displacement), bit for bit
    prob = make_problem("ackley", 4)
    algo = cls(prob, pop_size=8, rng=Rng(5))
    slot = algo.p_mu if cls is DiffCmaes else algo.pX
    opt = Adam(algo.tape.params, lr=0.5)
    grads = []
    for _ in range(3):
        before = slot.raw.value
        algo.tape.backward(algo.generation())
        st = algo._staged
        cand = slot.raw.value.copy()
        if cls is DiffDe:
            staged = np.where(st["win"][:, None], st["trial_values"], before)
        elif cls is DiffCmaes:
            w = algo.cma.rank_weights(st["sel_fit"])
            staged = (w @ st["x_raw"]).reshape(1, -1)
        else:
            staged = st["x_values"]
        np.testing.assert_array_equal(_bits(cand), _bits(staged))
        g = slot.raw.grad
        grads.append(np.zeros(cand.shape) if g is None else g.copy())
        algo.tape.reset()
        opt.step()
        algo.tape.zero_grad()
        algo.update_state()
        _, delta = serial_adam(np.zeros(cand.shape), grads, 0.5)
        assert np.any(delta != 0.0)
        want = cand + delta
        if cls is not DiffCmaes:
            want = prob.domain.clip(want)
        if cls is DiffGa and algo.best_fitness < st["fit"].min():
            want[np.argmax(st["fit"])] = algo.best_x
        np.testing.assert_array_equal(_bits(slot.raw.value), _bits(want))


@pytest.mark.parametrize("cls", DIFF_ARMS, ids=lambda c: c.name)
def test_run_loop_frees_the_graph_before_the_step_and_the_gradients_after(cls):
    prob = make_problem("ackley", 4)
    algo = cls(prob, pop_size=8, rng=Rng(6))
    tape = algo.tape
    opt = Adam(tape.params, lr=0.1)
    seen = []
    step = opt.step

    def spy():
        seen.append((len(tape.nodes),
                     any(p.raw.grad is not None for p in tape.params)))
        step()

    opt.step = spy
    records, err = run_loop(algo, prob, max_evals=8, optimizer=opt)
    del opt.step
    assert err is None and len(records) == 1
    # Adam stepped on a tape of params alone, with their gradients
    assert seen == [(len(tape.params), True)]
    assert all(a is p.raw for a, p in zip(tape.nodes, tape.params))
    assert len(tape.nodes) == len(tape.params)
    assert all(p.raw.grad is None for p in tape.params)
    names = [p.name for p in tape.params]
    assert set(vars(opt)) == {"params", "lr", "t", "_m", "_v"}
    assert list(opt._m) == list(opt._v) == names
