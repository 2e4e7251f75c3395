"""Benchmark functions: known minima, tape/array parity, counters, domains."""

import numpy as np
import pytest

from gradevo import kernels
from gradevo.gradcheck import weighted_sum
from gradevo.problems import BoxDomain, benchmark_names, make_problem
from gradevo.relax import Rng
from gradevo.tape import Tape


def test_known_minima():
    # sphere/ackley/griewank are zero at the origin; rosenbrock at ones;
    # michalewicz has sin(x_i) = 0 at the origin so every term vanishes
    for name, x, v in [
        ("sphere", np.zeros((1, 7)), 0.0),
        ("ackley", np.zeros((1, 7)), 0.0),
        ("griewank", np.zeros((1, 7)), 0.0),
        ("rosenbrock", np.ones((1, 7)), 0.0),
        ("michalewicz", np.zeros((1, 7)), 0.0),
    ]:
        p = make_problem(name, 7)
        got = p.eval_array(x)[0]
        assert abs(got - v) < 1e-12, (name, got)


def test_hand_computed_values():
    # sphere([1,2,3]) = 14; griewank at x=(sqrt(4000),0) = 1 + 1 - cos(sqrt(4000))
    p = make_problem("sphere", 3)
    assert p.eval_array(np.array([[1.0, 2.0, 3.0]]))[0] == 14.0
    g = make_problem("griewank", 2, lo=-700, hi=700)
    x = np.array([[np.sqrt(4000.0), 0.0]])
    expect = 1.0 + 1.0 - np.cos(np.sqrt(4000.0))
    np.testing.assert_allclose(g.eval_array(x)[0], expect, rtol=1e-12)
    r = make_problem("rosenbrock", 2)
    # at (0, 0): 100 * 0 + 1 = 1
    assert r.eval_array(np.zeros((1, 2)))[0] == 1.0


def test_tape_and_array_paths_agree():
    rng = Rng(0)
    for name in benchmark_names():
        p = make_problem(name, 9)
        X = p.domain.sample(rng, 25)
        t = Tape()
        on_tape = p.eval_pop(t, t.constant(X)).value.ravel()
        np.testing.assert_array_equal(on_tape.view(np.int64),
                                      p.eval_array(X).view(np.int64),
                                      err_msg=name)


def test_tape_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-6
    for name in benchmark_names():
        p = make_problem(name, 5)
        x0 = rng.uniform(-2.0, 2.0, size=(1, 5))
        t = Tape()
        px = t.param("x", x0)
        loss = weighted_sum(t, p.eval_pop(t, px.raw), np.ones((1, 1)))
        t.backward(loss)
        g = px.raw.grad.copy()
        for j in range(5):
            xp, xm = x0.copy(), x0.copy()
            xp[0, j] += h
            xm[0, j] -= h
            fd = (p.eval_array(xp)[0] - p.eval_array(xm)[0]) / (2 * h)
            np.testing.assert_allclose(g[0, j], fd, rtol=2e-4, atol=1e-7,
                                       err_msg=f"{name}[{j}]")


def test_ackley_gradient_at_the_origin_is_zero():
    # the first term is a cone with its tip at the origin, where its
    # subgradient 0 is taken
    p = make_problem("ackley", 3)
    t = Tape()
    px = t.param("x", [[0.0, 0.0, 0.0], [0.5, -1.0, 2.0]])
    t.backward(weighted_sum(t, p.eval_pop(t, px.raw), np.ones((2, 1))))
    g = px.raw.grad
    assert np.all(np.isfinite(g))
    np.testing.assert_array_equal(g[0], 0.0)
    assert np.all(g[1] != 0.0)


@pytest.mark.parametrize("d", [9, 100])
def test_grad_kernels_are_bitwise_row_by_row(d):
    # the vjp calls <name>_grad on the reached rows only, so a row's
    # gradient must not depend on which other rows share the call
    X = make_problem("sphere", d).domain.sample(Rng(4), 40)
    X[7] = 0.0
    for name in benchmark_names():
        grad = getattr(kernels, f"{name}_grad")
        full = grad(X)
        for rows in ([13], [0, 7, 8, 21, 39], list(range(40))):
            np.testing.assert_array_equal(
                grad(X[rows]).view(np.int64), full[rows].view(np.int64),
                err_msg=f"{name} rows {rows}")


def test_vjp_under_a_one_hot_gradient_is_the_dense_product():
    X = make_problem("sphere", 9).domain.sample(Rng(5), 25)
    for name in benchmark_names():
        p = make_problem(name, 9)
        for hot in (0, 11, 24):
            g = np.zeros((25, 1))
            g[hot] = 1.5
            t = Tape()
            px = t.param("x", X)
            fit = p.eval_pop(t, px.raw)
            t.backward(weighted_sum(t, fit, g))
            dense = g * getattr(kernels, f"{name}_grad")(X)
            np.testing.assert_array_equal(px.raw.grad, dense,
                                          err_msg=f"{name} row {hot}")


def test_the_grad_kernel_sees_only_the_reached_rows(monkeypatch):
    seen = []
    grad = kernels.rosenbrock_grad

    def spy(X):
        seen.append(X.copy())
        return grad(X)

    monkeypatch.setattr(kernels, "rosenbrock_grad", spy)
    p = make_problem("rosenbrock", 6)
    X = p.domain.sample(Rng(6), 10)
    t = Tape()
    px = t.param("x", X)
    g = np.zeros((10, 1))
    g[[2, 5]] = [[1.0], [-0.5]]
    t.backward(weighted_sum(t, p.eval_pop(t, px.raw), g))
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], X[[2, 5]])
    assert not np.any(px.raw.grad[[0, 1, 3, 4, 6, 7, 8, 9]])


def test_all_benchmarks_finite_on_a_million_probes():
    rng = Rng(123)
    for name in benchmark_names():
        p = make_problem(name, 10)
        total = 0
        while total < 1_000_000:
            n = min(100_000, 1_000_000 - total)
            vals = p.eval_array(p.domain.sample(rng, n))
            assert np.all(np.isfinite(vals)), name
            total += n


def test_eval_counter_counts_rows():
    p = make_problem("sphere", 4)
    assert p.n_evals == 0
    p.eval_array(np.zeros((3, 4)))
    assert p.n_evals == 3
    t = Tape()
    p.eval_pop(t, t.constant(np.zeros((5, 4))))
    assert p.n_evals == 8
    p.reset_evals()
    assert p.n_evals == 0


def test_domain_sample_clip_contains():
    dom = BoxDomain.cube(3, -2.0, 5.0)
    X = dom.sample(Rng(0), 100)
    assert dom.contains(X)
    assert X.min() >= -2.0 and X.max() <= 5.0
    Y = dom.clip(np.array([[-10.0, 0.0, 10.0]]))
    np.testing.assert_array_equal(Y, [[-2.0, 0.0, 5.0]])
    np.testing.assert_array_equal(dom.width, [7.0, 7.0, 7.0])


def test_make_problem_validation():
    with pytest.raises(ValueError):
        make_problem("himmelblau", 2)
    with pytest.raises(ValueError):
        make_problem("sphere", 0)
    with pytest.raises(ValueError):
        make_problem("rosenbrock", 1)


def test_michalewicz_is_negative_somewhere():
    # the interesting region: narrow needles below zero inside the wide box
    p = make_problem("michalewicz", 2)
    X = p.domain.sample(Rng(5), 4000)
    assert p.eval_array(X).min() < -0.5
