"""Tape semantics: forward values, hand-derived gradients, buffer rules."""

import numpy as np
import pytest

from gradevo import cli, gradcheck
from gradevo.classic import pack_lower, unpack_lower
from gradevo.gradcheck import op_checks, weighted_sum
from gradevo.relax import Rng, gumbel_sigmoid
from gradevo.tape import Tape, Var, _sigmoid


def grad_of(tape, param):
    g = param.raw.grad
    assert g is not None, f"no gradient reached {param.name}"
    return g


def test_sigmoid_at_zero_is_half():
    # the logistic behind the gates and the hyperparameter readouts
    assert _sigmoid(np.array([[0.0]]))[0, 0] == 0.5
    x = np.array([[-3.0, -0.5, 0.5, 3.0]])
    np.testing.assert_allclose(_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)


def test_min_with_index_tie_takes_lowest_index():
    t = Tape()
    v, idx = t.min_with_index(t.constant([[3.0, 1.0, 1.0, 2.0]]))
    assert idx == 1
    assert v.item() == 1.0


def test_product_rule_x_exp_x():
    # d/dx x exp x = exp x + x exp x, with exp a composite node of its own
    # (recorded as a column) and the sum of products a matmul of the two
    t = Tape()
    p = t.param("x", [[0.7, -1.3, 2.0]])
    out = np.exp(p.raw.value)
    e = t._record("exp_col", out.T, (p.raw,), lambda g: (g.T * out,))
    y = t.matmul(p.raw, e)
    t.backward(y)
    x = np.array([[0.7, -1.3, 2.0]])
    expect = np.exp(x) + x * np.exp(x)
    np.testing.assert_allclose(grad_of(t, p), expect, rtol=1e-12)


def test_linear_form_gradient_is_coefficients():
    t = Tape()
    c = np.array([[2.0, -3.0, 0.5]])
    p = t.param("x", [[1.0, 1.0, 1.0]])
    y = weighted_sum(t, p.raw, c)
    t.backward(y)
    np.testing.assert_array_equal(grad_of(t, p), c)


def test_clamp_gradient_strictly_inside_only():
    t = Tape()
    p = t.param("x", [[-2.0, -1.0, 0.0, 1.0, 2.0]])
    y = weighted_sum(t, t.clamp(p.raw, -1.0, 1.0), np.ones((1, 5)))
    t.backward(y)
    # endpoints count as outside: only the interior coordinate passes
    np.testing.assert_array_equal(grad_of(t, p), [[0.0, 0.0, 1.0, 0.0, 0.0]])


def test_clamp_forward_values():
    t = Tape()
    y = t.clamp(t.constant([[-5.0, 0.25, 5.0]]), -1.0, 1.0)
    np.testing.assert_array_equal(y.value, [[-1.0, 0.25, 1.0]])


def test_two_backwards_double_the_gradient():
    t = Tape()
    p = t.param("x", [[2.0]])
    y = t.matmul(p.raw, p.raw)
    t.backward(y)
    t.backward(y)
    assert grad_of(t, p)[0, 0] == 8.0  # 2 * (2x at x=2)
    t.zero_grad()
    assert p.raw.grad is None


def test_matmul_gradients():
    # d/dA sum(AB) = ones @ B^T, d/dB = A^T @ ones
    t = Tape()
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    B = np.array([[0.5, -1.0], [2.0, 0.25]])
    pa, pb = t.param("A", A), t.param("B", B)
    ones = np.ones((2, 2))
    y = weighted_sum(t, t.matmul(pa.raw, pb.raw), ones)
    t.backward(y)
    np.testing.assert_allclose(grad_of(t, pa), ones @ B.T)
    np.testing.assert_allclose(grad_of(t, pb), A.T @ ones)


def test_scalar_broadcast_only_for_1x1():
    # a (1, 1) logit is the one shape that stretches onto any draws, and
    # gates exactly as the full logit of its value; two full shapes that
    # differ still raise
    u = Rng(3).uniform(2, 3)
    t = Tape()
    scalar = gumbel_sigmoid(t, t.constant([[0.4]]), u=u, hard=False)
    full = gumbel_sigmoid(t, t.constant(np.full((2, 3), 0.4)), u=u, hard=False)
    np.testing.assert_array_equal(scalar.value, full.value)
    with pytest.raises(ValueError):
        gumbel_sigmoid(t, t.constant(np.ones((3, 3))), u=u)


def test_broadcast_gradient_sums_over_the_stretched_axes():
    # a gate logit stretched along an axis of length 1 takes the gradient
    # of the full-shape logit of the same values, summed over that axis
    u = Rng(4).uniform(3, 2)
    w = Rng(5).normal(3, 2)

    def grad(values):
        t = Tape()
        p = t.param("alpha", values)
        t.backward(weighted_sum(t, gumbel_sigmoid(t, p.raw, 0.7, u=u,
                                                  hard=False), w))
        return grad_of(t, p)

    full = grad(np.full((3, 2), 0.3))
    for shape, axis in (((1, 2), 0), ((3, 1), 1), ((1, 1), (0, 1))):
        np.testing.assert_allclose(grad(np.full(shape, 0.3)),
                                   full.sum(axis=axis, keepdims=True),
                                   rtol=1e-14)


def test_backward_rejects_nonscalar_loss():
    t = Tape()
    with pytest.raises(ValueError):
        t.backward(t.constant([[1.0, 2.0]]))


def test_backward_rejects_foreign_tape():
    t1, t2 = Tape(), Tape()
    y = t2.constant([[1.0]])
    with pytest.raises(ValueError):
        t1.backward(y)


def test_reset_keeps_params_and_drops_graph():
    t = Tape()
    p = t.param("x", [[1.0, 2.0]])
    y = t.matmul(p.raw, t.constant([[1.0], [2.0]]))
    t.backward(y)
    n_before = len(t.nodes)
    t.reset()
    assert len(t.nodes) < n_before
    assert p.raw.nid == 0
    # param is still usable on the fresh graph
    y2 = weighted_sum(t, p.raw, np.ones((1, 2)))
    t.zero_grad()
    t.backward(y2)
    np.testing.assert_array_equal(grad_of(t, p), [[1.0, 1.0]])


def test_item_rejects_nonscalar():
    t = Tape()
    with pytest.raises(ValueError):
        t.constant([[1.0, 2.0]]).item()


def test_graph_replay_is_deterministic():
    def run():
        t = Tape()
        p = t.param("x", [[0.4, -0.9]])
        rows = t.matmul(t.constant([[1.0], [-2.0]]), t.clamp(p.raw, -0.5, 0.5))
        y = t.matmul(p.raw, t.matmul(rows, t.constant([[0.3], [1.1]])))
        t.backward(y)
        return y.item(), p.raw.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    np.testing.assert_array_equal(g1, g2)


def test_nodes_no_param_reaches_get_no_gradient():
    t = Tape()
    p = t.param("x", [[0.5, -1.5]])
    c = t.constant([[2.0], [3.0]])
    k = t.clamp(c, 0.0, 2.5)                 # computed from constants only
    y = t.matmul(p.raw, k)
    t.backward(y)
    for node in (c, k):
        assert not node.needs_grad
        assert node.grad is None
        assert node._vjp is None and node._parents == ()
    assert p.raw.needs_grad and y.needs_grad
    np.testing.assert_array_equal(grad_of(t, p), k.value.T)
    # a loss no param reaches leaves every buffer empty
    t.backward(t.mean(k))
    assert k.grad is None
    # a composite vjp that returns every parent's gradient hands none to
    # a parent no param reaches
    t.zero_grad()
    both = t._record("both", p.raw.value + c.value.T, (p.raw, c),
                     lambda g: (g, g.T))
    t.backward(weighted_sum(t, both, np.ones((1, 2))))
    assert c.grad is None
    np.testing.assert_array_equal(grad_of(t, p), [[1.0, 1.0]])


def test_fan_out_gradients_match_numpy_and_accumulate():
    # one param feeds x + x, two matmuls and a clamp that passes its
    # gradient unchanged; x + x is recorded last, so backward reaches it
    # first and x's first contribution is the very array its vjp hands to
    # both parents
    g = np.random.default_rng(5)
    X = g.normal(size=(3, 2))
    W, M = g.normal(size=(2, 4)), g.normal(size=(3, 3))
    C1, C2, C3 = (g.normal(size=s) for s in ((3, 4), (3, 2), (3, 2)))
    t = Tape()
    p = t.param("x", X)
    x = p.raw
    right = t.matmul(t.constant(M), x)
    hard = t.clamp(x, -10.0, 10.0)
    twice = t._record("twice", X + X, (x, x), lambda g: (g, g))
    left = t.matmul(twice, t.constant(W))
    # the three weighted sums as one node
    loss = t._record(
        "parts", np.array([[sum((v.value * c).sum() for v, c in
                                ((left, C1), (right, C2), (hard, C3)))]]),
        (left, right, hard), lambda g: (g[0, 0] * C1, g[0, 0] * C2,
                                        g[0, 0] * C3))

    expect = 2.0 * C1 @ W.T + M.T @ C2 + C3
    t.backward(loss)
    np.testing.assert_allclose(grad_of(t, p), expect, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(twice.grad, C1 @ W.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(hard.grad, C3)
    first = {v.nid: v.grad.copy() for v in (x, twice, left, right, hard)}
    t.backward(loss)
    for v in (x, twice, left, right, hard):
        np.testing.assert_array_equal(v.grad, 2.0 * first[v.nid])
    assert all(n.grad is None for n in t.nodes if not n.needs_grad)


@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_lapack_pack_and_unpack_are_the_row_by_row_scatter(n):
    # the reference scatters a packed row into the C-order positions of
    # the lower triangle, row by row, and gathers it back from them
    idx = np.flatnonzero(np.tri(n, dtype=bool))
    packed = np.random.default_rng(n).normal(size=(1, idx.size))
    L = np.zeros((n, n))
    L.ravel()[idx] = packed.ravel()
    got = unpack_lower(packed, n)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.int64), L.view(np.int64))
    full = np.random.default_rng(n + 1).normal(size=(n, n))
    np.testing.assert_array_equal(pack_lower(full), full.ravel()[idx][None, :])
    np.testing.assert_array_equal(pack_lower(got), packed)


def test_every_tape_op_is_reached(tmp_path, monkeypatch, capsys):
    # every public Tape method and every Var operator serves some study;
    # the one exception is ``constant``, a leaf the gradient checks and
    # tests build
    public = [n for n, v in vars(Tape).items()
              if callable(v) and not n.startswith("_")]
    sugar = [n for n, v in vars(Var).items() if callable(v)
             and n.startswith("__") and n not in ("__init__", "__repr__")]
    called = set()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in public:
        monkeypatch.setattr(Tape, name, counted(name, getattr(Tape, name)))
    for name in sugar:
        monkeypatch.setattr(Var, name, counted(name, getattr(Var, name)))
    common = ["--runs", "1", "--out-dir", str(tmp_path)]
    small = ["--problem", "sphere", "--dim", "3", "--pop", "6", "--budget", "12"]
    studies = [
        ["suite", "--problems", "sphere,ackley,griewank,rosenbrock,michalewicz",
         "--dims", "3", "--pop", "6", "--evals-per-dim", "4"],
        ["wine", "--pop", "4", "--budget", "4"],
        ["scale", "--dim", "4", "--pop", "6", "--budget", "12"],
        ["run", "--algo", "de-diff", "--variant", "best1", *small],
        ["run", "--algo", "ga-diff", "--hard-selection", "1",
         "--hard-masks", "0", "--loss", "mean", *small],
    ]
    for argv in studies:
        assert cli.main(argv + common) == 0, argv
    capsys.readouterr()
    unreached = sorted(set(public + sugar) - called - {"constant"})
    assert not unreached, unreached


def test_gradcheck_covers_every_tape_op():
    # every public Tape method that records a differentiable node has an
    # ``op:`` finite-difference check, and every such check names one
    not_ops = {"constant", "param", "backward", "zero_grad", "reset"}
    ops = {n for n, v in vars(Tape).items()
           if callable(v) and not n.startswith("_")} - not_ops
    checked = {r.name.split(":")[1] for r in op_checks()
               if r.name.startswith("op:")}
    assert checked == ops, (sorted(ops - checked), sorted(checked - ops))


def test_gradcheck_points_do_not_depend_on_earlier_checks(monkeypatch):
    # each check draws from its own stream, so dropping one benchmark
    # check and reversing the rest leaves every other check's error as it was
    full = {r.name: r.max_err for r in op_checks()}
    names = gradcheck.benchmark_names()
    monkeypatch.setattr(gradcheck, "benchmark_names", lambda: names[:0:-1])
    part = {r.name: r.max_err for r in op_checks()}
    assert set(full) - set(part) == {f"problem:{names[0]}"}
    assert part == {name: full[name] for name in part}
