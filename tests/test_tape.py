"""Tape semantics: forward values, hand-derived gradients, buffer rules."""

import numpy as np
import pytest

from gradevo import cli, gradcheck
from gradevo.classic import pack_lower, unpack_lower
from gradevo.gradcheck import op_checks
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
    t = Tape()
    p = t.param("x", [[0.7, -1.3, 2.0]])
    out = np.exp(p.raw.value)
    e = t._record("exp", out, (p.raw,), lambda g: (g * out,))
    y = t.sum(t.mul(p.raw, e))
    t.backward(y)
    x = np.array([[0.7, -1.3, 2.0]])
    expect = np.exp(x) + x * np.exp(x)
    np.testing.assert_allclose(grad_of(t, p), expect, rtol=1e-12)


def test_linear_form_gradient_is_coefficients():
    t = Tape()
    c = np.array([[2.0, -3.0, 0.5]])
    p = t.param("x", [[1.0, 1.0, 1.0]])
    y = t.sum(t.mul(t.constant(c), p.raw))
    t.backward(y)
    np.testing.assert_array_equal(grad_of(t, p), c)


def test_clamp_gradient_strictly_inside_only():
    t = Tape()
    p = t.param("x", [[-2.0, -1.0, 0.0, 1.0, 2.0]])
    y = t.sum(t.clamp(p.raw, -1.0, 1.0))
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
    y = t.mul(p.raw, p.raw)
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
    y = t.sum(t.matmul(pa.raw, pb.raw))
    t.backward(y)
    ones = np.ones((2, 2))
    np.testing.assert_allclose(grad_of(t, pa), ones @ B.T)
    np.testing.assert_allclose(grad_of(t, pb), A.T @ ones)


def test_scalar_broadcast_only_for_1x1():
    # a (1, 1) operand is the one shape that stretches onto any other; two
    # full shapes that differ still raise
    t = Tape()
    a = t.constant([[1.0, 2.0], [3.0, 4.0]])
    s = t.constant([[10.0]])
    np.testing.assert_array_equal(t.add(a, s).value, [[11.0, 12.0], [13.0, 14.0]])
    np.testing.assert_array_equal(t.sub(s, a).value, [[9.0, 8.0], [7.0, 6.0]])
    np.testing.assert_array_equal(t.mul(a, s).value, [[10.0, 20.0], [30.0, 40.0]])
    with pytest.raises(ValueError):
        t.add(a, t.constant(np.ones((3, 2))))


def test_rowvec_and_colvec_helpers():
    # rows and columns go through the plain binary ops
    t = Tape()
    a = t.constant([[1.0, 2.0], [3.0, 4.0]])
    row = t.constant([[10.0, 20.0]])
    col = t.constant([[2.0], [3.0]])
    np.testing.assert_array_equal(t.add(a, row).value, [[11.0, 22.0], [13.0, 24.0]])
    np.testing.assert_array_equal(t.sub(row, a).value, [[9.0, 18.0], [7.0, 16.0]])
    np.testing.assert_array_equal(t.mul(a, row).value, [[10.0, 40.0], [30.0, 80.0]])
    np.testing.assert_array_equal(t.mul(col, a).value, [[2.0, 4.0], [9.0, 12.0]])


@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_outer_and_mismatched_broadcasts_raise(op):
    t = Tape()
    col = t.constant([[1.0], [2.0]])
    row = t.constant([[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError):
        getattr(t, op)(col, row)        # (2, 1) with (1, 3) is an outer broadcast
    with pytest.raises(ValueError):
        getattr(t, op)(t.constant(np.ones((2, 3))), t.constant([[1.0, 2.0]]))


def test_broadcast_gradient_sums_over_the_stretched_axes():
    a = np.arange(6, dtype=float).reshape(3, 2)
    for shape, axis in (((1, 2), 0), ((3, 1), 1), ((1, 1), (0, 1))):
        t = Tape()
        p = t.param("b", np.full(shape, 2.0))
        y = t.sum(t.add(t.mul(t.constant(a), p.raw), t.sub(p.raw, t.constant(a))))
        t.backward(y)
        # d/db sum(a b + b - a) = sum of (a + 1) over the stretched axes
        np.testing.assert_array_equal(
            grad_of(t, p), (a + 1.0).sum(axis=axis, keepdims=True))


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
    y = t.sum(t.mul(p.raw, p.raw))
    t.backward(y)
    n_before = len(t.nodes)
    t.reset()
    assert len(t.nodes) < n_before
    assert p.raw.nid == 0
    # param is still usable on the fresh graph
    y2 = t.sum(p.raw)
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
        y = t.sum(t.mul(t.clamp(p.raw, -0.5, 0.5), t.row_sum(t.mul(p.raw, p.raw))))
        t.backward(y)
        return y.item(), p.raw.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1 == v2
    np.testing.assert_array_equal(g1, g2)


def test_nodes_no_param_reaches_get_no_gradient():
    t = Tape()
    p = t.param("x", [[0.5, -1.5]])
    c = t.constant([[2.0, 3.0]])
    k = t.add(t.mul(c, c), c)                # computed from constants only
    y = t.sum(t.add(t.mul(p.raw, k), c))
    t.backward(y)
    for node in (c, k):
        assert not node.needs_grad
        assert node.grad is None
        assert node._vjp is None and node._parents == ()
    assert p.raw.needs_grad and y.needs_grad
    np.testing.assert_array_equal(grad_of(t, p), k.value)
    # a loss no param reaches leaves every buffer empty
    t.backward(t.sum(k))
    assert k.grad is None
    # a composite vjp that returns every parent's gradient hands none to
    # a parent no param reaches
    t.zero_grad()
    both = t._record("both", p.raw.value + c.value, (p.raw, c),
                     lambda g: (g, g))
    t.backward(t.sum(both))
    assert c.grad is None
    np.testing.assert_array_equal(grad_of(t, p), [[1.0, 1.0]])


def test_fan_out_gradients_match_numpy_and_accumulate():
    # one param feeds add(x, x), two matmuls and a clamp that passes its
    # gradient unchanged; add(x, x) is recorded last, so backward reaches it
    # first and x's first contribution is the very array add hands to both
    # parents
    g = np.random.default_rng(5)
    X = g.normal(size=(3, 2))
    W, M = g.normal(size=(2, 4)), g.normal(size=(3, 3))
    C1, C2, C3 = (g.normal(size=s) for s in ((3, 4), (3, 2), (3, 2)))
    t = Tape()
    p = t.param("x", X)
    x = p.raw
    right = t.matmul(t.constant(M), x)
    hard = t.clamp(x, -10.0, 10.0)
    twice = t.add(x, x)
    left = t.matmul(twice, t.constant(W))
    parts = [t.sum(t.mul(v, t.constant(c)))
             for v, c in ((left, C1), (right, C2), (hard, C3))]
    loss = t.add(t.add(parts[0], parts[1]), parts[2])

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
    # the one exception is ``sum``, the loss reduction of the gradient checks
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
    unreached = sorted(set(public + sugar) - called - {"sum"})
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
