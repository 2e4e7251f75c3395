"""Wine table loading, the MLP forward, its loss node on the tape and the backprop arm."""

import tracemalloc

import numpy as np
import pytest

from gradevo import par
from gradevo.harness import ExperimentConfig, run_single, synthetic_wine_path
from gradevo.tape import Tape
from gradevo.wine import (
    MlpSpec,
    WineProblem,
    load_wine,
    mlp_forward,
    noisy_targets,
    write_synthetic_wine,
)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("wine") / "wine.csv"
    write_synthetic_wine(str(path))
    return str(path)


def test_synthetic_table_shape(table):
    feats, quality = load_wine(table)
    assert feats.shape == (1599, 11)
    assert quality.shape == (1599,)
    assert np.all(np.isfinite(feats))
    assert np.all((quality >= 0) & (quality <= 10))


def test_synthetic_table_deterministic(table, tmp_path):
    other = tmp_path / "again.csv"
    write_synthetic_wine(str(other))
    assert open(table, "rb").read() == open(str(other), "rb").read()


def test_bundled_path_loads():
    feats, _ = load_wine(synthetic_wine_path())
    assert feats.shape[0] == 1599


def test_loader_reports_line_numbers(tmp_path):
    header = ";".join(['"a"'] * 12)
    p = tmp_path / "bad_fields.csv"
    p.write_text(header + "\n1;2;3\n")
    with pytest.raises(ValueError, match="line 2: expected 12 fields, got 3"):
        load_wine(str(p))

    p2 = tmp_path / "bad_value.csv"
    row = ";".join(["1"] * 11) + ";banana"
    p2.write_text(header + "\n" + row + "\n")
    with pytest.raises(ValueError, match="line 2: could not parse field 'banana'"):
        load_wine(str(p2))

    p3 = tmp_path / "empty.csv"
    p3.write_text(header + "\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_wine(str(p3))

    p4 = tmp_path / "bad_header.csv"
    p4.write_text("a;b;c\n")
    with pytest.raises(ValueError, match="line 1"):
        load_wine(str(p4))


def test_noisy_targets_add_lognormal_noise():
    q = np.full(50_000, 5.0)
    y = noisy_targets(q, seed=3)
    noise = y - q
    assert np.all(noise > 0)  # exp of a normal is positive
    # E[exp(N(0,1))] = exp(1/2)
    assert abs(noise.mean() - np.exp(0.5)) < 0.05
    np.testing.assert_array_equal(noisy_targets(q, 3), y)
    assert not np.array_equal(noisy_targets(q, 4), y)


def test_spec_parameter_count():
    spec = MlpSpec()
    # 11*128 weights + 128 biases + 128 weights + 1 bias
    assert spec.n_params == 11 * 128 + 128 + 128 + 1 == 1665


def test_zero_params_give_zero_predictions():
    spec = MlpSpec()
    feats = np.random.default_rng(0).normal(size=(7, 11))
    targets = np.arange(7.0)
    mse, h, r = mlp_forward(np.zeros((1, spec.n_params)), feats, targets, spec)
    np.testing.assert_allclose(mse[0], np.mean(targets ** 2), rtol=1e-12)
    assert h.shape == (1, 7, 128) and not h.any()
    np.testing.assert_array_equal(r[0, :, 0], -targets)


def test_micro_network_hand_oracle():
    # 1 input, 1 hidden unit, 1 output: pred = w2 tanh(w1 x + b1) + b2
    spec = MlpSpec(n_in=1, n_hidden=1)
    assert spec.n_params == 4
    w1, b1, w2, b2 = 0.5, -0.25, 2.0, 0.125
    params = np.array([[w1, b1, w2, b2]])
    x = np.array([[0.8]])
    target = np.array([1.0])
    pred = w2 * np.tanh(w1 * 0.8 + b1) + b2
    expect = (pred - 1.0) ** 2
    got = mlp_forward(params, x, target, spec)[0]
    np.testing.assert_allclose(got[0], expect, rtol=1e-12)


def test_tape_forward_matches_array_reference(table):
    # both evaluation paths run one row's forward pass, so they agree to
    # the bit, with one row chunk over data-row chunks of tanh (k = 1) and
    # with several row chunks (k = 30)
    prob = WineProblem.from_file(table, noise_seed=0)
    for k in (30, 1):
        X = np.random.default_rng(1).uniform(-10, 10, size=(k, 1665))
        t = Tape()
        fit = prob.eval_pop(t, t.constant(X))
        assert fit.shape == (k, 1)
        np.testing.assert_array_equal(fit.value.ravel().view(np.int64),
                                      prob.eval_array(X).view(np.int64))


def test_array_losses_keep_no_activation_buffer(table):
    # eval_array computes each row in a scratch per chunk of rows; the
    # tape's path keeps all k (n, n_hidden) activations for its vjp
    prob = WineProblem.from_file(table, noise_seed=0)
    X = np.random.default_rng(2).uniform(-10, 10, size=(30, 1665))
    activations = 8 * 30 * prob.features.shape[0] * prob.spec.n_hidden
    prob.eval_array(X)                      # the pool starts outside
    tracemalloc.start()
    try:
        prob.eval_array(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < activations / 4


@pytest.mark.parametrize("reduce", ["mean", "best"])
@pytest.mark.parametrize("k", [30, 7, 1])
def test_losses_and_gradient_are_bitwise_equal_at_any_pool_width(
        table, monkeypatch, k, reduce):
    prob = WineProblem.from_file(table, noise_seed=0)
    X = np.random.default_rng(k).uniform(-10, 10, size=(k, 1665))
    bits = []
    for width in (1, 2, 3):
        monkeypatch.setattr(par, "_width", width)
        t = Tape()
        px = t.param("x", X)
        fit = prob.eval_pop(t, px.raw)
        t.backward(t.mean(fit) if reduce == "mean" else t.min_with_index(fit)[0])
        bits.append([a.view(np.int64) for a in
                     (fit.value, px.raw.grad, prob.eval_array(X))])
    assert bits[0][1].any()
    for other in bits[1:]:
        for want, got in zip(bits[0], other):
            np.testing.assert_array_equal(got, want)


def _reference_network(X, F, targets, spec):
    # per row: the textbook network, every layer and bias written out
    (w1a, w1b), (b1a, b1b), (w2a, w2b), (b2a, b2b) = spec.unpack_spans()
    out = []
    for p in X:
        W1 = p[w1a:w1b].reshape(spec.n_in, spec.n_hidden)
        h = np.tanh(F @ W1 + p[b1a:b1b])
        r = h @ p[w2a:w2b].reshape(spec.n_hidden, 1) + p[b2a:b2b] - \
            targets.reshape(-1, 1)
        out.append((h, r))
    return out


def _reference_gradient(X, F, targets, spec, g):
    # the vjp row formula written out pass by pass: the outer product
    # gs W2ᵀ, the elementwise chain through 1 - h², F.T @ d for W1 and the
    # column sum for b1
    (w1a, w1b), (b1a, b1b), (w2a, w2b), (b2a, _) = spec.unpack_spans()
    n = F.shape[0]
    grad = np.zeros(X.shape)
    for i, (h, r) in enumerate(_reference_network(X, F, targets, spec)):
        if g[i] == 0.0:
            continue
        gs = (g[i] / n) * 2.0 * r
        grad[i, w2a:w2b] = (h.T @ gs).ravel()
        grad[i, b2a] = gs.sum()
        d = np.outer(gs, X[i, w2a:w2b]) * (1.0 - h * h)
        grad[i, w1a:w1b] = (F.T @ d).ravel()
        grad[i, b1a:b1b] = d.sum(axis=0)
    return grad


def test_forward_matches_the_textbook_network(table):
    prob = WineProblem.from_file(table, noise_seed=0)
    X = np.random.default_rng(5).uniform(-10, 10, size=(7, 1665))
    losses, h, r = mlp_forward(X, prob.features, prob.targets, prob.spec)
    ref = _reference_network(X, prob.features, prob.targets, prob.spec)
    for i, (h_ref, r_ref) in enumerate(ref):
        np.testing.assert_allclose(h[i], h_ref, rtol=1e-13)
        np.testing.assert_allclose(r[i], r_ref, rtol=1e-13)
        np.testing.assert_allclose(losses[i], np.mean(r_ref ** 2), rtol=1e-13)


@pytest.mark.parametrize("reduce", ["mean", "best"])
@pytest.mark.parametrize("k", [30, 7, 1])
def test_gradient_matches_the_reference_row_formula(table, k, reduce):
    prob = WineProblem.from_file(table, noise_seed=0)
    X = np.random.default_rng(k).uniform(-10, 10, size=(k, 1665))
    t = Tape()
    px = t.param("x", X)
    fit = prob.eval_pop(t, px.raw)
    if reduce == "mean":
        t.backward(t.mean(fit))
        g = np.full(k, 1.0 / k)
    else:
        best, idx = t.min_with_index(fit)
        t.backward(best)
        g = np.eye(k)[idx]
    ref = _reference_gradient(X, prob.features, prob.targets, prob.spec, g)
    # both sum the same terms in another order: an entry much smaller
    # than its row's largest comes from cancellation, so its error is
    # measured against that largest entry
    scale = np.abs(ref).max(axis=1, keepdims=True)
    hit = scale[:, 0] > 0.0
    np.testing.assert_allclose(px.raw.grad[hit] / scale[hit],
                               ref[hit] / scale[hit], rtol=1e-12, atol=1e-12)
    # rows whose loss gets no gradient stay exactly zero
    np.testing.assert_array_equal(px.raw.grad[~hit], 0.0)


def test_mlp_forward_rejects_wrong_width():
    with pytest.raises(ValueError):
        mlp_forward(np.zeros((1, 10)), np.zeros((2, 11)), np.zeros(2), MlpSpec())


def test_mse_known_value():
    # zero weights predict (0, 0) against targets (1, 3):
    # ((0-1)^2 + (0-3)^2) / 2 = 5
    spec = MlpSpec(n_in=1, n_hidden=1)
    mse = mlp_forward(np.zeros((1, 4)), np.ones((2, 1)), np.array([1.0, 3.0]), spec)[0]
    assert mse[0] == 5.0


def test_best_loss_gradient_reaches_only_the_winning_row(table):
    prob = WineProblem.from_file(table, noise_seed=0)
    X = np.random.default_rng(3).uniform(-0.5, 0.5, size=(4, 1665))
    t = Tape()
    px = t.param("x", X)
    loss, idx = t.min_with_index(prob.eval_pop(t, px.raw))
    t.backward(loss)
    g = px.raw.grad
    others = [i for i in range(4) if i != idx]
    assert g[idx].any() and not g[others].any()
    # the winner's row is its own population-of-one gradient
    t1 = Tape()
    p1 = t1.param("x", X[idx:idx + 1])
    t1.backward(prob.eval_pop(t1, p1.raw))
    np.testing.assert_array_equal(g[idx:idx + 1], p1.raw.grad)


def test_unpack_spans_cover_every_parameter_once():
    spec = MlpSpec()
    covered = np.zeros(spec.n_params, dtype=int)
    for a, b in spec.unpack_spans():
        covered[a:b] += 1
    assert np.all(covered == 1)


def test_wine_problem_counts_and_gradient(table):
    prob = WineProblem.from_file(table, noise_seed=0)
    assert prob.dim == 1665
    assert prob.domain.lower[0] == -10.0 and prob.domain.upper[0] == 10.0
    X = np.zeros((3, 1665))
    vals = prob.eval_array(X)
    assert vals.shape == (3,)
    assert prob.n_evals == 3
    # tape gradient vs finite differences on a couple of coordinates
    rng = np.random.default_rng(2)
    x0 = rng.uniform(-0.5, 0.5, size=(1, 1665))
    t = Tape()
    px = t.param("x", x0)
    loss = prob.eval_pop(t, px.raw)
    t.backward(loss)
    g = px.raw.grad
    h = 1e-4  # the loss sits near 30, so a larger step keeps cancellation down
    for j in (0, 700, 1664):
        xp, xm = x0.copy(), x0.copy()
        xp[0, j] += h
        xm[0, j] -= h
        fd = (prob.eval_array(xp)[0] - prob.eval_array(xm)[0]) / (2 * h)
        np.testing.assert_allclose(g[0, j], fd, rtol=1e-4, atol=1e-10)


def test_wine_problem_input_validation():
    with pytest.raises(ValueError):
        WineProblem(np.zeros((4, 10)), np.zeros(4))
    with pytest.raises(ValueError):
        WineProblem(np.zeros((4, 11)), np.zeros(5))


def test_backprop_arm_runs_through_run_single():
    cfg = ExperimentConfig(algo="adam", problem="wine", pop=1, budget=6,
                           runs=1, lr=0.001)
    _, records, err = run_single(cfg, 0)
    assert err is None
    assert [r.n_evals for r in records] == [1, 2, 3, 4, 5, 6]
    assert all(r.hyper == {} for r in records)
    best = [r.best_fitness for r in records]
    assert all(b <= a for a, b in zip(best, best[1:]))


def test_backprop_arm_has_no_lr_scheduler():
    # with patience 1 a plateau scheduler would halve the lr at the first
    # epoch that does not improve; a large lr makes such epochs happen
    cfg = ExperimentConfig(algo="adam", problem="wine", pop=1, budget=6,
                           runs=1, lr=1.0, patience=1)
    _, records, err = run_single(cfg, 0)
    assert err is None
    best = [r.best_fitness for r in records]
    assert any(b == a for a, b in zip(best, best[1:]))
    assert all(r.lr == 1.0 for r in records)
