"""Reparameterized samplers: Monte Carlo oracles and gradient checks."""

import numpy as np
import pytest

from gradevo.relax import Rng, gumbel_sigmoid, gumbel_softmax, logistic_noise
from gradevo.tape import Tape

N_MC = 100_000


def test_gumbel_sigmoid_hard_rate_matches_sigmoid_alpha():
    # P(hard = 1) = sigmoid(alpha) for any temperature
    for alpha in (-2.0, 0.0, 2.0):
        for tau in (0.3, 1.0):
            t = Tape()
            a = t.constant([[alpha]])
            y = gumbel_sigmoid(t, a, tau=tau, u=Rng(11).uniform(1, N_MC), hard=True)
            rate = float(y.value.mean())
            p = 1.0 / (1.0 + np.exp(-alpha))
            se = np.sqrt(p * (1 - p) / N_MC)
            assert abs(rate - p) < 3 * se, (alpha, tau, rate, p)


def test_gumbel_sigmoid_soft_saturates_with_alpha():
    t = Tape()
    hi = gumbel_sigmoid(t, t.constant([[40.0]]), u=Rng(0).uniform(1, 64), hard=False)
    lo = gumbel_sigmoid(t, t.constant([[-40.0]]), u=Rng(0).uniform(1, 64), hard=False)
    assert np.all(hi.value > 0.999999)
    assert np.all(lo.value < 0.000001)


def test_gumbel_sigmoid_gradient_with_frozen_noise():
    # soft = sigmoid((alpha + g) / tau): d/dalpha = soft (1 - soft) / tau
    t = Tape()
    u = np.array([[0.3, 0.62, 0.9]])
    tau = 0.7
    p = t.param("alpha", [[0.25]])
    y = gumbel_sigmoid(t, p.raw, tau=tau, u=u, hard=False)
    t.backward(t.sum(y))
    soft = y.value
    expect = (soft * (1 - soft) / tau).sum()
    np.testing.assert_allclose(p.raw.grad[0, 0], expect, rtol=1e-12)


def test_gumbel_sigmoid_hard_straight_through_keeps_soft_gradient():
    t = Tape()
    u = np.array([[0.3, 0.62, 0.9]])
    p = t.param("alpha", [[0.25]])
    y = gumbel_sigmoid(t, p.raw, tau=1.0, u=u, hard=True)
    assert set(np.unique(y.value)) <= {0.0, 1.0}
    t.backward(t.sum(y))
    soft = 1.0 / (1.0 + np.exp(-(0.25 + logistic_noise(u))))
    np.testing.assert_allclose(p.raw.grad[0, 0], (soft * (1 - soft)).sum(), rtol=1e-12)


def test_gumbel_softmax_uniform_logits_pick_uniformly():
    # with equal logits the argmax of each hard row is uniform over columns
    k = 4
    t = Tape()
    logits = t.constant(np.zeros((1, k)))
    rows = 20_000
    y = gumbel_softmax(t, logits, u=Rng(3).uniform(rows, k), hard=True)
    counts = y.value.sum(axis=0)
    p = 1.0 / k
    se = np.sqrt(p * (1 - p) * rows)
    for c in counts:
        assert abs(c - rows * p) < 3 * se


def test_gumbel_softmax_hard_argmax_follows_softmax_of_nonuniform_logits():
    # the Gumbel-max trick: P(argmax_j (g_j + logit_j) = j) = softmax(logits)_j;
    # logistic noise in place of Gumbel noise gives [.427, .199, .082, .292]
    logits = np.array([[1.0, 0.0, -1.0, 0.5]])
    rows = 200_000
    t = Tape()
    y = gumbel_softmax(t, t.constant(logits), u=Rng(7).uniform(rows, 4),
                       hard=True)
    p = np.exp(logits[0]) / np.exp(logits[0]).sum()
    se = np.sqrt(p * (1 - p) * rows)
    assert np.all(np.abs(y.value.sum(axis=0) - rows * p) < 3 * se)


def test_gumbel_softmax_rows_sum_to_one():
    t = Tape()
    logits = t.constant([[0.5, -1.0, 2.0]])
    soft = gumbel_softmax(t, logits, tau=0.8, u=Rng(5).uniform(6, 3), hard=False)
    np.testing.assert_allclose(soft.value.sum(axis=1), np.ones(6), rtol=1e-12)
    hard = gumbel_softmax(t, logits, u=Rng(5).uniform(6, 3), hard=True)
    np.testing.assert_allclose(hard.value.sum(axis=1), np.ones(6))
    assert set(np.unique(hard.value)) <= {0.0, 1.0}


def test_gumbel_softmax_forbid_mask_excludes_columns():
    t = Tape()
    n = 5
    logits = t.constant(np.zeros((1, n)))
    forbid = np.eye(n, dtype=bool)
    y = gumbel_softmax(t, logits, u=Rng(9).uniform(n, n), forbid=forbid,
                       hard=True)
    assert np.all(np.diag(y.value) == 0.0)


def test_gumbel_softmax_low_temperature_concentrates():
    t = Tape()
    logits = t.constant([[3.0, 0.0, -3.0]])
    y = gumbel_softmax(t, logits, tau=0.05, u=np.full((1, 3), 0.5), hard=False)
    assert y.value[0, 0] > 0.999


def test_gumbel_softmax_gradient_with_frozen_noise():
    # finite differences on the logits with the same frozen uniforms
    u = np.full((2, 3), 0.41)
    s0 = np.array([[0.2, -0.7, 1.0]])

    def value(s):
        t = Tape()
        p = t.param("s", s)
        y = gumbel_softmax(t, p.raw, tau=0.9, u=u, hard=False)
        w = t.constant(np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.25]]))
        loss = t.sum(t.mul(y, w))
        return t, p, loss

    t, p, loss = value(s0)
    t.backward(loss)
    g = p.raw.grad.copy()
    h = 1e-6
    for j in range(3):
        sp, sm = s0.copy(), s0.copy()
        sp[0, j] += h
        sm[0, j] -= h
        _, _, lp = value(sp)
        _, _, lm = value(sm)
        fd = (lp.item() - lm.item()) / (2 * h)
        np.testing.assert_allclose(g[0, j], fd, rtol=1e-4)


def test_rng_distinct_indices_excludes_and_errors():
    r = Rng(0)
    for _ in range(200):
        idx = r.distinct_indices(6, 3, exclude=2)
        assert len(set(idx.tolist())) == 3
        assert 2 not in idx
    with pytest.raises(ValueError):
        r.distinct_indices(3, 3, exclude=0)


def test_rng_uniform_stays_clear_of_endpoints():
    u = Rng(1).uniform(1000, 10)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_rng_reproducible_streams():
    a = Rng(42).normal(5, 5)
    b = Rng(42).normal(5, 5)
    np.testing.assert_array_equal(a, b)
