"""The composite tape nodes of the relaxed samplers and variation steps:
how many nodes a generation records, and the samplers' hard path."""

import numpy as np
import pytest

from gradevo.harness import ExperimentConfig, build_algo, build_problem
from gradevo.relax import Rng, gumbel_sigmoid, gumbel_softmax
from gradevo.tape import Tape

# one generation at the grid's defaults (Ackley-30, pop 100): params, then
# each op a generation records; a chain of small ops rebuilt in place of a
# node shows here before it shows in the benchmark
NODE_BUDGET = {
    "pso-diff": (7, {"param", "pso_move", "ackley", "min_with_index"}),
    "ga-diff": (15, {"param", "gumbel_softmax", "matmul", "gumbel_sigmoid",
                     "ga_variation", "ackley", "min_with_index"}),
    "de-diff": (14, {"param", "gumbel_softmax", "matmul", "gumbel_sigmoid",
                     "de_variation", "ackley", "min_with_index"}),
    # the box penalty's six nodes: the first draws leave the box
    "cmaes-diff": (13, {"param", "cma_sample", "clamp", "ackley", "sub",
                        "mul", "const", "row_sum", "add", "min_with_index"}),
}


@pytest.mark.parametrize("algo", sorted(NODE_BUDGET))
def test_generation_records_its_node_budget(algo):
    cfg = ExperimentConfig(algo=algo, problem="ackley", dim=30, pop=100)
    arm = build_algo(cfg, build_problem(cfg), 0)
    arm.generation()
    count, ops = NODE_BUDGET[algo]
    assert (len(arm.tape.nodes), {n.op for n in arm.tape.nodes}) == (count, ops)


def test_gumbel_softmax_hard_forward_is_one_hot_backward_is_soft():
    u = Rng(4).uniform(5, 3)
    w = Rng(5).normal(5, 3)
    values, grads = [], []
    for hard in (True, False):
        t = Tape()
        p = t.param("s", [[0.3, -0.4, 1.1]])
        y = gumbel_softmax(t, p.raw, tau=0.8, u=u, hard=hard)
        t.backward(t.sum(t.mul(y, t.constant(w))))
        values.append(y.value)
        grads.append(p.raw.grad)
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), np.argmax(values[1], axis=1)] = 1.0
    assert np.array_equal(values[0], onehot)        # bit-exact hard forward
    np.testing.assert_array_equal(grads[0], grads[1])


def test_gumbel_sigmoid_rejects_alpha_that_does_not_broadcast():
    t = Tape()
    u = np.full((2, 3), 0.4)
    for shape in ((2, 2), (1, 2), (3, 3)):
        with pytest.raises(ValueError):
            gumbel_sigmoid(t, t.constant(np.zeros(shape)), u=u)
