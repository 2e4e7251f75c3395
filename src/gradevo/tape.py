"""Reverse-mode automatic differentiation on an append-only tape.

Every value is a 2-D float64 array wrapped in a :class:`Var` that remembers
which tape node produced it. Recording an operation appends a node holding
the forward value, the parent node ids and a vjp closure; :meth:`Tape.backward`
walks the nodes in reverse id order and accumulates vector-Jacobian products
into per-node gradient buffers.

Gradients reach only the nodes a param reaches (activity analysis, Griewank
& Walther, *Evaluating Derivatives*, ch. 6). A node ``needs_grad`` when it
is a param or when any of its parents needs one; a node that does not
records no vjp and no parents, and an op's vjp computes only the parent
gradients whose parent needs one, returning None for the others. Constants
and everything computed from constants alone keep ``grad`` None.

The tape's own ops are the reductions ``mean`` and ``min_with_index``,
``matmul`` and ``clamp``; ``param`` and ``constant`` make leaves. Every
other function with a hand-written vjp records itself as one node
through ``Tape._record``: the wine MLP loss (``WineProblem.eval_pop``),
each benchmark function (``BenchmarkProblem.eval_pop``), the two relaxed
samplers (``relax.gumbel_softmax`` and ``relax.gumbel_sigmoid``), the
CMA-ES sample and box penalty (``diffevo.cma_sample`` and
``box_penalty``), the GA, DE and PSO variation steps
(``diffevo.ga_variation``, ``de_variation`` and ``pso_move``) and the
gradient checks' loss (``gradcheck.weighted_sum``). Such a vjp may
return every parent's gradient; ``_record`` drops the ones whose parent
no param reaches. ``_stretches_onto`` and ``_reduce_to`` give the
broadcasting rule of the nodes whose operand may be a scalar, a row or a
column against a full shape: stretched along its axes of length 1, its
gradient summed back over them.

Trainable leaves are created through :meth:`Tape.param` and survive
:meth:`Tape.reset`, which drops every other node so the next generation can
be recorded on a short tape.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


def _as2d(values) -> Array:
    a = np.asarray(values, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ValueError(f"tape values must be at most 2-D, got shape {a.shape}")
    return a


def _is_scalar(a: Array) -> bool:
    return a.shape == (1, 1)


def _sigmoid(x):
    # stable two-branch logistic
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _reduce_to(g: Array, shape) -> Array:
    # sum a broadcast gradient over the axes its operand was stretched along
    if g.shape == shape:
        return g
    axes = tuple(i for i, (n, m) in enumerate(zip(shape, g.shape))
                 if n == 1 and m != 1)
    return g.sum(axis=axes, keepdims=True)


def _stretches_onto(s, t) -> bool:
    # shape s broadcasts onto shape t without changing t
    return all(n == m or n == 1 for n, m in zip(s, t))


def _only_needed(vjp, need):
    def masked(g):
        return tuple(pg if n else None for pg, n in zip(vjp(g), need))
    return masked


class Var:
    """One tape node: forward value, parents, vjp and a gradient buffer."""

    __slots__ = ("tape", "nid", "op", "value", "grad", "needs_grad", "_parents", "_vjp")

    def __init__(self, tape, nid, op, value, parents=(), vjp=None, needs_grad=False):
        self.tape = tape
        self.nid = nid
        self.op = op
        self.value = value
        self.grad = None
        self.needs_grad = needs_grad
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.value.shape

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    def item(self) -> float:
        if not _is_scalar(self.value):
            raise ValueError(f"item() on non-scalar Var of shape {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self):
        return f"Var(nid={self.nid}, op={self.op!r}, shape={self.shape})"


class Param:
    """A named trainable leaf; ``raw`` is its on-tape Var."""

    def __init__(self, name: str, raw: Var):
        self.name = name
        self.raw = raw


class Tape:
    """Append-only node arena with reverse-order gradient accumulation."""

    def __init__(self):
        self.nodes: list[Var] = []
        self.params: list[Param] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _record(self, op, value, parents=(), vjp=None) -> Var:
        # a node no param reaches keeps neither its parents nor its vjp, and
        # a parent no param reaches takes no gradient from a composite vjp
        # that computes them all
        need = [p.needs_grad for p in parents]
        if any(need):
            if not all(need):
                vjp = _only_needed(vjp, need)
            v = Var(self, len(self.nodes), op, value,
                    tuple(p.nid for p in parents), vjp, True)
        else:
            v = Var(self, len(self.nodes), op, value)
        self.nodes.append(v)
        return v

    def constant(self, values) -> Var:
        return self._record("const", _as2d(values).copy())

    def param(self, name: str, values) -> Param:
        if any(p.name == name for p in self.params):
            raise ValueError(f"duplicate param name {name!r}")
        raw = Var(self, len(self.nodes), "param", _as2d(values).copy(),
                  needs_grad=True)
        self.nodes.append(raw)
        p = Param(name, raw)
        self.params.append(p)
        return p

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def mean(self, a: Var) -> Var:
        shape = a.shape
        n = a.value.size

        def vjp(g):
            return (np.full(shape, g[0, 0] / n),)

        return self._record("mean", np.array([[a.value.mean()]]), (a,), vjp)

    def min_with_index(self, a: Var) -> tuple[Var, int]:
        """Full reduction to the minimum value plus its flat index.

        Ties go to the lowest flat index (C order); the full incoming gradient
        is routed to that single winning entry.
        """
        idx = int(np.argmin(a.value))
        shape = a.shape

        def vjp(g):
            z = np.zeros(shape)
            z.flat[idx] = g[0, 0]
            return (z,)

        out = self._record(
            "min_with_index", np.array([[a.value.flat[idx]]]), (a,), vjp
        )
        return out, idx

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------

    def matmul(self, a: Var, b: Var) -> Var:
        if a.cols != b.rows:
            raise ValueError(f"matmul: inner dims {a.shape} @ {b.shape}")
        av, bv = a.value, b.value
        na, nb = a.needs_grad, b.needs_grad

        def vjp(g):
            return (g @ bv.T if na else None), (av.T @ g if nb else None)

        return self._record("matmul", av @ bv, (a, b), vjp)

    # ------------------------------------------------------------------
    # gradient flow control
    # ------------------------------------------------------------------

    def clamp(self, a: Var, lo, hi) -> Var:
        """Hard clamp to [lo, hi] with the usual subgradient: gradient passes
        unchanged strictly inside the box and is zero where the value sits on
        or outside a bound."""
        lov = np.asarray(lo, dtype=np.float64)
        hiv = np.asarray(hi, dtype=np.float64)
        av = a.value
        inside = (av > lov) & (av < hiv)

        def vjp(g):
            return (g * inside,)

        return self._record("clamp", np.clip(av, lov, hiv), (a,), vjp)

    # ------------------------------------------------------------------
    # backward / lifecycle
    # ------------------------------------------------------------------

    def backward(self, loss: Var) -> None:
        """Accumulate d(loss)/d(node) into the ``grad`` of every node that
        both reaches the loss and is reached by a param.

        Nodes no param reaches keep ``grad`` None, and so does every node
        when no param reaches the loss. Each call propagates a fresh unit
        seed and adds its contribution on top of whatever the buffers
        already hold, so two backward calls without an intervening zero_grad
        double the gradients. Contributions are never updated in place (a
        vjp may hand the same array to several parents), so a ``grad`` may
        share memory with another node's and must be treated as read-only.
        """
        if loss.tape is not self:
            raise ValueError("backward: loss belongs to a different tape")
        if not _is_scalar(loss.value):
            raise ValueError(f"backward: loss must be scalar, got {loss.shape}")
        if not loss.needs_grad:
            return
        contrib: list = [None] * len(self.nodes)
        contrib[loss.nid] = np.ones((1, 1))
        for nid in range(loss.nid, -1, -1):
            g = contrib[nid]
            if g is None:
                continue
            node = self.nodes[nid]
            if node._vjp is None:
                continue
            for pid, pg in zip(node._parents, node._vjp(g)):
                if pg is None:
                    continue
                c = contrib[pid]
                contrib[pid] = pg if c is None else c + pg
        for nid, c in enumerate(contrib):
            if c is None:
                continue
            node = self.nodes[nid]
            if node.grad is None:
                node.grad = c
            else:
                node.grad = node.grad + c

    def zero_grad(self) -> None:
        for node in self.nodes:
            node.grad = None

    def reset(self) -> None:
        """Drop every node except registered params, renumbering their ids.

        Param values and gradient buffers survive; any Var recorded after the
        params becomes invalid and must not be used again.
        """
        fresh: list[Var] = []
        for p in self.params:
            p.raw.nid = len(fresh)
            p.raw._parents = ()
            fresh.append(p.raw)
        self.nodes = fresh
