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

Shape rules are strict: binary elementwise ops require identical shapes, with
the single exception that a (1, 1) scalar broadcasts against any shape (the
scalar's gradient is then the sum over the broadcast positions). Row- and
column-vector broadcasts have their own dedicated ops so the intent is
explicit in the graph.

A composite function with a hand-written vjp records itself as one node
through ``Tape._record``: the wine MLP loss (``WineProblem.eval_pop``),
each benchmark function (``BenchmarkProblem.eval_pop``) and the CMA-ES
sample (``diffevo.cma_sample``).

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
    return np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


def _reduce_to(g: Array, shape) -> Array:
    # collapse a broadcast gradient back onto a (1, 1) scalar parent
    if g.shape == shape:
        return g
    return np.array([[g.sum()]])


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

    # operator sugar; floats wrap into constant scalars
    def _coerce(self, other) -> "Var":
        if isinstance(other, Var):
            return other
        return self.tape.constant(np.array([[float(other)]]))

    def __add__(self, other):
        return self.tape.add(self, self._coerce(other))

    def __radd__(self, other):
        return self.tape.add(self._coerce(other), self)

    def __sub__(self, other):
        return self.tape.sub(self, self._coerce(other))

    def __rsub__(self, other):
        return self.tape.sub(self._coerce(other), self)

    def __mul__(self, other):
        return self.tape.mul(self, self._coerce(other))

    def __rmul__(self, other):
        return self.tape.mul(self._coerce(other), self)

    def __neg__(self):
        return self.tape.neg(self)

    def __pow__(self, exponent):
        if isinstance(exponent, Var):
            return self.tape.pow(self, exponent)
        return self.tape.powc(self, float(exponent))

    def __matmul__(self, other):
        return self.tape.matmul(self, other)


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
        # a node no param reaches keeps neither its parents nor its vjp
        if any(p.needs_grad for p in parents):
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
    # elementwise binary ops (exact shapes, or one side a (1,1) scalar)
    # ------------------------------------------------------------------

    def _check_binary(self, a: Var, b: Var, op: str):
        if a.shape != b.shape and not _is_scalar(a.value) and not _is_scalar(b.value):
            raise ValueError(
                f"{op}: shapes {a.shape} and {b.shape} do not match and neither is scalar"
            )

    def add(self, a: Var, b: Var) -> Var:
        self._check_binary(a, b, "add")
        sa, sb = a.shape, b.shape
        na, nb = a.needs_grad, b.needs_grad

        def vjp(g):
            return (_reduce_to(g, sa) if na else None,
                    _reduce_to(g, sb) if nb else None)

        return self._record("add", a.value + b.value, (a, b), vjp)

    def sub(self, a: Var, b: Var) -> Var:
        self._check_binary(a, b, "sub")
        sa, sb = a.shape, b.shape
        na, nb = a.needs_grad, b.needs_grad

        def vjp(g):
            return (_reduce_to(g, sa) if na else None,
                    _reduce_to(-g, sb) if nb else None)

        return self._record("sub", a.value - b.value, (a, b), vjp)

    def mul(self, a: Var, b: Var) -> Var:
        self._check_binary(a, b, "mul")
        av, bv = a.value, b.value
        na, nb = a.needs_grad, b.needs_grad

        def vjp(g):
            return (_reduce_to(g * bv, av.shape) if na else None,
                    _reduce_to(g * av, bv.shape) if nb else None)

        return self._record("mul", av * bv, (a, b), vjp)

    def pow(self, a: Var, b: Var) -> Var:
        """a ** b with a Var exponent. Requires base >= 0.

        d/da = b * a**(b-1); d/db = a**b * log(a) where a > 0, zero at a == 0.
        """
        self._check_binary(a, b, "pow")
        if np.any(a.value < 0.0):
            raise ValueError("pow: negative base with Var exponent")
        av, bv = a.value, b.value
        na, nb = a.needs_grad, b.needs_grad
        out = np.power(av, bv)

        def vjp(g):
            da = db = None
            if na:
                da = _reduce_to(g * bv * np.power(av, bv - 1.0), av.shape)
            if nb:
                safe = np.where(av > 0.0, av, 1.0)
                db = _reduce_to(g * out * np.where(av > 0.0, np.log(safe), 0.0),
                                bv.shape)
            return da, db

        return self._record("pow", out, (a, b), vjp)

    def powc(self, a: Var, exponent: float) -> Var:
        """a ** c for a constant exponent; negative bases need integer c."""
        c = float(exponent)
        if np.any(a.value < 0.0) and c != int(c):
            raise ValueError("powc: negative base with non-integer exponent")
        av = a.value
        out = np.power(av, c)

        def vjp(g):
            return (g * c * np.power(av, c - 1.0),)

        return self._record("powc", out, (a,), vjp)

    # ------------------------------------------------------------------
    # elementwise unary ops
    # ------------------------------------------------------------------

    def neg(self, a: Var) -> Var:
        return self._record("neg", -a.value, (a,), lambda g: (-g,))

    def exp(self, a: Var) -> Var:
        out = np.exp(a.value)
        return self._record("exp", out, (a,), lambda g: (g * out,))

    def sigmoid(self, a: Var) -> Var:
        out = _sigmoid(a.value)
        return self._record(
            "sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),)
        )

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def sum(self, a: Var) -> Var:
        shape = a.shape

        def vjp(g):
            return (np.full(shape, g[0, 0]),)

        return self._record("sum", np.array([[a.value.sum()]]), (a,), vjp)

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

    def row_sum(self, a: Var) -> Var:
        cols = a.cols

        def vjp(g):
            return (np.repeat(g, cols, axis=1),)

        return self._record("row_sum", a.value.sum(axis=1, keepdims=True), (a,), vjp)

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
    # row and column broadcasts
    # ------------------------------------------------------------------

    def add_rowvec(self, a: Var, b: Var) -> Var:
        """(n, m) + (1, m) broadcast over rows."""
        if b.rows != 1 or b.cols != a.cols:
            raise ValueError(f"add_rowvec: {a.shape} + {b.shape}")
        na, nb = a.needs_grad, b.needs_grad

        def vjp(g):
            return (g if na else None), (g.sum(axis=0, keepdims=True) if nb else None)

        return self._record("add_rowvec", a.value + b.value, (a, b), vjp)

    def mul_rowvec(self, a: Var, b: Var) -> Var:
        """(n, m) * (1, m) broadcast over rows."""
        if b.rows != 1 or b.cols != a.cols:
            raise ValueError(f"mul_rowvec: {a.shape} * {b.shape}")
        av, bv = a.value, b.value
        na, nb = a.needs_grad, b.needs_grad

        def vjp(g):
            return ((g * bv if na else None),
                    ((g * av).sum(axis=0, keepdims=True) if nb else None))

        return self._record("mul_rowvec", av * bv, (a, b), vjp)

    def mul_colvec(self, a: Var, b: Var) -> Var:
        """(n, m) * (n, 1) broadcast over columns."""
        if b.cols != 1 or b.rows != a.rows:
            raise ValueError(f"mul_colvec: {a.shape} * {b.shape}")
        av, bv = a.value, b.value
        na, nb = a.needs_grad, b.needs_grad

        def vjp(g):
            return ((g * bv if na else None),
                    ((g * av).sum(axis=1, keepdims=True) if nb else None))

        return self._record("mul_colvec", av * bv, (a, b), vjp)

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

    def straight_through(self, hard, soft: Var) -> Var:
        """Forward the hard values, backpropagate as if they were ``soft``."""
        hv = hard.value if isinstance(hard, Var) else _as2d(hard)
        if hv.shape != soft.shape:
            raise ValueError(
                f"straight_through: hard {hv.shape} vs soft {soft.shape}"
            )

        def vjp(g):
            return (g,)

        return self._record("straight_through", hv.copy(), (soft,), vjp)

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
