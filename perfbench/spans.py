"""Layer spans timed from outside the program.

``Tracer.wrap`` turns a function into a span: each call adds its self time
(its duration minus the durations of the spans it directly encloses) and
one call to the tracer's current bucket. ``instrument`` installs such
wrappers on the public functions of every gradevo layer, at the names
where the program looks them up, and ``Patches.restore`` takes them out
again. Nothing in the package itself changes.
"""

from __future__ import annotations

import time

_MISSING = object()

# Tape methods that record no node: everything else public is an op
_TAPE_NON_OPS = ("param", "size", "backward", "zero_grad", "reset")

FITNESS_KERNELS = ("sphere_batch", "ackley_batch", "griewank_batch",
                   "rosenbrock_batch", "michalewicz_batch")
OPERATOR_KERNELS = ("sbx_children", "poly_mutation", "de_trial", "pso_step")


class Tracer:
    """Self times and counts of named spans, collected into buckets.

    ``cut()`` hands back the current bucket and starts a new one. Keys are
    ``<name>_ms`` (self time, milliseconds) and ``<name>_calls`` unless the
    caller names them, plus whatever ``add`` counts.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.bucket: dict = {}
        self._open: list = []   # enclosed-span time of each open span

    def add(self, key: str, value: float) -> None:
        self.bucket[key] = self.bucket.get(key, 0.0) + value

    def cut(self) -> dict:
        bucket, self.bucket = self.bucket, {}
        return bucket

    def wrap(self, fn, name: str, ms_key: str = None, calls_key: str = None,
             pre=None, post=None):
        """``fn`` as a span; ``pre(tracer, args)`` runs before the call and
        ``post(tracer, args, result)`` after it, both outside the span."""
        ms_key = ms_key or f"{name}_ms"
        calls_key = calls_key or f"{name}_calls"
        clock = self.clock
        opened = self._open
        tracer = self

        def span(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            opened.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = opened.pop()
                bucket = tracer.bucket
                bucket[ms_key] = bucket.get(ms_key, 0.0) + (dur - inner) * 1e3
                bucket[calls_key] = bucket.get(calls_key, 0.0) + 1.0
                if opened:
                    opened[-1] += dur
            if post is not None:
                post(tracer, args, result)
            return result

        return span


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner, attr: str, name: str, **kw) -> None:
        self.set(owner, attr, tracer.wrap(getattr(owner, attr), name, **kw))

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def tape_ops() -> tuple[str, ...]:
    from gradevo.tape import Tape

    return tuple(
        n for n, v in vars(Tape).items()
        if callable(v) and not n.startswith("_") and n not in _TAPE_NON_OPS
    )


def _count_tape(tracer: Tracer, args) -> None:
    nodes = args[0].nodes
    tracer.add("tape.nodes", len(nodes))
    tracer.add("tape.bytes", sum(n.value.nbytes for n in nodes))


def _count_adam(tracer: Tracer, args) -> None:
    # per slot: read value, grad, m, v; write m, v, value, delta
    tracer.add("outer.adam_bytes",
               8 * sum(p.raw.value.nbytes for p in args[0].params))


def _count_pop(tracer: Tracer, args) -> None:
    tracer.add("problems.evals", args[2].rows)


def _count_array(tracer: Tracer, args) -> None:
    tracer.add("problems.evals", len(args[1]))


def _count_kernel(tracer: Tracer, args, result) -> None:
    outs = result if isinstance(result, tuple) else (result,)
    tracer.add("kernels.bytes", sum(getattr(a, "nbytes", 0)
                                    for a in (*args, *outs)))


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer's public functions where gradevo looks them up."""
    import numpy as np

    from gradevo import classic, diffevo, harness, kernels, outer, problems
    from gradevo import relax, tape, wine

    w = patches.wrap
    w(tracer, outer.Adam, "step", "outer.adam", pre=_count_adam)
    w(tracer, outer.PlateauScheduler, "step", "outer.sched")
    w(tracer, tape.Tape, "zero_grad", "outer.zero_grad")
    w(tracer, tape.Tape, "backward", "tape.backward")
    w(tracer, tape.Tape, "reset", "tape.reset", pre=_count_tape)
    for op in tape_ops():
        w(tracer, tape.Tape, op, op, ms_key=f"tape.op_ms.{op}",
          calls_key=f"tape.op_calls.{op}")

    for cls in diffevo.ALGORITHMS.values():
        w(tracer, cls, "draw_noise", "diffevo.draw_noise")
        w(tracer, cls, "generation", "diffevo.forward")
        w(tracer, cls, "update_state", "diffevo.commit")
    for cls in harness.CLASSIC_ALGORITHMS.values():
        w(tracer, cls, "generation", "classic.generation")
    for module in (classic, diffevo):
        w(tracer, module, "cholesky_with_jitter", "classic.cholesky")
    # every factorization attempt inside cholesky_with_jitter; the jitter
    # retries are the attempts beyond one per call
    cholesky = np.linalg.cholesky

    def counted_cholesky(*args, **kwargs):
        tracer.add("classic.cholesky_attempts", 1.0)
        return cholesky(*args, **kwargs)

    patches.set(np.linalg, "cholesky", counted_cholesky)

    for name in ("gumbel_softmax", "gumbel_sigmoid"):
        w(tracer, diffevo, name, f"relax.{name}")
    for name in ("uniform", "normal", "integers", "permutation",
                 "distinct_indices"):
        w(tracer, relax.Rng, name, "relax.rng")

    w(tracer, problems.Problem, "eval_pop", "problems.eval_pop",
      pre=_count_pop)
    w(tracer, problems.Problem, "eval_array", "problems.eval_array",
      pre=_count_array)
    for name in FITNESS_KERNELS:
        w(tracer, kernels, name, "kernels.fitness", post=_count_kernel)
    for name in OPERATOR_KERNELS:
        w(tracer, kernels, name, "kernels.operator", post=_count_kernel)

    for module in (wine, harness):
        w(tracer, module, "mlp_forward", "wine.mlp_forward")
    w(tracer, harness, "build_problem", "harness.build_problem")
    w(tracer, harness, "build_algo", "harness.build_algo")
    for name in ("write_run_csv", "write_summary_csv"):
        w(tracer, harness, name, "harness.csv")
