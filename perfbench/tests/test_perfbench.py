"""Tests of the benchmark's own arithmetic, spans and failure accounting.

    python3 -m pytest perfbench/tests
"""

import math
from types import SimpleNamespace

import pytest

import child
import spans
import stats


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------


def test_percentile_interpolates_and_reports_sample_count():
    values = [float(v) for v in range(10, 0, -1)]      # 10 .. 1, unsorted
    assert stats.percentile(values, 50) == (5.5, 10)
    p90, n = stats.percentile(values, 90)
    assert p90 == pytest.approx(9.1) and n == 10
    assert stats.percentile(values, 0) == (1.0, 10)
    assert stats.percentile(values, 100) == (10.0, 10)
    assert stats.percentile([7.0], 90) == (7.0, 1)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_directly_enclosed_spans():
    # outer [0, 10] encloses inner [1, 3] and inner [4, 8]; the second
    # inner encloses leaf [5, 6]
    clock = FakeClock([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = spans.Tracer(clock=clock)
    leaf = tracer.wrap(lambda: None, "leaf")

    def inner_body(nested):
        if nested:
            leaf()

    inner = tracer.wrap(inner_body, "inner")

    def outer_body():
        inner(False)
        inner(True)

    tracer.wrap(outer_body, "outer")()
    b = tracer.cut()
    assert b["outer_ms"] == pytest.approx((10 - 2 - 4) * 1e3)
    assert b["inner_ms"] == pytest.approx((2 + (4 - 1)) * 1e3)
    assert b["leaf_ms"] == pytest.approx(1e3)
    assert (b["outer_calls"], b["inner_calls"], b["leaf_calls"]) == (1, 2, 1)
    assert tracer.cut() == {}


def test_span_is_recorded_when_the_call_raises():
    tracer = spans.Tracer(clock=FakeClock([0.0, 2.0, 3.0, 7.0]))

    def boom():
        raise KeyError("x")

    failing = tracer.wrap(boom, "failing")

    def outer_body():
        with pytest.raises(KeyError):
            failing()

    tracer.wrap(outer_body, "outer")()
    b = tracer.cut()
    assert b["failing_ms"] == pytest.approx(1e3)
    assert b["outer_ms"] == pytest.approx(6e3)


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Sub(Base):
        def g(self):
            return "sub"

    g = vars(Sub)["g"]
    module = SimpleNamespace(h=len)
    patches = spans.Patches()
    tracer = spans.Tracer()
    patches.wrap(tracer, Sub, "f", "f")
    patches.wrap(tracer, Sub, "g", "g")
    patches.set(module, "h", abs)
    assert Sub().f() == "base" and Sub().g() == "sub"
    assert tracer.cut()["f_calls"] == 1
    patches.restore()
    assert "f" not in vars(Sub)
    assert vars(Sub)["g"] is g
    assert Sub().g() == "sub" and tracer.cut() == {}
    assert module.h is len


# ----------------------------------------------------------------------
# generations
# ----------------------------------------------------------------------


def test_generations_group_buckets_and_drop_the_first():
    buckets = [{"gen_ms": float(i)} for i in range(7)]
    assert stats.generations(buckets, 1) == [{"gen_ms": float(i)}
                                             for i in range(1, 7)]
    # groups {0,1} {2,3} {4,5}; the first is dropped, bucket 6 is partial
    assert stats.generations(buckets, 2) == [{"gen_ms": 5.0}, {"gen_ms": 9.0}]
    assert stats.generations(buckets[:1], 1) == []


def test_workload_generations_sum_arms_and_cut_to_shortest():
    a = [{"gen_ms": 1.0, "x": 1.0}, {"gen_ms": 2.0}]
    b = [{"gen_ms": 10.0}, {"gen_ms": 20.0}, {"gen_ms": 30.0}]
    assert stats.workload_generations([a, b]) == [
        {"gen_ms": 11.0, "x": 1.0}, {"gen_ms": 22.0}]
    assert stats.medians([{"x": 1.0}, {"x": 3.0}, {}]) == {"x": 1.0}


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------


def _record(best, evals):
    return SimpleNamespace(best_fitness=best, n_evals=evals)


def test_expected_evals_rounds_up_to_whole_generations():
    assert stats.expected_evals("cmaes", 9900, 100) == 9900
    assert stats.expected_evals("cmaes", 9950, 100) == 10000
    assert stats.expected_evals("adam", 150, 1) == 150


def test_check_run_flags_non_finite_short_and_errored_runs():
    good = [_record(3.0, 100), _record(2.0, 200)]
    assert stats.check_run(good, None, 200) is None
    assert "not finite" in stats.check_run(
        [_record(math.nan, 200)], None, 200)
    assert "not finite" in stats.check_run(
        [_record(math.inf, 200)], None, 200)
    assert "expected 300" in stats.check_run(good, None, 300)
    assert "error" in stats.check_run(good, "ValueError: x", 200)
    assert "no generation records" in stats.check_run([], None, 200)


def _run(algo, best, evals, budget=200, pop=100):
    cfg = SimpleNamespace(algo=algo, budget=budget, pop=pop)
    return child.Run(cfg, [_record(best, evals)], None, [])


def _rep(traced, *runs, error=None):
    return child.Rep(traced, 1.0, list(runs), {}, error)


def test_check_reps_counts_each_seeded_run_once():
    workload = SimpleNamespace(arms=("ga", "de"))
    reps = [
        _rep(False, _run("ga", 1.0, 200), _run("de", 2.0, 200)),
        _rep(True, _run("ga", 1.0, 200), _run("de", 2.5, 200)),   # differs
        _rep(False, _run("ga", math.nan, 200), _run("de", 2.0, 100)),
        _rep(False, _run("ga", 1.0, 200), error="boom"),          # de missing
    ]
    attempted, failures = child.check_reps(workload, reps)
    assert attempted == 8
    assert len(failures) == 4
    assert "differs from the untraced" in failures[0]
    assert "not finite" in failures[1]
    assert "expected 200" in failures[2]
    assert "did not run: boom" in failures[3]


# ----------------------------------------------------------------------
# the wrappers do not change results
# ----------------------------------------------------------------------


@pytest.mark.parametrize("algo", ["ga", "cmaes", "de-diff", "cmaes-diff"])
def test_instrumented_run_matches_plain_run(algo):
    from gradevo import harness, tape

    cfg = harness.ExperimentConfig(algo=algo, problem="ackley", dim=5, pop=12,
                                   budget=120, runs=1, seed=3)
    _, plain, err = harness.run_single(cfg, 0)
    assert err is None
    originals = dict(vars(tape.Tape))
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.instrument(tracer, patches)
    try:
        _, traced, err = harness.run_single(cfg, 0)
    finally:
        patches.restore()
    assert err is None
    assert [r.best_fitness for r in traced] == [r.best_fitness for r in plain]
    assert dict(vars(tape.Tape)) == originals
    initial = 12 if algo in ("ga", "de-diff") else 0    # lazy initial pop
    assert tracer.cut()["problems.evals"] == 120 + initial
