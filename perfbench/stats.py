"""Arithmetic of the benchmark: percentiles, generation samples, run checks.

Pure Python without numpy, so the launcher and the tests import it without
the cost of the numeric stack.

A *bucket* is a dict of numbers collected between two consecutive
generation records of one run: ``gen_ms`` (the interval itself) and, in a
traced run, the self time and call count of every layer. A *generation* of
an arm is ``group`` consecutive buckets, so that every arm's generation
spends the same number of evaluations (the wine ``adam`` arm records one
epoch per bucket, and 30 epochs stand for one generation of population
30). A *workload generation* is one generation of every arm, summed.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> tuple[float, int]:
    """The ``q``-th percentile (0 to 100) and the number of samples.

    Linear interpolation between the closest ranks, numpy's default rule.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    pos = (n - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), n


def median(values) -> float:
    return percentile(values, 50.0)[0]


def add_into(acc: dict, other: dict) -> dict:
    for key, value in other.items():
        acc[key] = acc.get(key, 0.0) + value
    return acc


def generations(buckets: list, group: int) -> list:
    """Sum ``group`` consecutive buckets into one generation each.

    The first generation is dropped: its first bucket starts at the start
    of the run and so also holds the run's one-off work (building the
    problem and algorithm, the initial population). A trailing partial
    group is dropped too.
    """
    if group < 1:
        raise ValueError(f"group must be >= 1, got {group}")
    n = len(buckets) // group
    return [_sum(buckets[k * group:(k + 1) * group]) for k in range(1, n)]


def _sum(buckets) -> dict:
    acc: dict = {}
    for b in buckets:
        add_into(acc, b)
    return acc


def workload_generations(per_arm: list) -> list:
    """Index-aligned sums of the arms' generation lists of one repetition.

    Lists of unequal length (a failed run stops early) are cut to the
    shortest.
    """
    if not per_arm:
        return []
    n = min(len(gens) for gens in per_arm)
    return [_sum(gens[i] for gens in per_arm) for i in range(n)]


def medians(samples: list) -> dict:
    """Median of every key over the samples; a missing key counts as 0."""
    keys = sorted({k for s in samples for k in s})
    return {k: median([s.get(k, 0.0) for s in samples]) for k in keys}


def expected_evals(algo: str, budget: int, pop: int) -> int:
    """Evaluations a complete run records: whole generations of ``pop``.

    The ``adam`` arm counts one epoch per evaluation and runs ``budget``.
    """
    if algo == "adam":
        return budget
    return math.ceil(budget / pop) * pop


def check_run(records, err, expected: int):
    """Why a seeded run failed, or None when it passed.

    ``records`` are the run's generation records (``best_fitness`` and
    ``n_evals`` attributes), ``err`` the error the run reported.
    """
    if err is not None:
        return f"run reported an error: {err}"
    if not records:
        return "run produced no generation records"
    last = records[-1]
    if not math.isfinite(last.best_fitness):
        return f"final best fitness is not finite ({last.best_fitness})"
    if last.n_evals != expected:
        return f"{last.n_evals} evaluations, expected {expected}"
    return None
