"""The pair script's arithmetic, driven by a fake runner (no subprocess)."""

import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _path)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

METRICS = [{"name": "gen_ms_p50", "better": "lower"},
           {"name": "peak_rss_mb", "better": "lower"}]


def fake_runner(table, calls):
    def run(side, workload, seed):
        calls.append((side, workload, seed))
        value = table[side][seed]
        if value is None:
            return {"error": "child measure exited with 1"}
        return {"metrics": {"gen_ms_p50": value, "peak_rss_mb": 300.0},
                "env": {"numpy": "2.0", "blas_threads": "1", "nproc": "2"}}
    return run


def test_pairs_alternate_sides_and_ratios_have_numpy_quartiles():
    parent = [100.0, 110.0, 90.0, 120.0, 100.0]
    change = [80.0, 99.0, 90.0, 96.0, 85.0]
    calls = []
    res = bench_pair.run_pairs(
        fake_runner({"parent": parent, "change": change}, calls),
        ["wine", "grid"], list(range(5)), METRICS)

    # parent first in even pairs, change first in odd ones, every workload
    assert calls[:4] == [("parent", "wine", 0), ("change", "wine", 0),
                         ("parent", "grid", 0), ("change", "grid", 0)]
    assert calls[4:6] == [("change", "wine", 1), ("parent", "wine", 1)]
    assert [p["first"] for p in res["wine"]["pairs"]] == \
        ["parent", "change", "parent", "change", "parent"]

    s = res["wine"]["summary"]["gen_ms_p50"]
    # ratios 0.8, 0.9, 1.0, 0.8, 0.85; sorted 0.8 0.8 0.85 0.9 1.0, and the
    # quartiles interpolate linearly between ranks as numpy does
    assert s["ratios"] == pytest.approx([0.8, 0.9, 1.0, 0.8, 0.85])
    assert s["ratio"] == pytest.approx({"q1": 0.8, "median": 0.85, "q3": 0.9})
    assert s["parent"] == pytest.approx({"q1": 100.0, "median": 100.0,
                                         "q3": 110.0})
    assert s["change"]["median"] == 90.0
    assert s["wins"] == 4                   # the 90 against 90 tie is no win
    assert s["pairs"] == 5 and s["failed_pairs"] == 0
    # an unchanged metric wins no pair
    assert res["wine"]["summary"]["peak_rss_mb"]["wins"] == 0
    assert res["wine"]["summary"]["peak_rss_mb"]["ratio"]["median"] == 1.0


def test_a_failed_side_drops_its_pair_from_the_ratios():
    table = {"parent": [100.0, 100.0, 100.0, 100.0],
             "change": [50.0, None, 80.0, 90.0]}
    res = bench_pair.run_pairs(fake_runner(table, []), ["wine"],
                               list(range(4)), METRICS)
    s = res["wine"]["summary"]["gen_ms_p50"]
    assert s["pairs"] == 3 and s["failed_pairs"] == 1
    assert s["ratio"]["median"] == pytest.approx(0.8)
    assert s["ratio"]["q1"] == pytest.approx(0.65)
    assert "error" in res["wine"]["pairs"][1]["change"]


def test_a_metric_where_higher_is_better_counts_wins_upward():
    table = {"parent": [1.0, 2.0], "change": [2.0, 1.0]}
    res = bench_pair.run_pairs(fake_runner(table, []), ["wine"], [0, 1],
                               [{"name": "gen_ms_p50", "better": "higher"}])
    assert res["wine"]["summary"]["gen_ms_p50"]["wins"] == 1


def test_environments_and_env_line():
    line = ("env: python=3.11.7 numpy=2.4.6 blas=scipy-openblas 0.3.29 "
            "blas_threads=1 nproc=2")
    env = bench_pair.parse_env("perfbench wine seed=0\n" + line + "\nmore")
    assert env == {"python": "3.11.7", "numpy": "2.4.6",
                   "blas": "scipy-openblas 0.3.29", "blas_threads": "1",
                   "nproc": "2"}
    res = bench_pair.run_pairs(
        fake_runner({"parent": [1.0, 1.0], "change": [1.0, 1.0]}, []),
        ["wine"], [0, 1], METRICS)
    assert bench_pair.environments(res) == {
        "parent": [{"numpy": "2.0", "blas_threads": "1", "nproc": "2"}],
        "change": [{"numpy": "2.0", "blas_threads": "1", "nproc": "2"}]}


def test_blas_threads_reads_both_openblas_builds_under_perfbench_env():
    from gradevo import par

    counts = bench_pair.blas_threads(_path.parents[1])
    # the same builds this process finds, each at perfbench's one thread
    assert set(counts) == set(par.blas_threads())
    assert all(v == 1 for v in counts.values())


def test_malloc_policy_reads_each_sides_policy_and_null_without_one(tmp_path):
    from gradevo import par

    assert bench_pair.malloc_policy(_path.parents[1]) == par.set_malloc()
    # a checkout whose par sets no policy, as at the parent of the policy
    pkg = tmp_path / "src" / "gradevo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "par.py").write_text("")
    assert bench_pair.malloc_policy(tmp_path) is None
