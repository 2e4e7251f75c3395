"""The row pool: chunking, exceptions from chunks, the BLAS pin, the LAPACK
lookup and the allocator policy."""

import json
import os
import platform
import subprocess
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import gradevo
from gradevo import harness, par

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the allocator policy is glibc's")


def test_split_gives_contiguous_chunks_covering_every_item(monkeypatch):
    monkeypatch.setattr(par, "_width", 3)
    assert par.split(10) == [range(0, 3), range(3, 6), range(6, 10)]
    assert par.split(2) == [range(0, 1), range(1, 2)]
    assert par.split(0) == [range(0, 0)]
    rows = np.array([1, 4, 5, 8, 9])
    parts = par.split(rows)
    assert [p.tolist() for p in parts] == [[1], [4, 5], [8, 9]]
    assert [p.tolist() for p in par.split(rows[:0])] == [[]]


def test_run_calls_every_chunk_with_its_arguments(monkeypatch):
    monkeypatch.setattr(par, "_width", 3)
    out = np.zeros(9)
    threads = set()

    def chunk(part, scale):
        threads.add(threading.get_ident())
        out[part.start:part.stop] = scale

    par.run(chunk, par.split(9), [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out, [1, 1, 1, 2, 2, 2, 3, 3, 3])
    assert threading.get_ident() in threads     # the first chunk runs here


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_chunk_that_raises_surfaces_its_exception(monkeypatch, bad):
    monkeypatch.setattr(par, "_width", 3)
    finished = []

    def chunk(j):
        if j == bad:
            raise ValueError(f"chunk {j}")
        finished.append(j)

    with pytest.raises(ValueError, match=f"chunk {bad}"):
        par.run(chunk, range(3))
    # every other chunk ran to its end before the error came back
    assert sorted(finished) == [j for j in range(3) if j != bad]


def test_the_first_failing_chunk_wins(monkeypatch):
    monkeypatch.setattr(par, "_width", 3)

    def chunk(j):
        if j:
            raise RuntimeError(f"chunk {j}")

    with pytest.raises(RuntimeError, match="chunk 1"):
        par.run(chunk, range(3))


def test_pin_blas_reads_back_one_thread():
    assert par.pin_blas() == 1


def test_blas_threads_reads_without_setting(monkeypatch):
    calls = []

    def fake_libs():
        for n in (2, 4, 3):
            yield lambda k: calls.append(k), lambda n=n: n

    monkeypatch.setattr(par, "_openblas_libs", fake_libs)
    assert par.blas_threads() == {"numpy": 4}
    assert calls == []
    par.pin_blas()
    assert calls == [1, 1, 1]


def test_lapack_names_the_symbols_numpys_openblas_lacks(monkeypatch):
    monkeypatch.setattr(par, "_numpy_openblas", lambda: [])
    with pytest.raises(RuntimeError, match="scipy_dtpqrt_64_, scipy_dfoo_64_"):
        par.lapack("dtpqrt", "dfoo")


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(gradevo.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gradevo.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": src}, check=True, text=True,
        stdout=subprocess.PIPE, timeout=120)
    assert proc.stdout.strip() == "[]"


# --- the allocator policy -----------------------------------------------------

@glibc_only
def test_set_malloc_sets_both_thresholds():
    assert par.set_malloc() == {"mmap_threshold": 16 << 20,
                                "trim_threshold": 44 << 20, "accepted": True}


def test_set_malloc_leaves_another_libc_alone(monkeypatch):
    monkeypatch.setattr(par.platform, "libc_ver", lambda: ("", ""))
    assert par.set_malloc() is None


def test_each_worker_pins_blas_and_sets_the_allocator(tmp_path, monkeypatch):
    calls = []
    policy = {"mmap_threshold": 1, "trim_threshold": 2, "accepted": False}
    monkeypatch.setattr(par, "pin_blas", lambda: calls.append("blas") or 1)
    monkeypatch.setattr(par, "set_malloc",
                        lambda: calls.append("malloc") or policy)

    class InlinePool:
        """Runs the initializer once per worker, then each task inline."""

        def __init__(self, max_workers, initializer):
            for _ in range(max_workers):
                calls.append("worker")
                initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    _, exp_dir = harness.run_experiment(harness.ExperimentConfig(
        algo="pso", problem="sphere", dim=2, pop=5, budget=25, runs=2,
        workers=2, out_dir=str(tmp_path)), quiet=True)
    assert calls == ["blas", "malloc"] + ["worker", "blas", "malloc"] * 2
    log = (exp_dir / "timing.log").read_text().splitlines()
    assert "malloc=mmap 1 trim 2 rejected" in log


def test_timing_log_says_default_where_no_policy_was_set(tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(par, "set_malloc", lambda: None)
    _, exp_dir = harness.run_experiment(harness.ExperimentConfig(
        algo="pso", problem="sphere", dim=2, pop=5, budget=25, runs=1,
        out_dir=str(tmp_path)), quiet=True)
    assert "malloc=default" in (exp_dir / "timing.log").read_text().splitlines()


# Minor page faults per generation of one arm, in a fresh process. After a
# warm-up experiment it runs a short and a long one; the difference of their
# faults over the difference of their generations leaves out what an
# experiment costs once (building the problem, writing the CSVs).
FAULT_PROBE = """
import json, resource, sys
from gradevo.harness import ExperimentConfig, run_experiment

def faults_and_generations(budget):
    cfg = ExperimentConfig(**json.loads(sys.argv[1]), budget=budget, runs=1,
                           out_dir=sys.argv[2], label=f"budget-{budget}")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    _, exp_dir = run_experiment(cfg, quiet=True)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return faults, len((exp_dir / "run_000.csv").read_text().splitlines()) - 1

warm, short, long = json.loads(sys.argv[3])
faults_and_generations(warm)
(f1, g1), (f2, g2) = faults_and_generations(short), faults_and_generations(long)
print(json.dumps((f2 - f1) / (g2 - g1)))
"""


def faults_per_generation(cfg: dict, budgets: tuple, out_dir) -> float:
    src = str(Path(gradevo.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE, json.dumps(cfg), str(out_dir),
         json.dumps(budgets)],
        env={**os.environ, "PYTHONPATH": src}, check=True,
        text=True, stdout=subprocess.PIPE, timeout=120)
    return json.loads(proc.stdout)


@glibc_only
def test_ga_diff_grid_generations_take_almost_no_page_faults(tmp_path):
    # 150-250 per generation at glibc's default thresholds in most
    # processes; which thread's arena holds which buffer varies, and about
    # one process in ten keeps its heap top and reads near 0, so each of
    # three processes must stay low
    per_gen = [faults_per_generation(
        {"algo": "ga-diff", "problem": "ackley", "dim": 30, "pop": 100},
        (2000, 3000, 13000), tmp_path / str(i)) for i in range(3)]
    assert max(per_gen) <= 20


@glibc_only
def test_wine_adam_epochs_take_almost_no_page_faults(tmp_path):
    # about 800 per epoch at glibc's default thresholds
    per_epoch = faults_per_generation(
        {"algo": "adam", "problem": "wine", "pop": 1}, (50, 100, 400),
        tmp_path)
    assert per_epoch <= 20
