"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criteria 5-7 rebuild the exact study configurations behind the ``wine``,
``scale``, and ``suite`` CLI commands, so this file takes several minutes;
run with ``-s`` to watch the per-criterion lines appear.
"""

import time

import numpy as np
import pytest

from gradevo.classic import ClassicCmaes, ClassicDe, ClassicGa, ClassicPso
from gradevo.diffevo import DiffDe, DiffPso
from gradevo.gradcheck import run_all
from gradevo.harness import ExperimentConfig, run_experiment
from gradevo.outer import run_loop
from gradevo.problems import make_problem
from gradevo.relax import Rng, gumbel_sigmoid, gumbel_softmax
from gradevo.tape import Tape


def report(num: int, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} - {detail} "
          f"({time.perf_counter() - t0:.1f}s)", flush=True)


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = run_all(seed=0, h=1e-5)
    worst = max(r.max_err for r in results)
    n_ok = sum(r.ok for r in results)
    elapsed = time.perf_counter() - t0
    ok = n_ok == len(results) and worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"gradient checks {n_ok}/{len(results)}, "
                  f"worst rel err {worst:.2e} (tol 1e-4)", t0)
    assert n_ok == len(results), [r.name for r in results if not r.ok]
    assert worst < 1e-4
    assert elapsed < 60.0


def test_criterion_2_relaxation_statistics():
    t0 = time.perf_counter()
    n = 100_000
    sig_ok = True
    for alpha in (-2.0, 0.0, 2.0):
        t = Tape()
        y = gumbel_sigmoid(t, t.constant([[alpha]]), tau=1.0,
                           u=Rng(11).uniform(1, n), hard=True)
        p = 1.0 / (1.0 + np.exp(-alpha))
        se = np.sqrt(p * (1.0 - p) / n)
        sig_ok = sig_ok and abs(float(y.value.mean()) - p) < 3.0 * se

    k = 4
    t = Tape()
    y = gumbel_softmax(t, t.constant(np.zeros((1, k))),
                       u=Rng(3).uniform(n, k), hard=True)
    counts = y.value.sum(axis=0)
    p = 1.0 / k
    se = np.sqrt(p * (1.0 - p) * n)
    soft_ok = bool(np.all(np.abs(counts - n * p) < 3.0 * se))
    elapsed = time.perf_counter() - t0
    ok = sig_ok and soft_ok and elapsed < 60.0
    report(2, ok, f"mask rate within 3 sigma of sigmoid(alpha): {sig_ok}; "
                  f"argmax uniform within 3 sigma: {soft_ok}", t0)
    assert sig_ok and soft_ok
    assert elapsed < 60.0


def test_criterion_3_classical_oracles():
    t0 = time.perf_counter()
    prob = make_problem("sphere", 10)
    cma = ClassicCmaes(prob, pop_size=10, rng=Rng(0))
    records, err = run_loop(cma, prob, max_evals=10_000)
    assert err is None
    cma_best = records[-1].best_fitness
    cma_ok = cma_best < 1e-8

    prob = make_problem("griewank", 5)
    de = ClassicDe(prob, pop_size=10, rng=Rng(1))
    de_ok = True
    for _ in range(100):
        before = de.fit.copy()
        de.generation()
        de_ok = de_ok and bool(np.all(de.fit <= before + 1e-15))

    mono_ok = True
    for cls in (ClassicGa, ClassicPso):
        prob = make_problem("ackley", 5)
        algo = cls(prob, pop_size=10, rng=Rng(2))
        prev = np.inf
        for _ in range(50):
            best = algo.generation()
            mono_ok = mono_ok and best <= prev + 1e-15
            prev = best

    elapsed = time.perf_counter() - t0
    ok = cma_ok and de_ok and mono_ok and elapsed < 60.0
    report(3, ok, f"cma 10-D sphere best {cma_best:.2e} (< 1e-8): {cma_ok}; "
                  f"de slots never worsen: {de_ok}; "
                  f"ga/pso best monotone: {mono_ok}", t0)
    assert cma_ok and de_ok and mono_ok
    assert elapsed < 60.0


def test_criterion_4_zero_learning_equivalence():
    t0 = time.perf_counter()

    def drive(algo, noise):
        loss = algo.generation(noise)
        algo.tape.backward(loss)
        algo.update_state()
        algo.tape.reset()
        algo.tape.zero_grad()

    worst = 0.0
    rng = Rng(0)
    X0 = make_problem("ackley", 3).domain.sample(rng, 5)
    cp = ClassicPso(make_problem("ackley", 3), pop_size=5, rng=Rng(1), init=X0)
    dp = DiffPso(make_problem("ackley", 3), pop_size=5, rng=Rng(2), init=X0)
    for _ in range(3):
        noise = {"r1": rng.uniform(5, 3), "r2": rng.uniform(5, 3)}
        cp.generation(dict(noise))
        drive(dp, dict(noise))
        worst = max(worst, float(np.abs(dp.pX.raw.value - cp.X).max()))
    pso_ok = worst < 1e-10
    pso_dev = worst

    n, d = 5, 3
    rng = Rng(3)
    X0 = make_problem("griewank", d).domain.sample(rng, n)
    cd = ClassicDe(make_problem("griewank", d), pop_size=n, rng=Rng(1), init=X0)
    dd = DiffDe(make_problem("griewank", d), pop_size=n, rng=Rng(2),
                hard_masks=True, hard_selection=True, init=X0)
    worst = 0.0
    for _ in range(3):
        idx = rng.distinct_indices(n, 3, exclude=np.arange(n))
        tau_u = rng.uniform(n, d)
        jrand = rng.integers(0, d, size=n).astype(np.int64)
        cd.generation({"idx": idx, "tau": tau_u, "jrand": jrand})
        sel = {}
        for role in range(3):
            u = np.full((n, n), 0.01)
            u[np.arange(n), idx[:, role]] = 0.99
            sel[f"sel_u{role + 1}"] = u
        drive(dd, {**sel, "cross_u": 1.0 - tau_u, "jrand": jrand})
        worst = max(worst, float(np.abs(dd.pX.raw.value - cd.X).max()))
    de_ok = worst < 1e-10

    ok = pso_ok and de_ok
    report(4, ok, f"3-generation trajectory gap: pso {pso_dev:.2e}, "
                  f"de {worst:.2e} (tol 1e-10)", t0)
    assert pso_ok and de_ok


def test_criterion_5_wine_regression(tmp_path):
    t0 = time.perf_counter()
    evo = ExperimentConfig(
        algo="cmaes-diff", problem="wine", pop=30, budget=3000, runs=10,
        lr=1.0, sigma0=0.1, loss="mean", patience=10,
        label="cmaes-diff-wine", out_dir=str(tmp_path),
    )
    adam = ExperimentConfig(
        algo="adam", problem="wine", pop=1, budget=3000, runs=10,
        lr=0.001, label="adam-wine", out_dir=str(tmp_path),
    )
    evo_stats, _ = run_experiment(evo, quiet=True)
    adam_stats, _ = run_experiment(adam, quiet=True)
    elapsed = time.perf_counter() - t0
    ok = evo_stats.mean <= 10.0 and adam_stats.mean >= 30.0
    report(5, ok, f"wine MSE means: evolved {evo_stats.mean:.3f} (<= 10), "
                  f"adam {adam_stats.mean:.3f} (>= 30); runtime target "
                  f"20 min, took {elapsed / 60:.1f} min", t0)
    assert evo_stats.mean <= 10.0
    assert adam_stats.mean >= 30.0


def test_criterion_6_scaled_michalewicz(tmp_path):
    t0 = time.perf_counter()
    common = dict(problem="michalewicz", dim=100, pop=100, budget=100_000,
                  runs=5, out_dir=str(tmp_path))
    classic_stats, _ = run_experiment(
        ExperimentConfig(algo="cmaes", **common), quiet=True)
    diff_stats, _ = run_experiment(
        ExperimentConfig(algo="cmaes-diff", sigma0=1.0, **common), quiet=True)
    ok = diff_stats.median < classic_stats.median
    report(6, ok, f"100-D michalewicz medians: differentiable "
                  f"{diff_stats.median:.4f} < classical "
                  f"{classic_stats.median:.4f}", t0)
    assert ok


def test_criterion_7_benchmark_grid(tmp_path):
    t0 = time.perf_counter()
    medians: dict = {}
    for problem in ("ackley", "griewank"):
        for algo in ("cmaes-diff", "ga", "de"):
            cfg = ExperimentConfig(
                algo=algo, problem=problem, dim=30, pop=100, budget=150_000,
                runs=5, sigma0=1.0 if algo == "cmaes-diff" else 0.0,
                out_dir=str(tmp_path),
            )
            stats, _ = run_experiment(cfg, quiet=True)
            medians[(problem, algo)] = stats.median
    elapsed = time.perf_counter() - t0
    parts = []
    ok = True
    for problem in ("ackley", "griewank"):
        diff = medians[(problem, "cmaes-diff")]
        ga = medians[(problem, "ga")]
        de = medians[(problem, "de")]
        ok = ok and diff <= ga and diff <= de
        parts.append(f"{problem}: diff {diff:.6g} vs ga {ga:.6g} / de {de:.6g}")
    report(7, ok, "; ".join(parts) + f"; runtime target 1 h, took "
                                     f"{elapsed / 60:.1f} min", t0)
    for problem in ("ackley", "griewank"):
        diff = medians[(problem, "cmaes-diff")]
        msg = (f"{problem} medians: cmaes-diff {diff!r}, "
               f"ga {medians[(problem, 'ga')]!r}, "
               f"de {medians[(problem, 'de')]!r}")
        assert diff <= medians[(problem, "ga")], msg
        assert diff <= medians[(problem, "de")], msg


def test_criterion_8_deterministic_outputs(tmp_path):
    t0 = time.perf_counter()
    names = ("run_000.csv", "run_001.csv", "summary.csv")
    dirs = []
    for sub in ("first", "second"):
        cfg = ExperimentConfig(
            algo="cmaes-diff", problem="sphere", dim=5, pop=10, budget=300,
            runs=2, out_dir=str(tmp_path / sub),
        )
        _, exp_dir = run_experiment(cfg, quiet=True)
        dirs.append(exp_dir)
    same = all(
        (dirs[0] / n).read_bytes() == (dirs[1] / n).read_bytes() for n in names
    )
    report(8, same, "same-seed repeat produces byte-identical CSVs", t0)
    assert same
