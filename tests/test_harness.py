"""Experiment harness, summary statistics, SVG emitters, and the CLI."""

import os
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import gradevo
from gradevo import cli
from gradevo.classic import MIN_POP, ClassicPso
from gradevo.harness import (
    ALGO_NAMES,
    CLASSIC_ALGORITHMS,
    DIFF_ALGORITHMS,
    ExperimentConfig,
    build_algo,
    build_problem,
    load_experiment,
    load_run_csv,
    parse_config_file,
    run_experiment,
    write_run_csv,
)
from gradevo.plots import (
    emit_boxplot_svg,
    emit_convergence_svg,
    quartiles,
    summary_stats,
)
from gradevo.problems import make_problem
from gradevo.relax import Rng


SRC = str(Path(gradevo.__file__).resolve().parents[1])


def python(code, *args, env=None, timeout=120):
    """Run ``code`` in a fresh interpreter that imports gradevo from SRC;
    on timeout kill it together with the processes it forked."""
    env = dict(os.environ if env is None else env, PYTHONPATH=SRC)
    proc = subprocess.Popen([sys.executable, "-c", code, *map(str, args)],
                            env=env, start_new_session=True)
    try:
        assert proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def tiny_cfg(out_dir, **over):
    base = dict(algo="pso", problem="sphere", dim=2, pop=5, budget=25,
                runs=2, seed=0, out_dir=str(out_dir))
    base.update(over)
    return ExperimentConfig(**base)


# --- statistics ---------------------------------------------------------------

def test_quartiles_interpolates_between_order_statistics():
    assert quartiles([1.0, 2.0, 3.0]) == (1.5, 2.0, 2.5)
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    v = np.sin(np.arange(17) * 3.7)
    got = quartiles(v)
    want = np.quantile(v, [0.25, 0.5, 0.75])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        quartiles([])


def test_summary_stats_matches_numpy():
    v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
    s = summary_stats(v)
    assert s.n == 6
    assert abs(s.mean - np.mean(v)) < 1e-15
    assert abs(s.std - np.std(v, ddof=1)) < 1e-15
    assert (s.min, s.max) == (1.0, 9.0)
    assert s.median == np.median(v)
    single = summary_stats([2.5])
    assert single.std == 0.0 and single.mean == 2.5
    with pytest.raises(ValueError):
        summary_stats([])


# --- configuration ------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError, match="unknown algorithm"):
        ExperimentConfig(algo="annealing")
    with pytest.raises(ValueError, match="unknown problem"):
        ExperimentConfig(problem="rastrigin")
    with pytest.raises(ValueError, match="runs"):
        ExperimentConfig(runs=0)
    with pytest.raises(ValueError, match="budget"):
        ExperimentConfig(pop=100, budget=50)
    with pytest.raises(ValueError, match="wine"):
        ExperimentConfig(algo="adam", problem="sphere")
    with pytest.raises(ValueError, match="loss"):
        ExperimentConfig(loss="median")
    with pytest.raises(ValueError, match="variant"):
        ExperimentConfig(variant="best2")
    with pytest.raises(ValueError, match="sigma0"):
        ExperimentConfig(sigma0=-0.5)
    with pytest.raises(ValueError, match="patience"):
        ExperimentConfig(patience=0)
    with pytest.raises(ValueError, match="dimension"):
        ExperimentConfig(dim=0)
    with pytest.raises(ValueError, match="rosenbrock"):
        ExperimentConfig(problem="rosenbrock", dim=1)
    with pytest.raises(ValueError, match="lower bound"):
        ExperimentConfig(lo=5.0, hi=1.0)


def test_resolved_label_forms():
    assert tiny_cfg(".").resolved_label() == "pso-sphere-d2"
    assert tiny_cfg(".", label="mine").resolved_label() == "mine"
    wine = ExperimentConfig(algo="cmaes-diff", problem="wine", pop=5, budget=25)
    assert wine.resolved_label() == "cmaes-diff-wine"


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# benchmark sweep\n"
        "algo = de   # classical arm\n"
        "dim=7\n"
        "lr = 0.25\n"
        "hard_masks = off\n"
        "\n"
        "label = my-run\n"
    )
    vals = parse_config_file(str(path))
    assert vals == {"algo": "de", "dim": 7, "lr": 0.25,
                    "hard_masks": False, "label": "my-run"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("algo = de\nwhat is this\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2.*key=value"):
        parse_config_file(str(bad))
    bad.write_text("turbo = on\n")
    with pytest.raises(ValueError, match="unknown key 'turbo'"):
        parse_config_file(str(bad))
    bad.write_text("hard_masks = sideways\n")
    with pytest.raises(ValueError, match="boolean"):
        parse_config_file(str(bad))


# --- experiment outputs -------------------------------------------------------

def test_experiment_writes_runs_summary_and_timing(tmp_path):
    stats, exp_dir = run_experiment(tiny_cfg(tmp_path), quiet=True)
    assert exp_dir == tmp_path / "pso-sphere-d2"
    for name in ("run_000.csv", "run_001.csv", "summary.csv", "timing.log"):
        assert (exp_dir / name).exists(), name

    header, rows = load_run_csv(exp_dir / "run_000.csv")
    assert header[:5] == ["run", "generation", "n_evals", "best_fitness", "lr"]
    assert rows.shape[0] == 5                       # ceil(25 / 5) generations
    np.testing.assert_array_equal(rows[:, 2], [5, 10, 15, 20, 25])

    with open(exp_dir / "summary.csv") as fh:
        head, row = fh.read().splitlines()
    cols = dict(zip(head.split(","), row.split(",")))
    assert cols["label"] == "pso-sphere-d2"
    assert cols["failed"] == "0"
    assert float(cols["mean"]) == stats.mean

    log = (exp_dir / "timing.log").read_text().splitlines()
    assert f"pool_threads={len(os.sched_getaffinity(0))}" in log
    assert "blas_threads=1" in log


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_runs_keep_their_traceback_in_errors_log(
        tmp_path, monkeypatch, capsys, workers):
    def generation_that_raises(self, noise=None):
        raise FloatingPointError("kaboom\nat generation 0")

    # worker processes are forked, so they see the patched class too
    monkeypatch.setattr(ClassicPso, "generation", generation_that_raises)
    with pytest.raises(RuntimeError, match="first error: FloatingPointError"):
        run_experiment(tiny_cfg(tmp_path, workers=workers), quiet=True)
    log = (tmp_path / "pso-sphere-d2" / "errors.log").read_text()
    assert log.count("Traceback (most recent call last):") == 2
    assert "in generation_that_raises" in log
    assert "FloatingPointError: kaboom\nat generation 0" in log
    # one line per run, keeping the type of a message over several lines
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 2
    assert all(w.startswith("warning: run ") and
               "FloatingPointError: kaboom at generation 0" in w
               for w in warnings)

    # a rerun that succeeds leaves no stale log behind
    monkeypatch.undo()
    run_experiment(tiny_cfg(tmp_path), quiet=True)
    assert not (tmp_path / "pso-sphere-d2" / "errors.log").exists()


def test_same_seed_reruns_are_byte_identical(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a")
    cfg_b = tiny_cfg(tmp_path / "b")
    _, dir_a = run_experiment(cfg_a, quiet=True)
    _, dir_b = run_experiment(cfg_b, quiet=True)
    for name in ("run_000.csv", "run_001.csv", "summary.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_parallel_workers_match_serial(tmp_path):
    _, dir_s = run_experiment(tiny_cfg(tmp_path / "serial"), quiet=True)
    _, dir_p = run_experiment(
        tiny_cfg(tmp_path / "par", workers=2), quiet=True
    )
    for name in ("run_000.csv", "run_001.csv"):
        assert (dir_s / name).read_bytes() == (dir_p / name).read_bytes(), name


def test_worker_processes_forked_after_the_pool_ran_do_not_hang(tmp_path):
    # a forked child has none of its parent's pool threads: work it gave
    # to the inherited pool would wait forever
    python("""
import sys
from gradevo import par
from gradevo.harness import ExperimentConfig, run_experiment
par._width = 2
par.run(lambda part: None, par.split(2))
assert par._pool is not None
for workers in (2, 1):
    run_experiment(ExperimentConfig(
        algo="cmaes-diff", problem="wine", pop=4, budget=8, runs=2,
        workers=workers, out_dir=f"{sys.argv[1]}/w{workers}"), quiet=True)
""", tmp_path)
    for name in ("run_000.csv", "run_001.csv", "summary.csv"):
        serial = tmp_path / "w1" / "cmaes-diff-wine" / name
        forked = tmp_path / "w2" / "cmaes-diff-wine" / name
        assert forked.read_bytes() == serial.read_bytes(), name


def test_blas_thread_count_does_not_change_the_bytes(tmp_path):
    # given two threads, OpenBLAS rounds the linear algebra of a d = 100
    # cmaes-diff generation differently: the CSVs differ from their third
    # line unless run_experiment pins it to one
    run = ("import sys\nfrom gradevo import cli\n"
           "cli.main(['run', '--algo', 'cmaes-diff', '--problem', "
           "'michalewicz', '--dim', '100', '--budget', '300', '--runs', '1', "
           "'--out-dir', sys.argv[1]])")
    for threads in ("1", "2"):
        python(run, tmp_path / threads,
               env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
    for name in ("run_000.csv", "summary.csv"):
        one, two = (tmp_path / t / "cmaes-diff-michalewicz-d100" / name
                    for t in ("1", "2"))
        assert two.read_bytes() == one.read_bytes(), name


def test_load_experiment_roundtrip(tmp_path):
    stats, exp_dir = run_experiment(tiny_cfg(tmp_path, runs=3), quiet=True)
    label, evals, curves, finals = load_experiment(exp_dir)
    assert label == "pso-sphere-d2"
    np.testing.assert_array_equal(evals, [5, 10, 15, 20, 25])
    assert curves.shape == (3, 5)
    assert np.all(np.diff(curves, axis=1) <= 1e-15)   # per-run monotone best
    assert abs(np.mean(finals) - stats.mean) < 1e-15


def test_load_experiment_error_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_experiment(tmp_path / "nowhere")
    empty = tmp_path / "empty-exp"
    empty.mkdir()
    write_run_csv(empty / "run_000.csv", [])
    with pytest.raises(ValueError, match="empty"):
        load_experiment(empty)


# --- SVG emitters -------------------------------------------------------------

def test_boxplot_marks_outliers_and_clips_whiskers(tmp_path):
    path = str(tmp_path / "box.svg")
    emit_boxplot_svg({"arm": [1.0, 2.0, 3.0, 4.0, 100.0]}, path)
    svg = open(path).read()
    # fences at q1 - 1.5 iqr = -1 and q3 + 1.5 iqr = 7: only 100 falls out
    assert svg.count("<circle") == 1
    assert svg.count("<rect") == 2          # background plus one box
    emit_boxplot_svg({"arm": [1.0, 2.0, 3.0]}, path)
    assert "<circle" not in open(path).read()


def test_svg_emitters_are_deterministic(tmp_path):
    x = np.array([5.0, 10.0, 15.0])
    runs = np.array([[3.0, 2.0, 1.0], [4.0, 2.5, 0.5]])
    curves = {"a": (x, runs), "b": (x, runs + 1.0)}
    p1, p2 = str(tmp_path / "c1.svg"), str(tmp_path / "c2.svg")
    emit_convergence_svg(curves, p1, title="t")
    emit_convergence_svg(curves, p2, title="t")
    assert open(p1, "rb").read() == open(p2, "rb").read()
    svg = open(p1).read()
    assert svg.count("<polyline") == 2
    assert ">a</text>" in svg and ">b</text>" in svg
    assert svg.count("<path") == 2          # one std band per label

    b1, b2 = str(tmp_path / "b1.svg"), str(tmp_path / "b2.svg")
    emit_boxplot_svg({"a": [1, 2, 3]}, b1)
    emit_boxplot_svg({"a": [1, 2, 3]}, b2)
    assert open(b1, "rb").read() == open(b2, "rb").read()


def test_svg_emitters_reject_empty_input(tmp_path):
    with pytest.raises(ValueError):
        emit_convergence_svg({}, str(tmp_path / "x.svg"))
    with pytest.raises(ValueError):
        emit_boxplot_svg({}, str(tmp_path / "x.svg"))


def test_log_scale_axes(tmp_path):
    x = np.array([5.0, 10.0])
    runs = np.array([[1e-2, 1e-6], [1e-1, 1e-7]])
    path = str(tmp_path / "log.svg")
    emit_convergence_svg({"a": (x, runs)}, path, log_y=True)
    assert "<polyline" in open(path).read()


# --- CLI ----------------------------------------------------------------------

def test_cli_run_and_plot(tmp_path, capsys):
    rc = cli.main([
        "run", "--algo", "pso", "--problem", "sphere", "--dim", "2",
        "--pop", "5", "--budget", "25", "--runs", "2",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    exp = tmp_path / "pso-sphere-d2"
    assert (exp / "summary.csv").exists()

    rc = cli.main(["plot", str(exp), "--out-dir", str(tmp_path / "figs")])
    assert rc == 0
    assert (tmp_path / "figs" / "convergence.svg").exists()
    assert (tmp_path / "figs" / "boxplot.svg").exists()
    capsys.readouterr()


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "algo = pso\nproblem = sphere\ndim = 3\npop = 5\nbudget = 25\n"
        f"runs = 1\nout_dir = {tmp_path}\n"
    )
    rc = cli.main(["run", "--config", str(cfgfile), "--dim", "2"])
    assert rc == 0
    assert (tmp_path / "pso-sphere-d2").exists()    # flag beat the file
    capsys.readouterr()


def test_cli_config_file_gets_the_same_range_checks(tmp_path):
    # a negative step size would run classical CMA-ES with sigma < 0
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(f"algo = cmaes\nsigma0 = -1\nout_dir = {tmp_path}\n")
    args = cli.build_parser().parse_args(["run", "--config", str(cfgfile)])
    with pytest.raises(ValueError, match="sigma0"):
        cli._make_config(args)


def test_cli_flag_per_config_field_parses_its_default():
    parser = cli.build_parser()
    for f in fields(ExperimentConfig):
        flag = "--" + f.name.replace("_", "-")
        args = parser.parse_args(["run", flag, str(f.default)])
        assert cli._make_config(args) == ExperimentConfig(), flag


def test_study_commands_build_the_acceptance_configs(monkeypatch, capsys):
    # the arms of acceptance criteria 5, 6 and 7, restated literally
    built = []

    def record(cfg, quiet=False):
        built.append(replace(cfg, out_dir=""))
        return summary_stats([0.0]), None

    monkeypatch.setattr(cli, "run_experiment", record)

    def study(*argv):
        built.clear()
        assert cli.main(list(argv)) == 0
        return built

    assert study("wine") == [
        ExperimentConfig(
            algo="cmaes-diff", problem="wine", pop=30, budget=3000, runs=10,
            lr=1.0, sigma0=0.1, loss="mean", patience=10,
            label="cmaes-diff-wine"),
        ExperimentConfig(
            algo="adam", problem="wine", pop=1, budget=3000, runs=10,
            lr=0.001, label="adam-wine"),
    ]
    common = dict(problem="michalewicz", dim=100, pop=100, budget=100_000,
                  runs=5)
    assert study("scale") == [
        ExperimentConfig(algo="cmaes", **common),
        ExperimentConfig(algo="cmaes-diff", sigma0=1.0, **common),
    ]
    assert study("suite", "--problems", "ackley,griewank", "--dims", "30",
                 "--algos", "cmaes-diff,ga,de") == [
        ExperimentConfig(
            algo=algo, problem=problem, dim=30, pop=100, budget=150_000,
            runs=5, sigma0=1.0 if algo == "cmaes-diff" else 0.0)
        for problem in ("ackley", "griewank")
        for algo in ("cmaes-diff", "ga", "de")
    ]
    capsys.readouterr()


def test_wine_rejects_the_size_and_box_it_ignores(tmp_path, capsys):
    # the network fixes the wine problem's 1665 weights and [-10, 10] box
    for key, value in (("dim", 5), ("lo", -1.0), ("hi", 1.0)):
        with pytest.raises(ValueError, match=f"^{key} does not apply"):
            ExperimentConfig(algo="cmaes-diff", problem="wine", **{key: value})
    rc = cli.main(["run", "--problem", "wine", "--lo", "-1", "--hi", "1",
                   "--pop", "1", "--budget", "1", "--runs", "1",
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "lo does not apply" in capsys.readouterr().err
    for flag in ("--dim", "--lo", "--hi"):
        with pytest.raises(SystemExit):
            cli.main(["wine", flag, "1"])
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["run", "--algo", "pso", "--config", "CFG", "--dim", "3", "--budget", "8"],
    ["run", "--algo", "pso-diff", "--config", "CFG", "--dim", "3", "--budget", "8"],
    ["run", "--algo", "pso", "--lo", "5", "--hi", "1", "--dim", "3", "--budget", "8"],
    ["suite", "--problems", "rosenbrock,sphere", "--dims", "1", "--algos", "pso",
     "--evals-per-dim", "8"],
    # a population below the algorithm's smallest
    ["run", "--algo", "de", "--pop", "3", "--dim", "3", "--budget", "8"],
    ["run", "--algo", "cmaes", "--pop", "1", "--dim", "3", "--budget", "8"],
    ["run", "--algo", "ga", "--pop", "1", "--dim", "3", "--budget", "8"],
    ["run", "--algo", "ga-diff", "--pop", "1", "--dim", "3", "--budget", "8"],
    # ga-diff's mutation logits start at logit(1/d), infinite at d = 1
    ["run", "--algo", "ga-diff", "--problem", "sphere", "--dim", "1",
     "--budget", "20"],
    ["suite", "--problems", "sphere", "--dims", "3", "--algos", "pso,de,cmaes",
     "--evals-per-dim", "8", "--pop", "3"],
])
def test_cli_rejects_bad_settings_before_any_directory(tmp_path, capsys, argv):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("patience = 0\n")
    out = tmp_path / "out"
    argv = [str(cfgfile) if a == "CFG" else a for a in argv]
    # --pop 4 unless the case sets its own, which comes later and wins
    rc = cli.main(argv[:1] + ["--pop", "4"] + argv[1:]
                  + ["--runs", "1", "--out-dir", str(out)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_population_minimum_holds_for_both_arms_and_the_config():
    # one minimum per family, read by the constructors and the config
    algos = {**CLASSIC_ALGORITHMS, **DIFF_ALGORITHMS}
    for family, need in MIN_POP.items():
        for algo in (family, family + "-diff"):
            msg = f"^{algo} needs a population of at least {need}, got {need - 1}$"
            with pytest.raises(ValueError, match=msg):
                ExperimentConfig(algo=algo, pop=need - 1, budget=100)
            with pytest.raises(ValueError, match=msg):
                algos[algo](make_problem("sphere", 3), need - 1, Rng(0))
            ExperimentConfig(algo=algo, pop=need, budget=100)
            algos[algo](make_problem("sphere", 3), need, Rng(0))


def test_ga_diff_needs_two_dimensions_in_the_config_and_the_constructor():
    msg = "^ga-diff needs at least 2 dimensions, got 1$"
    with pytest.raises(ValueError, match=msg):
        ExperimentConfig(algo="ga-diff", dim=1, pop=4, budget=20)
    with pytest.raises(ValueError, match=msg):
        DIFF_ALGORITHMS["ga-diff"](make_problem("sphere", 1), 4, Rng(0))
    # the classical GA mutates its one gene at rate 1
    ExperimentConfig(algo="ga", dim=1, pop=4, budget=20)
    ExperimentConfig(algo="ga-diff", dim=2, pop=4, budget=20)


@pytest.mark.parametrize("name", [a for a in ALGO_NAMES if a != "adam"])
def test_construction_evaluates_the_first_population(name):
    # PSO, GA and DE evaluate their first population once when built and
    # start from its best; CMA-ES has no population before its first sample
    cfg = ExperimentConfig(algo=name, problem="ackley", dim=5, pop=6,
                           budget=60)
    problem = build_problem(cfg)
    algo = build_algo(cfg, problem, cfg.seed)
    if name.startswith("cmaes"):
        assert problem.n_evals == 0
        return
    assert problem.n_evals == cfg.pop
    X0 = algo.pX.raw.value if hasattr(algo, "tape") else algo.X
    assert algo.best_fitness == problem.eval_array(X0).min()


def test_cli_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        cli.main(["run", "--algo", "annealing"])


def test_cli_reports_config_errors_without_traceback(tmp_path, capsys):
    rc = cli.main(["run", "--algo", "adam", "--problem", "sphere",
                   "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_plot_missing_directory(tmp_path, capsys):
    rc = cli.main(["plot", str(tmp_path / "ghost")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
