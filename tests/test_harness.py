"""Experiment harness, summary statistics, SVG emitters, and the CLI."""

from dataclasses import fields, replace

import numpy as np
import pytest

from gradevo import cli
from gradevo.harness import (
    ExperimentConfig,
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
    with pytest.raises(ValueError, match="min_lr"):
        ExperimentConfig(min_lr=-1e-3)


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
        "elitism = off\n"
        "\n"
        "label = my-run\n"
    )
    vals = parse_config_file(str(path))
    assert vals == {"algo": "de", "dim": 7, "lr": 0.25,
                    "elitism": False, "label": "my-run"}

    bad = tmp_path / "bad.cfg"
    bad.write_text("algo = de\nwhat is this\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2.*key=value"):
        parse_config_file(str(bad))
    bad.write_text("turbo = on\n")
    with pytest.raises(ValueError, match="unknown key 'turbo'"):
        parse_config_file(str(bad))
    bad.write_text("elitism = sideways\n")
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
