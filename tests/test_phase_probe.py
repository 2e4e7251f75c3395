"""The phase probe: the configs it reads from a study command, and one
probe of a tiny config in a process of its own."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "tools" / "phase_probe.py"
_spec = importlib.util.spec_from_file_location("phase_probe", _path)
phase_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_probe)

PHASES = ["generation", "backward", "reset", "adam", "zero_grad+sched",
          "commit"]


def test_study_configs_follow_the_commands_own_defaults(tmp_path):
    evo, adam = phase_probe.study_configs(["wine", "--out-dir", str(tmp_path)])
    assert (evo.algo, evo.pop, evo.lr, evo.loss) == ("cmaes-diff", 30, 1.0,
                                                     "mean")
    assert (adam.algo, adam.pop, adam.lr) == ("adam", 1, 0.001)
    cells = phase_probe.study_configs(["scale", "--budget", "500"])
    assert [(c.algo, c.problem, c.dim, c.sigma0) for c in cells] == [
        ("cmaes", "michalewicz", 100, 0.0),
        ("cmaes-diff", "michalewicz", 100, 1.0)]
    # nothing ran, so nothing was written
    assert not any(tmp_path.iterdir())


def _probe(*argv):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(_path), *argv], env=env,
                          check=True, text=True, capture_output=True).stdout


def test_probe_prints_every_phase_of_a_tiny_config():
    out = _probe("--arm", "cmaes-diff", "--gens", "2", "--warmup", "1", "--",
                 "run", "--problem", "sphere", "--dim", "5", "--pop", "8")
    lines = out.splitlines()
    assert lines[0].startswith("cmaes-diff-sphere-d5: pop 8")
    assert lines[1].startswith("maxrss MiB after build_problem")
    rows = [line.split() for line in lines[3:-2]]
    assert [row[0] for row in rows] == PHASES
    for row in rows:
        assert len(row) == 7
        assert all(float(v) >= 0.0 for v in row[1:5])
    assert lines[-2].startswith("sum")
    assert lines[-1].startswith("thread_cpus=")


def test_probe_of_a_classical_arm_has_the_generation_phase_only():
    out = _probe("--arm", "ga", "--gens", "1", "--warmup", "0", "--",
                 "suite", "--problems", "ackley", "--dims", "5",
                 "--algos", "ga,cmaes", "--pop", "8", "--evals-per-dim", "10")
    rows = [line.split()[0] for line in out.splitlines()[3:-2]]
    assert rows == ["generation"]
