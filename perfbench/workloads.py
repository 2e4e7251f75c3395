"""The benchmark's workloads: the paper's three studies at a reduced budget.

Each workload is one ``gradevo`` study command with the command's own
defaults. Only the budget, the number of runs (one per repetition) and the
seed change; the seed is the benchmark's ``--seed``, so every arm's run 0
uses it and the wine study also draws its target noise from it.
"""

from __future__ import annotations

from dataclasses import dataclass

GRID_ALGOS = ("pso", "ga", "de", "cmaes",
              "pso-diff", "ga-diff", "de-diff", "cmaes-diff")


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple            # CLI arguments ahead of runs, seed and out-dir
    arms: tuple               # algorithms, in the order the command runs them


WORKLOADS = {w.name: w for w in (
    Workload(
        "wine",
        # 5 generations of cmaes-diff at pop 30; the same --budget gives the
        # adam arm 150 epochs, the study's 1 generation to 30 epochs
        ("wine", "--budget", "150"),
        ("cmaes-diff", "adam"),
    ),
    Workload(
        "scale",
        # 200 generations per arm at pop 100
        ("scale", "--budget", "20000"),
        ("cmaes", "cmaes-diff"),
    ),
    Workload(
        "grid",
        # the suite's Ackley-30 cell, 9900 evaluations: 99 generations
        ("suite", "--problems", "ackley", "--dims", "30",
         "--evals-per-dim", "330"),
        GRID_ALGOS,
    ),
)}


def cli_args(workload: Workload, seed: int, out_dir: str) -> list:
    return [*workload.command, "--runs", "1", "--seed", str(seed),
            "--out-dir", out_dir]
