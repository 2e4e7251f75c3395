"""Check that a change leaves every study CSV byte-identical to its parent.

    python3 tools/csv_pair.py [--parent HEAD]

Exports both sides with ``bench_pair.export``: the parent revision, and the
change, which is the tracked files of this working tree. Runs one fixed
matrix of study commands (``MATRIX``) in each, with
``OPENBLAS_NUM_THREADS=1``, and compares the two output trees file by
file, ignoring each experiment's ``timing.log`` (wall times). Prints the
identical and the differing files and, for each differing CSV, the largest
relative change of a numeric field. When a file differs it keeps both
temporary output trees and prints their path; otherwise it removes them.
Exits 0 when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_pair  # noqa: E402  (export and working_tree)

SIDES = ("parent", "change")
IGNORED = {"timing.log"}

# (name, study argv); each cell writes into its own directory
_SMALL_SUITE = ["suite", "--problems", "ackley,griewank,rosenbrock,michalewicz",
                "--dims", "10", "--pop", "20", "--evals-per-dim", "100",
                "--runs", "2"]
MATRIX = (
    ("scale", ["scale", "--dim", "30", "--pop", "30", "--budget", "1500",
               "--runs", "2"]),
    ("suite", _SMALL_SUITE),
    ("suite-mean", _SMALL_SUITE + ["--algos", "pso-diff,ga-diff,de-diff,cmaes-diff",
                                   "--loss", "mean"]),
    ("ga-de-ackley30", ["suite", "--problems", "ackley", "--dims", "30",
                        "--algos", "ga,de", "--evals-per-dim", "330",
                        "--runs", "2"]),
    ("de-best1", ["suite", "--problems", "ackley,griewank", "--dims", "10",
                  "--algos", "de,de-diff", "--variant", "best1", "--pop", "5",
                  "--evals-per-dim", "100", "--runs", "2"]),
    ("wine", ["wine", "--budget", "90", "--runs", "2"]),
    ("hard-selection", _SMALL_SUITE + ["--algos", "ga-diff,de-diff",
                                       "--hard-selection", "1"]),
    ("soft-masks-mean", _SMALL_SUITE + ["--algos", "ga-diff,de-diff",
                                        "--hard-masks", "0", "--loss", "mean"]),
    ("grid-cell", ["suite", "--problems", "ackley", "--dims", "30",
                   "--algos", "pso-diff,ga-diff,de-diff",
                   "--evals-per-dim", "330"]),
)


def run_matrix(checkout: Path, out: Path) -> None:
    """Every matrix cell, run from ``checkout``'s sources into
    ``out/<cell>``; a failing cell raises with its stderr."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(checkout / "src"))
    for name, argv in MATRIX:
        proc = subprocess.run(
            [sys.executable, "-m", "gradevo.cli", *argv,
             "--out-dir", str(out / name)],
            cwd=checkout, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{checkout.name} {name}: exit "
                               f"{proc.returncode}\n{proc.stderr}")


def _files(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and p.name not in IGNORED}


def _rel(a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return float("inf")
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 else 0.0


def max_rel_change(a: Path, b: Path) -> float:
    """The largest relative change between two CSVs, field by field; inf
    when their shapes differ or a non-numeric field does."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        ra, rb = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in ra] != [len(r) for r in rb]:
        return float("inf")
    return max((_rel(x, y) for row_a, row_b in zip(ra, rb)
                for x, y in zip(row_a, row_b)), default=0.0)


def compare(parent: Path, change: Path) -> dict:
    """The files of both trees, minus the ignored ones: ``identical`` and
    ``differing`` (path to the CSV's largest relative change, None for
    other files) among the shared paths, and the paths ``only_parent``
    and ``only_change`` hold."""
    fp, fc = _files(parent), _files(change)
    out = {"identical": [], "differing": {},
           "only_parent": sorted(fp - fc), "only_change": sorted(fc - fp)}
    for rel in sorted(fp & fc):
        a, b = parent / rel, change / rel
        if a.read_bytes() == b.read_bytes():
            out["identical"].append(rel)
        else:
            out["differing"][rel] = (max_rel_change(a, b)
                                     if rel.endswith(".csv") else None)
    return out


def report(result: dict) -> bool:
    """Print the comparison; True when every file is identical."""
    csvs = sum(r.endswith(".csv") for r in result["identical"])
    print(f"identical: {len(result['identical'])} files ({csvs} CSVs)")
    for rel, rel_change in result["differing"].items():
        what = "" if rel_change is None else f" max relative change {rel_change:.3g}"
        print(f"differs: {rel}{what}")
    for side in SIDES:
        for rel in result[f"only_{side}"]:
            print(f"only in {side}: {rel}")
    return not (result["differing"] or result["only_parent"]
                or result["only_change"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    args = parser.parse_args(argv)
    revs = {"parent": bench_pair.git("rev-parse", args.parent),
            "change": bench_pair.working_tree()}
    tmp = Path(tempfile.mkdtemp(prefix="csv-pair-"))
    same = None
    try:
        for side in SIDES:
            checkout = bench_pair.export(revs[side], tmp / side)
            run_matrix(checkout, tmp / "out" / side)
        print(f"parent {revs['parent']}, change {revs['change']}")
        same = report(compare(tmp / "out" / "parent", tmp / "out" / "change"))
    finally:
        if same is False:
            print(f"output trees kept in {tmp / 'out'}")
        else:
            shutil.rmtree(tmp)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
