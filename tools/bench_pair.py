"""Benchmark a change against its parent in alternating pairs.

    python3 tools/bench_pair.py --out BENCH_<n>.json [--parent HEAD~1]
        [--pairs 10]

Exports both sides with ``git archive`` into sibling temporary
directories, so they run from the same kind of place: the parent
revision, and the change, which is the tracked files of this working tree
(a ``git stash create`` commit, or HEAD when nothing is uncommitted).
Then it runs the unchanged ``perfbench/run.py --trace 0`` in each. Pair i
runs every workload of ``BENCHMARK.json`` with seed i on both sides, the
parent first in even pairs and the change first in odd ones, for the run
length ``BENCHMARK.json`` sets.

The JSON file records the git revisions, the environment perfbench reports
on each side (Python, numpy and scipy versions, the BLAS threads read back
from numpy's OpenBLAS, the pool width as ``nproc``), the thread counts of
both OpenBLAS builds, numpy's and scipy's (which runs the CMA-ES factor
update), read in each side's checkout under perfbench's environment, the
allocator policy each side sets (``par.set_malloc``; null on a side
without one), the seeds, every pair's end-to-end metrics and, per workload
and metric, each side's median and quartiles, the change/parent ratios
with their median and quartiles, and how many pairs the change won (ties
count for neither side).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench_run  # noqa: E402  (perfbench's child environment)
import stats  # noqa: E402  (perfbench's percentile rule)

SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Write the tree of ``rev`` into ``dest`` (no .git, nothing ignored)."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def parse_env(report: str) -> dict:
    """The ``env: key=value ...`` line of a perfbench report as a dict
    (values may hold spaces, keys may not)."""
    for line in report.splitlines():
        if line.startswith("env: "):
            return dict(re.findall(r"(\S+)=(.*?)(?= \S+=|$)", line[5:]))
    return {}


def perfbench(checkout: Path, workload: str, seed: int,
              seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run: its JSON line, its env and,
    when it fails, the error it printed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip() or f"exit {proc.returncode}"}
    out = json.loads(lines[-1])
    out["metrics"] = {k: v["value"] for k, v in out["metrics"].items()}
    out["env"] = parse_env(proc.stdout)
    return out


def probe(checkout: Path, code: str):
    """What ``code`` prints as JSON, run by a fresh process in ``checkout``
    under the environment perfbench gives its children (its pinned thread
    variables), importing gradevo from the checkout's own ``src``."""
    env = perfbench_run.child_env(checkout)
    env["PYTHONPATH"] = os.pathsep.join([str(checkout / "src"),
                                         env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                          env=env, check=True, text=True,
                          stdout=subprocess.PIPE)
    return json.loads(proc.stdout)


def blas_threads(checkout: Path) -> dict:
    """The thread counts of numpy's and of scipy's OpenBLAS, keyed "numpy"
    and "scipy", as ``checkout`` reads them (``par.blas_threads`` sets
    none)."""
    return probe(checkout, "import json; from gradevo import par; "
                           "print(json.dumps(par.blas_threads()))")


def malloc_policy(checkout: Path):
    """The allocator policy ``checkout`` sets (``par.set_malloc`` in a
    process of its own), or None where it sets none."""
    return probe(checkout, "import json; from gradevo import par; "
                           "f = getattr(par, 'set_malloc', lambda: None); "
                           "print(json.dumps(f()))")


def quartiles(values) -> dict:
    return {"q1": stats.percentile(values, 25.0)[0],
            "median": stats.median(values),
            "q3": stats.percentile(values, 75.0)[0]}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: each side's quartiles, the change/parent ratios and
    their quartiles, and the pairs the change won. ``metrics`` holds the
    ``name`` and ``better`` entries of BENCHMARK.json's ``end_to_end``;
    a pair where either side failed counts in ``failed_pairs`` only."""
    done = [p for p in pairs if all("metrics" in p[s] for s in SIDES)]
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        if not done:
            out[name] = {"pairs": 0, "failed_pairs": len(pairs)}
            continue
        parent = [p["parent"]["metrics"][name] for p in done]
        change = [p["change"]["metrics"][name] for p in done]
        ratios = [c / b for b, c in zip(parent, change)]
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(parent, change))
        out[name] = {"parent": quartiles(parent), "change": quartiles(change),
                     "ratio": quartiles(ratios), "ratios": ratios,
                     "wins": wins, "pairs": len(done),
                     "failed_pairs": len(pairs) - len(done)}
    return out


def run_pairs(runner, workloads: list, seeds: list, metrics: list) -> dict:
    """Run ``runner(side, workload, seed)`` on both sides for every seed
    and workload, alternating which side goes first, and summarize."""
    pairs = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = runner(side, w, seed)
            pairs[w].append(pair)
            print(f"pair {i} {w}: " + ", ".join(
                f"{s} {pair[s].get('metrics', pair[s])}" for s in SIDES),
                file=sys.stderr, flush=True)
    return {w: {"summary": summarize(pairs[w], metrics), "pairs": pairs[w]}
            for w in workloads}


def environments(results: dict) -> dict:
    """The distinct environments each side reported."""
    seen = {s: [] for s in SIDES}
    for res in results.values():
        for pair in res["pairs"]:
            for s in SIDES:
                env = pair[s].get("env")
                if env is not None and env not in seen[s]:
                    seen[s].append(env)
    return seen


def working_tree() -> str:
    """A commit of the tracked files as they are now: ``git stash create``
    (which leaves the tree and the stash list alone), or HEAD when there
    is nothing uncommitted."""
    return git("stash", "create") or git("rev-parse", "HEAD")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.pairs))
    seconds = int(spec["run_seconds"])
    revs = {"parent": git("rev-parse", args.parent), "change": working_tree()}

    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        checkouts = {s: export(revs[s], Path(tmp) / s) for s in SIDES}
        threads = {s: blas_threads(checkouts[s]) for s in SIDES}
        malloc = {s: malloc_policy(checkouts[s]) for s in SIDES}
        results = run_pairs(
            lambda side, w, seed: perfbench(checkouts[side], w, seed, seconds),
            workloads, seeds, spec["end_to_end"])

    out = {
        "script": "tools/bench_pair.py",
        "revisions": {
            "parent": {"rev": revs["parent"],
                       "checkout": f"git archive {args.parent}"},
            "change": {"rev": revs["change"], "base": git("rev-parse", "HEAD"),
                       "checkout": "git archive of the working tree"},
        },
        "environments": environments(results),
        "openblas_threads": threads,
        "malloc": malloc,
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": results,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for w, res in results.items():
        for name, s in res["summary"].items():
            if s["pairs"]:
                r = s["ratio"]
                print(f"{w} {name}: change/parent median {r['median']:.3f} "
                      f"[{r['q1']:.3f}, {r['q3']:.3f}], change won "
                      f"{s['wins']}/{s['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
