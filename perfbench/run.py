"""gradevo benchmark: the wine, scale and grid studies at a fixed budget.

    python3 perfbench/run.py --workload {wine,scale,grid} --seed N \
        --seconds S --trace {0,1}

Run from a source checkout (the package is imported from ``src/``). The
launcher starts fresh processes with BLAS pinned to one thread: with
``--trace 0`` a few set-up processes and one measuring process that
repeats the workload for S seconds; with ``--trace 1`` only the measuring
process, alternating untraced and traced repetitions. It prints a report,
then one JSON line with ``correct``, ``attempted``, ``failed`` and the
metrics that BENCHMARK.json declares: ``end_to_end`` with ``--trace 0``,
``per_layer`` with ``--trace 1``. Scratch files live under
``.perfbench_work/`` in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0        # the whole invocation, set-up included
END_TO_END = ("wall_s", "gen_ms_p50", "gen_ms_p90", "gen_samples",
              "peak_rss_mb", "setup_s")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env(tmp: Path) -> dict:
    env = dict(os.environ, **PINNED, TMPDIR=str(tmp))
    path = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)
    return env


def run_child(args: list, tmp: Path, timeout: float) -> dict:
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=child_env(tmp), cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: int, trace: bool,
            work: Path) -> dict:
    start = time.perf_counter()
    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES):
            remaining = TIME_LIMIT_S - (time.perf_counter() - start)
            setups.append(run_child(
                ["setup", workload, str(seed), str(work / "out")],
                work / f"setup-{i}", remaining))
    remaining = TIME_LIMIT_S - (time.perf_counter() - start)
    result = run_child(
        ["measure", workload, str(seed), str(seconds), "1" if trace else "0",
         f"{remaining - 20.0:.1f}", str(work / "out")],
        work / "measure", remaining)
    if setups:
        result["metrics"]["setup_s"] = stats.median(
            [s["setup_s"] for s in setups])
        result["setup"] = setups
    return result


def report(workload: str, seed: int, trace: bool, result: dict) -> list:
    m = result["metrics"]
    env = " ".join(f"{k}={v}" for k, v in result["env"].items())
    lines = [
        f"perfbench {workload} seed={seed} trace={int(trace)}: "
        f"{len(result['walls'])} untraced + {result['traced_reps']} traced "
        f"repetitions, {result['failed']}/{result['attempted']} runs failed",
        f"env: {env}",
        "final best fitness (information, not gated): " + " ".join(
            f"{a}={v:.6g}" for a, v in result["final_best"].items()),
        "untraced repetitions (s): " + " ".join(
            f"{w:.3f}" for w in result["walls"]),
        f"end to end: wall_s {m['wall_s']:.4f}, gen_ms p50 "
        f"{m['gen_ms_p50']:.3f} p90 {m['gen_ms_p90']:.3f} (percentiles of "
        f"the {m['gen_samples']:.0f} workload generations of a repetition, "
        f"each one generation of every arm), peak_rss_mb "
        f"{m['peak_rss_mb']:.1f}; medians over repetitions",
    ]
    lines += [f"failure: {f}" for f in result["failures"]]
    if "setup" in result:
        lines.append("setup_s samples: " + " ".join(
            f"{s['setup_s']:.4f}" for s in result["setup"]))
    if trace:
        lines += result.get("report", [])
        lines.append("per-layer values (per workload generation; harness.* "
                     "per repetition; arm.* per generation of that arm):")
        lines += [f"  {k:<40s} {v:.6g}" for k, v in sorted(m.items())
                  if k not in END_TO_END]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    trace = bool(args.trace)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "gradevo" / "__init__.py").is_file():
        print(f"error: no gradevo sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    name = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = ROOT / ".perfbench_work" / name
    try:
        result = measure(args.workload, args.seed, args.seconds, trace, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for item in declared:
        value = result["metrics"].get(item["name"])
        if value is None:
            if not trace:
                print(f"error: end-to-end metric {item['name']} was not "
                      "measured", file=sys.stderr)
                return 1
            value = 0.0             # the layer did no work on this workload
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
    print("\n".join(report(args.workload, args.seed, trace, result)))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
