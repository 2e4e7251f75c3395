"""One measuring process of the benchmark; ``run.py`` starts it.

    child.py setup   WORKLOAD SEED OUT_DIR
    child.py measure WORKLOAD SEED SECONDS TRACE DEADLINE OUT_DIR

``setup`` times, in a fresh process, the import of gradevo plus
``build_problem`` and ``build_algo`` for every arm of the workload.
``measure`` repeats the workload's study command through ``cli.main`` for
SECONDS seconds (always at least a few repetitions, never starting one
that would end after DEADLINE seconds). With TRACE 1 every other
repetition runs with the layer spans of ``spans.instrument`` installed.
Both print one JSON object as their last line of standard output.

The launcher pins BLAS to one thread and points TMPDIR into the checkout
before this process starts, so numpy sees the pin at import.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import spans
import stats
from workloads import WORKLOADS, cli_args

MIN_REPS = 3          # untraced repetitions, and traced ones with TRACE 1
RUN_LEVEL = ("harness.build_problem", "harness.build_algo", "harness.csv")


def arm_configs(workload, seed: int, out_dir: str) -> list:
    """The ExperimentConfig of every arm, as the study command builds them."""
    from gradevo import cli
    from gradevo.plots import summary_stats

    cfgs = []

    def record(cfg, quiet=False):
        cfgs.append(cfg)
        return summary_stats([0.0]), out_dir

    patches = spans.Patches()
    patches.set(cli, "run_experiment", record)
    try:
        with contextlib.redirect_stdout(open(os.devnull, "w")):
            cli.main(cli_args(workload, seed, out_dir))
    finally:
        patches.restore()
    return cfgs


def setup(name: str, seed: int, out_dir: str) -> dict:
    t0 = time.perf_counter()
    from gradevo import harness
    t_import = time.perf_counter() - t0
    cfgs = arm_configs(WORKLOADS[name], seed, out_dir)
    t1 = time.perf_counter()
    for cfg in cfgs:
        problem = harness.build_problem(cfg)
        if cfg.algo != "adam":          # run_single builds no algorithm for it
            harness.build_algo(cfg, problem, cfg.seed)
    t_build = time.perf_counter() - t1
    return {"setup_s": t_import + t_build, "import_s": t_import,
            "build_s": t_build}


# ----------------------------------------------------------------------
# measure
# ----------------------------------------------------------------------


@dataclass
class Run:
    cfg: object
    records: list
    err: object
    buckets: list


@dataclass
class Rep:
    traced: bool
    wall_s: float
    runs: list
    loose: dict                 # spans outside any run (CSV writes)
    error: object = None
    gens: dict = field(default_factory=dict)     # algo -> generations


class Recorder:
    """Seeded runs and per-generation buckets of the running repetition.

    Two hooks stay in place for the whole measurement: ``run_single`` (one
    seeded run) and ``RunRecord`` (made once per generation, where the
    generation interval is stamped). In a traced repetition each record
    also cuts the tracer's bucket, so layer spans land in the generation
    that ran them.
    """

    def __init__(self, patches: spans.Patches, clock=time.perf_counter):
        from gradevo import harness, outer

        self.tracer = None
        self.runs: list = []
        self.loose: dict = {}
        self._buckets: list = []
        self._last = 0.0
        run_single = harness.run_single
        record_cls = outer.RunRecord

        def hooked_run_single(cfg, run_idx):
            self._cut_loose()
            self._buckets = []
            self._last = clock()
            try:
                idx, records, err = run_single(cfg, run_idx)
            except Exception as exc:
                self.runs.append(Run(cfg, [], f"{type(exc).__name__}: {exc}",
                                     self._buckets))
                raise
            self.runs.append(Run(cfg, records, err, self._buckets))
            return idx, records, err

        def stamped_record(*args, **kwargs):
            rec = record_cls(*args, **kwargs)
            now = clock()
            bucket = self.tracer.cut() if self.tracer is not None else {}
            bucket["gen_ms"] = (now - self._last) * 1e3
            self._last = now
            self._buckets.append(bucket)
            return rec

        patches.set(harness, "run_single", hooked_run_single)
        for module in (outer, harness):
            patches.set(module, "RunRecord", stamped_record)

    def _cut_loose(self):
        if self.tracer is not None:
            stats.add_into(self.loose, self.tracer.cut())

    def start(self, tracer) -> None:
        self.tracer = tracer
        self.runs = []
        self.loose = {}

    def finish(self):
        self._cut_loose()
        self.tracer = None
        return self.runs, self.loose


def one_rep(cli, recorder: Recorder, argv: list, traced: bool) -> Rep:
    tracer = spans.Tracer() if traced else None
    patches = spans.Patches()
    error = None
    try:
        if traced:
            spans.instrument(tracer, patches)
        recorder.start(tracer)
        gc.collect()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                code = None
                error = traceback.format_exc(limit=-3).strip()
            wall = time.perf_counter() - t0
        if code not in (0, None):
            error = f"study command exited with {code}"
    finally:
        patches.restore()
    runs, loose = recorder.finish()
    return Rep(traced, wall, runs, loose, error)


def arm_generations(rep: Rep) -> dict:
    """algo -> generation dicts; every arm's generation spends the same
    number of evaluations (one population of the workload's largest)."""
    per_record = {run.cfg.algo: 1 if run.cfg.algo == "adam" else run.cfg.pop
                  for run in rep.runs}
    if not per_record:
        return {}
    width = max(per_record.values())
    return {run.cfg.algo: stats.generations(run.buckets,
                                            width // per_record[run.cfg.algo])
            for run in rep.runs}


def check_reps(workload, reps: list):
    """(attempted, failures): one operation per seeded run.

    A run fails on an error, a non-finite final best fitness, a short
    evaluation count, or a final best that differs from the first untraced
    repetition of the same arm (every repetition uses the same seed).
    """
    reference: dict = {}
    attempted = 0
    failures: list = []
    for i, rep in enumerate(reps):
        attempted += len(workload.arms)
        for _ in range(len(workload.arms) - len(rep.runs)):
            failures.append(f"rep {i}: arm did not run: {rep.error}")
        for run in rep.runs:
            cfg = run.cfg
            reason = stats.check_run(
                run.records, run.err,
                stats.expected_evals(cfg.algo, cfg.budget, cfg.pop))
            if reason is None:
                best = run.records[-1].best_fitness
                ref = (reference.get(cfg.algo) if rep.traced
                       else reference.setdefault(cfg.algo, best))
                if ref is not None and best != ref:
                    reason = (f"final best {best!r} differs from the untraced "
                              f"{ref!r}")
            if reason is not None:
                failures.append(f"rep {i} {cfg.algo}: {reason}")
    return attempted, failures


def workload_samples(reps: list) -> list:
    samples = []
    for rep in reps:
        samples += stats.workload_generations(list(rep.gens.values()))
    return samples


def end_to_end(reps: list) -> dict:
    """Medians over repetitions: of the repetition's wall time and of the
    percentiles of its workload-generation times, so that a stretch of
    contention on a shared machine moves few repetitions, not the pool."""
    per_rep = [[g["gen_ms"] for g in workload_samples([r])] for r in reps]
    per_rep = [gen_ms for gen_ms in per_rep if gen_ms]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": stats.median([r.wall_s for r in reps]),
        "gen_ms_p50": stats.median([stats.percentile(g, 50)[0]
                                    for g in per_rep]),
        "gen_ms_p90": stats.median([stats.percentile(g, 90)[0]
                                    for g in per_rep]),
        "gen_samples": stats.median([len(g) for g in per_rep]),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def with_forward_total(sample: dict) -> dict:
    sample["tape.fwd_ms"] = sum(v for k, v in sample.items()
                                if k.startswith("tape.op_ms."))
    return sample


def per_layer(plain: list, traced: list) -> dict:
    samples = [with_forward_total(s) for s in workload_samples(traced)]
    values = stats.medians(samples)
    values.pop("gen_ms", None)
    totals = [stats.add_into(dict(rep.loose), _all_buckets(rep))
              for rep in traced]
    for name in RUN_LEVEL:
        values[f"{name}_ms"] = stats.median([t.get(f"{name}_ms", 0.0)
                                             for t in totals])
    calls = sum(t.get("classic.cholesky_calls", 0.0) for t in totals)
    attempts = sum(t.get("classic.cholesky_attempts", 0.0) for t in totals)
    values.pop("classic.cholesky_attempts", None)
    values["classic.cholesky_attempts_per_call"] = (
        attempts / calls if calls else 0.0)
    for algo, gen_ms in _arm_series(plain, "gen_ms").items():
        values[f"arm.{algo}.gen_ms"] = stats.median(gen_ms)
    values["trace.overhead_pct"] = 100.0 * (
        stats.median([r.wall_s for r in traced])
        / stats.median([r.wall_s for r in plain]) - 1.0)
    return values


def _all_buckets(rep: Rep) -> dict:
    acc: dict = {}
    for run in rep.runs:
        for bucket in run.buckets:
            stats.add_into(acc, bucket)
    return acc


def _arm_series(reps: list, key: str) -> dict:
    series: dict = {}
    for rep in reps:
        for algo, gens in rep.gens.items():
            series.setdefault(algo, []).extend(g.get(key, 0.0) for g in gens)
    return {algo: vals for algo, vals in series.items() if vals}


def arm_layer_table(workload, plain: list, traced: list) -> list:
    """Per-arm medians of every layer over the traced generations, under
    the untraced generation time of each arm."""
    gen_ms = _arm_series(plain, "gen_ms")
    per_arm = {}
    for algo in workload.arms:
        gens = [with_forward_total(dict(g)) for rep in traced
                for g in rep.gens.get(algo, [])]
        if gens:
            per_arm[algo] = stats.medians(gens)
    keys = sorted({k for m in per_arm.values() for k in m
                   if k.endswith("_ms") and k != "gen_ms"})
    arms = [a for a in per_arm if a in gen_ms]
    lines = ["ms per generation of each arm, median over its generations:",
             f"  {'layer':<28s}" + "".join(f"{a:>12s}" for a in arms),
             f"  {'gen_ms (untraced)':<28s}" + "".join(
                 f"{stats.median(gen_ms[a]):12.3f}" for a in arms),
             "  self time with tracing on:"]
    for key in keys:
        lines.append(f"  {key:<28s}" + "".join(
            f"{per_arm[a].get(key, 0.0):12.3f}" for a in arms))
    return lines


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    from gradevo import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernels.BACKEND": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(name: str, seed: int, seconds: float, trace: bool,
            deadline: float, out_dir: str) -> dict:
    start = time.perf_counter()
    from gradevo import cli

    workload = WORKLOADS[name]
    argv = cli_args(workload, seed, out_dir)
    recorder = Recorder(spans.Patches())
    reps: list = []
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = one_rep(cli, recorder, argv, traced)
        rep.gens = arm_generations(rep)
        reps.append(rep)
        longest = max(longest, rep.wall_s)
        elapsed = time.perf_counter() - start
        done = len(reps) >= MIN_REPS * (2 if trace else 1)
        # stop at the repetition that ends nearest to ``seconds``
        if (done and elapsed + rep.wall_s / 2 >= seconds) \
                or elapsed + longest > deadline:
            break

    attempted, failures = check_reps(workload, reps)
    plain = [r for r in reps if not r.traced]
    traced_reps = [r for r in reps if r.traced]
    out = {"attempted": attempted, "failed": len(failures),
           "failures": failures, "env": environment(),
           "walls": [r.wall_s for r in plain], "traced_reps": len(traced_reps),
           "final_best": {run.cfg.algo: run.records[-1].best_fitness
                          for run in reps[0].runs if run.records}}
    out["metrics"] = end_to_end(plain)
    if traced_reps:
        out["metrics"].update(per_layer(plain, traced_reps))
        out["report"] = arm_layer_table(workload, plain, traced_reps)
    return out


def main(argv: list) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(name, seed, argv[3])
    else:
        seconds, trace, deadline, out_dir = argv[3:7]
        result = measure(name, seed, float(seconds), trace == "1",
                         float(deadline), out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
