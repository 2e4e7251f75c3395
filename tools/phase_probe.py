"""Time, fault and memory readings of each phase of one arm's generations.

    python3 tools/phase_probe.py --arm cmaes-diff [--gens 10] [--warmup 2]
        -- wine [study flags]

Everything after ``--`` is a ``gradevo`` command line (``run``, ``suite``,
``wine`` or ``scale`` with its flags). The probe parses it with the CLI's
own parser and collects the experiment configs the command would run,
without running them, so each arm gets the study's own defaults (the
wine study's evolved arm its pop 30, lr 1.0 and mean loss, for instance).
It takes the first config whose algorithm is ``--arm``, pins BLAS and sets
the allocator as ``run_experiment`` does (``par.init_process``), and builds
run 0's problem, algorithm, Adam and scheduler as ``run_single`` does.
Then it runs ``--warmup`` generations unmeasured and ``--gens`` measured
ones, with the steps of ``outer.run_loop``:

    generation, backward, reset, adam, zero_grad+sched, commit

A classical arm has only the generation phase. For each phase it prints
the median milliseconds, the mean ``ru_minflt`` minor faults per
generation, the largest RSS read right after the phase
(``/proc/self/statm``), ``ru_maxrss`` after the phase's last run, and,
where the C library is glibc, the largest heap (``arena``) and mmapped
(``hblkhd``) totals of ``mallinfo2`` after the phase, all in MiB. A first
line gives ``ru_maxrss`` after building the problem and the algorithm,
and a last one ``thread_cpus`` as ``timing.log`` writes it. Each probe
is its own process: the peak and the allocator's state would carry over
between arms of one process. Set ``OPENBLAS_NUM_THREADS=1`` for readings
comparable with ``tools/bench_pair.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from gradevo import cli, harness, par  # noqa: E402
from gradevo.outer import Adam, PlateauScheduler  # noqa: E402

MIB = 1 << 20


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    """glibc's ``mallinfo2`` as a function returning (heap, mmapped) bytes,
    or None where the C library is not glibc or lacks it (before 2.33)."""
    if platform.libc_ver()[0] != "glibc":
        return None
    fn = getattr(ctypes.CDLL(None), "mallinfo2", None)
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = _Mallinfo2

    def read():
        info = fn()
        return info.arena, info.hblkhd

    return read


def study_configs(argv: list) -> list:
    """The ExperimentConfigs the gradevo command ``argv`` would run, in
    order, without running any."""
    args = cli.build_parser().parse_args(argv)
    if args.command not in ("run", "suite", "wine", "scale"):
        raise SystemExit(f"{args.command!r} runs no experiment")
    configs = []
    nan = math.nan
    stand_in = harness.SummaryStats(0, nan, nan, nan, nan, nan, nan, nan)

    def collect(cfg, quiet=False):
        configs.append(cfg)
        return stand_in, None

    real = cli.run_experiment
    cli.run_experiment = collect
    try:
        # the study commands print a line from the stand-in statistics
        with contextlib.redirect_stdout(io.StringIO()):
            args.fn(args)
    finally:
        cli.run_experiment = real
    return configs


def _maxrss() -> int:
    # ru_maxrss counts kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _rss() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def probe(cfg, gens: int, warmup: int) -> dict:
    """Run ``warmup`` + ``gens`` generations of run 0 of ``cfg``. Returns
    ``(setup, readings)``: ``ru_maxrss`` after building the problem and
    after building the algorithm (which evaluates its first population),
    and, per phase, the readings of each measured generation."""
    setup = {}
    problem = harness.build_problem(cfg)
    setup["build_problem"] = _maxrss()
    algo = harness.build_algo(cfg, problem, cfg.seed)
    setup["build_algo"] = _maxrss()
    on_tape = hasattr(algo, "tape")
    opt = Adam(algo.tape.params, lr=cfg.lr) if on_tape else None
    sched = (PlateauScheduler(opt, patience=cfg.patience)
             if cfg.algo in harness.DIFF_ALGORITHMS else None)

    def zero_grad_and_sched():
        algo.tape.zero_grad()
        if sched is not None:
            sched.step(algo.current_best())

    steps = {"generation": algo.generation}
    if on_tape:
        loss = []
        steps = {
            "generation": lambda: loss.append(algo.generation()),
            "backward": lambda: algo.tape.backward(loss.pop()),
            "reset": algo.tape.reset,
            "adam": opt.step,
            "zero_grad+sched": zero_grad_and_sched,
            "commit": algo.update_state,
        }
    heap = _mallinfo2()
    readings = {name: [] for name in steps}
    for g in range(warmup + gens):
        for name, step in steps.items():
            faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            step()
            ms = (time.perf_counter() - t0) * 1e3
            usage = resource.getrusage(resource.RUSAGE_SELF)
            if g < warmup:
                continue
            readings[name].append({
                "ms": ms,
                "minflt": usage.ru_minflt - faults0,
                "rss": _rss(),
                "maxrss": usage.ru_maxrss * 1024,
                "heap": heap() if heap else None,
            })
    return setup, readings


def report(setup: dict, readings: dict) -> str:
    lines = ["maxrss MiB after " + ", ".join(
        f"{name} {rss / MIB:.1f}" for name, rss in setup.items())]
    head = (f"{'phase':<16}{'ms p50':>9}{'minflt':>9}{'rss MiB':>9}"
            f"{'maxrss':>9}{'heap MiB':>10}{'mmap MiB':>10}")
    lines.append(head)
    total_ms = total_faults = 0.0
    for name, rows in readings.items():
        ms = statistics.median(r["ms"] for r in rows)
        faults = statistics.fmean(r["minflt"] for r in rows)
        total_ms += ms
        total_faults += faults
        if rows[0]["heap"] is None:
            heap = mmap = "n/a"
        else:
            heap = f"{max(r['heap'][0] for r in rows) / MIB:.1f}"
            mmap = f"{max(r['heap'][1] for r in rows) / MIB:.1f}"
        lines.append(
            f"{name:<16}{ms:>9.2f}{faults:>9.1f}"
            f"{max(r['rss'] for r in rows) / MIB:>9.1f}"
            f"{rows[-1]['maxrss'] / MIB:>9.1f}{heap:>10}{mmap:>10}")
    lines.append(f"{'sum':<16}{total_ms:>9.2f}{total_faults:>9.1f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        raise SystemExit("usage: phase_probe.py [options] -- <gradevo command>")
    cut = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--arm", required=True,
                        help="the algorithm of the config to probe")
    parser.add_argument("--gens", type=int, default=10,
                        help="measured generations")
    parser.add_argument("--warmup", type=int, default=2,
                        help="generations run before measuring")
    args = parser.parse_args(argv[:cut])
    if args.gens < 1 or args.warmup < 0:
        raise SystemExit("--gens must be >= 1 and --warmup >= 0")
    configs = [c for c in study_configs(argv[cut + 1:]) if c.algo == args.arm]
    if not configs:
        raise SystemExit(f"the command runs no {args.arm!r} arm")
    cfg = configs[0]
    par.init_process()
    print(f"{cfg.resolved_label()}: pop {cfg.pop}, lr {cfg.lr}, "
          f"{args.warmup} warm-up and {args.gens} measured generations, "
          f"BLAS threads {par.blas_threads().get('numpy', 'n/a')}, "
          f"pool {par.width()}")
    print(report(*probe(cfg, args.gens, args.warmup)))
    print(f"thread_cpus={harness.thread_cpus()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
