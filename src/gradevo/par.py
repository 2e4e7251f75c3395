"""Threads: a pool for independent rows or elements, and the BLAS pin.

``run`` spreads chunks from ``split`` over one thread per CPU the process
may use. Each chunk runs the serial loop's numpy operations on its own
disjoint slice, and BLAS is pinned to one thread, so results are bitwise
identical at any pool width. Chunks run numpy only (no gradevo function)
and write into buffers the caller allocated.

``pin_blas`` sets the OpenBLAS that numpy and scipy ship to one thread:
with more, a product's summation order follows the thread count, and the
same seed gives different bytes on different machines. ``blas_threads``
reads their counts back without setting them.
"""

from __future__ import annotations

import os

import numpy as np

_width = len(os.sched_getaffinity(0))
_pool = None


def _forget_pool() -> None:
    # a forked child has none of the parent's pool threads
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def width() -> int:
    """The most chunks ``split`` makes: the CPUs the process may use."""
    return _width


def split(items) -> list:
    """At most ``_width`` contiguous chunks of ``range(items)`` (an int)
    or of a 1-D index array; one empty chunk when there are no items."""
    n = items if isinstance(items, int) else len(items)
    parts = max(1, min(_width, n))
    cuts = [n * j // parts for j in range(parts + 1)]
    if isinstance(items, int):
        return [range(a, b) for a, b in zip(cuts, cuts[1:])]
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def run(fn, *args) -> None:
    """Call ``fn(*a)`` for each ``a`` in ``zip(*args)``: the first in this
    thread, the others on the pool. Waits for every call, then raises the
    first exception in chunk order."""
    global _pool
    calls = list(zip(*args))
    if len(calls) == 1:
        fn(*calls[0])
        return
    if _pool is None:
        # imported here, like ctypes and glob below, to keep them off the
        # import of gradevo
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_width, thread_name_prefix="gradevo-par")
    futures = [_pool.submit(fn, *a) for a in calls[1:]]
    try:
        fn(*calls[0])
    finally:
        errors = [f.exception() for f in futures]
    for exc in errors:
        if exc is not None:
            raise exc


def _openblas_call(lib, verb: str):
    for name in (f"scipy_openblas_{verb}_num_threads64_",
                 f"scipy_openblas_{verb}_num_threads",
                 f"openblas_{verb}_num_threads64_",
                 f"openblas_{verb}_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def _openblas_libs():
    """(folder, set, get) for each OpenBLAS bundled with numpy or scipy
    that exports both thread calls; folder is "numpy" or "scipy"."""
    import ctypes
    import glob

    site = os.path.dirname(os.path.dirname(np.__file__))
    for pkg in ("numpy", "scipy"):
        pattern = os.path.join(site, f"{pkg}.libs", "*openblas*")
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            set_threads = _openblas_call(lib, "set")
            get_threads = _openblas_call(lib, "get")
            if set_threads is None or get_threads is None:
                continue
            set_threads.argtypes = [ctypes.c_int]
            set_threads.restype = None
            get_threads.argtypes = []
            get_threads.restype = ctypes.c_int
            yield pkg, set_threads, get_threads


def blas_threads() -> dict:
    """The thread count each OpenBLAS bundled with numpy or scipy reports,
    keyed "numpy" and "scipy" (the larger when a folder holds two); it
    sets nothing. Empty when there is none (another BLAS)."""
    counts: dict = {}
    for pkg, _, get_threads in _openblas_libs():
        counts[pkg] = max(counts.get(pkg, 0), int(get_threads()))
    return counts


def pin_blas() -> int:
    """Set every OpenBLAS bundled with numpy or scipy to one thread.

    Returns the largest thread count read back from them, 0 when none is
    found (another BLAS, which this leaves alone).
    """
    for _, set_threads, _ in _openblas_libs():
        set_threads(1)
    return max(blas_threads().values(), default=0)
