"""Threads: a pool for independent rows or elements, the BLAS pin, and
the allocator policy.

``run`` spreads chunks from ``split`` over one thread per CPU the process
may use. Each chunk runs the serial loop's numpy operations on its own
disjoint slice, and BLAS is pinned to one thread, so results are bitwise
identical at any pool width. Chunks run numpy only (no gradevo function)
and write into buffers the caller allocated.

``pin_blas`` sets the OpenBLAS that numpy ships to one thread: with more,
a product's summation order follows the thread count, and the same seed
gives different bytes on different machines. ``blas_threads`` reads the
count back without setting it. ``lapack`` hands out routines of that same
library, which numpy's wheels build with 64-bit integers, so every BLAS
and LAPACK call gradevo makes runs in the one pinned OpenBLAS.

``set_malloc`` fixes glibc's ``M_MMAP_THRESHOLD`` at 16 MiB and
``M_TRIM_THRESHOLD`` at 44 MiB through ``mallopt``. At glibc's defaults a
generation's freed buffers go back to the kernel, by a trim of the heap top
or an unmap, and the next generation faults them in again: about 200 minor
faults per generation of ``ga-diff`` and ``de-diff`` at Ackley-30, pop
100, and 800 per epoch of the wine adam arm. glibc's own rule raises the
thresholds only after a large mapping is freed, and a fixed pair acts from
the first generation of any arm. 16 MiB keeps wine's 11 MB packed-factor
arrays on the heap, while its 22 MB dense factor is mapped, and returned
when freed, whenever the heap has no room for it. 44 MiB, twice the 22 MB
mmap threshold glibc's rule settles at on wine, keeps the freed heap top
without raising wine's peak RSS. The arithmetic is unchanged, so the CSVs
are too. ``mallopt`` acts on the calling process only; ``init_process``
calls it in every process that runs experiments, and a C library other
than glibc is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import platform

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
        # imported here to keep it off the import of gradevo
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


@functools.cache
def _numpy_openblas() -> tuple:
    """Each OpenBLAS bundled with numpy (``numpy.libs``), loaded once."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    pattern = os.path.join(site, "numpy.libs", "*openblas*")
    return tuple(ctypes.CDLL(path) for path in sorted(glob.glob(pattern)))


def _openblas_libs():
    """(set, get) for each OpenBLAS bundled with numpy that exports both
    thread calls."""
    for lib in _numpy_openblas():
        set_threads, get_threads = (
            getattr(lib, f"scipy_openblas_{verb}_num_threads64_", None)
            for verb in ("set", "get"))
        if set_threads is None or get_threads is None:
            continue
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        yield set_threads, get_threads


def blas_threads() -> dict:
    """The thread count numpy's OpenBLAS reports, keyed "numpy" (the larger
    when ``numpy.libs`` holds two); it sets nothing. Empty when there is
    none (another BLAS)."""
    counts = [int(get_threads()) for _, get_threads in _openblas_libs()]
    return {"numpy": max(counts)} if counts else {}


def pin_blas() -> int:
    """Set every OpenBLAS bundled with numpy to one thread.

    Returns the largest thread count read back, 0 when none is found
    (another BLAS, which this leaves alone).
    """
    for set_threads, _ in _openblas_libs():
        set_threads(1)
    return blas_threads().get("numpy", 0)


def lapack(*names: str) -> list:
    """The ctypes functions of the LAPACK routines ``names`` ("dtpqrt",
    ...) in numpy's OpenBLAS, whose integers are 64-bit (``scipy_<name>_64_``
    in numpy's wheels). Their argument and result types are left for the
    caller to set. RuntimeError naming the symbols when no OpenBLAS bundled
    with numpy exports them all."""
    symbols = [f"scipy_{name}_64_" for name in names]
    for lib in _numpy_openblas():
        fns = [getattr(lib, sym, None) for sym in symbols]
        if all(fn is not None for fn in fns):
            return fns
    raise RuntimeError(
        f"numpy's bundled OpenBLAS does not export {', '.join(symbols)}; "
        "gradevo needs numpy's wheels, which ship it in numpy.libs")


MMAP_THRESHOLD = 16 << 20
TRIM_THRESHOLD = 44 << 20
# <malloc.h>: the mallopt parameter numbers
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def set_malloc() -> dict | None:
    """Set glibc's mmap and trim thresholds for this process.

    Returns ``{"mmap_threshold", "trim_threshold", "accepted"}``, where
    ``accepted`` says whether ``mallopt`` took both values, or None where
    the C library is not glibc (left alone).
    """
    if platform.libc_ver()[0] != "glibc":
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    replies = [mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD),
               mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)]
    return {"mmap_threshold": MMAP_THRESHOLD,
            "trim_threshold": TRIM_THRESHOLD, "accepted": replies == [1, 1]}


def init_process() -> tuple:
    """Pin BLAS and set the allocator policy: what a process does before it
    runs experiments, and the initializer of each worker process. Returns
    ``(pin_blas(), set_malloc())``."""
    return pin_blas(), set_malloc()
