"""Worker-count plumbing.

TRIMODULI_THREADS sets the number of threads that run the Monte Carlo
sampler blocks, the box heights of the census and of the obtuse curve,
the key ranges that merge their height tables, the slice checks of
WeightedShapeSet.from_columns and the export chunks (numpy releases the
GIL inside their kernels); it defaults to the CPUs this process may use.
Results never depend on the worker count: work is split into fixed
blocks and block results are reduced in block-index order.
"""

from __future__ import annotations

import ctypes
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from .errors import GuardError, check_int_range

ENV_THREADS = "TRIMODULI_THREADS"

try:  # glibc's malloc_trim(pad); elsewhere freed pages stay with the process
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _MALLOC_TRIM = None


def worker_count() -> int:
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        # the affinity mask, not the host: a cpuset or taskset may allow fewer
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    # only plain decimal digits: int() would also take "2_0", " 3 " and "+3"
    if not (raw.isascii() and raw.isdigit()):
        raise GuardError(f"{ENV_THREADS}={raw!r} is not a decimal integer")
    return check_int_range(int(raw), ENV_THREADS, 1, sys.maxsize)


def map_ordered(fn, args_list, workers: int):
    """Yield fn(*args) for each args tuple of the list args_list, in order,
    computed on `workers` threads.

    At most 2 * workers calls are submitted and not yet yielded, so with the
    one the caller holds at most 2 * workers + 1 results are alive.  A
    call's exception is raised at its position, after the earlier results.
    A lone call runs in the calling thread: starting a pool costs more
    than a small job, such as the one slice check of a small census.
    """
    if len(args_list) == 1:
        yield fn(*args_list[0])
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for args in args_list:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *args))
        while pending:
            yield pending.popleft().result()


def release_freed_pages() -> None:
    """Hand back the freed pages that glibc keeps in the malloc arenas of
    map_ordered's threads, where their jobs' arrays were allocated; called
    once a pool's large results are freed or copied.  A no-op without
    glibc."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
