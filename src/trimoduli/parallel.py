"""Worker-count plumbing.

TRIMODULI_THREADS sets the number of threads that run the Monte Carlo
sampler blocks, the box heights of the census and of the obtuse curve,
and the export chunks (numpy releases the GIL inside their kernels); it
defaults to the CPUs this process may use.  Results never depend on the
worker count: work is split into fixed blocks and block results are
reduced in block-index order.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from .errors import GuardError, check_int_range

ENV_THREADS = "TRIMODULI_THREADS"


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
    """Yield fn(*args) for each args tuple, in args_list order, computed on
    `workers` threads.

    At most 2 * workers calls are submitted and not yet yielded, so with the
    one the caller holds at most 2 * workers + 1 results are alive.  A
    call's exception is raised at its position, after the earlier results.
    """
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for args in args_list:
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
            pending.append(pool.submit(fn, *args))
        while pending:
            yield pending.popleft().result()
