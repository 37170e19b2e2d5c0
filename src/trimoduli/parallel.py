"""Worker-count plumbing.

TRIMODULI_THREADS caps the number of workers used by the Monte Carlo
samplers; the census runs in one process.  Results never depend on the
worker count: work is split into fixed blocks and block results are
reduced in block-index order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import GuardError

ENV_THREADS = "TRIMODULI_THREADS"


def worker_count() -> int:
    raw = os.environ.get(ENV_THREADS)
    if raw is None:
        return os.cpu_count() or 1
    try:
        v = int(raw)
    except ValueError:
        raise GuardError(f"{ENV_THREADS}={raw!r} is not an integer") from None
    if v < 1:
        raise GuardError(f"{ENV_THREADS} must be >= 1, got {v}")
    return v


def map_ordered(fn, args_list, workers: int):
    """Apply fn over args tuples, returning results in args_list order.

    workers == 1 runs inline; more workers use a process pool.  Either way
    the caller sees the same sequence, so downstream reductions are
    independent of the worker count.
    """
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with ProcessPoolExecutor(max_workers=min(workers, len(args_list))) as pool:
        futures = [pool.submit(fn, *args) for args in args_list]
        return [f.result() for f in futures]
