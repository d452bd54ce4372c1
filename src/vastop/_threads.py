"""VASTOP_THREADS: the BLAS caps, the worker-count rule and the one thread pool.

Imported first by the package __init__ so that setting VASTOP_THREADS in the
environment caps the worker pools of whatever BLAS numpy was built against.
An invalid value is left out of the BLAS variables here (importing never
fails); ``worker_count`` reports it as a config error when work starts.

``ordered_map`` is the package's only thread pool: Monte Carlo chunks and
decomposition time slices both run on it.
"""

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int | None:
    """VASTOP_THREADS as a positive integer, None when unset or empty.

    Raises ValueError for any other value.
    """
    raw = os.environ.get("VASTOP_THREADS")
    if not raw:
        return None
    if raw.isdecimal() and int(raw) >= 1:
        return int(raw)
    raise ValueError(f"VASTOP_THREADS must be a positive integer, got {raw!r}")


def worker_count(nitems: int) -> int:
    """Workers for nitems items: VASTOP_THREADS, else the usable CPUs, at most nitems.

    Raises ConfigError for an invalid VASTOP_THREADS.
    """
    # function-scope import: model loads numpy, which must come after the BLAS caps
    from .model import ConfigError

    try:
        n = thread_count()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if n is None:
        n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(n, nitems))


def ordered_map(fn, nitems: int, *, caller_first: bool = False):
    """Yield fn(0), fn(1), ..., fn(nitems - 1) in that order.

    The items run on a pool of worker_count(nitems) threads (read when
    iteration starts), with at most one item per thread pending ahead of the
    consumer. With caller_first the calling thread computes item 0 itself
    while a pool one thread smaller (none for a single worker) starts on the
    rest; that share then allocates in the caller's malloc arena, not in a
    new thread's. Closing the generator early cancels the pending items and joins the pool;
    an exception raised by fn reaches the consumer after the pool is joined.
    fn runs on pool threads, so it must call no public vastop function (the
    perfbench tracer's span stack is single-threaded).
    """
    threads = worker_count(nitems) - caller_first
    if threads == 0:
        for i in range(nitems):
            yield fn(i)
        return
    first = int(caller_first)
    with ThreadPoolExecutor(max_workers=threads, thread_name_prefix="vastop") as pool:
        pending = deque(pool.submit(fn, i) for i in range(first, min(first + threads, nitems)))
        try:
            if caller_first:
                yield fn(0)
            for i in range(first, nitems):
                result = pending.popleft().result()
                if i + threads < nitems:
                    pending.append(pool.submit(fn, i + threads))
                yield result
        finally:
            for fut in pending:
                fut.cancel()


try:
    _cap = thread_count()
except ValueError:
    _cap = None
if _cap is not None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, str(_cap))
