"""VASTOP_THREADS: the BLAS caps, the worker-count rule, the one thread pool and
the one worker process.

Imported first by the package __init__ so that setting VASTOP_THREADS in the
environment caps the worker pools of whatever BLAS numpy was built against,
provided vastop is imported before numpy, as ``vastop run`` always is. A
caller that imports numpy first has numpy's BLAS already started uncapped,
while scipy's, loaded later, takes the cap: the two libraries then run with
different thread counts, and the lattice matrices can differ in their last
digits from both the capped and the uncapped run. An invalid value is left out of the BLAS variables here (importing never
fails); ``worker_count`` reports it as a config error when work starts.

``ordered_map`` is the package's only thread pool: Monte Carlo chunks and
decomposition time slices both run on it. ``OrderedProcess`` runs calls in
order on one worker process: ``vastop run`` writes its CSVs there while its
later tasks compute.
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


class OrderedProcess:
    """Run submitted calls one at a time, in submission order, on one worker
    process forked at the first submit.

    Each call runs as fn(state, *args, **kwargs), where state is one dict that
    lives as long as the worker, for its memos. With one worker
    (worker_count(2) == 1, as under VASTOP_THREADS=1) or on a platform that
    cannot fork, each call runs inline in submit, on a dict of the helper's own.
    fn and its arguments are pickled to the worker, so fn must be a module-level
    function. A forked worker starts with the caller's modules loaded, where a
    spawned one would import numpy and scipy again (about 0.3 s per run); as
    the fork copies only the calling thread, fn should call no BLAS and no pool.

    A call that raises stops the calls after it, and submit raises that error
    once it is known. Leaving the helper as a context manager joins the worker:
    it waits for every call, ends the process and raises the first call's
    error. That error wins over one raised in the with block, which every
    submitted call came before; an exception that is not an Exception
    (KeyboardInterrupt) cancels the calls not yet started instead.
    """

    def __init__(self):
        # function-scope imports: a program that never starts a worker process
        # does not load multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self.state: dict = {}
        self._pool = None
        self._pending = deque()
        if worker_count(2) > 1 and "fork" in multiprocessing.get_all_start_methods():
            self._pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"),
                                             initializer=_new_state)

    def submit(self, fn, *args, **kwargs) -> None:
        if self._pool is None:
            fn(self.state, *args, **kwargs)
            return
        while self._pending and self._pending[0].done():
            self._pending.popleft().result()
        self._pending.append(self._pool.submit(_call, fn, args, kwargs))

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb) -> None:
        if self._pool is None:
            return
        interrupted = kind is not None and not issubclass(kind, Exception)
        self._pool.shutdown(cancel_futures=interrupted)
        if not interrupted:
            for fut in self._pending:
                fut.result()


# in an OrderedProcess worker: its state and whether one of its calls has raised
_state: dict = {}
_failed = False


def _new_state() -> None:
    global _state, _failed
    _state, _failed = {}, False


def _call(fn, args, kwargs):
    global _failed
    if _failed:
        return None
    try:
        return fn(_state, *args, **kwargs)
    except BaseException:
        _failed = True
        raise


try:
    _cap = thread_count()
except ValueError:
    _cap = None
if _cap is not None:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ.setdefault(var, str(_cap))
