"""VASTOP_THREADS: the worker-count rule, the one thread pool and the one worker
process; and the one-thread pin of BLAS.

``ordered_map`` is the package's only thread pool: the Monte Carlo estimator
passes map their chunks on it, and the decomposition its time slices.
``OrderedProcess`` runs calls in order on one worker process: ``vastop run``
writes its CSVs there while its later tasks compute. BLAS runs on one thread
(``pin_blas``), as OpenBLAS rounds differently for each thread count. An
invalid VASTOP_THREADS never fails the import; ``worker_count`` reports it as
a config error.
"""

import ctypes
import glob
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy
import scipy

from .model import ConfigError


def worker_count(nitems: int) -> int:
    """Workers for nitems items: VASTOP_THREADS, else the usable CPUs, at most nitems.

    Raises ConfigError for a VASTOP_THREADS that is set and not a positive integer.
    """
    raw = os.environ.get("VASTOP_THREADS")
    if not raw:
        n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    elif raw.isdecimal() and int(raw) >= 1:
        n = int(raw)
    else:
        raise ConfigError(f"VASTOP_THREADS must be a positive integer, got {raw!r}")
    return max(1, min(n, nitems))


def ordered_map(fn, nitems: int) -> list:
    """[fn(0), fn(1), ..., fn(nitems - 1)], computed on a pool of worker_count(nitems) threads.

    An exception raised by fn cancels the items not yet started and reaches
    the caller once the pool is joined. fn runs on pool threads, so it must
    call no public vastop function (the perfbench tracer's span stack is
    single-threaded).
    """
    with ThreadPoolExecutor(worker_count(nitems), thread_name_prefix="vastop") as pool:
        return list(pool.map(fn, range(nitems)))


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
    Only the worker's own calls write the module state they use (`_state`,
    `_failed`), so each forked worker starts with that state clean.

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
            self._pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))

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


def _call(fn, args, kwargs):
    global _failed
    if _failed:
        return None
    try:
        return fn(_state, *args, **kwargs)
    except BaseException:
        _failed = True
        raise


def pin_blas() -> None:
    """Set every OpenBLAS bundled with the numpy and scipy wheels to one thread; a
    library that cannot be loaded or has no known setter is left as it is."""
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in glob.glob(os.path.join(glob.escape(libs), "libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads"):
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None  # void f(int)
                    setter(1)
