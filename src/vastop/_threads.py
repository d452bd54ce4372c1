"""The worker count, the one thread pool and the forked calls; and the
one-thread pin of BLAS.

``ordered_map`` is the package's only thread pool: the Monte Carlo estimator
passes map their chunks on it, and the decomposition its time slices. It has
one worker per CPU the process may run on (``taskset`` limits them).
``ForkedCalls`` runs each call in a child process forked from the caller:
``vastop run`` writes each CSV there while its later tasks compute.
BLAS runs on one thread (``pin_blas``), as OpenBLAS rounds differently for
each thread count.
"""

import ctypes
import glob
import os
import pickle
import signal
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor

import numpy
import scipy


def worker_count(nitems: int) -> int:
    """Workers for nitems items: the CPUs the process may run on, at most nitems."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(n, nitems))


def ordered_map(fn, nitems: int) -> list:
    """[fn(0), fn(1), ..., fn(nitems - 1)], computed on a pool of worker_count(nitems) threads.

    An exception raised by fn cancels the items not yet started and reaches
    the caller once the pool is joined. fn runs on pool threads, so it must
    not look a public vastop function up through its module (``analytic.f``):
    the perfbench tracer wraps those module attributes, and its span stack is
    single-threaded. A name bound by ``from .x import f`` when the package
    loads keeps the original function, so fn may call that: decompose's slices
    call only ``guarantee_put_value``, bound so.
    """
    with ThreadPoolExecutor(worker_count(nitems), thread_name_prefix="vastop") as pool:
        return list(pool.map(fn, range(nitems)))


class ForkedCalls:
    """Run each submitted call, fn(*args, **kwargs), in a child process forked
    at its submit; inline on a platform without os.fork.

    A child finds fn and its arguments in the memory it shares with the
    caller, so nothing is pickled on the way in. The fork copies only the
    calling thread: submit from a process with no other thread, and fn should
    call no BLAS and no pool. The calls run side by side, and a failed call
    stops none of the others. join, or leaving the helper as a context
    manager, waits for every child in submit order, then raises the first
    failed call's error with its traceback in the child as the cause; that
    error wins over one raised in the with block. An exception that is not an
    Exception (KeyboardInterrupt) kills the children instead. Either way no
    child outlives the helper.
    """

    def __init__(self):
        self._children = []  # (pid, read end of its error pipe), oldest first

    def submit(self, fn, *args, **kwargs) -> None:
        if not hasattr(os, "fork"):
            fn(*args, **kwargs)
            return
        error_r, error_w = os.pipe()
        for stream in (sys.stdout, sys.stderr):  # so that no child writes their buffers again
            stream.flush()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory
            os.close(error_r)
            os.close(error_w)
            raise
        if pid == 0:
            _child(error_w, fn, args, kwargs)  # does not return
        os.close(error_w)
        self._children.append((pid, error_r))

    def join(self) -> None:
        """Wait for every child, oldest first, then raise the first failed call's error."""
        failed = None  # (report, exit status) of the first call that failed
        while self._children:
            pid, fd = self._children[0]
            with open(fd, "rb", closefd=False) as pipe:  # until the child ends
                report = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            self._children.pop(0)
            os.close(fd)
            if failed is None and (report or status):
                failed = report, status
        if failed and failed[0]:
            exc, text = pickle.loads(failed[0])
            raise exc from _ChildTraceback(f'\n"""\n{text}"""')
        if failed:
            raise RuntimeError(f"the process of a call ended with status {failed[1]}")

    def _kill(self) -> None:
        """Kill and reap the children not yet reaped."""
        while self._children:
            pid, fd = self._children.pop(0)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(fd)

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb) -> None:
        try:
            if kind is None or issubclass(kind, Exception):
                self.join()
        finally:
            self._kill()


class _ChildTraceback(Exception):
    """The traceback text of a call's error in its child: the cause of that
    error as the caller raises it."""


def _child(error_fd, fn, args, kwargs):
    """The life of a forked child: run fn, and report its error on error_fd.
    Exits without returning."""
    status = 1
    try:
        try:
            fn(*args, **kwargs)
        except BaseException as exc:  # the child's boundary: reported, then it exits
            with open(error_fd, "wb") as pipe:
                pipe.write(_report(exc))
        status = 0
    finally:
        try:
            for stream in (sys.stdout, sys.stderr):
                stream.flush()
        finally:
            os._exit(status)


def _report(exc: BaseException) -> bytes:
    """The pickled (error, traceback text) of exc; an error that does not
    survive pickling is replaced by a RuntimeError naming its type and message."""
    text = "".join(traceback.format_exception(exc))
    try:
        report = pickle.dumps((exc, text))
        pickle.loads(report)  # an error may pickle and yet fail to unpickle
    except Exception:
        report = pickle.dumps((RuntimeError(f"{type(exc).__qualname__}: {exc}"), text))
    return report


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
