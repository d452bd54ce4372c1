"""The worker count, the one thread pool and the ordered forked calls; and the
one-thread pin of BLAS.

``ordered_map`` is the package's only thread pool: the Monte Carlo estimator
passes map their chunks on it, and the decomposition its time slices. It has
one worker per CPU the process may run on (``taskset`` limits them).
``OrderedProcess`` runs calls in order, each in a child process forked from
the caller: ``vastop run`` writes its CSVs there while its later tasks compute.
BLAS runs on one thread (``pin_blas``), as OpenBLAS rounds differently for
each thread count.
"""

import ctypes
import glob
import os
import pickle
import select
import signal
import sys
import traceback
from collections import deque
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
    call no public vastop function (the perfbench tracer's span stack is
    single-threaded).
    """
    with ThreadPoolExecutor(worker_count(nitems), thread_name_prefix="vastop") as pool:
        return list(pool.map(fn, range(nitems)))


class OrderedProcess:
    """Run submitted calls one at a time, in submission order, each in a child
    process forked at its submit.

    Each call runs as fn(*args, **kwargs). With one worker (worker_count(2)
    == 1: the process may run on one CPU) or on a platform that cannot fork,
    each call runs inline in submit. A child finds fn and its arguments in
    the memory it shares with the caller, so nothing is copied or pickled on
    the way in; as the fork copies only the calling thread, submit from a
    process with no other thread, and fn should call no BLAS and no pool.
    Each child waits for a one-byte token from the child before it, calls fn
    and passes the token on, so the calls run in order; the first child of a
    helper starts at once. A call that raises passes no token: the calls after
    it end without running, and the error, with its traceback as text, comes
    back through a pipe.

    submit raises a failed call's error once it is known. join, or leaving
    the helper as a context manager, waits for every child and raises the first
    call's error, with the child's traceback as its cause. That error wins over
    one raised in the with block, which every submitted call came before; an
    exception that is not an Exception (KeyboardInterrupt) kills the children
    instead. Either way no child outlives the helper.
    """

    def __init__(self):
        self._fork = worker_count(2) > 1 and hasattr(os, "fork")
        self._children = deque()  # (pid, read end of its error pipe), oldest first
        self._token = None  # read end of the newest child's token pipe

    def submit(self, fn, *args, **kwargs) -> None:
        if not self._fork:
            fn(*args, **kwargs)
            return
        self._reap(block=False)
        token_r, token_w = os.pipe()
        error_r, error_w = os.pipe()
        for stream in (sys.stdout, sys.stderr):  # so that no child writes their buffers again
            stream.flush()
        try:
            pid = os.fork()
        except OSError:  # out of processes or memory
            for fd in (token_r, token_w, error_r, error_w):
                os.close(fd)
            raise
        if pid == 0:
            _child(self._token, token_w, error_w, fn, args, kwargs)  # does not return
        self._children.append((pid, error_r))
        for fd in (token_w, error_w, self._token):
            if fd is not None:
                os.close(fd)
        self._token = token_r

    def join(self) -> None:
        """Wait for every child and raise the first call's error."""
        self._reap(block=True)

    def _reap(self, block: bool) -> None:
        """Reap the children that have ended, oldest first; without block stop at
        the first that has not. Raise the first call's error."""
        while self._children:
            pid, fd = self._children[0]
            ended = select.poll()  # readable once the child has reported or ended
            ended.register(fd, select.POLLIN)
            if not block and not ended.poll(0):
                return
            with open(fd, "rb", closefd=False) as pipe:  # until the child ends
                report = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            self._children.popleft()
            os.close(fd)
            if report:
                exc, text = pickle.loads(report)
                raise exc from _ChildTraceback(f'\n"""\n{text}"""')
            if status:
                raise RuntimeError(f"the process of a call ended with status {status}")

    def _kill(self) -> None:
        """Kill and reap the children not yet reaped."""
        while self._children:
            pid, fd = self._children.popleft()
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
            if self._token is not None:
                os.close(self._token)
                self._token = None


class _ChildTraceback(Exception):
    """The traceback text of a call's error in its child: the cause of that
    error as the caller raises it."""


def _child(wait_fd, token_fd, error_fd, fn, args, kwargs):
    """The life of a forked child: wait for the token on wait_fd (None for the
    first child), run fn, then pass the token on to token_fd or report the
    error on error_fd. A token pipe that closes without a token means an
    earlier call failed, so fn never runs. Exits without returning."""
    status = 1
    try:
        if wait_fd is None or os.read(wait_fd, 1):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:  # the child's boundary: reported, then it exits
                with open(error_fd, "wb") as pipe:
                    pipe.write(_report(exc))
            else:
                os.write(token_fd, b"\0")
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
