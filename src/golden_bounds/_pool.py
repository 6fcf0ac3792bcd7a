"""The worker processes that split sweeps and convergence tables run on.

``run`` takes a list of jobs ``(function, args)`` per worker and the jobs
this process runs itself, and returns every outcome in job order.  The
first call forks the workers, and they serve every later one until the
process exits (``stop``), or until an interrupt, a dead worker or any other
raise before every response is read stops them all.  A worker runs the
package as it was when the worker was forked: a monkeypatch made later
reaches the workers only after ``stop``, which makes the next call fork
them anew; ``certify`` keeps every sweep and table in this process while
a caller's wrapper replaces the eigensolver, ``linalg._jacobi``.  During a
call that uses workers, numpy's OpenBLAS runs one thread here and in each
worker: the products are of desk-scale size, and every CPU already runs a
process.
"""

import atexit
import contextlib
import functools
import io
import os
import pickle
import signal
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass


@dataclass(frozen=True)
class _Worker:
    """A forked worker: its pid and its ends of the request and response pipes."""

    pid: int
    requests: io.BufferedWriter
    responses: io.BufferedReader


class _Pool:
    """This process's workers and the lock that gives them to one call at a
    time; one instance, changed in place, never rebound."""

    def __init__(self) -> None:
        self.workers: list[_Worker] = []
        self.lock = threading.Lock()


_POOL = _Pool()

@functools.cache
def _openblas() -> tuple | None:
    """The get and set thread-count calls, through ctypes, of an OpenBLAS
    loaded in this process (found in ``/proc/self/maps``; numpy's wheels
    name them ``scipy_openblas_get_num_threads64_`` and so on), or None."""
    with contextlib.suppress(OSError), open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
        import ctypes
        for path in sorted(paths):
            library = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
                calls = [getattr(library, f"{prefix}openblas_{verb}_num_threads{suffix}", None)
                         for verb in ("get", "set")]
                if all(calls):
                    get, set_ = calls
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    return get, set_
    return None


def _blas_threads(count: int | None = None) -> int | None:
    """The OpenBLAS thread count, then set to ``count`` if given; None, and
    nothing set, where ``_openblas`` finds no calls."""
    calls = _openblas()
    if calls is None:
        return None
    before = calls[0]()
    if count is not None:
        calls[1](count)
    return before


def _send(pipe: io.BufferedWriter, obj) -> None:
    payload = pickle.dumps(obj)
    pipe.write(len(payload).to_bytes(8, "little") + payload)
    pipe.flush()


def _receive(pipe: io.BufferedReader):
    """The next object sent down ``pipe``, or None if the pipe ends first."""
    header = pipe.read(8)
    if len(header) < 8:
        return None
    size = int.from_bytes(header, "little")
    payload = pipe.read(size)
    return pickle.loads(payload) if len(payload) == size else None


def _outcome(function: Callable, args: tuple):
    """What ``function(*args)`` returns, or the exception it raises."""
    try:
        return function(*args)
    except Exception as exc:
        return exc


def _serve(requests: int, responses: int) -> None:
    """A worker's loop, until the request pipe ends: read a list of jobs
    (module-level functions, pickled by name), run them in order and send
    back the list of their outcomes.  The worker holds no caller's stdin or
    stdout, so a pipe the caller reads ends when the caller exits."""
    null = os.open(os.devnull, os.O_RDWR)
    os.dup2(null, 0)
    os.dup2(null, 1)
    os.close(null)
    with open(requests, "rb") as jobs, open(responses, "wb") as results:
        while (request := _receive(jobs)) is not None:
            _send(results, [_outcome(*job) for job in request])


def _start_worker() -> _Worker:
    """Fork a worker running ``_serve``.  It keeps the one BLAS thread that
    ``run`` set before the fork: setting it again in the child would start
    OpenBLAS's thread pool anew there.  It leaves by ``os._exit``, so it
    flushes no stdio buffer it inherited and runs no atexit handler or
    enclosing ``finally``."""
    fds = os.pipe() + os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on a fork while the process runs other OS
            # threads, such as OpenBLAS's pool; the worker takes none of their
            # locks: it runs this package's arithmetic only.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        for fd in fds:
            os.close(fd)
        raise
    request_read, request_write, response_read, response_write = fds
    if pid == 0:
        try:
            os.close(request_write)
            os.close(response_read)
            _serve(request_read, response_write)
        finally:
            os._exit(0)
    os.close(request_read)
    os.close(response_write)
    return _Worker(pid, open(request_write, "wb"), open(response_read, "rb"))


def _exited(pid: int) -> bool:
    """Whether the child ``pid`` has exited; it is left to be reaped, unless
    a caller's own ``os.wait`` has reaped it already."""
    try:
        return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None
    except ChildProcessError:
        return True


def running() -> bool:
    """Whether workers are running, forked by an earlier call."""
    return bool(_POOL.workers)


def stop() -> None:
    """SIGKILL and reap every worker; the next call forks new ones."""
    workers, _POOL.workers = _POOL.workers, []
    for worker in workers:
        with contextlib.suppress(ProcessLookupError):
            os.kill(worker.pid, signal.SIGKILL)
    for worker in workers:
        # the worker is dead, so a request still buffered cannot be flushed
        with contextlib.suppress(OSError):
            worker.requests.close()
        worker.responses.close()
        with contextlib.suppress(ChildProcessError):
            os.waitpid(worker.pid, 0)


def _forget_workers() -> None:
    """In a forked child: close the inherited pipes of the parent's workers,
    whose ends of file would otherwise wait on this child too, and forget
    the workers, which are not this child's to stop.  The lock is made anew:
    a thread of the parent may have held it at the fork."""
    for worker in _POOL.workers:
        worker.requests.close()
        worker.responses.close()
    _POOL.__init__()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)
atexit.register(stop)


def run(queues: list[list[tuple[Callable, tuple]]], local: list[tuple[Callable, tuple]]) -> list:
    """The outcome (``_outcome``) of every job, in job order: the jobs of
    ``queues[i]`` in worker i, then the ``local`` jobs, which this process
    runs after it has sent every queue.  Without queues no worker is used.

    A worker reads its queue whole, as one request, before it runs a job,
    and sends every outcome in one response after the last, so no job waits
    on this process to read a response, however large.  A worker that dies
    is named by the first job of its queue.  The workers are forked anew if
    one has exited since the last call; they run the package as it was when
    they were forked, whatever this process has patched since.  The call
    holds the pool's lock; unless it has read every response, its end (an
    interrupt, a dead worker, a raise here) stops the workers, so none is
    left at work on a result no one reads."""
    if not queues:
        return [_outcome(*job) for job in local]
    with _POOL.lock:
        threads = _blas_threads(1)
        drained = False
        try:
            if any(_exited(w.pid) for w in _POOL.workers):
                stop()
            while len(_POOL.workers) < len(queues):
                _POOL.workers.append(_start_worker())
            for worker, jobs in zip(_POOL.workers, queues):
                _send(worker.requests, jobs)
            mine = [_outcome(*job) for job in local]
            outcomes = []
            for worker, ((function, args), *_) in zip(_POOL.workers, queues):
                response = _receive(worker.responses)
                if response is None:
                    raise RuntimeError(
                        f"the worker running {function.__name__} on {args[-1]} "
                        "exited without a result"
                    )
                outcomes += response
            drained = True
            return outcomes + mine
        finally:
            _blas_threads(threads)
            if not drained:
                stop()
