"""The worker pool's protocol, apart from what the sweeps send it."""

import os
import signal
import subprocess
import sys

from golden_bounds import _pool, linalg


def test_a_queue_of_large_requests_and_responses_finishes():
    # one worker, two jobs whose request and response each outgrow a pipe's
    # 64 KiB buffer: were the second request written while the worker wrote
    # the first response, each would wait on the other
    big = b"x" * (1 << 17)

    def timed_out(signum, frame):
        raise TimeoutError("the queued jobs did not finish")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        outcomes = _pool.run([[(bytes, (big,)), (bytes, (big,))]], [])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert outcomes == [big, big]


def test_one_blas_thread_during_a_split_call_whatever_the_import_order():
    # numpy imported first loads its OpenBLAS with a thread per CPU; a call
    # that uses workers runs one here and one in each worker, and gives the
    # caller its count back after; the worker runs one OS thread, with no
    # BLAS thread pool started anew after the fork
    program = (
        "import os, numpy\n"
        "from golden_bounds import _pool\n"
        "before = _pool._blas_threads()\n"
        "job = [(_pool._blas_threads, ())]\n"
        "tasks = (os.listdir, ('/proc/self/task',))\n"
        "worker, worker_tasks, here = _pool.run([[*job, tasks]], job)\n"
        "print(before, worker, here, _pool._blas_threads(), len(worker_tasks))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    ).stdout
    before, worker, here, after, worker_tasks = out.split()
    assert before != "None"
    assert (worker, here, after) == ("1", "1", before)
    assert worker_tasks == "1"


def _sweep_cap() -> int:
    return linalg.JACOBI_MAX_SWEEPS


def test_workers_run_the_package_as_it_was_forked(monkeypatch):
    # a patch made after the fork reaches this process's jobs, not the
    # worker's; after stop the next call forks a worker that runs it
    job = [(_sweep_cap, ())]
    own = _sweep_cap()
    assert _pool.run([job], []) == [own]
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 7)
    patched = 7
    assert _pool.run([job], job) == [own, patched]
    _pool.stop()
    assert _pool.run([job], []) == [patched]
