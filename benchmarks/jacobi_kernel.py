"""Time the Jacobi eigensolver and the Cholesky Loewner test per call at n = 2..6, 8..10, 12 and 16.

Run from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python3 benchmarks/jacobi_kernel.py [--rounds 7]

A round times one call on each matrix of a fixed set; a printed figure is
the median over rounds of the mean time per call, in microseconds. One JSON
line holds the tables.

``us_per_call`` times the eigensolver on random complex Hermitian matrices
(seed 0): ``eigenvalues`` is ``linalg._jacobi`` alone, ``with_eigenvectors``
also calls the replay it returns to build the eigenvectors, as the first read of
``SpectralDecomposition.eigenvectors`` does (``BENCH_jacobi.json``).  From
``linalg._ROUND_ROBIN_MIN_N`` up the solver is the round-robin kernel, and
below it the cyclic one.

``kernels`` times both kernels at every n on the same matrices, with
``linalg._ROUND_ROBIN_MIN_N`` set above or below n; within a round the
four timings (each kernel, eigenvalues alone and with eigenvectors) run in
turn, so a drift of the host's speed reaches them alike.  Their ratio sets
the crossover (``BENCH_round_robin.json``).

``cholesky_us`` and ``jacobi_us`` time the Loewner hypothesis test on random
positive definite complex matrices (seed 0), the shape of a difference
B - A that passes the re-check, so the factorization runs to its last pivot:
``linalg._cholesky_succeeds`` with the re-check's 1e-8 shift against the
``linalg._jacobi`` eigensolve it replaced (``BENCH_loewner.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import statistics
import time

import numpy as np

from golden_bounds import linalg

DIMENSIONS = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16)
SHIFT = 1e-8


def _set_size(n: int) -> int:
    return 5 if n > 8 else 50


def hermitian_set(n: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(_set_size(n)):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out.append((raw + raw.conj().T) / 2.0)
    return out


def positive_definite_set(n: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(_set_size(n)):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(raw)
        a = (q * rng.uniform(0.1, 2.0, size=n)) @ q.conj().T
        out.append((a + a.conj().T) / 2.0)
    return out


def eigenvalues(matrix: np.ndarray) -> None:
    linalg._jacobi(matrix)


def with_eigenvectors(matrix: np.ndarray) -> None:
    linalg._jacobi(matrix)[1]()


def cholesky(matrix: np.ndarray) -> None:
    linalg._cholesky_succeeds(matrix, SHIFT)


@contextlib.contextmanager
def _kernel(kernel: str):
    """Run ``kernel`` at every n: the round-robin crossover set above every n
    (``cyclic``) or below it (``round_robin``), then restored."""
    crossover = linalg._ROUND_ROBIN_MIN_N
    linalg._ROUND_ROBIN_MIN_N = math.inf if kernel == "cyclic" else 2
    try:
        yield
    finally:
        linalg._ROUND_ROBIN_MIN_N = crossover


def kernel_table(matrix_sets, rounds: int) -> dict:
    """{kernel: {"eigenvalues" | "with_eigenvectors": {n: us per call}}}."""
    out = {
        kernel: {"eigenvalues": {}, "with_eigenvectors": {}} for kernel in ("cyclic", "round_robin")
    }
    for n in DIMENSIONS:
        matrices = matrix_sets[n]
        calls = {}
        for kernel in out:
            calls[kernel, "eigenvalues"] = eigenvalues
            calls[kernel, "with_eigenvectors"] = with_eigenvectors
        means = {key: [] for key in calls}
        for (kernel, _), call in calls.items():
            with _kernel(kernel):
                call(matrices[0])
        for _ in range(rounds):
            for key, call in calls.items():
                with _kernel(key[0]):
                    started = time.perf_counter()
                    for matrix in matrices:
                        call(matrix)
                    means[key].append((time.perf_counter() - started) / len(matrices))
        for (kernel, what), samples in means.items():
            out[kernel][what][str(n)] = round(1e6 * statistics.median(samples), 1)
    return out


def us_per_call(call, matrices, rounds: int) -> float:
    call(matrices[0])
    means = []
    for _ in range(rounds):
        started = time.perf_counter()
        for matrix in matrices:
            call(matrix)
        means.append((time.perf_counter() - started) / len(matrices))
    return 1e6 * statistics.median(means)


def _table(call, matrix_sets, rounds: int) -> dict:
    return {str(n): round(us_per_call(call, matrix_sets[n], rounds), 1) for n in DIMENSIONS}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    hermitian = {n: hermitian_set(n) for n in DIMENSIONS}
    positive = {n: positive_definite_set(n) for n in DIMENSIONS}
    assert all(linalg._cholesky_succeeds(m, SHIFT) for ms in positive.values() for m in ms)
    print(json.dumps({
        "us_per_call": {
            solve.__name__: _table(solve, hermitian, args.rounds)
            for solve in (eigenvalues, with_eigenvectors)
        },
        "kernels": kernel_table(hermitian, args.rounds),
        "cholesky_us": _table(cholesky, positive, args.rounds),
        "jacobi_us": _table(linalg._jacobi, positive, args.rounds),
        "rounds": args.rounds,
    }))


if __name__ == "__main__":
    main()
