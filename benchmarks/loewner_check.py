"""Time the Loewner positivity test per call: shifted Cholesky against Jacobi.

Run from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python3 benchmarks/loewner_check.py [--rounds 7]

Each dimension n = 2..6, 16 gets a fixed set of random positive definite
complex matrices (seed 0), the shape of a difference B - A that passes the
hypothesis re-check, so the factorization runs to its last pivot. A round
times one call on each matrix; the printed figures are the medians over
rounds of the mean time per call, in microseconds, as JSON: ``cholesky_us``
for ``linalg._cholesky_succeeds`` with the re-check's 1e-8 shift,
``jacobi_us`` for the ``linalg._jacobi`` eigensolve it replaces.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from golden_bounds import linalg

DIMENSIONS = (2, 3, 4, 5, 6, 16)
SHIFT = 1e-8


def positive_definite_set(n: int, count: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        q, _ = np.linalg.qr(raw)
        a = (q * rng.uniform(0.1, 2.0, size=n)) @ q.conj().T
        out.append((a + a.conj().T) / 2.0)
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    cholesky, jacobi = {}, {}
    for n in DIMENSIONS:
        matrices = positive_definite_set(n, 5 if n > 8 else 50)
        assert all(linalg._cholesky_succeeds(m, SHIFT) for m in matrices)
        cholesky[str(n)] = round(
            us_per_call(lambda m: linalg._cholesky_succeeds(m, SHIFT), matrices, args.rounds), 1
        )
        jacobi[str(n)] = round(us_per_call(linalg._jacobi, matrices, args.rounds), 1)
    print(json.dumps({"cholesky_us": cholesky, "jacobi_us": jacobi, "rounds": args.rounds}))


if __name__ == "__main__":
    main()
