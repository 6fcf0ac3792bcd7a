"""Time the Jacobi eigensolver per call at n = 2..6 and 16.

Run from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python3 benchmarks/jacobi_kernel.py [--rounds 7]

Each dimension gets a fixed set of random complex Hermitian matrices
(seed 0). A round times one call on each of them; the printed figure is the
median over rounds of the mean time per call, in microseconds, as JSON.
``eigenvalues`` times ``linalg._jacobi`` alone; ``with_eigenvectors`` also
replays its rotation log into the eigenvectors, as the first read of
``SpectralDecomposition.eigenvectors`` does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

from golden_bounds import linalg

DIMENSIONS = (2, 3, 4, 5, 6, 16)


def hermitian_set(n: int, count: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        out.append((raw + raw.conj().T) / 2.0)
    return out


def eigenvalues(matrix: np.ndarray) -> None:
    linalg._jacobi(matrix)


def with_eigenvectors(matrix: np.ndarray) -> None:
    linalg._jacobi(matrix)[1].replay()


def us_per_call(solve, n: int, rounds: int) -> float:
    matrices = hermitian_set(n, 5 if n > 8 else 50)
    solve(matrices[0])
    means = []
    for _ in range(rounds):
        started = time.perf_counter()
        for matrix in matrices:
            solve(matrix)
        means.append((time.perf_counter() - started) / len(matrices))
    return 1e6 * statistics.median(means)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    tables = {
        solve.__name__: {str(n): round(us_per_call(solve, n, args.rounds), 1) for n in DIMENSIONS}
        for solve in (eigenvalues, with_eigenvectors)
    }
    print(json.dumps({"us_per_call": tables, "rounds": args.rounds}))


if __name__ == "__main__":
    main()
