"""Measure the certifier's layers: the Jacobi kernels, the spectral cache and the fork pool.

Run from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python3 benchmarks/layers.py [--section NAME ...] [--rounds 5] [--cycles N]

It prints one JSON object with a table per section (all four by default,
in this order), the host's CPU count and the numpy version.  A timing is
the median over ``--rounds`` rounds; the calls a round compares run in
turn, in the reverse order every other round, so a drift of the host's
speed reaches them alike.  A pass over a workload of
``perfbench/workloads.py`` makes the CLI calls of the first ``--cycles``
cycles of its CLI seed pool (all of them by default), in pool order, in
this process; report files go to a temporary directory.

``kernels`` times, per call at n = 2..6, 8..10, 12 and 16, the cyclic and
the round-robin Jacobi kernels (``linalg._ROUND_ROBIN_MIN_N`` set above or
below n) on seeded complex Hermitian matrices, for the eigenvalues alone
(``linalg._jacobi``) and with the eigenvectors replayed, as the first read
of ``SpectralDecomposition.eigenvectors`` does; the kernel below today's
crossover and the one from it on are what the package runs
(``BENCH_jacobi.json``, ``BENCH_round_robin.json``).  ``loewner`` times the
Loewner re-check's Cholesky test (``linalg._cholesky_succeeds`` with its
1e-8 shift) against the eigensolve it replaced, on seeded positive definite
matrices, the shape of a difference B - A that passes the re-check
(``BENCH_loewner.json``).

``counts`` runs on one CPU, so that every instance is certified here, one
pass per workload with hooks that count: eigensolves (``linalg._jacobi``
calls, which keep every solve out of the spectral cache) and calls of the
replays they return, each of which runs at most once; matrices constructed
with pending entries (a callable, such as the results of ``power`` and
``exp_h``) and the calls of those callables, which build the entries on
the first read of ``matrix``; the full entry
checks, made where an array enters (``linalg._checked_entries`` on a
caller's array, ``linalg._check_spectrum`` on a decomposition given as
arrays, which is how a sampled operand enters); and the internal entry
builds, which only symmetrize and guard a result computed from checked
matrices (``linalg._result_entries``).  The differences are the
eigensolves whose eigenvectors are never read and the matrices whose
entries are never built (``BENCH_lazy_vectors.json``,
``BENCH_lazy_matrix.json``, ``BENCH_entry_checks.json``).  The same calls
then run unhooked, with the spectral cache emptied before each cycle, and
``cache`` sums its tally over them: hits, misses (eigensolves run) and
re-solves (a hit that reads its eigenvectors before any decomposition of
its key has built them).

``cache`` runs on one CPU too and times passes in alternated pairs:
``cached`` from an empty cache, ``bypassed`` with ``linalg._jacobi`` wrapped
in a pass-through, which the cache's bypass rule treats as a caller's
wrapper, so that every eigensolve runs as without a cache
(``BENCH_solve_cache.json``).  ``tally`` is the cache's tally after a cached
pass, emptied once before it.  Where it equals the ``counts`` section's,
over the same cycles, no cycle hits an entry stored in an earlier one.

``split`` needs two CPUs or more.  ``noop_split_us`` is the time of a
``_pool.run`` of two jobs that do nothing, one in a worker and one here
(the worker already forked): what every split call pays for the pool.
Per n, ``per_n`` certifies count-3 sweeps of every id in pairs, with the
last instance split into two sides in two processes
(``certify._sweep_outcomes`` over blocks of one instance each, as
``run_instances`` runs it) and in whole blocks (two and one), the spectral
caches of both processes emptied before each sweep; seeds differ per round
and are shared by a pair.  ``single_n16`` pairs sweeps of one n = 16
instance of every id, split with the workers running and whole in this
process.  ``process_tallies`` gives the spectral-cache tally of the worker
and of this process over a sweep-n16 pass as ``run_instances`` splits it
and in whole blocks: whether building a side in a worker loses hits on the
draws that rows share; the ``cache`` section has the one-CPU tally
(``BENCH_sides.json``, ``BENCH_pool.json``).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import INEQUALITY_IDS, WORKLOADS  # noqa: E402

from golden_bounds import _pool, certify, cli, linalg  # noqa: E402

DIMENSIONS = (2, 3, 4, 5, 6, 8, 9, 10, 12, 16)
SPLIT_DIMENSIONS = (2, 3, 4, 5, 6, 16)
JACOBI = linalg._jacobi
#: The shift of the Loewner re-check's Cholesky test.
SHIFT = 1e-8
COUNTED = ("eigensolves", "replays", "pending_matrices", "matrix_builds", "full_checks",
           "internal_builds")


def _times(calls: dict, rounds: int, before=lambda: None) -> dict:
    """{key: [seconds of ``calls[key]()`` per round]}, each call after an
    untimed ``before()``."""
    seconds = {key: [] for key in calls}
    for number in range(rounds):
        for key in list(calls)[:: -1 if number % 2 else 1]:
            before()
            started = time.perf_counter()
            calls[key]()
            seconds[key].append(time.perf_counter() - started)
    return seconds


@contextlib.contextmanager
def one_cpu():
    """This process narrowed to one CPU, where ``run_instances`` and
    ``convergence_study`` certify every instance in it, then restored."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _cli(call) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(list(call.argv)) != 0:
            raise SystemExit(f"failed: {' '.join(call.argv)}")


def replay(name: str, cycles: int | None, run=_cli, before_cycle=lambda: None) -> int:
    """Make, by ``run(call)``, the calls of the first ``cycles`` cycles of
    workload ``name``, each cycle after ``before_cycle()``; the instances
    they certify (one per convergence table)."""
    instances = 0
    with tempfile.TemporaryDirectory() as tmp:
        for cli_seed in WORKLOADS[name].pool[:cycles]:
            before_cycle()
            for call in WORKLOADS[name].make_cycle(cli_seed, Path(tmp)):
                run(call)
                instances += call.instances
    return instances


def _tally(_=None) -> dict:
    return {key: linalg._CACHE.tally[key] for key in ("hits", "misses", "resolves")}


def _us(seconds: list, calls: int) -> float:
    return round(1e6 * statistics.median(seconds) / calls, 1)


def _matrices(n: int, positive: bool) -> list[np.ndarray]:
    """Seeded complex Hermitian matrices, or positive definite ones with
    spectra in [0.1, 2]: 50 up to n = 8 and 5 above."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(5 if n > 8 else 50):
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if positive:
            q, _ = np.linalg.qr(raw)
            raw = (q * rng.uniform(0.1, 2.0, size=n)) @ q.conj().T
        out.append((raw + raw.conj().T) / 2.0)
    return out


def _solving(crossover: float, solve, matrices: list):
    """A call of ``solve`` on every matrix with the round-robin crossover at
    ``crossover``, warmed up on the first matrix."""

    def run(matrices=matrices):
        linalg._ROUND_ROBIN_MIN_N = crossover
        for matrix in matrices:
            solve(matrix)

    run(matrices[:1])
    return run


def kernels(args) -> dict:
    solves = {"eigenvalues": JACOBI, "with_eigenvectors": lambda m: JACOBI(m)[1]()}
    crossover = linalg._ROUND_ROBIN_MIN_N
    out = collections.defaultdict(lambda: collections.defaultdict(dict))
    with mock.patch.object(linalg, "_ROUND_ROBIN_MIN_N", crossover):
        for n in DIMENSIONS:
            hermitian, positive = _matrices(n, False), _matrices(n, True)
            assert all(linalg._cholesky_succeeds(m, SHIFT) for m in positive)
            calls = {
                (kernel, what): _solving(at, solve, hermitian)
                for kernel, at in (("cyclic", math.inf), ("round_robin", 2))
                for what, solve in solves.items()
            }
            calls["loewner", "cholesky"] = _solving(
                crossover, lambda m: linalg._cholesky_succeeds(m, SHIFT), positive
            )
            calls["loewner", "eigensolve"] = _solving(crossover, JACOBI, positive)
            for (table, what), seconds in _times(calls, args.rounds).items():
                out[table][what][str(n)] = _us(seconds, len(hermitian))
    return out


@one_cpu()
def counts(args) -> dict:
    return {name: _counted(name, args.cycles) for name in WORKLOADS}


def _counted(name: str, cycles: int | None) -> dict:
    tally = collections.Counter(dict.fromkeys(COUNTED, 0))
    init = linalg.HermitianMatrix.__init__

    def counted(key: str, function):
        def call(*args):
            tally[key] += 1
            return function(*args)

        return call

    def counting_jacobi(m):
        vals, replay_vectors = counted("eigensolves", JACOBI)(m)
        return vals, counted("replays", replay_vectors)

    def counting_init(self, entries, **kwargs):
        if callable(entries):
            tally["pending_matrices"] += 1
            entries = counted("matrix_builds", entries)
        init(self, entries, **kwargs)

    hooks = {
        "_jacobi": counting_jacobi,
        "_checked_entries": counted("full_checks", linalg._checked_entries),
        "_check_spectrum": counted("full_checks", linalg._check_spectrum),
        "_result_entries": counted("internal_builds", linalg._result_entries),
    }
    with mock.patch.multiple(linalg, **hooks), mock.patch.object(
        linalg.HermitianMatrix, "__init__", counting_init
    ):
        instances = replay(name, cycles)
    out = dict(tally, instances=instances)
    out["never_read"] = tally["eigensolves"] - tally["replays"]
    out["never_built"] = tally["pending_matrices"] - tally["matrix_builds"]
    for key in ("full_checks", "internal_builds"):
        out[f"{key}_per_instance"] = round(tally[key] / instances, 3)
    cache = collections.Counter()

    def bank():
        cache.update(_tally())
        linalg._CACHE.clear()

    linalg._CACHE.clear()
    replay(name, cycles, before_cycle=bank)
    bank()
    out["cache"] = dict(cache)
    return out


def _bypassing(matrix):
    """A caller's wrapper around the eigensolver: the cache lets it through."""
    return JACOBI(matrix)


@one_cpu()
def cache(args) -> dict:
    out = {}
    for name in WORKLOADS:
        tally = {}

        def cached():
            replay(name, args.cycles)
            tally.update(_tally())

        def bypassed():
            with mock.patch.object(linalg, "_jacobi", _bypassing):
                replay(name, args.cycles)

        seconds = _times(
            {"cached": cached, "bypassed": bypassed}, args.rounds, before=linalg._CACHE.clear
        )
        medians = {side: statistics.median(values) for side, values in seconds.items()}
        out[name] = {
            "tally": tally,
            "seconds": {side: [round(s, 3) for s in values] for side, values in seconds.items()},
            "bypassed_over_cached": round(medians["bypassed"] / medians["cached"], 3),
        }
    return out


def _clear(_=None) -> None:
    linalg._CACHE.clear()


def _everywhere(function) -> list:
    """``function(None)`` in the first worker and here: [the worker's, this process's]."""
    return _pool.run([[(function, (None,))]], [(function, (None,))])


def _whole(sweep: tuple, count: int) -> list:
    """The reports of a sweep of ``count`` instances in whole blocks."""
    return certify._joined(certify._sweep_outcomes(sweep, certify._blocks(count), count))


def _with_side(sweep: tuple, blocks: list) -> list:
    """The reports of a sweep of ``blocks`` and the instance after them,
    certified in two sides, as ``run_instances`` runs it."""
    return certify._joined(certify._sweep_outcomes(sweep, blocks, blocks[-1].stop + 1))


def _pairs(rounds: int, n: int, split_blocks: list, whole) -> dict:
    """Timed pairs, per round and id, of a sweep with its last instance
    split over ``split_blocks`` and then ``whole(sweep)``, each from empty
    caches in both processes."""
    pairs = []
    for number in range(rounds):
        for inequality_id in INEQUALITY_IDS:
            sweep = (inequality_id, 100 + number, n, None, {})
            calls = {
                "split": lambda: _with_side(sweep, split_blocks), "whole": lambda: whole(sweep)
            }
            pairs.append(_times(calls, 1, before=lambda: _everywhere(_clear)))
    ratios = [pair["split"][0] / pair["whole"][0] for pair in pairs]
    return {
        **{f"{side}_ms_per_pass": round(1e3 * sum(p[side][0] for p in pairs) / rounds, 1)
           for side in ("split", "whole")},
        "median_pair_ratio": round(statistics.median(ratios), 3),
        "split_won": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
    }


def split(args):
    if len(os.sched_getaffinity(0)) < 2:
        return "needs two CPUs or more: on one, no sweep is split"
    noop = [(len, ((),))]
    _pool.run([noop], noop)
    seconds = _times({"noop": lambda: [_pool.run([noop], noop) for _ in range(200)]}, args.rounds)
    out = {"noop_split_us": _us(seconds["noop"], 200), "per_n": {}, "process_tallies": {}}
    for n in SPLIT_DIMENSIONS:
        out["per_n"][f"n{n}"] = _pairs(
            args.rounds, n, certify._blocks(2, 2), lambda sweep: _whole(sweep, 3)
        )
    out["single_n16"] = _pairs(
        args.rounds, 16, certify._blocks(0, 2), lambda s: certify._certify_block(*s, range(1))
    )

    def whole_call(call):
        _whole((call.key, call.cli_seed, call.n, None, {}), call.instances)

    for way, run in (("split", _cli), ("whole", whole_call)):
        _everywhere(_clear)
        replay("sweep-n16", args.cycles, run)
        worker, here = _everywhere(_tally)
        out["process_tallies"][way] = {"worker": worker, "this_process": here}
    return out


SECTIONS = {"kernels": kernels, "counts": counts, "cache": cache, "split": split}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--section", choices=SECTIONS, action="append",
                        help="a section to run; repeat for more (default: all)")
    parser.add_argument("--rounds", type=int, default=5, help="timing rounds (default: 5)")
    parser.add_argument("--cycles", type=int,
                        help="cycles per workload pass (default: the whole CLI seed pool)")
    args = parser.parse_args()
    out = {"nproc": os.cpu_count(), "numpy": np.__version__, "rounds": args.rounds,
           "cycles": args.cycles}
    for name, section in SECTIONS.items():
        if name in (args.section or SECTIONS):
            out[name] = section(args)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
