"""Time the split of a sweep's leftover instance into two sides, and what a
split call pays to check the worker pool.

Run from a checkout, with that checkout's sources on the path, on a host
with two CPUs or more:

    PYTHONPATH=src python3 benchmarks/side_split.py [--reps 10] [--n 2,3,4,5,6,16]

``overhead_us`` is the median time of ``certify._stamp()``, of comparing
two stamps, and of a two-job ``_run_split`` whose jobs do nothing (the
workers already forked): the pool check every split call pays.

``split`` times, per pinned dimension n, count-3 sweeps of every id, each
once with its last instance split into two sides (``_run_sides`` over
blocks of one instance each) and once in whole-instance blocks (two and
one), alternated, with empty spectral caches in both processes before each
sweep.  Seeds differ per repetition and are shared by the two ways, so each
pair certifies the same instances.  It reports the summed times, the median
of the per-pair ratios split/whole and the pairs the split won.

``single`` times sweeps of one n = 16 instance of every id, sweep-n16's
smallest calls, with the workers already running, as ``_sweep_blocks`` splits
them (its two sides in two processes) and whole in this process,
alternated in the same way: whether the split of a one-instance sweep
still pays.

``cache`` runs one pass of the sweep-n16 workload per seed of its pool (the
21 ids, 1 to 3 instances each, as ``perfbench/workloads.py`` counts them)
after emptying the caches: as ``run_instances`` splits it, then in whole
blocks over the same processes, then on one CPU.  It gives the
spectral-cache tally of each process: whether building a side in a worker
loses hits on the draws that rows share.  The results are printed as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import INEQUALITY_IDS, N16_COUNTS, WORKLOADS  # noqa: E402

from golden_bounds import certify, cli, linalg  # noqa: E402, F401


def _clear(_) -> int:
    linalg._CACHE.clear()
    return 0


def _tally(_) -> dict:
    return {k: linalg._CACHE.tally[k] for k in ("hits", "misses", "resolves")}


def _everywhere(function) -> list:
    """``function(None)`` in the first worker and here: [worker's, this process's]."""
    return certify._run_split([(function, (None,)), (function, (None,))])


def _median_us(function, number: int, repeat: int = 15) -> float:
    return statistics.median(timeit.repeat(function, number=number, repeat=repeat)) / number * 1e6


def overhead() -> dict:
    a, b = certify._stamp(), certify._stamp()
    jobs = [(len, ((),)), (len, ((),))]
    certify._run_split(jobs)
    return {
        "stamp": round(_median_us(certify._stamp, 500), 1),
        "compare": round(_median_us(lambda: certify._same_stamp(a, b), 500), 1),
        "noop_run_split": round(_median_us(lambda: certify._run_split(jobs), 200), 1),
    }


def _timed(sweep) -> float:
    _everywhere(_clear)
    started = time.perf_counter()
    sweep()
    return time.perf_counter() - started


def split(ns: list[int], reps: int) -> dict:
    out = {}
    for n in ns:
        total = {"split": 0.0, "whole": 0.0}
        ratios = []
        for rep in range(reps):
            for inequality_id in INEQUALITY_IDS:
                sweep = (inequality_id, 100 + rep, n, None, {})
                sides = _timed(lambda: certify._joined(
                    certify._run_sides(sweep, certify._blocks(2, 2))
                ))
                whole = _timed(lambda: certify._joined(certify._run_split(
                    [(certify._certify_block, (*sweep, block)) for block in certify._blocks(3)]
                )))
                total["split"] += sides
                total["whole"] += whole
                ratios.append(sides / whole)
        out[f"n{n}"] = {
            "split_ms_per_pass": round(total["split"] * 1e3 / reps, 1),
            "whole_ms_per_pass": round(total["whole"] * 1e3 / reps, 1),
            "median_pair_ratio": round(statistics.median(ratios), 3),
            "split_won": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
        }
    return out


def single(reps: int) -> dict:
    ratios = []
    for rep in range(reps):
        for inequality_id in INEQUALITY_IDS:
            sweep = (inequality_id, 100 + rep, 16, None, {})
            sides = _timed(lambda: certify._run_sides(sweep, certify._blocks(0, 2)))
            whole = _timed(lambda: certify._certify_block(*sweep, range(1)))
            ratios.append(sides / whole)
    return {
        "n16": {
            "median_pair_ratio": round(statistics.median(ratios), 3),
            "split_won": f"{sum(r < 1.0 for r in ratios)}/{len(ratios)}",
        }
    }


def _n16_pass(split: bool) -> None:
    """The sweep-n16 calls, with every instance in whole blocks unless
    ``split``."""
    for cli_seed in WORKLOADS["sweep-n16"].pool:
        for index, inequality_id in enumerate(INEQUALITY_IDS):
            count = N16_COUNTS[(cli_seed + index) % len(N16_COUNTS)]
            if split:
                certify.run_instances(inequality_id, count, cli_seed, n=16)
            else:
                sweep = (inequality_id, cli_seed, 16, None, {})
                certify._joined(certify._run_split(
                    [(certify._certify_block, (*sweep, block)) for block in certify._blocks(count)]
                ))


def cache() -> dict:
    out = {}
    for split in (True, False):
        _everywhere(_clear)
        _n16_pass(split)
        worker, here = _everywhere(_tally)
        out["split" if split else "whole"] = {"worker": worker, "this_process": here}
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        linalg._CACHE.clear()
        _n16_pass(True)
        out["one_cpu"] = _tally(None)
    finally:
        os.sched_setaffinity(0, cpus)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--n", default="2,3,4,5,6,16")
    args = parser.parse_args()
    if len(os.sched_getaffinity(0)) < 2:
        sys.exit("side_split.py needs two CPUs or more: on one, no sweep is split")
    result = {
        "nproc": os.cpu_count(),
        "numpy": __import__("numpy").__version__,
        "overhead_us": overhead(),
        "split": split([int(n) for n in args.n.split(",")], args.reps),
        "single": single(args.reps),
        "cache": cache(),
    }
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
