"""Count the spectral cache's hits per benchmark workload and time one pass
of each workload with and without the cache.

Run from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python3 benchmarks/solve_cache.py [--rounds 3] [--workload NAME]

For each workload in ``perfbench/workloads.py`` a pass runs the CLI calls of
one cycle per CLI seed of the workload's pool, each seed once and in pool
order, in this process, which first narrows its own CPU affinity to one CPU
so that every instance is certified here.  No call repeats within a pass.

``counts`` come from two passes after the cache is emptied: the first is a
process's first pass; the second visits every CLI seed again.  Each is
given as the cache tally (hits, misses, that is solves, re-solves, each a
hit that reads its eigenvectors before any decomposition of its key has
built them, and bytes held at the end), plus the hits on entries stored
during an earlier cycle (``hits_from_earlier_cycles``) and, among those, on
entries stored during the earlier visit of the same CLI seed
(``hits_from_same_seed``).  The budget is meant to serve reuse within a
cycle only, so both should read 0.

``seconds`` times first passes in ``--rounds`` alternated pairs: ``cached``
empties the cache before its pass, ``bypassed`` runs with ``linalg._jacobi``
wrapped in a pass-through, which the cache's bypass rule treats as a
caller's wrapper, so every eigensolve runs as without a cache.  Report files
go to a temporary directory; the results are printed as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
from collections import OrderedDict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from golden_bounds import cli, linalg  # noqa: E402


class _Recording(OrderedDict):
    """Cache entries that remember the cycle each key was stored in and
    count the hits on keys stored in an earlier cycle."""

    def __init__(self):
        super().__init__()
        self.cycle = (0, None)  # (pass, CLI seed)
        self.stored = {}
        self.earlier = self.same_seed = 0

    def setdefault(self, key, default):
        if key not in self:
            self.stored[key] = self.cycle
        return super().setdefault(key, default)

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None and self.stored[key] != self.cycle:
            self.earlier += 1
            self.same_seed += self.stored[key][1] == self.cycle[1]
        return value


def run_pass(workload, out_dir: Path, entries: _Recording | None = None, number: int = 1) -> float:
    """Seconds for one pass: every CLI seed of the pool once."""
    started = time.perf_counter()
    for cli_seed in workload.pool:
        if entries is not None:
            entries.cycle = (number, cli_seed)
        for call in workload.make_cycle(cli_seed, out_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(list(call.argv)) != 0:
                    raise SystemExit(f"failed: {' '.join(call.argv)}")
    return time.perf_counter() - started


def count_hits(workload, out_dir: Path) -> dict:
    linalg._CACHE.clear()
    entries = linalg._CACHE.entries = _Recording()
    try:
        passes = {}
        for number in (1, 2):
            before = dict(linalg._CACHE.tally)
            entries.earlier = entries.same_seed = 0
            run_pass(workload, out_dir, entries, number)
            tally = {
                name: value - before[name] if name in ("hits", "misses", "resolves") else value
                for name, value in linalg._CACHE.tally.items()
            }
            tally["hits_from_earlier_cycles"] = entries.earlier
            tally["hits_from_same_seed"] = entries.same_seed
            passes[f"pass_{number}"] = tally
    finally:
        linalg._CACHE.entries = OrderedDict()
        linalg._CACHE.clear()
    return passes


def time_passes(workload, out_dir: Path, rounds: int) -> dict:
    own = linalg._jacobi

    def bypassing(matrix):
        return own(matrix)

    seconds = {"cached": [], "bypassed": []}
    for number in range(rounds):
        sides = ("cached", "bypassed") if number % 2 == 0 else ("bypassed", "cached")
        for side in sides:
            linalg._CACHE.clear()
            if side == "bypassed":
                linalg._jacobi = bypassing
            try:
                seconds[side].append(round(run_pass(workload, out_dir), 3))
            finally:
                linalg._jacobi = own
    medians = {side: statistics.median(values) for side, values in seconds.items()}
    return {
        **seconds,
        "median": medians,
        "bypassed_over_cached": round(medians["bypassed"] / medians["cached"], 3),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or WORKLOADS:
            workload = WORKLOADS[name]
            table[name] = {
                "counts": count_hits(workload, Path(tmp)),
                "seconds": time_passes(workload, Path(tmp), args.rounds),
            }
    print(json.dumps({"rounds": args.rounds, "workloads": table}))


if __name__ == "__main__":
    main()
