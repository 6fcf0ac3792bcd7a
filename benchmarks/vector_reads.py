"""Count the eigensolves whose eigenvectors are never read, the matrices
whose entries are never built, and the entry checks, per benchmark workload.

Run from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python3 benchmarks/vector_reads.py [--cycles 2]

For each workload in ``perfbench/workloads.py`` it runs the CLI calls of the
first ``--cycles`` cycles (CLI seeds taken from the start of the workload's
pool) in this process, and counts ``linalg._jacobi`` calls and rotation-log
replays. Each log is replayed at most once, so the eigensolves minus the
replays are the decompositions whose eigenvectors were never read. In the
same way it counts the matrices constructed with pending entries (a callable,
such as the results of ``power`` and ``exp_h``) and the first reads of
``matrix`` that build them; the difference is the matrices whose entries were
never built. It also counts the full entry checks, made where an array
enters (``linalg._checked_entries`` on a caller's array and
``linalg._check_spectrum`` on a decomposition given as arrays, which is how
a sampled operand enters), and the internal entry builds, which only
symmetrize and guard a result computed from checked matrices
(``linalg._result_entries``); both are also given per instance, over the
instances the calls certify (one per convergence table). It first narrows
its own CPU affinity to one CPU, so that ``run_instances`` certifies every
instance in this process, where the hooks count it, instead of forking a
child per extra CPU. Report files go to a temporary directory; the counts are
printed as JSON.

Wrapping ``linalg._jacobi`` bypasses the spectral cache, so the counts above
describe every eigensolve as if it had no cache.  The same calls then run
once more unwrapped, from an empty cache, and ``cache`` gives the cache's
tally over them: hits, misses (eigensolves run), re-solves (eigenvectors
read on a hit that found them unbuilt and its log gone) and the bytes of
the entries held at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from golden_bounds import cli, linalg  # noqa: E402


def count_reads(workload, cycles: int, out_dir: Path) -> dict:
    counts = {
        "eigensolves": 0, "replays": 0, "pending_matrices": 0, "matrix_builds": 0,
        "full_checks": 0, "internal_builds": 0,
    }
    hermitian = linalg.HermitianMatrix
    jacobi, replay = linalg._jacobi, linalg._RotationLog.replay
    init, matrix = hermitian.__init__, hermitian.matrix
    checks = {name: getattr(linalg, name) for name in ("_checked_entries", "_check_spectrum")}
    result_entries = linalg._result_entries

    def counting_jacobi(m):
        counts["eigensolves"] += 1
        return jacobi(m)

    def counting_replay(log):
        counts["replays"] += 1
        return replay(log)

    def counting_init(self, entries, **kwargs):
        counts["pending_matrices"] += callable(entries)
        init(self, entries, **kwargs)

    def counting_matrix(m):
        counts["matrix_builds"] += callable(m._matrix)
        return matrix.fget(m)

    def counting_check(check):
        def counted(*args):
            counts["full_checks"] += 1
            return check(*args)

        return counted

    def counting_result_entries(raw):
        counts["internal_builds"] += 1
        return result_entries(raw)

    linalg._jacobi, linalg._RotationLog.replay = counting_jacobi, counting_replay
    hermitian.__init__, hermitian.matrix = counting_init, property(counting_matrix)
    for name, check in checks.items():
        setattr(linalg, name, counting_check(check))
    linalg._result_entries = counting_result_entries
    try:
        instances = run_calls(workload, cycles, out_dir)
    finally:
        linalg._jacobi, linalg._RotationLog.replay = jacobi, replay
        hermitian.__init__, hermitian.matrix = init, matrix
        for name, check in checks.items():
            setattr(linalg, name, check)
        linalg._result_entries = result_entries
    unread = counts["eigensolves"] - counts["replays"]
    counts["never_read"] = unread
    counts["never_read_share"] = round(unread / counts["eigensolves"], 3)
    unbuilt = counts["pending_matrices"] - counts["matrix_builds"]
    counts["never_built"] = unbuilt
    counts["never_built_share"] = round(unbuilt / counts["pending_matrices"], 3)
    counts["instances"] = instances
    for name in ("full_checks", "internal_builds"):
        counts[f"{name}_per_instance"] = round(counts[name] / instances, 3)
    linalg._CACHE.clear()
    run_calls(workload, cycles, out_dir)
    counts["cache"] = dict(linalg._CACHE.tally)
    return counts


def run_calls(workload, cycles: int, out_dir: Path) -> int:
    """Run the CLI calls of the first ``cycles`` cycles; the instances they certify."""
    instances = 0
    for cli_seed in workload.pool[:cycles]:
        for call in workload.make_cycle(cli_seed, out_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(list(call.argv)) != 0:
                    raise SystemExit(f"failed: {' '.join(call.argv)}")
            instances += call.instances
    return instances


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=2)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: count_reads(workload, args.cycles, Path(tmp))
            for name, workload in WORKLOADS.items()
        }
    print(json.dumps({"cycles": args.cycles, "workloads": table}))


if __name__ == "__main__":
    main()
