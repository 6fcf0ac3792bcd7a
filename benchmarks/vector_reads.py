"""Count the eigensolves whose eigenvectors are never read, per benchmark workload.

Run from a checkout, with that checkout's sources on the path:

    PYTHONPATH=src python3 benchmarks/vector_reads.py [--cycles 2]

For each workload in ``perfbench/workloads.py`` it runs the CLI calls of the
first ``--cycles`` cycles (CLI seeds taken from the start of the workload's
pool) in this process, and counts ``linalg._jacobi`` calls and rotation-log
replays. Each log is replayed at most once, so the eigensolves minus the
replays are the decompositions whose eigenvectors were never read. Report
files go to a temporary directory; the counts are printed as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from golden_bounds import cli, linalg  # noqa: E402


def count_reads(workload, cycles: int, out_dir: Path) -> dict:
    counts = {"eigensolves": 0, "replays": 0}
    jacobi, replay = linalg._jacobi, linalg._RotationLog.replay

    def counting_jacobi(matrix):
        counts["eigensolves"] += 1
        return jacobi(matrix)

    def counting_replay(log):
        counts["replays"] += 1
        return replay(log)

    linalg._jacobi, linalg._RotationLog.replay = counting_jacobi, counting_replay
    try:
        for cli_seed in workload.pool[:cycles]:
            for call in workload.make_cycle(cli_seed, out_dir):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(list(call.argv)) != 0:
                        raise SystemExit(f"failed: {' '.join(call.argv)}")
    finally:
        linalg._jacobi, linalg._RotationLog.replay = jacobi, replay
    unread = counts["eigensolves"] - counts["replays"]
    counts["never_read"] = unread
    counts["never_read_share"] = round(unread / counts["eigensolves"], 3)
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=2)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: count_reads(workload, args.cycles, Path(tmp))
            for name, workload in WORKLOADS.items()
        }
    print(json.dumps({"cycles": args.cycles, "workloads": table}))


if __name__ == "__main__":
    main()
