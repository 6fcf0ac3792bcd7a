"""The benchmark's workloads: the CLI calls each one makes, derived from a seed.

Every workload is a closed loop: one process makes one ``golden_bounds.cli``
call at a time and starts the next only when the previous one has returned.
Calls come in cycles.  A cycle runs every call shape of the workload once
with one CLI seed; the CLI seeds come from a fixed pool whose per-entry
relative margins and report digests were frozen in ``reference/``, and the
workload seed only chooses the order in which the pool is visited.  So the
same workload seed always gives the same calls, and every call has a frozen
answer to be checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

#: ``golden_bounds.certify.INEQUALITY_IDS`` when the reference was frozen.
INEQUALITY_IDS = (
    "bounded-eigen-power",
    "bounded-pq",
    "bounded-power-low",
    "fm-eigen-power",
    "fm-pq",
    "fm-power-low",
    "forward-ando-hiai",
    "forward-gt-trace",
    "forward-mean-norm",
    "gt-bounded-specht",
    "gt-fm",
    "gt-kantorovich",
    "gt-kantorovich-bounded",
    "gt-kantorovich-squared",
    "gt-specht",
    "gt-specht-norm",
    "gt-specht-norm-squared",
    "kantorovich-matrix",
    "specht-eigen-power",
    "specht-pq",
    "specht-power-low",
)

#: Instances per ``certify --n 0`` call run from 5 (one pass of the 2..6
#: dimension cycle) to 15, ten on average.  Varying the count per call spreads
#: each id's latency, so the latency distribution is continuous instead of 21
#: spikes whose gaps would make a percentile jump between runs.
CYCLE_COUNTS = tuple(range(5, 16))
#: Instances per ``certify --n 16`` call: 1 to 3, two on average, varied for
#: the same reason.  The CLI alternates commuting and general pairs by
#: instance index, so calls with two or three instances include a general pair.
N16_COUNTS = (1, 2, 3)

#: The CLI's default convergence p sequence; its last entry is the smallest p.
CONVERGENCE_POWERS = (1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4)
CONVERGENCE_DIMS = (2, 3, 4, 5, 6)

KIND_CSV_SWEEP = "sweep-csv"
KIND_JSON_SWEEP = "sweep-json"
KIND_TABLE = "table"


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its report file must contain."""

    argv: tuple[str, ...]
    kind: str
    cli_seed: int
    key: str  # reference entry within the CLI seed
    instances: int  # sampled instances the call processes
    n: int  # fixed dimension, or 0 for the 2..6 cycle
    out: Path


def _sweeps(cli_seed: int, out: Path, n: int, fmt: str, kind: str, count_of) -> list[Call]:
    """``certify <id> --n n --format fmt`` for every id, with
    ``count_of(cli_seed, id index)`` instances each."""
    calls = []
    for index, iid in enumerate(INEQUALITY_IDS):
        count = count_of(cli_seed, index)
        argv = ("certify", iid, "--n", str(n), "--count", str(count),
                "--seed", str(cli_seed), "--format", fmt, "--out", str(out))
        calls.append(Call(argv, kind, cli_seed, iid, count, n, out))
    return calls


def _sweep_cycle(cli_seed: int, out_dir: Path) -> list[Call]:
    # 3 is prime to the 11 counts, so every cycle visits all of them.
    def count_of(seed, index):
        return CYCLE_COUNTS[(5 * seed + 3 * index) % len(CYCLE_COUNTS)]

    return _sweeps(cli_seed, out_dir / "sweep-cycle.csv", 0, "csv", KIND_CSV_SWEEP, count_of)


def _sweep_n16(cli_seed: int, out_dir: Path) -> list[Call]:
    def count_of(seed, index):
        return N16_COUNTS[(seed + index) % len(N16_COUNTS)]

    return _sweeps(cli_seed, out_dir / "sweep-n16.json", 16, "json", KIND_JSON_SWEEP, count_of)


def _convergence(cli_seed: int, out_dir: Path) -> list[Call]:
    out = out_dir / "convergence.csv"
    calls = []
    for factor_kind in ("specht", "kantorovich"):
        for n in CONVERGENCE_DIMS:
            for mode in ("general", "commuting"):
                argv = ["convergence", factor_kind, "--n", str(n),
                        "--seed", str(cli_seed), "--out", str(out)]
                if mode == "commuting":
                    argv.append("--commuting")
                calls.append(
                    Call(tuple(argv), KIND_TABLE, cli_seed,
                         f"{factor_kind}/n{n}/{mode}", 1, n, out)
                )
    return calls


@dataclass(frozen=True)
class Workload:
    name: str
    make_cycle: object  # (cli_seed, out_dir) -> list[Call]
    pool: tuple[int, ...]
    #: Rough wall time of one cycle, used only to size the traced run.
    cycle_estimate_s: float
    #: Spans the traced run must see: names, ``layer.*``, ``linalg._jacobi@n``.
    required_spans: tuple[str, ...]
    #: Position in a cycle of the warm-up call that set-up time includes.
    warmup_index: int = 14  # certify gt-specht

    def cycles(self, seed: int, out_dir: Path):
        """Endless cycles, visiting the CLI seed pool in a seed-chosen order."""
        order = random.Random(seed).sample(self.pool, len(self.pool))
        while True:
            for cli_seed in order:
                yield self.make_cycle(cli_seed, out_dir)

    def warmup(self, out_dir: Path) -> Call:
        """Fixed first call, the same for every workload seed."""
        return self.make_cycle(self.pool[0], out_dir)[self.warmup_index]


#: Boundaries every sweep crosses; ``layer.*`` means any span of that layer.
_SWEEP_SPANS = (
    "cli.main",
    "certify.run_instances",
    "certify.instance",
    "sampling.*",
    "means.*",
    "orders.*",
    "constants.*",
    "linalg._jacobi",
)

WORKLOADS = {
    "sweep-cycle": Workload(
        name="sweep-cycle",
        make_cycle=_sweep_cycle,
        pool=tuple(range(1, 13)),
        cycle_estimate_s=2.0,
        required_spans=_SWEEP_SPANS + tuple(f"linalg._jacobi@{n}" for n in range(2, 7)),
    ),
    "sweep-n16": Workload(
        name="sweep-n16",
        make_cycle=_sweep_n16,
        pool=tuple(range(1, 6)),
        cycle_estimate_s=7.6,
        required_spans=_SWEEP_SPANS + ("linalg._jacobi@16",),
        warmup_index=17,  # certify kantorovich-matrix, the cheapest id at n = 16
    ),
    "convergence": Workload(
        name="convergence",
        make_cycle=_convergence,
        pool=tuple(range(1, 17)),
        cycle_estimate_s=0.6,
        required_spans=(
            "cli.main",
            "certify.convergence_study",
            "sampling.*",
            "means.*",
            "constants.*",
            "linalg._jacobi",
        ) + tuple(f"linalg._jacobi@{n}" for n in CONVERGENCE_DIMS),
        warmup_index=4,  # specht, n = 4, general
    ),
}
