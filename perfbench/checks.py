"""Output checks: every report file is parsed, checked for truth, and compared
with the margins and bytes frozen in ``reference/`` for the same call.

A call fails if it raises, exits non-zero, writes no report, writes a report
that does not hold, has a convergence gap at the smallest p above the
criterion-5 limit, or moves any margin from the frozen one by more than the
drift bound.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CONVERGENCE_POWERS, KIND_CSV_SWEEP, KIND_JSON_SWEEP, Call

#: A kernel change may move a relative margin by at most this much (ROADMAP).
MARGIN_DRIFT_BOUND = 1e-13
#: The CLI's default --tol: a report holds when every relative margin is >= -tol.
REPORT_TOLERANCE = 1e-9
#: Criterion 5: |gap| at the smallest p of a convergence table.
CONVERGENCE_GAP_LIMIT = 1e-3
#: The gap column must equal (rhs - lhs) / lhs of its own row to rounding.
GAP_RECOMPUTE_ATOL = 1e-15

N_CYCLE = (2, 3, 4, 5, 6)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    """{cli seed (str): {call key: {"sha256": hex, "margins": [float]}}}."""
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one call produced and what was wrong with it."""

    problems: list[str] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)
    #: Largest allowed drift for each margin, in the same order.
    drift_bounds: list[float] = field(default_factory=list)
    digest: str = ""
    size: int = 0
    drift: float = 0.0
    identical: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


def _expected_n(call: Call, instance: int) -> int:
    return call.n if call.n else N_CYCLE[instance % len(N_CYCLE)]


def _check_instance(out: Outcome, call: Call, instance: int, n: int, holds, rel) -> None:
    if n != _expected_n(call, instance):
        out.problems.append(f"instance {instance}: n = {n}, expected {_expected_n(call, instance)}")
    if not holds:
        out.problems.append(f"instance {instance}: report does not hold")
    if min(rel) < -REPORT_TOLERANCE:
        out.problems.append(f"instance {instance}: relative margin {min(rel):.3e} < -tol")
    out.margins.extend(rel)
    out.drift_bounds.extend([MARGIN_DRIFT_BOUND] * len(rel))


def _read_csv_sweep(out: Outcome, call: Call, text: str) -> None:
    instances: dict[int, dict] = {}
    for row in csv.DictReader(io.StringIO(text)):
        if row["inequality_id"] != call.key:
            out.problems.append(f"row for {row['inequality_id']!r} in a {call.key} sweep")
        entry = instances.setdefault(
            int(row["instance"]), {"n": int(row["n"]), "holds": True, "rel": []}
        )
        entry["holds"] = entry["holds"] and row["holds"] == "True"
        entry["rel"].append(float(row["relative_margin"]))
    if sorted(instances) != list(range(call.instances)):
        out.problems.append(f"instances {sorted(instances)} != 0..{call.instances - 1}")
    for instance, entry in sorted(instances.items()):
        _check_instance(out, call, instance, entry["n"], entry["holds"], entry["rel"])


def _read_json_sweep(out: Outcome, call: Call, text: str) -> None:
    payload = json.loads(text)
    reports = payload["reports"]
    if payload["inequality_id"] != call.key or payload["count"] != call.instances:
        out.problems.append(
            f"sweep header {payload['inequality_id']!r} x {payload['count']}, "
            f"expected {call.key!r} x {call.instances}"
        )
    if not payload["all_hold"] or payload["violation_indices"]:
        out.problems.append(f"violations at {payload['violation_indices']}")
    if len(reports) != call.instances:
        out.problems.append(f"{len(reports)} reports, expected {call.instances}")
    for instance, rep in enumerate(reports):
        if rep["inequality_id"] != call.key:
            out.problems.append(f"report for {rep['inequality_id']!r} in a {call.key} sweep")
        _check_instance(out, call, instance, rep["n"], rep["holds"], rep["relative_margins"])


def _read_table(out: Outcome, call: Call, text: str) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(CONVERGENCE_POWERS) * call.n:
        out.problems.append(f"{len(rows)} rows, expected {len(CONVERGENCE_POWERS) * call.n}")
        return
    smallest = CONVERGENCE_POWERS[-1]
    for index, row in enumerate(rows):
        p, k = float(row["p"]), int(row["k"])
        lhs, rhs, gap = float(row["lhs"]), float(row["rhs"]), float(row["gap"])
        if (p, k) != (CONVERGENCE_POWERS[index // call.n], index % call.n + 1):
            out.problems.append(f"row {index}: (p, k) = ({p}, {k}) out of order")
        if abs(gap - (rhs - lhs) / lhs) > GAP_RECOMPUTE_ATOL:
            out.problems.append(f"row {index}: gap {gap!r} != (rhs - lhs)/lhs")
        if p == smallest and abs(gap) > CONVERGENCE_GAP_LIMIT:
            out.problems.append(f"|gap| = {abs(gap):.3e} at p = {p:g} exceeds {CONVERGENCE_GAP_LIMIT:g}")
        out.margins.append(gap)
        # The 1/p power on the mean-power side multiplies eigenvalue rounding
        # by 1/p, so a legitimate kernel change moves small-p gaps that much more.
        out.drift_bounds.append(MARGIN_DRIFT_BOUND * max(1.0, 1.0 / p))


def _compare(out: Outcome, expected: dict | None) -> None:
    if expected is None:
        out.problems.append("no frozen reference for this call")
        return
    out.identical = out.digest == expected["sha256"]
    frozen = expected["margins"]
    if len(frozen) != len(out.margins):
        out.problems.append(f"{len(out.margins)} margins, reference has {len(frozen)}")
        return
    for index, (now, then, bound) in enumerate(zip(out.margins, frozen, out.drift_bounds)):
        drift = abs(now - then)
        out.drift = max(out.drift, drift)
        if drift > bound:
            out.problems.append(f"margin {index} drifted by {drift:.3e} > {bound:.1e}")


def check_call(
    call: Call, rc, error: str | None, stdout: str, reference: dict | None
) -> Outcome:
    """Check one finished call.  ``reference`` is the workload's frozen
    reference, or None when freezing it."""
    out = Outcome()
    if error is not None:
        out.problems.append(f"raised {error}")
        return out
    if rc != 0:
        out.problems.append(f"exit code {rc}: {stdout.strip()[-300:]}")
    if not call.out.is_file():
        out.problems.append("no report file written")
        return out
    data = call.out.read_bytes()
    out.digest, out.size = hashlib.sha256(data).hexdigest(), len(data)
    try:
        text = data.decode("utf-8")
        if call.kind == KIND_CSV_SWEEP:
            _read_csv_sweep(out, call, text)
        elif call.kind == KIND_JSON_SWEEP:
            _read_json_sweep(out, call, text)
        else:
            _read_table(out, call, text)
    except (KeyError, ValueError, TypeError) as exc:
        out.problems.append(f"malformed report: {exc!r}")
        return out
    if call.kind in (KIND_CSV_SWEEP, KIND_JSON_SWEEP):
        status = f"{call.key}: {call.instances} instances, seed {call.cli_seed}, ok,"
        if not stdout.startswith(status):
            out.problems.append(f"summary line {stdout.strip()!r} lacks {status!r}")
    if reference is not None:
        _compare(out, reference.get(str(call.cli_seed), {}).get(call.key))
    return out
