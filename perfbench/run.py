"""golden-bounds benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-cycle --seed 1 --seconds 30 --trace 0

It works in the checkout that holds this directory and imports golden_bounds
from its ``src/``.  ``--trace 0`` measures the end-to-end metrics listed in
BENCHMARK.json with no tracing, with times scaled to a reference machine
speed (see CALIBRATION_REFERENCE_S).  ``--trace 1`` runs a fixed list of
calls, each once untraced and once with spans around every layer, and
reports the per-layer metrics.
Every report file is checked (see checks.py); the last line of standard
output is the JSON result, and the exit code is 1 if any check failed.
A full record of the run, including the environment and the digest of every
report file, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import load_reference, check_call
from stats import percentile, scale_to_reference, tail_percentile
from workloads import WORKLOADS, Call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Relative to ROOT, which pin_environment makes the working directory, so the
#: argv and paths in a run's record do not depend on where the checkout is.
OUT_DIR = HERE.relative_to(ROOT) / "out"

#: Set before numpy is imported so that complex ``@`` and QR stay on one thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
#: Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
SETUP_PROBE_TIMEOUT_S = 120
#: The fewest calls that leave ten samples beyond the nearest-rank p90.
MIN_CALLS = 100
#: Shared hosts drift in speed by 10-20 % over tens of seconds.  A fixed loop
#: of small complex numpy updates, like the eigensolver's inner loop, slows with
#: the program (correlation 0.93 with sweep throughput over 15 s windows on a
#: 2-core host).  So the loop is timed every CALIBRATION_INTERVAL_S of calls,
#: and call times are reported at the speed where it takes
#: CALIBRATION_REFERENCE_S, about its time on that host.  Unscaled figures
#: are kept in the record.
CALIBRATION_INTERVAL_S = 0.5
CALIBRATION_REFERENCE_S = 0.5e-3
CALIBRATION_REPEATS = 9
#: Problems kept in the run record; the count of failed calls is always exact.
MAX_PROBLEMS = 20


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "golden_bounds" / "cli.py").is_file():
        raise BenchmarkError(f"no src/golden_bounds under {ROOT}: run from a full checkout")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        blas = {"unavailable": repr(exc)}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def invoke(cli, call: Call):
    """One in-process CLI call: (seconds, exit code, error or None, output)."""
    call.out.unlink(missing_ok=True)
    sink = io.StringIO()
    rc = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(list(call.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a raising call is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, error, sink.getvalue()


@dataclass
class Tally:
    """Checked calls of one pass."""

    seconds: list[float] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    instances: int = 0
    failed: int = 0
    entries: int = 0
    bytes_out: int = 0
    identical: int = 0
    worst_margin: float = float("inf")
    drift: float = 0.0

    def run(self, cli, call: Call, reference: dict) -> None:
        self.record(call, invoke(cli, call), reference)

    def record(self, call: Call, result: tuple, reference: dict) -> None:
        """Check the output of ``invoke`` and count it."""
        elapsed, rc, error, stdout = result
        outcome = check_call(call, rc, error, stdout, reference)
        self.seconds.append(elapsed)
        self.instances += call.instances
        self.entries += len(outcome.margins)
        self.bytes_out += outcome.size
        self.identical += outcome.identical
        self.drift = max(self.drift, outcome.drift)
        if outcome.margins:
            self.worst_margin = min(self.worst_margin, min(outcome.margins))
        if not outcome.ok:
            self.failed += 1
            for problem in outcome.problems[: MAX_PROBLEMS - len(self.problems)]:
                self.problems.append(f"{' '.join(call.argv[:2])} seed {call.cli_seed}: {problem}")
        self.records.append(
            {"argv": " ".join(call.argv), "sha256": outcome.digest, "bytes": outcome.size,
             "seconds": elapsed, "ok": outcome.ok}
        )

    def digest(self, count: int | None = None) -> str:
        """sha256 over the report digests of the first ``count`` calls."""
        hasher = hashlib.sha256()
        for record in self.records[:count]:
            hasher.update(f"{record['argv']}\0{record['sha256']}\n".encode())
        return hasher.hexdigest()


def calibration_loop_s() -> float:
    """Median time of a fixed loop of 6x6 complex column rotations: the
    machine's current speed.  It uses no golden_bounds code."""
    import numpy as np

    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        a = np.arange(36, dtype=np.complex128).reshape(6, 6) * (0.01 + 0.02j)
        for k in range(60):
            p, q = k % 5, k % 5 + 1
            mag = abs(a[p, q]) + 1.0
            c = 1.0 / (1.0 + mag * mag) ** 0.5
            s = mag * c
            col_p, col_q = a[:, p].copy(), a[:, q].copy()
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_cli_and_warm_up(workload, reference: dict, tally: Tally):
    """Import golden_bounds.cli and make the warm-up call: the set-up users pay.

    Returns the module, the set-up seconds and a calibration taken right after.
    The warm-up report is checked after the clock stops.
    """
    call = workload.warmup(OUT_DIR)
    start = time.perf_counter()
    from golden_bounds import cli

    result = invoke(cli, call)
    setup_s = time.perf_counter() - start
    tally.record(call, result, reference)
    return cli, setup_s, calibration_loop_s()


def probe_setup(workload: str) -> tuple[float, float]:
    """(set-up seconds, calibration seconds) of a fresh ``--setup-probe`` process."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchmarkError(f"set-up probe took over {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(probe["setup_s"]), float(probe["calibration_s"])


def measure_end_to_end(workload, seed: int, seconds: float, reference: dict, warm: Tally):
    setups = [probe_setup(workload.name) for _ in range(SETUP_SAMPLES - 1)]
    cli, *own_setup = import_cli_and_warm_up(workload, reference, warm)
    setups.append(tuple(own_setup))
    tally = Tally()
    calibrations = [(0, calibration_loop_s())]
    start = last_calibration = time.perf_counter()
    for cycle in workload.cycles(seed, OUT_DIR):
        for call in cycle:
            tally.run(cli, call, reference)
            if time.perf_counter() - last_calibration >= CALIBRATION_INTERVAL_S:
                calibrations.append((len(tally.seconds), calibration_loop_s()))
                last_calibration = time.perf_counter()
        if time.perf_counter() - start >= seconds and len(tally.seconds) >= MIN_CALLS:
            break
    if calibrations[-1][0] != len(tally.seconds):
        calibrations.append((len(tally.seconds), calibration_loop_s()))
    scaled = scale_to_reference(tally.seconds, calibrations, CALIBRATION_REFERENCE_S)
    metrics = {
        **call_metrics(scaled, tally.instances),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(
            setup_s * CALIBRATION_REFERENCE_S / loop_s for setup_s, loop_s in setups
        ),
    }
    pct, tail_ms, count = tail_percentile([1e3 * s for s in scaled])
    loop_times = [loop_s for _, loop_s in calibrations]
    notes = {
        "calls": count,
        "instances": tally.instances,
        "highest_percentile_with_10_beyond": pct,
        "call_ms_at_that_percentile": tail_ms,
        "unscaled": call_metrics(tally.seconds, tally.instances),
        "calibration_loop_s": {
            "reference": CALIBRATION_REFERENCE_S,
            "samples": len(loop_times),
            "median": statistics.median(loop_times),
            "min": min(loop_times),
            "max": max(loop_times),
        },
        "setup_s_samples": [{"unscaled": s, "calibration_loop_s": c} for s, c in setups],
        "first_cycle_digest": tally.digest(len(workload.make_cycle(workload.pool[0], OUT_DIR))),
    }
    return tally, metrics, notes


def call_metrics(seconds: list[float], instances: int) -> dict:
    total = sum(seconds)
    return {
        "instances_per_s": instances / total,
        "tables_per_s": len(seconds) / total,
        "call_ms_p50": 1e3 * percentile(seconds, 500),
        "call_ms_p90": 1e3 * percentile(seconds, 900),
    }


def traced_cycles(workload, seconds: float) -> int:
    """Cycles in the traced run's fixed call list; depends only on --seconds."""
    return max(1, round(seconds / (3.0 * workload.cycle_estimate_s)))


def measure_layers(workload, seed: int, seconds: float, reference: dict, warm: Tally):
    from tracing import INSTANCE, Tracer, layer_metrics

    cli, _, _ = import_cli_and_warm_up(workload, reference, warm)
    cycles = workload.cycles(seed, OUT_DIR)
    calls = [call for _, cycle in zip(range(traced_cycles(workload, seconds)), cycles)
             for call in cycle]
    # Each call runs untraced and then traced, so slow drift in machine speed
    # falls on both sides of the overhead ratio alike.
    plain, traced, tracer = Tally(), Tally(), Tracer()
    for index, call in enumerate(calls):
        plain.run(cli, call, reference)
        tracer.call = index
        try:
            tracer.install()
            traced.run(cli, call, reference)
        finally:
            tracer.uninstall()
    tracer.require(workload.required_spans)
    if traced.digest() != plain.digest():
        traced.failed += 1
        traced.problems.append("traced report bytes differ from untraced ones")
    counts = tracer.counts()
    if INSTANCE in workload.required_spans and counts[INSTANCE] != traced.instances:
        raise BenchmarkError(f"{counts[INSTANCE]} instance spans for {traced.instances} instances")
    traced_s, plain_s = sum(traced.seconds), sum(plain.seconds)
    metrics = layer_metrics(tracer, traced.instances, len(calls), traced_s)
    metrics.update(
        {
            "cli.bytes_out": traced.bytes_out,
            "certify.entries": traced.entries,
            "certify.worst_relative_margin": traced.worst_margin,
            "certify.margin_drift_max": traced.drift,
            "trace.overhead_ratio": traced_s / plain_s - 1.0,
        }
    )
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.dump(spans_path)
    notes = {
        "calls": len(calls),
        "instances": traced.instances,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "span_counts": counts,
        "reports_digest": traced.digest(),
        "untraced_seconds": plain_s,
        "traced_seconds": traced_s,
    }
    plain.records += traced.records
    plain.problems += traced.problems
    plain.failed += traced.failed
    plain.identical += traced.identical
    return plain, metrics, notes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        pin_environment()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        reference = load_reference(workload.name)
        OUT_DIR.mkdir(exist_ok=True)
        warm = Tally()
        if args.setup_probe:  # the main process checks the same warm-up call
            _, setup_s, loop_s = import_cli_and_warm_up(workload, reference, warm)
            print(json.dumps({"setup_s": setup_s, "calibration_s": loop_s}))
            return 0
        measure = measure_layers if args.trace else measure_end_to_end
        tally, metrics, notes = measure(workload, args.seed, args.seconds, reference, warm)
    except (BenchmarkError, OSError, ValueError, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    attempted = len(warm.records) + len(tally.records)
    failed = warm.failed + tally.failed
    problems = warm.problems + tally.problems
    metrics["failed_ratio"] = failed / attempted
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in listed}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"benchmark error: metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "reports_identical_to_reference": warm.identical + tally.identical,
        "metrics": metrics,
        **notes,
        "calls_made": warm.records + tally.records,
    }
    record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    env = record["environment"]
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')}")
    print(f"calls {notes['calls']}  instances {notes['instances']}  attempted {attempted}  "
          f"failed {failed}  byte-identical to reference "
          f"{record['reports_identical_to_reference']}/{attempted}")
    if not args.trace:
        print(f"call latency: p{notes['highest_percentile_with_10_beyond']:g} is the highest "
              f"percentile with 10 samples beyond it ({notes['calls']} samples)")
        loop = notes["calibration_loop_s"]
        print(f"times scaled to a {1e3 * loop['reference']:g} ms calibration loop "
              f"(measured: median {1e3 * loop['median']:.3f} ms over {loop['samples']}); "
              "unscaled: " + "  ".join(f"{k} {v:.5g}" for k, v in notes["unscaled"].items()))
    for problem in problems:
        print(f"FAILED {problem}")
    for name in [*units, "failed_ratio"]:
        print(f"  {name:45s} {metrics[name]!r:>24} {units.get(name, 'ratio')}")
    print(f"record: {record_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
