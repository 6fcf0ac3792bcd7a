"""Command-line front end: constants, certification sweeps, reference
reproduction, and convergence tables.

Exit codes are a stable contract: 0 = everything passed, 1 = a numerical
violation (an inequality instance failed or a reference value mismatched),
2 = usage or configuration error.  Given the same seed and configuration,
report files are byte-identical across runs on the same build.  The argument
parser is built once per process, so a caller that runs ``main`` many times
in one process pays for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .certify import (
    CSV_HEADER,
    INEQUALITY_IDS,
    PIN_NAMES,
    SweepResult,
    compare_constants_remark,
    convergence_study,
    run_instances,
)
from .constants import evaluate_constant
from .errors import GoldenBoundsError, HypothesisViolatedError, NoConvergenceError
from .sampling import (
    MODE_COMMUTING,
    MODE_GENERAL,
    SamplerConfig,
    olson_exponential_pair,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

#: Frozen reference differences for the constant-comparison reproduction:
#: (alpha, p, h, expected difference), matched to 1e-6 absolute.
REMARK_REFERENCES = (
    (0.5, 0.5, 2.0, -0.0134963),
    (0.5, 0.5, 8.0, 0.0631159),
)
REMARK_ABS_TOL = 1e-6

DEFAULT_CONVERGENCE_POWERS = (1.0, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4)

_CONVERGENCE_HEADER = ("p", "k", "lhs", "rhs", "gap")


def _fmt(value: float) -> str:
    """17 significant digits, '.' decimal — reproducible across locales."""
    return format(float(value), ".17g")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _sweep_to_json(result: SweepResult) -> str:
    payload = {
        "inequality_id": result.inequality_id,
        "seed": result.seed,
        "count": result.count,
        "all_hold": result.all_hold,
        "violation_indices": list(result.violation_indices),
        "reports": [rep.to_dict() for rep in result.reports],
    }
    return json.dumps(payload, indent=2) + "\n"


def _sweep_to_csv(result: SweepResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for index, rep in enumerate(result.reports):
        for row in rep.csv_rows(instance=index):
            writer.writerow(
                [_fmt(cell) if isinstance(cell, float) else cell for cell in row]
            )
    return buf.getvalue()


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    parser.add_argument("--out", default=None, help="write output to this file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The golden-bounds parser, built on the first call and then shared by
    every caller in the process: parse with it, do not modify it."""
    parser = argparse.ArgumentParser(
        prog="golden-bounds",
        description=(
            "Evaluate reverse-inequality constants and certify the matrix "
            "inequalities they govern on seeded random instances."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser(
        "constants",
        help="evaluate a named scalar constant at full precision",
        description=(
            "Evaluate one constant: specht T | specht-p-root T P | "
            "kantorovich W ALPHA | kantorovich-lower-bound W | fm H ALPHA SCALE."
        ),
    )
    p_const.add_argument("name", help="constant name")
    p_const.add_argument("args", nargs="*", type=float, help="numeric arguments")
    p_const.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text prints the bare full-precision value (default); json adds "
        "the arguments and the evaluation branch",
    )
    p_const.add_argument("--out", default=None, help="write output to this file")

    p_cert = sub.add_parser(
        "certify",
        help="run a seeded certification sweep for one inequality",
        description=(
            "Certify seeded random instances of one inequality; exits 0 only if "
            "every instance holds (every relative margin >= -1e-9). Known ids: "
            + ", ".join(INEQUALITY_IDS)
        ),
    )
    p_cert.add_argument("inequality_id", help="inequality to certify")
    p_cert.add_argument(
        "--n", type=int, default=4,
        help="matrix dimension; 0 cycles through 2..6 (default: 4)",
    )
    p_cert.add_argument("--count", type=int, default=200, help="instances (default: 200)")
    p_cert.add_argument(
        "--commuting", action="store_true",
        help="sample commuting pairs only (default: alternate general/commuting)",
    )
    for flag in PIN_NAMES:
        p_cert.add_argument(
            f"--{flag}", type=float, default=None,
            help=f"pin the drawn parameter {flag} (exit 2 if the id does not draw it)",
        )
    p_cert.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="output format for report files (default: json)",
    )
    _add_common_flags(p_cert)

    sub.add_parser(
        "reproduce-remark",
        help="recompute the two reference constant-comparison differences",
        description=(
            "Recompute the Kantorovich-route minus exponential-route factor "
            "differences at (alpha=1/2, p=1/2, h=2) and (h=8) and check them "
            "against the frozen references to 1e-6."
        ),
    )

    p_conv = sub.add_parser(
        "convergence",
        help="CSV table tracking a reverse bound's collapse as p decreases",
        description=(
            "Sample a seeded Hermitian pair and tabulate lambda_k of the "
            "factor-adjusted mean-power side against the exponential side "
            "for a decreasing sequence of p (columns: p, k, lhs, rhs, gap)."
        ),
    )
    p_conv.add_argument(
        "factor_kind", nargs="?", default="specht",
        help="which reverse factor to apply: specht or kantorovich (default: specht)",
    )
    p_conv.add_argument("--n", type=int, default=4, help="matrix dimension (default: 4)")
    p_conv.add_argument(
        "--alpha", type=float, default=0.5, help="mean weight (default: 0.5)"
    )
    p_conv.add_argument(
        "--m", type=float, default=-0.6,
        help="lower spectral bound of the sampled pair (default: -0.6)",
    )
    p_conv.add_argument(
        "--M", type=float, default=0.9,
        help="upper spectral bound of the sampled pair (default: 0.9)",
    )
    p_conv.add_argument(
        "--p", type=float, action="append", default=None,
        help="append one p to the sequence (default: 1, 0.3, 0.1, 0.03, 0.01, 1e-3, 1e-4)",
    )
    p_conv.add_argument(
        "--commuting", action="store_true", help="sample a commuting pair"
    )
    _add_common_flags(p_conv)

    return parser


def cmd_constants(args: argparse.Namespace) -> int:
    result = evaluate_constant(args.name, args.args)
    if args.format == "json":
        rendered = json.dumps(
            {
                "name": result.name,
                "arguments": list(result.arguments),
                "value": result.value,
                "branch": result.branch,
            },
            indent=2,
        ) + "\n"
    else:
        rendered = _fmt(result.value) + "\n"
    _write_text(args.out, rendered)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key in PIN_NAMES if getattr(args, key) is not None}
    result = run_instances(
        args.inequality_id,
        count=args.count,
        seed=args.seed,
        n=None if args.n == 0 else args.n,
        mode=MODE_COMMUTING if args.commuting else None,
        param_overrides=overrides,
    )
    rendered = _sweep_to_json(result) if args.format == "json" else _sweep_to_csv(result)
    if args.out is not None:
        _write_text(args.out, rendered)
        print(result.summary())
    elif args.count == 1:
        _write_text(None, rendered)
    else:
        print(result.summary())
        if not result.all_hold:
            for idx in result.violation_indices[:10]:
                rep = result.reports[idx]
                print(
                    f"  instance {idx}: worst relative margin "
                    f"{rep.worst_relative_margin:.3e} (n={rep.n}, mode={rep.mode})"
                )
    return EXIT_OK if result.all_hold else EXIT_VIOLATION


def cmd_reproduce_remark(_args: argparse.Namespace) -> int:
    ok = True
    for alpha, p, h, expected in REMARK_REFERENCES:
        _, _, diff = compare_constants_remark(alpha, p, h)
        delta = abs(diff - expected)
        ok = ok and delta <= REMARK_ABS_TOL
        print(
            f"alpha={alpha:g} p={p:g} h={h:g}: difference = {_fmt(diff)} "
            f"(reference {expected:g}, |delta| = {delta:.3e})"
        )
    print("reproduction: OK" if ok else "reproduction: MISMATCH")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_convergence(args: argparse.Namespace) -> int:
    powers = tuple(args.p) if args.p else DEFAULT_CONVERGENCE_POWERS
    mode = MODE_COMMUTING if args.commuting else MODE_GENERAL
    cfg = SamplerConfig(args.n, args.seed, args.m, args.M, mode)
    pair = olson_exponential_pair(cfg, 0)
    rows = convergence_study(
        pair.h, pair.k, pair.s, pair.t, args.alpha, powers, args.factor_kind
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CONVERGENCE_HEADER)
    for row in rows:
        writer.writerow([_fmt(row.p), row.k, _fmt(row.lhs), _fmt(row.rhs), _fmt(row.gap)])
    _write_text(args.out, buf.getvalue())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "constants": cmd_constants,
        "certify": cmd_certify,
        "reproduce-remark": cmd_reproduce_remark,
        "convergence": cmd_convergence,
    }
    try:
        return handlers[args.command](args)
    except (HypothesisViolatedError, NoConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except GoldenBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:  # not a file: a failed fork, say
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
