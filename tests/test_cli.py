"""Command-line interface: exit codes, formats, seeding, determinism."""

import csv
import dataclasses
import errno
import importlib
import io
import json
import os
import pathlib
import re
import tomllib

import pytest

from golden_bounds import certify, cli, linalg
from golden_bounds.certify import INEQUALITY_IDS
from golden_bounds.cli import main
from golden_bounds.errors import BadRangeError

import freeze
import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def test_constants_text_default(capsys):
    code, out, err = run_cli(capsys, "constants", "specht", "2")
    assert code == 0
    assert err == ""
    assert abs(float(out.strip()) - oracles.SPECHT_2) < 1e-14
    # Full precision: a 17-significant-digit decimal round-trips the double.
    assert float(out.strip()) == pytest.approx(float(oracles.SPECHT_2), abs=0)


def test_constants_json(capsys):
    code, out, _ = run_cli(
        capsys, "constants", "kantorovich", "2", "0.5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["name"] == "kantorovich"
    assert payload["arguments"] == [2.0, 0.5]
    assert abs(payload["value"] - oracles.KANTOROVICH_2_HALF) < 1e-14
    assert payload["branch"] == "direct"


def test_constants_out_file(capsys, tmp_path):
    target = tmp_path / "value.txt"
    code, out, _ = run_cli(capsys, "constants", "specht", "8", "--out", str(target))
    assert code == 0
    assert abs(float(target.read_text()) - oracles.SPECHT_8) < 1e-14


def test_constants_kantorovich_tiny_w(capsys):
    code, out, err = run_cli(capsys, "constants", "kantorovich", "1e-300", "0.5")
    assert code == 0
    assert err == ""
    assert float(out) == pytest.approx(oracles.kantorovich_mp(1e-300, 0.5), rel=1e-13, abs=0.0)


def test_constants_unknown_name_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "constants", "frobnicate", "2")
    assert code == 2
    assert "error" in err


def test_constants_wrong_arity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "constants", "specht", "2", "3")
    assert code == 2
    assert "error" in err


def test_constants_domain_error_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "constants", "specht", "-1")
    assert code == 2


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_single_instance_prints_json(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "gt-specht", "--count", "1", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inequality_id"] == "gt-specht"
    assert payload["all_hold"] is True
    assert payload["count"] == 1
    assert len(payload["reports"]) == 1
    assert payload["reports"][0]["holds"] is True


def test_certify_summary_path(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "bounded-pq", "--count", "5", "--seed", "1"
    )
    assert code == 0
    assert "bounded-pq" in out
    assert "5 instances" in out and ", ok," in out


def test_certify_out_files_are_deterministic(capsys, tmp_path):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    for target in (a1, a2):
        code, out, _ = run_cli(
            capsys,
            "certify", "gt-kantorovich",
            "--count", "4", "--seed", "11", "--format", "json",
            "--out", str(target),
        )
        assert code == 0
        assert "4 instances" in out and ", ok," in out
    assert a1.read_bytes() == a2.read_bytes()


def test_certify_csv_shape(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "certify", "specht-pq",
        "--count", "2", "--seed", "7", "--format", "csv", "--out", str(target),
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(target.read_text())))
    header, body = rows[0], rows[1:]
    assert header[:3] == ["inequality_id", "instance", "n"]
    assert all(row[0] == "specht-pq" for row in body)
    assert {row[1] for row in body} == {"0", "1"}
    lhs_column = header.index("lhs")
    # 17-significant-digit decimals parse back to exact doubles.
    for row in body:
        assert float(row[lhs_column]) >= 0.0
        assert row[lhs_column] == format(float(row[lhs_column]), ".17g")


def test_the_tolerance_is_not_settable(capsys):
    # "holds" means every relative margin >= -1e-9, one threshold for every
    # caller: no flag or keyword sets another.
    with pytest.raises(SystemExit) as exit_info:
        main(["certify", "gt-specht", "--count", "3", "--tol", "1e-3"])
    assert exit_info.value.code == 2
    assert "--tol" in capsys.readouterr().err
    h = linalg.HermitianMatrix([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(BadRangeError, match="takes no parameter tolerance"):
        certify.certify_inequality("gt-specht", h, h, alpha=0.5, p=1.0, s=0, t=0, tolerance=1e-3)
    with pytest.raises(TypeError, match="tolerance"):
        certify.run_instances("gt-specht", count=1, tolerance=1e-3)


#: The frozen digests of tests/freeze.py: the byte contract a refactor of
#: the certifiers keeps.  Each test below compares the digest of one command's
#: output, computed under the pin, with the frozen one.
FROZEN_DIGESTS = freeze.frozen()


def test_frozen_digests_are_the_digests_computed(pinned_digests):
    assert sorted(FROZEN_DIGESTS) == sorted(pinned_digests)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_certify_report_bytes_are_frozen(pinned_digests, inequality_id, fmt):
    command = freeze.report(inequality_id, fmt)
    assert pinned_digests[command] == FROZEN_DIGESTS[command]


@pytest.mark.parametrize("inequality_id", INEQUALITY_IDS)
def test_certify_n16_report_bytes_are_frozen(pinned_digests, inequality_id):
    command = freeze.n16_report(inequality_id)
    assert pinned_digests[command] == FROZEN_DIGESTS[command]


#: Relative margins of the seed-7 reports, frozen from the numpy-array Jacobi
#: kernel that preceded the Python-scalar one.  Digests pin the bits of one
#: build; this pins the values: a kernel change may move a margin by at most
#: MARGIN_DRIFT_BOUND.
FROZEN_MARGINS = json.loads(
    pathlib.Path(__file__).with_name("frozen_margins.json").read_text()
)["relative_margins"]
MARGIN_DRIFT_BOUND = 1e-13


def test_frozen_margin_table_covers_every_id():
    assert sorted(FROZEN_MARGINS) == sorted(INEQUALITY_IDS)


@pytest.mark.parametrize("inequality_id", sorted(FROZEN_MARGINS))
def test_certify_margins_stay_near_frozen(capsys, tmp_path, inequality_id):
    target = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys,
        "certify", inequality_id, "--n", "0", "--count", "20", "--seed", "7",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    with target.open(newline="") as fh:
        rows = [
            (int(row["instance"]), row["entry"], float(row["relative_margin"]))
            for row in csv.DictReader(fh)
        ]
    frozen = FROZEN_MARGINS[inequality_id]
    assert [row[:2] for row in rows] == [tuple(row[:2]) for row in frozen]
    drift = max(abs(now[2] - then[2]) for now, then in zip(rows, frozen))
    assert drift <= MARGIN_DRIFT_BOUND


def test_certify_unknown_id_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "certify", "unknown-id", "--count", "1")
    assert code == 2
    assert "unknown-id" in err


def test_certify_commuting_flag_pins_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify", "specht-power-low",
        "--count", "1", "--seed", "2", "--commuting",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reports"][0]["mode"] == "commuting"


def test_certify_parameter_pins(capsys):
    code, out, _ = run_cli(
        capsys,
        "certify", "gt-kantorovich",
        "--count", "1", "--seed", "4", "--alpha", "0.25", "--p", "2.0",
    )
    assert code == 0
    params = json.loads(out)["reports"][0]["parameters"]
    assert params["alpha"] == 0.25
    assert params["p"] == 2.0


def test_certify_pins_the_spectral_range_of_the_sandwich(capsys, monkeypatch, one_cpu):
    spectra = []
    certify_one = certify.certify_inequality

    def recording(inequality_id, x, y, /, **params):
        spectra.append(x.eigenvalues)
        return certify_one(inequality_id, x, y, **params)

    monkeypatch.setattr(certify, "certify_inequality", recording)
    code, _, err = run_cli(
        capsys, "certify", "specht-power-low", "--count", "4", "--seed", "3",
        "--m", "0.5", "--M", "0.6",
    )
    assert code == 0, err
    assert len(spectra) == 4
    for eigenvalues in spectra:
        assert 0.5 <= eigenvalues.min() and eigenvalues.max() <= 0.6


@pytest.mark.parametrize(
    "inequality_id, pins",
    [
        ("gt-specht", ("--s", "0.1", "--t", "0.2")),
        ("gt-kantorovich", ("--s", "-0.5",)),
        ("kantorovich-matrix", ("--alpha", "0.5")),
        ("gt-kantorovich-squared", ("--p", "1.0")),
        ("bounded-power-low", ("--q", "0.5")),
    ],
)
def test_certify_rejects_pins_the_id_does_not_draw(capsys, inequality_id, pins):
    code, out, err = run_cli(capsys, "certify", inequality_id, "--count", "2", "--seed", "4", *pins)
    assert code == 2
    assert "does not draw" in err and "pinnable:" in err and out == ""


@pytest.mark.parametrize(
    "argv, exponent",
    [
        (("certify", "gt-kantorovich-squared", "--m", "-400", "--M", "400", "--count", "1"),
         "e^(2M) = e^(800) exceeds double range"),
        (("certify", "gt-specht", "--m", "-400", "--M", "400", "--count", "1"),
         "e^(s*nu) = e^(-800) underflows"),
        (("convergence", "specht", "--m", "-400", "--M", "400"),
         "e^(s*p) = e^(-800) underflows"),
    ],
)
def test_exponential_out_of_double_range_is_usage_error(capsys, argv, exponent):
    code, out, err = run_cli(capsys, *argv, "--n", "2", "--seed", "1")
    assert code == 2
    assert exponent in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "kantorovich-matrix", "--count", "1", "--m", "1e-160", "--M", "1e160"),
        ("certify", "kantorovich-matrix", "--count", "1", "--m", "1e-200", "--M", "1e-200"),
        # cosh(M - m) as (e^{2M} + e^{2m}) / (2 e^{M+m}): the sum overflows to
        # inf without raising
        ("certify", "gt-kantorovich-squared", "--count", "1", "--m", "354", "--M", "354.8"),
        ("certify", "bounded-eigen-power", "--count", "1", "--m", "1e-100", "--M", "1e100",
         "--r", "3"),
        ("certify", "bounded-pq", "--count", "1", "--m", "1e-100", "--M", "1e100",
         "--q", "1", "--p", "3"),
        ("certify", "fm-eigen-power", "--count", "1", "--m", "1e-120", "--M", "1", "--r", "3"),
        ("certify", "fm-pq", "--count", "1", "--m", "1e-120", "--M", "1", "--q", "1", "--p", "3"),
        ("constants", "specht", "1e-320"),
        ("constants", "specht-p-root", "1e200", "2"),
        ("constants", "kantorovich", "1e300", "3"),
        ("constants", "specht-p-root", "1e-200", "3"),
        ("certify", "specht-eigen-power", "--count", "1", "--m", "1e-120", "--M", "1e-10",
         "--r", "3"),
        ("certify", "specht-pq", "--count", "1", "--m", "1e-120", "--M", "1e-10",
         "--q", "1", "--p", "3"),
        ("certify", "bounded-power-low", "--m", "1e-300", "--M", "1e300", "--count", "2"),
        ("certify", "specht-eigen-power", "--m", "1e-300", "--M", "1e300", "--count", "2"),
    ],
)
def test_float_overflow_is_usage_error(capsys, argv):
    # Python float ** and math.exp raise OverflowError, and ** underflows to 0
    # silently; exit 1 is kept for a numerical violation, so neither may
    # escape as a traceback or as a non-positive argument
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "double" in err and out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        # the draws' width hi - lo leaves double range, where numpy's uniform
        # raised its bare OverflowError
        (("convergence", "--m=-1.7e308", "--M=1.7e308"),
         "width of the spectral range [-1.7e+308, 1.7e+308] exceeds double range"),
        (("certify", "gt-specht", "--count", "1", "--m=-1e308", "--M=1e308"),
         "width of the spectral range [-1e+308, 1e+308] exceeds double range"),
        # the chain bound e^m underflows, not a range [0.0, e^M] never given
        (("certify", "gt-fm", "--count", "1", "--M=-1", "--m=-800"),
         "e^(m) = e^(-800) underflows to 0 in double precision"),
    ],
)
def test_sampler_range_faults_are_usage_errors(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, fault",
    [
        (("certify", "specht-eigen-power", "--count", "1", "--m", "1e-100", "--M", "1e100",
          "--r", "3"), "exceeds double range"),
        (("certify", "specht-eigen-power", "--count", "2", "--m", "1e-200", "--M", "1e-150",
          "--r", "3"), "underflows to 0 in double precision"),
        (("certify", "bounded-eigen-power", "--count", "2", "--m", "1e-200", "--M", "1e-150",
          "--r", "3"), "underflows to 0 in double precision"),
    ],
)
def test_matrix_power_out_of_double_range_is_usage_error(capsys, argv, fault):
    # Both spectra are positive definite; it is A^3 that leaves double range,
    # and the error says so instead of reporting a non-positive eigenvalue.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert re.fullmatch(rf"error: matrix power X\^3 at eigenvalue \S+ {fault}\n", err)
    assert out == ""


def test_constants_kantorovich_of_a_subnormal_w(capsys):
    code, out, err = run_cli(capsys, "constants", "kantorovich", "1e-320", "0.5")
    assert (code, err) == (0, "")
    assert float(out) == pytest.approx(oracles.kantorovich_mp(1e-320, 0.5), rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("certify", "forward-ando-hiai", "--r", "inf"), "pinned r must be finite, got inf"),
        (("certify", "fm-eigen-power", "--r", "inf"), "pinned r must be finite, got inf"),
        (("certify", "gt-specht", "--p", "inf"), "pinned p must be finite, got inf"),
        (("certify", "gt-fm", "--m", "nan"), "pinned m must be finite, got nan"),
        (("constants", "fm", "2", "0.5", "inf"),
         "fm_factor needs finite arguments, got (2.0, 0.5, inf)"),
        (("constants", "kantorovich-lower-bound", "inf"),
         "Kantorovich lower bound needs finite arguments, got (inf,)"),
    ],
)
def test_non_finite_numbers_are_rejected_by_name(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n" and out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("certify", "fm-pq", "--M", "1.000000001"),
         "error: chain needs M <= 1, got M = 1.000000001\n"),
        (("certify", "gt-fm", "--M", "1e-9"),
         "error: exponential chain needs M <= 0, got M = 1e-09\n"),
    ],
)
def test_a_chain_top_just_past_its_limit_is_usage_error(capsys, argv, message):
    # the certifier's check is the one check of the top: the samplers do
    # not repeat it
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == message and out == ""
    pins = {"M": float(argv[-1])}
    with pytest.raises(BadRangeError):
        certify.run_instances(argv[1], count=1, param_overrides=pins)


def test_jacobi_sweep_cap_is_a_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
    code, out, err = run_cli(capsys, "certify", "gt-specht", "--count", "1", "--seed", "1")
    assert code == 1
    assert err.startswith("numerical failure: Jacobi sweep cap 0 hit") and out == ""


def test_certify_lists_failing_instances(capsys, monkeypatch, one_cpu):
    recipe = certify.RECIPES["gt-fm"]

    def failing(**kwargs):
        return dataclasses.replace(recipe(**kwargs), holds=False)

    monkeypatch.setitem(certify.RECIPES, "gt-fm", failing)
    code, out, _ = run_cli(capsys, "certify", "gt-fm", "--count", "3", "--seed", "1", "--n", "2")
    assert code == 1
    lines = out.splitlines()
    assert "3 VIOLATIONS" in lines[0]
    assert [line.split(":")[0] for line in lines[1:]] == [
        "  instance 0", "  instance 1", "  instance 2",
    ]
    assert all("worst relative margin" in line and "(n=2, mode=" in line for line in lines[1:])


def test_certify_n_cycle_sentinel(capsys, tmp_path):
    target = tmp_path / "cycle.json"
    code, _, _ = run_cli(
        capsys,
        "certify", "fm-pq",
        "--count", "5", "--seed", "6", "--n", "0",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert [rep["n"] for rep in payload["reports"]] == [2, 3, 4, 5, 6]


# ---------------------------------------------------------------------------
# reproduce-remark
# ---------------------------------------------------------------------------


def test_reproduce_remark(capsys):
    code, out, _ = run_cli(capsys, "reproduce-remark")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("alpha=0.5 p=0.5 h=2:")
    assert lines[1].startswith("alpha=0.5 p=0.5 h=8:")
    assert lines[2] == "reproduction: OK"
    diff_h2 = float(lines[0].split("difference = ")[1].split(" ")[0])
    assert abs(diff_h2 - oracles.REMARK_DIFF_H2) < 1e-12


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------


def test_convergence_default_table(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--seed", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["p", "k", "lhs", "rhs", "gap"]
    assert len(rows) == 1 + 7 * 4  # default powers x default n
    finals = [float(r[4]) for r in rows[1:] if float(r[0]) == 1e-4]
    assert finals and max(abs(g) for g in finals) <= 1e-3


def test_convergence_kantorovich_route_and_custom_powers(capsys):
    code, out, _ = run_cli(
        capsys,
        "convergence", "kantorovich",
        "--n", "3", "--p", "1.0", "--p", "0.1", "--seed", "5",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 2 * 3
    gaps = [float(r[4]) for r in rows[1:]]
    assert all(g >= -1e-9 for g in gaps)


def test_convergence_bad_power_sequence_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "convergence", "--p", "0.1", "--p", "1.0", "--seed", "0"
    )
    assert code == 2


def test_convergence_out_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "convergence", "--seed", "0", "--p", "1.0", "--out", str(target)
    )
    assert code == 0
    assert target.read_text().startswith("p,k,lhs,rhs,gap")


def test_convergence_takes_no_format_flag(capsys):
    # the table is always CSV; a --format would be silently ignored, and
    # without a kind the error still names --format, not the stray "json"
    for kind in (["specht"], []):
        argv = ["convergence", *kind, "--format", "json"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, n, commuting", freeze.TABLES,
    ids=[f"{k}-n{n}-{'commuting' if c else 'general'}" for k, n, c in freeze.TABLES],
)
def test_convergence_table_bytes_are_frozen(pinned_digests, kind, n, commuting):
    command = freeze.table(kind, n, commuting)
    assert pinned_digests[command] == FROZEN_DIGESTS[command]


def test_convergence_rejects_unknown_factor_kind(capsys):
    code, _, err = run_cli(capsys, "convergence", "wrong-kind")
    assert code == 2
    assert "'wrong-kind'" in err


# ---------------------------------------------------------------------------
# one cycle of the benchmark workloads' calls
# ---------------------------------------------------------------------------


#: The ids in the benchmark's order, the registry's when its reference was
#: frozen: each "-pq" row before its "-power-low" row.
_WORKLOAD_IDS = (
    "bounded-eigen-power", "bounded-pq", "bounded-power-low", "fm-eigen-power", "fm-pq",
    "fm-power-low", "forward-ando-hiai", "forward-gt-trace", "forward-mean-norm",
    "gt-bounded-specht", "gt-fm", "gt-kantorovich", "gt-kantorovich-bounded",
    "gt-kantorovich-squared", "gt-specht", "gt-specht-norm", "gt-specht-norm-squared",
    "kantorovich-matrix", "specht-eigen-power", "specht-pq", "specht-power-low",
)


def _workload_cycle(workload: str, out: pathlib.Path) -> list[list[str]]:
    """The CLI calls of one cycle of a benchmark workload at CLI seed 1, as
    its harness makes them: every id at n = 2..6 with 5 to 15 instances
    (csv), every id at n = 16 with 1 to 3 (json), or the specht and
    kantorovich tables at n = 2..6, general and commuting."""
    if workload == "convergence":
        return [
            ["convergence", kind, "--n", str(n), "--seed", "1", "--out", str(out), *commuting]
            for kind in ("specht", "kantorovich")
            for n in range(2, 7)
            for commuting in ([], ["--commuting"])
        ]
    if workload == "sweep-cycle":
        n, fmt, counts = 0, "csv", [range(5, 16)[(5 + 3 * i) % 11] for i in range(21)]
    else:
        n, fmt, counts = 16, "json", [(1, 2, 3)[(1 + i) % 3] for i in range(21)]
    return [
        ["certify", inequality_id, "--n", str(n), "--count", str(count), "--seed", "1",
         "--format", fmt, "--out", str(out)]
        for inequality_id, count in zip(_WORKLOAD_IDS, counts, strict=True)
    ]


@pytest.mark.parametrize("workload", ["sweep-cycle", "sweep-n16", "convergence"])
def test_the_spectral_cache_hits_on_every_workload(capsys, tmp_path, one_cpu, workload):
    for argv in _workload_cycle(workload, tmp_path / "report"):
        assert main(argv) == 0
    capsys.readouterr()
    assert sorted(_WORKLOAD_IDS) == sorted(INEQUALITY_IDS)
    tally = linalg._CACHE.tally
    # rows that share draws solve the same matrices: no hit means the key
    # or the bypass rule stopped matching them (233, 27 and 150 hits)
    assert tally["hits"] > 0
    # a hit that reads eigenvectors before any decomposition of its key has
    # built them solves the key again, for the cache holds no rotation log
    # (5, 0 and 0 re-solves)
    assert tally["resolves"] <= 0.05 * tally["hits"]


def test_arrays_are_checked_in_full_only_where_they_enter(capsys, tmp_path, monkeypatch, one_cpu):
    # one full check per sampled operand, at most two per instance (1.972):
    # an internal result checked as if it came from a caller would add more
    checks = []

    def counted(check):
        def call(*args):
            checks.append(check.__name__)
            return check(*args)

        return call

    for name in ("_checked_entries", "_check_spectrum"):
        monkeypatch.setattr(linalg, name, counted(getattr(linalg, name)))
    instances = 0
    for argv in _workload_cycle("sweep-cycle", tmp_path / "report.csv"):
        assert main(argv) == 0
        instances += int(argv[argv.index("--count") + 1])
    capsys.readouterr()
    assert instances == 213 and 0 < len(checks) <= 2 * instances


# ---------------------------------------------------------------------------
# top level
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["celebrate"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("constants", "specht", "2"),
        ("certify", "gt-specht", "--count", "2"),
        ("convergence", "--p", "1.0"),
    ],
    ids=["constants", "certify", "convergence"],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    # exit 1 is kept for a numerical violation; a path that cannot be
    # written is a usage error, reported without a traceback
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert out == ""


def test_a_failed_fork_is_not_reported_as_a_write_error(capsys, monkeypatch):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep forks only with two CPUs or more")

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(BlockingIOError):
        main(["certify", "gt-specht", "--count", "4", "--seed", "1"])
    assert capsys.readouterr().err == ""


def test_console_script_is_cli_main():
    # the README's examples run the golden-bounds console script
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["golden-bounds"]
    assert target == "golden_bounds.cli:main"
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
