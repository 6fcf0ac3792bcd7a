"""Command-line interface: exit codes, formats, seeding, determinism."""

import csv
import dataclasses
import errno
import hashlib
import importlib
import io
import json
import os
import pathlib
import tomllib

import pytest

from golden_bounds import certify, cli, linalg
from golden_bounds.certify import INEQUALITY_IDS
from golden_bounds.cli import main
from golden_bounds.errors import BadRangeError

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


#: sha256 of ``certify <id> --n 0 --count 20 --seed 7 --format {csv,json}``
#: report files: the byte contract a refactor of the certifiers keeps.
#: Frozen with numpy 2.4.6 on x86-64 OpenBLAS with numpy's default CPU
#: dispatch; numpy ``@`` runs on the host BLAS, and numpy's complex multiply
#: uses fused multiply-adds on X86_V3/V4 CPUs, so another BLAS build or CPU
#: may move the last bits of a margin.
REPORT_SHA256 = {
    "bounded-eigen-power": (
        "f5b41f5c5b136ebaac92e0f2d1e360a92b8b7bd2a5acd9191965dbab6c4d57b8",
        "924d526ab554377a0ea454bf9667e75b8a4203abe89713fc7da674cc4400bf65",
    ),
    "bounded-power-low": (
        "b45b298e71bc86b02832b2a63378f38a727398be53eda8f903acb65c4ed4eae2",
        "a3b14fa3858f11a234d2c40941a5ec7b41adf5a20e3b10da1f1e1a748d7e31da",
    ),
    "bounded-pq": (
        "8785628589ac216d5a1ab8ab3e43d713615b91ee62528158b6ea88661540d999",
        "8408fccb012088e12143177fe2753795790a6e4cf97d26975857b7ef770cfa96",
    ),
    "fm-eigen-power": (
        "a3126a2beb656505cef553a2ea2c398f2273ecc35568747a8cb762107a1a9c64",
        "775961f0587e5428efceffbe273e6eb73bd0c06293eeed5c997c20ee5e4a6eee",
    ),
    "fm-power-low": (
        "2650088308fc72869f3b50e6ccae07985cc235131319e16e00881a7884fdb115",
        "b0384ae12311e6c377ec098f125f9ec25f54a781e94c441b540135cef366e9d6",
    ),
    "fm-pq": (
        "ce0ecab53e4376ea16aba7e7826eb7c20fbc05b0212167702c9e03bbe429953b",
        "39338170dbac4b290276f55bc5ce528071296bb5e8fa6ca3905552cd07895765",
    ),
    "forward-ando-hiai": (
        "5b7e8b289fcff97949274cb059e0bb0c7c4abd421fc7d09c460469232828d0b7",
        "6f4d1442efe0eb79dfb2eec5847d2948ab7f741ad6a34f8afa479bc4ff587d6a",
    ),
    "forward-gt-trace": (
        "bcccf064845f31519f0613863fb5f52683a4c0405a6c45969beb0cfcf0619056",
        "45c788d4292757c93d078117a54c73279c4483c3d8906a430f3052472588f9c1",
    ),
    "forward-mean-norm": (
        "88d0d34a60eb93b2b4be14a6efaf5a382806be286687afc3766c9d2163d2bc34",
        "bb8b8e4392524c9b9c1677580a7e8584e32c4598a832b2a6b8c0066fd8f687c4",
    ),
    "gt-bounded-specht": (
        "259a42c4a108a3b0a31dc52988dea928ac06a58c4b967b2f2a7c5bca755e7127",
        "06548328dee51de059c453553b1073a33a7ad756366f349e1cbd685570f741d1",
    ),
    "gt-fm": (
        "69ea8255b8aa4210955eb086862a4c72bf5ac0aeb2b995374edc981fbedecdf5",
        "9e13a1c3daf97bbbe4ad47d331b94006214fbf39ec5554b0c05d2a37147a279e",
    ),
    "gt-kantorovich": (
        "7fc89b5652d5819d20617d76b0e0e508767c1db04020716f893e538d9ca18212",
        "6d969a9991273c507ebb54913d323927da3f0246d0dc4c60389b3156d5e8c7ef",
    ),
    "gt-kantorovich-bounded": (
        "c2f792fb2fc71b90a3bc74076a9b974dc66ab9608024ca7bd3125bd128fc0c66",
        "ba28932822b7e519f008c4d9c88152fac4d58819ba85b8700b2a5efd07b8c7db",
    ),
    "gt-kantorovich-squared": (
        "a9d7ebf8896da17fff1cddcee189a2dea2c740f0665e1632dc521de29dcc893d",
        "b1eb3514e5d20c46b24ec511532e4980fa27adc64afa2eba409a45acca52db9d",
    ),
    "gt-specht": (
        "46fa1770c580e546e64f5f79fdccfa15e4ae1010e0357963bd0385f851180d0d",
        "1c8598ffb7f90e3187375e97ab278ea51ef337007f30607dffad1f45ca88c221",
    ),
    "gt-specht-norm": (
        "fb0fa2bbd5625b0e7e29b742491f2be243b06dbbd2756ff63154cac70edf23cc",
        "0f54977b6469ecf4f4b8246967021a6b5587b2782735004484133bd6fb50edd6",
    ),
    "gt-specht-norm-squared": (
        "97e915c94d5cd1b5f17a7dd24a93135cf295962be5104b8a478c581776b14754",
        "44d1a2041548ef36a89e9f939a27394ab614c7b068405bbf2ed97e8a672a6233",
    ),
    "kantorovich-matrix": (
        "51d244f876e0b73e58435b2b99a7cbc7339f9cbc5b39cfb653b3c1bb043ef2d9",
        "c7cf47294f8e3498b5f8cda23ff50cac295ae6cd0594c49f090fa5159535ce46",
    ),
    "specht-eigen-power": (
        "92ae67d3ff8568c8442d7dd60fea3f9d5f45eb4e41b521dfa93c326d6fe694f5",
        "2c332f2d1177a925b3d08b33ecd508374cfaf003dff5a3c7b70cf7ae3a0986c6",
    ),
    "specht-power-low": (
        "301f663aae397ac44cf7542193d5e364a46df232e216c8c3d722f089e853c31a",
        "c91993ec3c32e9246edfed85f19b2bf6f60e3128ea124a8db1b2082737be067f",
    ),
    "specht-pq": (
        "23d73a9b37a4dba69517cd580415b6ce677f072c8f4752ba9ad8de50653f8a8b",
        "8191b648aede40b567719b461a73e57002e98ef4bab2f0ad9654c0ca2520f001",
    ),
}


def test_report_digest_table_covers_every_id():
    assert sorted(REPORT_SHA256) == sorted(INEQUALITY_IDS)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("inequality_id", sorted(REPORT_SHA256))
def test_certify_report_bytes_are_frozen(capsys, tmp_path, inequality_id, fmt):
    target = tmp_path / f"report.{fmt}"
    code, _, _ = run_cli(
        capsys,
        "certify", inequality_id, "--n", "0", "--count", "20", "--seed", "7",
        "--format", fmt, "--out", str(target),
    )
    assert code == 0
    expected = REPORT_SHA256[inequality_id][0 if fmt == "csv" else 1]
    assert hashlib.sha256(target.read_bytes()).hexdigest() == expected


#: sha256 of ``certify <id> --n 16 --count 3 --seed 7 --format json``
#: report files, frozen with the round-robin Jacobi kernel (n >= 9): a 2-CPU
#: host certifies the third instance as two sides in two processes, and
#: under ``taskset -c 0`` all three run in one process, so both paths are
#: pinned.  Frozen like REPORT_SHA256, and like it, the 12 convergence
#: digests and these before the round-robin kernel, specific to the BLAS
#: kernel and numpy CPU dispatch of the host they were frozen on (OpenBLAS's
#: SkylakeX kernel, numpy's X86_V4 loops): all 75 read differently under
#: OPENBLAS_CORETYPE=Haswell, and 71 with numpy's X86_V4 loops disabled.
N16_REPORT_SHA256 = {
    "bounded-eigen-power": "3f76bc0b4581c215bf4b9a63df25d7615d41e53b57c31ca46601d1db5b16b72b",
    "bounded-power-low": "0b29aaa54ee5463581352e11272755c6cfebf3156b4a2cef73769e7be5295066",
    "bounded-pq": "fb52263916c0bb03d0b54d0548ec25372d92ffd3fa37a4486faa3a4e30a03d6e",
    "fm-eigen-power": "6b1c2d1b299386714ec7aef5d5511db695306aa68335069fce5c95c5eade608a",
    "fm-power-low": "4fb316e91431ff42ce3b94f35e4e793b3a2da1823706517fdaf60e753f24469a",
    "fm-pq": "6ec8aa5ef3a6bf65b90990660edaf0aa7b9576befa9557fe7cbf2946bf1e68f6",
    "forward-ando-hiai": "7ade67b7b5629db51ad148cddf99ba2392b6839f47bbb087ebd9ec9749f2f590",
    "forward-gt-trace": "1fead8c3dd12f354b9cdfef841ee3f85f93338a89b085c54dd71c040c5ae0d1c",
    "forward-mean-norm": "b1ac43f58a614fb018e1c5321952e7c129760bcd9895d4486f16002fba1818b7",
    "gt-bounded-specht": "cf2a28ca961b2437ca21e8eaf37e28128c2c27d3c11e4236de9716eac1c9d556",
    "gt-fm": "10471b7a0bd4aab8b3fcfee8e371c3c70ebc3aa37577f4b49de1b363216e4a1a",
    "gt-kantorovich": "bd4fd7eef0c603803026472bc7a9487aece65b9ba6afa07d332ba1752d1a0d69",
    "gt-kantorovich-bounded": "225861e1bd306b50a816773d5845b71093ca922a77f46ca7c4d6e4cde14f4ced",
    "gt-kantorovich-squared": "bcf026351ad33262bdb316aa2e11130fbde777ca4f74dda32ce20164e9ca77f8",
    "gt-specht": "aac7085a4c65a266e1a855014456281561a3289fc1fb04009d529e7c9d45e12a",
    "gt-specht-norm": "9a0bd9ed67d088f70ddc9552548f1ba3d59ac36df2f200fb611ae1f5fe42690f",
    "gt-specht-norm-squared": "da83a638830b0446277e0bf67df74ee54f417a02834eb3780348116502ae5cd8",
    "kantorovich-matrix": "623a34f7cd3be98d031bb2e41e6958f0674f1850e88ac7001c20721237e1eb36",
    "specht-eigen-power": "42ed9c01495b61f0c25607ede1ddb232004ea27a5b9a7537c73467cbfde3fea8",
    "specht-power-low": "6110b20d93adeb934cc30417476ea27d04eadc2340818a44b119cf95b4ba73f5",
    "specht-pq": "9c3ba8e15b511df6a29f6237028d74cc9dfa2cd18f2c7e28c6c21c5f3e7ec2e1",
}


@pytest.mark.parametrize("inequality_id", sorted(N16_REPORT_SHA256))
def test_certify_n16_report_bytes_are_frozen(capsys, tmp_path, inequality_id):
    assert sorted(N16_REPORT_SHA256) == sorted(INEQUALITY_IDS)
    target = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys,
        "certify", inequality_id, "--n", "16", "--count", "3", "--seed", "7",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == N16_REPORT_SHA256[inequality_id]


#: Relative margins of the same reports, frozen from the numpy-array Jacobi
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
         "e^(2M) = e^(800) overflows"),
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
        (("certify", "specht-eigen-power", "--count", "1", "--m", "1e-100", "--M", "1e100",
          "--r", "3"), "error: matrix power X^3 exceeds double range at eigenvalue "),
        (("certify", "specht-eigen-power", "--count", "2", "--m", "1e-200", "--M", "1e-150",
          "--r", "3"), "error: matrix power X^3 underflows to 0 in double precision at eigenvalue "),
        (("certify", "bounded-eigen-power", "--count", "2", "--m", "1e-200", "--M", "1e-150",
          "--r", "3"), "error: matrix power X^3 underflows to 0 in double precision at eigenvalue "),
    ],
)
def test_matrix_power_out_of_double_range_is_usage_error(capsys, argv, message):
    # Both spectra are positive definite; it is A^3 that leaves double range,
    # and the error says so instead of reporting a non-positive eigenvalue.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith(message) and out == ""


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


#: sha256 of ``convergence <kind> --n <n> [--commuting] --seed 7`` table
#: files, frozen on one process before tables were split over the sweep
#: workers: the split keeps them byte for byte.  Frozen like REPORT_SHA256.
CONVERGENCE_SHA256 = {
    ("specht", 2, False): "1bec187fe8389fc1b1f8fac8f648d1d608ddc0b65dd2940998512b3e7dfdfa4e",
    ("specht", 2, True): "ef7476883897cfb6d2c62d456281ebddde567637865c8764b5a240ae7314aa83",
    ("specht", 4, False): "05a8c35005ffabc2f2d092ac021a7809868cb455ed25e497b88e32fa00fb47d8",
    ("specht", 4, True): "53f5de8b9344b49850cc9233907acaf140484dc94838411d31d196efdfad9040",
    ("specht", 6, False): "9891e28cede0493d42b862da75805803b5b9a9a039cff44aa6ebcd4670ef16e3",
    ("specht", 6, True): "74213b980b0139484d6768debb5d3324ad5e0ffcae283d5f18a7c42f87056f0d",
    ("kantorovich", 2, False): "b9c5957c98a62c0b19483c41ee5596ccdc458816d15760e6c1340a1332044ef1",
    ("kantorovich", 2, True): "7a9f48c6e3b396428b13a171209c57e1a4e2b2bcbeac758246b67d168f87db08",
    ("kantorovich", 4, False): "6f4b0ab2809c1322f3ce0c0f53915bd0dadf287f5a385024ea70faeeb3561024",
    ("kantorovich", 4, True): "d08a285e43f3b8d44fcc6ad5f8a8f09fde1e59d79b3259f917e42eecb3ae95f6",
    ("kantorovich", 6, False): "781ebc7a926ec58e8ff3a6ae63d8a1f16aab08864a0a881ee9764c3e4e03e832",
    ("kantorovich", 6, True): "fd1462c1da473cda91ee1b9c65459075bccc01cb41dbe603e66fa5157d8ddbf5",
}


@pytest.mark.parametrize(
    "kind, n, commuting", sorted(CONVERGENCE_SHA256),
    ids=[f"{k}-n{n}-{'commuting' if c else 'general'}" for k, n, c in sorted(CONVERGENCE_SHA256)],
)
def test_convergence_table_bytes_are_frozen(capsys, tmp_path, kind, n, commuting):
    target = tmp_path / "table.csv"
    flags = ["--commuting"] if commuting else []
    code, _, _ = run_cli(
        capsys, "convergence", kind, "--n", str(n), *flags, "--seed", "7", "--out", str(target)
    )
    assert code == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == CONVERGENCE_SHA256[kind, n, commuting]


def test_convergence_rejects_unknown_factor_kind(capsys):
    code, _, err = run_cli(capsys, "convergence", "wrong-kind")
    assert code == 2
    assert "'wrong-kind'" in err


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
