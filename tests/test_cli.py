"""Command-line interface: exit codes, formats, seeding, determinism."""

import csv
import hashlib
import io
import json

import pytest

from golden_bounds.certify import INEQUALITY_IDS
from golden_bounds.cli import SEED_ENV_VAR, main

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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_certify_rejects_bad_tolerance(capsys, tol):
    # A NaN tolerance flags every instance, inf certifies anything and a
    # negative one fails instances whose margins are positive.
    code, out, err = run_cli(capsys, "certify", "gt-specht", "--count", "3", "--tol", tol)
    assert code == 2
    assert "tolerance" in err and out == ""


#: sha256 of ``certify <id> --n 0 --count 20 --seed 7 --format {csv,json}``
#: report files: the byte contract a refactor of the certifiers keeps.
#: Frozen with numpy 2.4.6 on x86-64 OpenBLAS; numpy ``@`` runs on the host
#: BLAS, so another BLAS build may move the last bits of a margin.
REPORT_SHA256 = {
    "bounded-eigen-power": (
        "1754a10d4e5e279c0f8a59cf308df1df427f410a9e14c723e6a477cbc9d92660",
        "55c9c988a8620d827d0a112c1453e0cb7c6c0e06e66aec11de0f04a824ba85ed",
    ),
    "bounded-power-low": (
        "73dfa6ec2b1a92399cea654defe2180dd0afe009249f814ae9718b449d7ab995",
        "cdd95c66e03644736af3c48537b63d10fe94fb49fe06855257728d19e91d73de",
    ),
    "bounded-pq": (
        "7eab5df7826b9f4ce869c355f4ca817e698dcb37c6dfd965b851d22fc2cc7b30",
        "9c1ffe88c751f2c4bce44588ce752033ea3fb708ec0fdfe1942179acc92a8402",
    ),
    "fm-eigen-power": (
        "ff0638dd4294edfbf1f76deb63938882b36f04159bdaf827f20f3c89adb30338",
        "125d913149a310c875c74c9688d91c5ef4cf6034e0186a7d08a3433d936c44d0",
    ),
    "fm-power-low": (
        "5a051cd6e5180d67e9830a4e8b65f225e3c2bc341bf4d3bd80cb381b785dc144",
        "516fb1e8468febd181af974171e94174e643c6e61b4550ac9b43efe2c8de5f0d",
    ),
    "fm-pq": (
        "bc16ba0aef1fcbf0b718ed6d6c829ee3899c6f36a53da26f5e908a925b976c6e",
        "046b9000351383cf31569c04039934157cd646ec215fc00486e75c43db0154e4",
    ),
    "forward-ando-hiai": (
        "3b5c882fdbb390f80ec680596911ef5ecbeb5c8a9bf993ff7328be20f0a59091",
        "9b022d4acd555e44a90c664e765214888107a350be6dfd3f7059e2d26c05f5f9",
    ),
    "forward-gt-trace": (
        "c2aac933b08b39996748e4c976bd7b9320d454b91fcc201433aae8f953b6e489",
        "22eb648076aafc9b867a2bb8655fda8923350e5ea2a1f9683d6fb77a181d6432",
    ),
    "forward-mean-norm": (
        "53123084988f997abb3612160b52cb23268356363929ec896c24ae1f427a6104",
        "789e55239d059f8690a13124d832bd8d6f91b9c5a8d22ccea5da221192eeb63b",
    ),
    "gt-bounded-specht": (
        "c9442cdbdedc001008764f233d2d26a20e9d41ee71d624bbf8dad75c9260ddd8",
        "3afcd98f5a03598a67238980bd5230c2b58fd54bbd94c9668b022f8bbc6b18e8",
    ),
    "gt-fm": (
        "a7a093b812d77a603d7b3dcaf2bbb39372816a0330e0ad3064b1da4964de1b2b",
        "d635e99940f7b806599b87fc12fafe9a05fe5c4e4d79efbaf0e10b9dfff24d8a",
    ),
    "gt-kantorovich": (
        "697c75c720817436a739038ed2fb4aed019c9df2c0a48bb11c10e67b42af0cdf",
        "920331a16be73eb88b12a3750adcb7db5897c372f780e78dabc174bc4788fcfa",
    ),
    "gt-kantorovich-bounded": (
        "ff5dae259eb1cdf86bff34bc962be03820738731fa1683820aab0fd89d697e0f",
        "12696415a34911fa4f63a0e91129f745644ce950fc4599edb7315ee49fcbe109",
    ),
    "gt-kantorovich-squared": (
        "74a32cfff18b9d8db7309dd79ade7f192123a62cdb2c00efa57362ec289e3b91",
        "a51afb1aa4bd650133a2703dba35f2426459e96733825a8c45cf18a5e0af7202",
    ),
    "gt-specht": (
        "eebbd2a41f612b34b36728727a8ed8daf9bc93d8fb2a9037b4886998ebd6ae3e",
        "ad4f8d3d778166dcc74e223ff487fe1b693cce1a816623d340cb6155bd67fa00",
    ),
    "gt-specht-norm": (
        "c9c12df91fe6d66e8db6ccbc97bcad6e564dc62475dd4f3a20f7152d2ef2416f",
        "6c5fb2cf3bb2caa152cbdf6f279b31e0fd80a2421de4a95d07072d9be3066d38",
    ),
    "gt-specht-norm-squared": (
        "f4562833bfa6a9d9674b1986c80ae141a7ada0189a2142f9d750ee32db733c38",
        "f1bb54801c2abda1b99483c6ba806e4576e3b5aceda7e7016b62446c66ad76b2",
    ),
    "kantorovich-matrix": (
        "894cc055d4f958e27a66786d313c75026eeac55513aa7ea35a4f97b3e01a91d4",
        "21466795b8c570401325b01c5110ed9ee92724e3c4fa22d96a2ffe344ea94b97",
    ),
    "specht-eigen-power": (
        "77390dac115a11285c81c31fec1d2ca5679f96366532c92a84b9eb55b00e798b",
        "b0e83a4980706b89797385fbe3b193ef0d8ba7d330cd3e609b69a504d013e307",
    ),
    "specht-power-low": (
        "1d64d45801f72b6eb606b67ae9418864e9f1c9d3c1f5811511c1255cdbae3d41",
        "9c0547ba93f9543801420dea2dfffbebf032da460119dfd81ef652412c07163e",
    ),
    "specht-pq": (
        "c47bab5d30a3b784caca39877e637f23f86b94f9b2af23ae32e23f8605211e29",
        "511547cb8d096f7412827737657c6113476c23f638ce41400c8858cfeea38043",
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


def test_certify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "11")
    code_env, out_env, _ = run_cli(capsys, "certify", "gt-fm", "--count", "1")
    monkeypatch.delenv(SEED_ENV_VAR)
    code_flag, out_flag, _ = run_cli(
        capsys, "certify", "gt-fm", "--count", "1", "--seed", "11"
    )
    assert code_env == code_flag == 0
    assert out_env == out_flag


def test_certify_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "11")
    _, out_flag, _ = run_cli(
        capsys, "certify", "gt-fm", "--count", "1", "--seed", "12"
    )
    monkeypatch.delenv(SEED_ENV_VAR)
    _, out_direct, _ = run_cli(
        capsys, "certify", "gt-fm", "--count", "1", "--seed", "12"
    )
    assert out_flag == out_direct


def test_bad_environment_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    code, _, err = run_cli(capsys, "certify", "gt-fm", "--count", "1")
    assert code == 2
    assert SEED_ENV_VAR in err


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


def test_convergence_rejects_unknown_factor_kind(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["convergence", "wrong-kind"])
    assert excinfo.value.code == 2
    capsys.readouterr()


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
