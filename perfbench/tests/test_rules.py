"""Tests for the benchmark's summary rules and its tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import MIN_CALLS  # noqa: E402
from stats import (  # noqa: E402
    percentile,
    samples_beyond,
    scale_to_reference,
    self_times,
    tail_percentile,
)
from tracing import JACOBI, Tracer, TraceError  # noqa: E402


def test_self_time_counts_overlapping_children_once():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap on [3, 4]
    selfs = self_times([0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0])
    assert selfs[0] == pytest.approx(5.0)  # not 10 - 3 - 3 = 4
    assert selfs[1:] == pytest.approx([3.0, 3.0])


def test_self_time_ignores_grandchildren_and_clips_children():
    # child [2, 12] runs past its parent [0, 10]; grandchild [3, 4] is the child's
    selfs = self_times([0.0, 2.0, 3.0], [10.0, 12.0, 4.0], [-1, 0, 1])
    assert selfs == pytest.approx([2.0, 9.0, 1.0])


def test_self_time_of_duplicate_children_is_not_negative():
    selfs = self_times([0.0, 2.0, 2.0], [4.0, 3.0, 3.0], [-1, 0, 0])
    assert selfs[0] == pytest.approx(3.0)


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_has_ten_samples_beyond(count, expected):
    samples = list(range(1, count + 1))
    pct, value, n = tail_percentile(samples)
    assert (pct, n) == (expected, count)
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)))


def test_runs_make_enough_calls_for_p90():
    assert samples_beyond(MIN_CALLS, 900) == 10
    assert samples_beyond(MIN_CALLS - 1, 900) < 10
    assert percentile(list(range(1, 101)), 900) == 90


def test_scaling_uses_the_calibrations_around_each_stretch():
    calibrations = [(0, 1.0), (2, 3.0), (3, 2.0)]
    scaled = scale_to_reference([1.0, 2.0, 4.0], calibrations, reference_s=2.0)
    assert scaled == pytest.approx([1.0, 2.0, 4.0 * 2.0 / 2.5])
    with pytest.raises(ValueError):
        scale_to_reference([1.0, 2.0, 4.0], calibrations[:2], reference_s=2.0)


def test_every_layer_metric_has_a_prediction():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())["metrics"]
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for entry in layers.values():
        assert set(entry["applies"]) <= workloads
        assert set(entry.get("unchanged_on", ())) <= workloads
        for workload, moved in entry["moves"].items():
            assert workload in workloads and set(moved) <= end_to_end


def test_tracer_wraps_imported_names_and_restores_them(tmp_path):
    from golden_bounds import certify, cli, linalg, means

    original = (linalg._jacobi, means.power, certify.RECIPES["gt-specht"])
    tracer = Tracer()
    try:
        tracer.install()
        assert means.power is not original[1]  # bound by ``from .linalg import power``
        code = cli.main(["convergence", "specht", "--n", "2", "--out", str(tmp_path / "t.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (linalg._jacobi, means.power, certify.RECIPES["gt-specht"]) == original
    counts = tracer.counts()
    assert counts[JACOBI] == counts[f"{JACOBI}@2"] == 15
    tracer.require(["cli.main", "means.*", JACOBI])
    with pytest.raises(TraceError):
        tracer.require(["orders.*"])


def test_tracer_fails_loudly_on_a_missing_boundary(monkeypatch):
    from golden_bounds import cli, linalg  # noqa: F401  install needs every layer imported

    monkeypatch.delattr(linalg, "_jacobi")
    with pytest.raises(TraceError, match="_jacobi"):
        Tracer().install()
