"""The two summary rules the benchmark reports with.

* Percentiles are nearest-rank, and a timing is reported at the highest
  percentile that still has at least ten samples beyond it, together with
  the sample count.
* A span's self time is its duration minus the part of its interval that its
  child spans cover; children that overlap are counted once.
* Call times are scaled to a reference machine speed by a calibration loop
  timed before and after each stretch of calls.
"""

from __future__ import annotations

#: Candidate tail percentiles, in tenths of a percent so ranks stay integers.
TAIL_PERMILLES = (500, 900, 990, 999)
TAIL_MIN_BEYOND = 10


def percentile(samples, permille: int) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    permille/1000 of the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, -(-len(ordered) * permille // 1000))
    return ordered[rank - 1]


def samples_beyond(count: int, permille: int) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, -(-count * permille // 1000))


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, sample count) at the highest percentile in
    TAIL_PERMILLES with at least ten samples beyond it.

    Raises ValueError when even the median lacks ten samples beyond it.
    """
    count = len(samples)
    eligible = [p for p in TAIL_PERMILLES if samples_beyond(count, p) >= TAIL_MIN_BEYOND]
    if not eligible:
        raise ValueError(
            f"{count} samples leave fewer than {TAIL_MIN_BEYOND} beyond the median"
        )
    best = max(eligible)
    return best / 10.0, percentile(samples, best), count


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: duration minus the union of its children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index], ends[index]))
    return [
        (end - start) - covered_length(children.get(index, ()), start, end)
        for index, (start, end) in enumerate(zip(starts, ends))
    ]


def scale_to_reference(seconds, calibrations, reference_s: float) -> list[float]:
    """Scale call times to the speed at which the calibration loop takes
    ``reference_s``.

    ``calibrations`` holds (calls done, loop seconds) pairs in call order,
    starting at 0 and ending at len(seconds).  The calls between two
    calibrations are scaled by reference_s over the mean of those two.
    """
    if calibrations[0][0] != 0 or calibrations[-1][0] != len(seconds):
        raise ValueError("calibrations must bracket every call")
    scaled: list[float] = []
    for (lo, before), (hi, after) in zip(calibrations, calibrations[1:]):
        factor = 2.0 * reference_s / (before + after)
        scaled.extend(s * factor for s in seconds[lo:hi])
    return scaled
