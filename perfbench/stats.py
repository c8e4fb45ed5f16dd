"""Small, dependency-free statistics used by the benchmark.

Kept apart from the runner so the rules the report depends on (which
percentile may be reported, how backlog is counted, how run-to-run
spread is measured) are unit-tested on their own.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_TAIL_SAMPLES = 10
"""A reported percentile needs at least this many samples beyond it."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` sorted samples come after the position of
    the nearest-rank ``q``-th percentile."""
    if count <= 0:
        return 0
    rank = max(1, math.ceil(q / 100.0 * count))
    return count - rank


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty sequence.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it: a tail figure resting on a handful of
    samples is noise, so the run must report a lower percentile or
    collect more samples instead.
    """
    count = len(sorted_values)
    if count == 0:
        raise ValueError("percentile of no samples")
    beyond = samples_beyond(count, q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {count} samples has only {beyond} beyond it "
            f"(need {MIN_TAIL_SAMPLES})"
        )
    rank = max(1, math.ceil(q / 100.0 * count))
    return float(sorted_values[rank - 1])


def spotify_scheduled_ops(
    schedule: Sequence[float],
    interval_ms: float,
    duration_ms: float,
    clients: int,
) -> int:
    """Ops the Spotify generator owes over ``duration_ms`` in total.

    Mirrors the generator's per-client bookkeeping: every client adds
    ``target / clients`` to what it owes at the start of each second
    and owes one op for each whole unit, using the same float steps,
    so a generator that kept up issues exactly this many.
    """
    owed = 0.0
    per_client = 0
    seconds = math.ceil(duration_ms / 1_000.0)
    for second in range(seconds):
        start_ms = second * 1_000.0
        index = min(int(start_ms // interval_ms), len(schedule) - 1)
        owed += schedule[index] / clients
        while owed >= 1.0:
            owed -= 1.0
            per_client += 1
    return per_client * clients


def backlog_frac(scheduled: int, issued: int) -> float:
    """Share of scheduled ops not yet issued when the run ended."""
    if scheduled <= 0:
        return 0.0
    return max(0, scheduled - issued) / scheduled


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``, exclusive method)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0
