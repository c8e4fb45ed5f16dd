"""The percentile rule, run-to-run spread and the Spotify backlog count."""

from types import SimpleNamespace

import pytest

from stats import (
    MIN_TAIL_SAMPLES,
    backlog_frac,
    percentile,
    quartile_spread,
    samples_beyond,
    spotify_scheduled_ops,
)


def test_samples_beyond_nearest_rank():
    assert samples_beyond(100, 50) == 50
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9  # rank ceil(989.01) = 990
    assert samples_beyond(0, 99) == 0


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0


@pytest.mark.parametrize("count", [1000, 1500, 4096])
def test_p99_reported_with_ten_samples_beyond(count):
    values = [float(v) for v in range(count)]
    value = percentile(values, 99)
    assert sum(1 for v in values if v > value) >= MIN_TAIL_SAMPLES


@pytest.mark.parametrize("count, q", [(999, 99), (100, 95), (19, 50), (5000, 99.9)])
def test_percentile_refuses_thin_tails(count, q):
    with pytest.raises(ValueError, match="beyond"):
        percentile([float(v) for v in range(count)], q)


def test_percentile_of_nothing():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    # statistics.quantiles (exclusive) of 1..9: q1 = 2.5, q3 = 7.5.
    assert quartile_spread([float(v) for v in range(1, 10)]) == pytest.approx(5.0 / 5.0)


def test_backlog_frac():
    assert backlog_frac(1000, 1000) == 0.0
    assert backlog_frac(1000, 900) == pytest.approx(0.1)
    # Issuing more than scheduled is no backlog.
    assert backlog_frac(1000, 1128) == 0.0
    assert backlog_frac(0, 0) == 0.0


def test_scheduled_ops_counts_whole_ops_per_client():
    # 3 clients, 10 ops/s for 2 s: each owes 3.33.. then 6.66.. -> 6.
    assert spotify_scheduled_ops([10.0, 10.0], 1_000.0, 2_000.0, 3) == 18
    # A 2 s interval holds its target for two one-second steps.
    assert spotify_scheduled_ops([4.0], 2_000.0, 2_000.0, 2) == 8


def _instant_client():
    def op(*args, **kwargs):
        return SimpleNamespace(ok=True)
        yield  # a generator that finishes at once

    return SimpleNamespace(
        create_file=op, mkdirs=op, delete=op, mv=op,
        read_file=op, stat=op, ls=op,
    )


def test_scheduled_ops_matches_a_generator_that_keeps_up():
    from repro.bench.harness import drive
    from repro.namespace.treegen import TreeSpec, generate_tree
    from repro.sim import Environment
    from repro.workloads import SpotifyConfig, SpotifyWorkload

    env = Environment()
    config = SpotifyConfig(
        base_throughput=300.0, duration_ms=6_000.0, interval_ms=1_000.0, seed=4
    )
    workload = SpotifyWorkload(env, config, generate_tree(TreeSpec(depth=1)))
    clients = [_instant_client() for _ in range(7)]
    drive(env, workload.run(clients))
    scheduled = spotify_scheduled_ops(
        workload.schedule, config.interval_ms, config.duration_ms, len(clients)
    )
    assert workload.issued == scheduled
    assert backlog_frac(scheduled, workload.issued) == 0.0
