"""Unit tests for the Spotify workload generator."""

import pytest

from repro.core.messages import OpType
from repro.namespace.treegen import TreeSpec, generate_tree
from repro.sim import Environment
from repro.workloads import SPOTIFY_MIX, SpotifyConfig, SpotifyWorkload


class CountingClient:
    """Records operations at a fixed, negligible simulated cost."""

    def __init__(self, env, latency=0.01):
        self.env = env
        self.latency = latency
        self.ops = []

    def _record(self, op, path):
        self.ops.append((op, path))
        yield self.env.timeout(self.latency)

        class R:  # minimal response
            ok = True
        return R()

    def create_file(self, path):
        return (yield from self._record(OpType.CREATE_FILE, path))

    def mkdirs(self, path):
        return (yield from self._record(OpType.MKDIRS, path))

    def read_file(self, path):
        return (yield from self._record(OpType.READ_FILE, path))

    def stat(self, path):
        return (yield from self._record(OpType.STAT, path))

    def ls(self, path):
        return (yield from self._record(OpType.LS, path))

    def delete(self, path, recursive=False):
        return (yield from self._record(OpType.DELETE, path))

    def mv(self, src, dst):
        return (yield from self._record(OpType.MV, src))


@pytest.fixture()
def tree():
    return generate_tree(TreeSpec(depth=2, dirs_per_dir=2, files_per_dir=4))


def test_mix_fractions_sum_to_one():
    assert sum(SPOTIFY_MIX.values()) == pytest.approx(1.0, abs=0.001)


def test_schedule_respects_spike_cap(tree):
    env = Environment()
    config = SpotifyConfig(base_throughput=1_000, duration_ms=150_000, seed=1)
    workload = SpotifyWorkload(env, config, tree)
    assert len(workload.schedule) == 10
    assert all(target <= 7_000 for target in workload.schedule)
    assert all(target >= 1_000 for target in workload.schedule)


def test_schedule_deterministic(tree):
    env = Environment()
    config = SpotifyConfig(base_throughput=500, seed=42)
    first = SpotifyWorkload(env, config, tree).schedule
    second = SpotifyWorkload(env, config, tree).schedule
    assert first == second


def test_target_at_boundaries(tree):
    env = Environment()
    config = SpotifyConfig(base_throughput=100, duration_ms=45_000,
                           interval_ms=15_000, seed=0)
    workload = SpotifyWorkload(env, config, tree)
    assert workload.target_at(0) == workload.schedule[0]
    assert workload.target_at(15_000) == workload.schedule[1]
    assert workload.target_at(10**9) == workload.schedule[-1]


def test_generated_ops_follow_mix(tree):
    env = Environment()
    config = SpotifyConfig(base_throughput=2_000, duration_ms=10_000,
                           interval_ms=5_000, seed=0)
    workload = SpotifyWorkload(env, config, tree)
    clients = [CountingClient(env) for _ in range(4)]
    done = env.process(workload.run(clients))
    env.run(until=done)
    all_ops = [op for client in clients for op, _path in client.ops]
    total = len(all_ops)
    assert total > 1_000
    read_fraction = sum(1 for op in all_ops if op is OpType.READ_FILE) / total
    assert 0.6 < read_fraction < 0.8  # Table 2: 69.22%
    stat_fraction = sum(1 for op in all_ops if op is OpType.STAT) / total
    assert 0.12 < stat_fraction < 0.23  # Table 2: 17%


def test_throughput_tracks_schedule(tree):
    env = Environment()
    config = SpotifyConfig(base_throughput=1_000, duration_ms=10_000,
                           interval_ms=5_000, seed=3)
    workload = SpotifyWorkload(env, config, tree)
    clients = [CountingClient(env) for _ in range(4)]
    done = env.process(workload.run(clients))
    env.run(until=done)
    # With free clients, issued ops match the scheduled totals.
    expected = sum(target * 5 for target in workload.schedule[:2])
    assert workload.issued == pytest.approx(expected, rel=0.1)


def test_rollover_when_clients_slow(tree):
    env = Environment()

    class SlowClient(CountingClient):
        def _record(self, op, path):
            self.ops.append((op, path))
            yield self.env.timeout(100.0)  # 10 ops/sec max

            class R:
                ok = True
            return R()

    config = SpotifyConfig(base_throughput=100, duration_ms=5_000,
                           interval_ms=5_000, seed=0)
    workload = SpotifyWorkload(env, config, tree)
    client = SlowClient(env)
    done = env.process(workload.run([client]))
    env.run(until=done)
    # A slow client cannot reach the target; it completes what it can.
    assert workload.completed < workload.schedule[0] * 5
    assert workload.completed > 0


def test_float_drift_does_not_add_a_second(tree):
    """Sleeping from the end of the last op to the deadline can land one
    ulp short of it; the workload must still stop at its duration
    instead of running one more second clamped to the last target."""
    start, latency = 18.278597427366662, 281.32139788991157
    op_end, deadline = start + latency, start + 1_000.0
    assert op_end + (deadline - op_end) < deadline  # the drift is real here
    env = Environment(initial_time=start)
    config = SpotifyConfig(base_throughput=1, duration_ms=1_000.0, seed=1)
    workload = SpotifyWorkload(env, config, tree)
    asked = []
    target_at = workload.target_at
    workload.target_at = lambda time_ms: asked.append(time_ms) or target_at(time_ms)
    client = CountingClient(env, latency=latency)
    env.process(workload.run([client]))
    env.run()
    assert len(client.ops) == 1
    assert asked == [0.0]
