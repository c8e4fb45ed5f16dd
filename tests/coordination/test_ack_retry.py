"""ACK redelivery and the deregister/INV races under injected ACK loss.

These drive the Coordinator directly with a stub ``env.chaos`` that
implements only ``ack_should_drop`` — the single hook the round's ACK
timer (``Coordinator._collect``) consults — so redelivery and the "no
ACK required from terminated NameNodes" rule can be pinned down
without a full system.
"""

import pytest

from repro.coordination import make_coordinator
from repro.coordination.coordinator import Coordinator, CoordinatorConfig
from repro.sim import Environment

pytestmark = pytest.mark.chaos


class AckChaos:
    """Drop the first N ACKs per member (None = drop forever)."""

    def __init__(self, drops_by_member):
        self.drops = dict(drops_by_member)
        self.calls = []

    def ack_should_drop(self, deployment, member_id):
        self.calls.append((deployment, member_id))
        remaining = self.drops.get(member_id, 0)
        if remaining is None:
            return True
        if remaining > 0:
            self.drops[member_id] = remaining - 1
            return True
        return False


def make_env_and_coord(**config_overrides):
    env = Environment()
    if config_overrides:
        coord = Coordinator(env, CoordinatorConfig(**config_overrides))
    else:
        coord = make_coordinator(env)
    return env, coord


def start_invalidate(env, coord, deployment="d", paths=("/x",)):
    return coord.invalidate(deployment, paths=paths)


def test_redelivery_collects_ack_after_drops():
    env, coord = make_env_and_coord()
    handled = []
    coord.register("d", "b", lambda inv: handled.append(inv.inv_id))
    env.chaos = AckChaos({"b": 2})

    done = start_invalidate(env, coord)
    env.run(until=60.0)
    assert done.triggered

    # Two dropped ACKs -> the whole INV is redelivered twice; the
    # idempotent handler ran three times but exactly one ACK landed.
    assert handled == [1, 1, 1]
    assert coord.acks_received == 1
    # publish + ack = 0.8 per attempt, plus 5 ms retry backoff between
    # attempts: 0.8 + 2 * (5.0 + 0.8) = 12.4 ms to completion.
    assert done.value == 1
    assert len(env.chaos.calls) == 3


def test_completion_time_includes_retry_backoff():
    env, coord = make_env_and_coord()
    coord.register("d", "b", lambda inv: None)
    env.chaos = AckChaos({"b": 2})
    finished = []

    def writer(env):
        yield coord.invalidate("d", paths=("/x",))
        finished.append(env.now)

    env.process(writer(env))
    env.run(until=60.0)
    assert finished == [pytest.approx(12.4)]


def test_deregister_mid_retry_releases_the_waiter():
    """A member that keeps dropping ACKs and then dies must not strand
    the writer: deregistration drops it from the pending set."""
    env, coord = make_env_and_coord()
    coord.register("d", "a", lambda inv: None)
    coord.register("d", "b", lambda inv: None)
    env.chaos = AckChaos({"b": None})  # b never ACKs

    done = start_invalidate(env, coord)
    env.run(until=10.0)
    assert not done.triggered  # still waiting on b
    assert coord.acks_received == 1  # a's ACK landed

    coord.deregister("d", "b")
    env.run(until=40.0)
    assert done.triggered
    # b's in-flight redelivery hits the liveness check and is dropped
    # without a late ACK: no double count, no hung waiter.
    assert coord.acks_received == 1
    assert coord._pending == {}


def test_retry_disabled_strands_writer_until_deregister():
    """ack_max_retries=0 is the deliberately broken path: one dropped
    ACK and the round gives up on that member for good."""
    env, coord = make_env_and_coord(ack_retry_ms=5.0, ack_max_retries=0)
    coord.register("d", "b", lambda inv: None)
    env.chaos = AckChaos({"b": 1})  # a single drop is now fatal

    done = start_invalidate(env, coord)
    env.run(until=100.0)
    assert not done.triggered
    assert coord.acks_received == 0

    coord.deregister("d", "b")
    env.run(until=110.0)
    assert done.triggered


def test_deregister_racing_inflight_ack_does_not_double_trigger():
    """b's ACK is already in flight when b deregisters: the round
    completes via the deregister release, and the late ack() finds
    the pending entry gone and must be a harmless no-op."""
    env, coord = make_env_and_coord()
    coord.register("d", "b", lambda inv: None)

    done = start_invalidate(env, coord)

    def killer(env):
        yield env.timeout(0.6)  # after handler (0.4), before ACK (0.8)
        coord.deregister("d", "b")

    env.process(killer(env))
    env.run(until=10.0)
    assert done.triggered
    # The round's ACK timer still records its ACK at t=0.8 (it was
    # in flight), but the pending entry is gone: nothing re-triggers.
    assert coord.acks_received == 1
    assert coord._pending == {}


def test_late_ack_for_unknown_inv_is_harmless():
    env, coord = make_env_and_coord()
    coord.register("d", "b", lambda inv: None)
    done = start_invalidate(env, coord)
    env.run(until=10.0)
    assert done.triggered
    coord.ack(1, "b")  # round long gone
    assert coord.acks_received == 2  # counted, but nothing to trigger
    assert coord._pending == {}
