"""The INV round is timer-driven: one publish timer and one ACK timer
per round (plus one shared redelivery timer per batch of dropped
ACKs), never a process per member or per round."""

import pytest

from repro.coordination import make_coordinator
from repro.sim import Environment, Process
from repro.trace import Tracer


class DropFirstAcks:
    """Stub ``env.chaos``: drop the first N ACKs of every member."""

    def __init__(self, drops):
        self.drops = drops
        self.seen = {}

    def ack_should_drop(self, deployment, member_id):
        self.seen[member_id] = self.seen.get(member_id, 0) + 1
        return self.seen[member_id] <= self.drops


def spans_of(tracer, kind):
    return [span for span in tracer.spans.values() if span.kind == kind]


@pytest.fixture()
def no_processes(monkeypatch):
    def refuse(self, env, generator):
        raise AssertionError("the coherence round started a process")

    monkeypatch.setattr(Process, "__init__", refuse)


def run_round(members, drops=0):
    env = Environment()
    coord = make_coordinator(env)
    handled = []
    for index in range(members):
        coord.register("d", f"m{index}", lambda inv, i=index: handled.append(i))
    if drops:
        env.chaos = DropFirstAcks(drops)
    done = coord.invalidate("d", paths=("/x",))
    env.run()
    return env, coord, done, handled


@pytest.mark.usefixtures("no_processes")
def test_round_cost_does_not_grow_with_members():
    one, _, done_one, _ = run_round(1)
    many, coord, done_many, handled = run_round(16)
    # publish timer, ACK timer, completion event.
    assert one.steps == many.steps == 3
    assert (done_one.value, done_many.value) == (1, 16)
    assert handled == list(range(16))  # registration order
    assert coord.invs_sent == coord.acks_received == 16


@pytest.mark.usefixtures("no_processes")
def test_members_dropped_together_are_redelivered_together():
    env, coord, done, handled = run_round(2, drops=2)
    assert done.value == 2
    assert sorted(handled) == [0, 0, 0, 1, 1, 1]
    assert coord.acks_received == 2
    assert coord._pending == {}
    # publish + ack = 0.8 per attempt, plus 5 ms retry backoff between
    # attempts: 0.8 + 2 * (5.0 + 0.8) = 12.4 ms to completion.
    assert env.now == pytest.approx(12.4)
    # One wave for both members: 3 x (publish, ACK) + 2 shared retry
    # timers + the completion event, exactly as for a single member.
    single, *_ = run_round(1, drops=2)
    assert env.steps == single.steps == 9


def test_member_gone_before_delivery_is_not_delivered():
    env = Environment()
    tracer = Tracer(env)
    coord = make_coordinator(env)
    handled = []
    coord.register("d", "a", lambda inv: handled.append("a"))
    coord.register("d", "b", lambda inv: handled.append("b"))
    done = coord.invalidate("d", paths=("/x",))
    env.run(until=0.2)  # published, not yet delivered (publish_ms 0.4)
    coord.deregister("d", "b")
    env.run()
    assert done.processed and done.value == 2
    assert handled == ["a"]
    legs = {span.actor: span for span in spans_of(tracer, "coord.member")}
    assert legs["a"].attrs["delivered"] is True
    assert legs["b"].attrs["delivered"] is False
    assert legs["b"].end_ms == pytest.approx(0.4)
    assert coord.acks_received == 1


def test_zero_member_round_closes_in_its_completion_step():
    env = Environment()
    tracer = Tracer(env)
    coord = make_coordinator(env)
    done = coord.invalidate("ghost", paths=("/x",))
    (round_span,) = spans_of(tracer, "coord.inv")
    assert round_span.attrs["members"] == 0
    closed_at_completion = []
    done.subscribe(lambda _: closed_at_completion.append(round_span.end_ms))
    while not done.processed:
        assert round_span.end_ms is None  # open until the completion step
        env.step()
    assert closed_at_completion == [0.0]
    assert done.value == 0
    assert spans_of(tracer, "coord.member") == []
