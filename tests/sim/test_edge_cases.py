"""Edge-case tests for the DES kernel discovered during development."""

import pytest

from repro.sim import AnyOf, Environment, Event, Interrupt
from repro.sim.core import EmptySchedule


def test_failed_event_after_condition_triggered_is_defused():
    """A race loser that later fails must not crash the run (the
    straggler-mitigation pattern)."""
    env = Environment()
    outcome = []

    def failing(env):
        yield env.timeout(10)
        raise ValueError("late failure")

    def racer(env):
        slow = env.process(failing(env))
        fast = env.timeout(1, value="fast")
        result = yield AnyOf(env, [fast, slow])
        outcome.append(list(result.values()))
        slow.defused()
        yield env.timeout(100)  # outlive the late failure

    env.process(racer(env))
    env.run()
    assert outcome == [["fast"]]


def test_interrupt_wins_over_simultaneous_timeout():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(5)
            log.append("timeout")
        except Interrupt:
            log.append("interrupt")

    def interrupter(env, victim):
        yield env.timeout(5)
        if victim.is_alive:
            victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    # Deterministic: the timeout was scheduled first and wins the tie.
    assert log in (["timeout"], ["interrupt"])
    assert len(log) == 1


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_run_until_pending_event_with_empty_queue_errors():
    env = Environment()
    gate = Event(env)
    with pytest.raises(RuntimeError, match="pending"):
        env.run(until=gate)


def test_nested_process_chain_returns():
    env = Environment()

    def level3(env):
        yield env.timeout(1)
        return 3

    def level2(env):
        value = yield env.process(level3(env))
        return value + 1

    def level1(env):
        value = yield env.process(level2(env))
        return value + 1

    proc = env.process(level1(env))
    env.run()
    assert proc.value == 5


def test_many_simultaneous_timeouts_fire_in_creation_order():
    env = Environment()
    order = []

    def waiter(env, index):
        yield env.timeout(7)
        order.append(index)

    for index in range(50):
        env.process(waiter(env, index))
    env.run()
    assert order == list(range(50))


def test_process_interrupting_itself_rejected():
    env = Environment()

    def selfish(env):
        yield env.timeout(1)
        env.active_process.interrupt()

    env.process(selfish(env))
    with pytest.raises(RuntimeError, match="interrupt itself"):
        env.run()


def test_event_value_before_trigger_raises():
    env = Environment()
    event = Event(env)
    with pytest.raises(AttributeError):
        _ = event.value


def test_next_id_counts_from_one_per_kind_and_per_env():
    first, second = Environment(), Environment()
    assert [first.next_id("client") for _ in range(3)] == [1, 2, 3]
    assert first.next_id("request") == 1
    assert second.next_id("client") == 1
