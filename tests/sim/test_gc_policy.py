"""The run loop's GC policy: applied on the outermost run, always restored."""

import gc

import pytest

from repro.sim import Environment
from repro.sim.core import RUN_GC_THRESHOLD


@pytest.fixture
def gc_state():
    state = (gc.get_threshold(), gc.isenabled())
    assert gc.get_freeze_count() == 0
    yield state
    assert (gc.get_threshold(), gc.isenabled()) == state
    assert gc.get_freeze_count() == 0


def policy_probe(env, seen):
    yield env.timeout(1.0)
    seen.append((gc.get_threshold(), gc.get_freeze_count() > 0))


def test_restored_after_normal_return(gc_state):
    env = Environment()
    seen = []
    env.process(policy_probe(env, seen))
    env.run()
    assert seen == [(RUN_GC_THRESHOLD, True)]


def test_restored_after_until_stop(gc_state):
    env = Environment()

    def forever(env):
        while True:
            yield env.timeout(1.0)

    env.process(forever(env))
    env.run(until=10.5)
    assert env.now == 10.5
    env.run(until=env.timeout(3.0))
    assert env.now == 13.5


def test_restored_when_an_exception_escapes(gc_state):
    env = Environment()

    def crash(env):
        yield env.timeout(1.0)
        raise KeyError("boom")

    env.process(crash(env))
    with pytest.raises(KeyError):
        env.run()


def test_only_the_outermost_run_sets_and_restores(gc_state):
    outer, inner = Environment(), Environment()
    seen = []

    def nested(env):
        yield env.timeout(1.0)
        inner.process(policy_probe(inner, seen))
        inner.run()
        # The inner run returned without undoing the outer policy.
        seen.append((gc.get_threshold(), gc.get_freeze_count() > 0))

    outer.process(nested(outer))
    outer.run()
    assert seen == [(RUN_GC_THRESHOLD, True)] * 2


def test_run_triggers_no_collection(gc_state):
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    env = Environment()
    kept = []

    def allocate(env):
        # Far past the default gen-0 threshold of live containers.
        for _ in range(20):
            kept.extend({"i": i} for i in range(500))
            yield env.timeout(1.0)

    env.process(allocate(env))
    gc.callbacks.append(count)
    try:
        env.run()
    finally:
        gc.callbacks.remove(count)
    assert len(kept) == 10_000
    assert collections == []
    # The run's survivors left gen 0 with it: no deferred pass is due.
    assert gc.get_count()[0] < gc.get_threshold()[0]
