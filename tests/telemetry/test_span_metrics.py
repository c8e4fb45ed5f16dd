"""Telemetry derived from the span stream (repro.telemetry.spans)."""

import os
import re

import pytest

from repro.sim import Environment
from repro.telemetry import Telemetry
from repro.telemetry.spans import SPAN_METRICS
from repro.trace import Tracer

pytestmark = pytest.mark.telemetry

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src", "repro")
DOMAIN = ("core", "rpc", "metastore", "coordination", "faas", "namespace",
          "datanode", "resilience", "sim")


def _domain_sources():
    for package in DOMAIN:
        folder = os.path.join(SRC, package)
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    yield f"{package}/{name}", handle.read()


def _telemetry():
    env = Environment()
    telemetry = Telemetry(env)
    return env.tracer, telemetry.registry


def test_telemetry_alone_installs_a_spanless_tracer():
    env = Environment()
    telemetry = Telemetry(env)
    assert env.tracer is not None and not env.tracer.keep_spans
    assert env.tracer.checkers == [telemetry]


def test_telemetry_rides_an_installed_tracer():
    env = Environment()
    tracer = Tracer(env)
    telemetry = Telemetry(env)
    assert env.tracer is tracer and tracer.checkers == [telemetry]


def test_client_op_counts_only_answered_ops():
    tracer, registry = _telemetry()
    raised = tracer.begin("client.op", "c1", op="stat")
    tracer.end(raised, ok=False)  # the op raised: no via, no response
    assert registry.get("ops_total") is None
    answered = tracer.begin("client.op", "c1", op="stat", tenant="t")
    tracer.end(answered, ok=False, via="tcp", cache_hit=True)
    snapshot = registry.collect()
    assert snapshot['ops_total{op="stat"}'] == 1.0
    assert snapshot['ops_failed_total{op="stat"}'] == 1.0
    assert snapshot['tenant_ops_total{op="stat",tenant="t"}'] == 1.0
    assert snapshot['tenant_cache_hits_total{tenant="t"}'] == 1.0
    assert "tenant_cache_misses_total" not in registry.names()


def test_fail_fast_lock_timeout_counts_its_own_wait():
    tracer, registry = _telemetry()
    tracer.point("lock.wait_timeout", "t1", key="k", mode="shared",
                 budget_ms=0.0)
    wait = tracer.begin("lock.wait", "t2", key="k", mode="exclusive")
    tracer.end(wait, granted=False, budget_ms=5.0)
    tracer.point("lock.wait_timeout", "t2", key="k", mode="exclusive",
                 budget_ms=5.0)
    waits = registry.get("lock_waits_total")
    assert waits.value(mode="shared") == 1.0
    assert waits.value(mode="exclusive") == 1.0
    assert registry.get("lock_wait_timeouts_total").total() == 2.0
    assert registry.get("lock_wait_ms").count() == 1


def test_failed_repair_is_not_counted():
    tracer, registry = _telemetry()
    tracer.end(tracer.begin("dn.repair", "dn1", block=1), ok=False,
               repair_ms=None)
    tracer.end(tracer.begin("dn.repair", "dn2", block=2), ok=True,
               repair_ms=12.5)
    assert registry.get("dn_repairs_total").total() == 1.0
    assert registry.get("dn_repair_latency_ms").sum() == 12.5


def test_every_handled_kind_is_emitted_by_domain_code():
    sources = "\n".join(text for _, text in _domain_sources())
    for _, kind in SPAN_METRICS:
        assert f'"{kind}"' in sources, kind


def test_domain_code_writes_only_the_listed_direct_counters():
    direct = set()
    for path, text in _domain_sources():
        for name in re.findall(r'metrics\.(?:inc|observe)\(\s*"(\w+)"', text):
            direct.add((path, name))
    assert direct == {
        ("rpc/connections.py", "tcp_connection_reuse_total"),
        ("datanode/node.py", "dn_heartbeats_total"),
        ("datanode/scanner.py", "dn_underreplicated_seen_total"),
    }
