"""Counters and histograms derived from the tracer's span stream.

Domain code reports each event once, as a span or point on
``env.tracer``.  :meth:`repro.telemetry.Telemetry.observe` looks up
``SPAN_METRICS[(phase, kind)]`` for every begin/end/point and folds the
span into the registry, synchronously, so a series moves in the same
sim step as the event that moved it.  Three families stay direct
registry calls at their site, because a point there would add a span
per RPC or per tick (docs/observability.md lists them).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from repro.telemetry.registry import MetricsRegistry
from repro.trace.tracer import Span

Handler = Callable[[MetricsRegistry, Span], None]


def _count(name: str, *attr_labels: str, **fixed: Any) -> Handler:
    """Count one event into ``name``, labelled by ``fixed`` plus the
    span attrs named in ``attr_labels`` (label name = attr name)."""
    def handler(registry: MetricsRegistry, span: Span) -> None:
        attrs = span.attrs
        registry.inc(name, **fixed, **{label: attrs[label] for label in attr_labels})

    return handler


def _duration(name: str) -> Handler:
    """Observe the span's duration into histogram ``name``."""
    def handler(registry: MetricsRegistry, span: Span) -> None:
        registry.observe(name, span.duration_ms)

    return handler


def _client_op_end(registry: MetricsRegistry, span: Span) -> None:
    attrs = span.attrs
    if "via" not in attrs:
        return  # the op raised: no response, so not counted as an op
    op = attrs["op"]
    ok = attrs["ok"]
    latency = span.duration_ms
    registry.inc("ops_total", op=op)
    if not ok:
        registry.inc("ops_failed_total", op=op)
    registry.observe("op_latency_ms", latency, op=op)
    tenant = attrs.get("tenant")
    if tenant is not None:
        # Separate tenant_* families (not tenant labels on the
        # fleet-global ones): the chaos verifier sums every series in
        # a family, so labelled duplicates would double-count each op
        # in the recovery-SLO gate.
        registry.inc("tenant_ops_total", op=op, tenant=tenant)
        if not ok:
            registry.inc("tenant_ops_failed_total", tenant=tenant)
        registry.observe("tenant_op_latency_ms", latency, tenant=tenant)
        if attrs["cache_hit"]:
            registry.inc("tenant_cache_hits_total", tenant=tenant)
        else:
            registry.inc("tenant_cache_misses_total", tenant=tenant)


def _client_backoff(registry: MetricsRegistry, span: Span) -> None:
    registry.inc("rpc_backoff_ms_total", span.attrs["backoff_ms"])


def _lock_wait_timeout(registry: MetricsRegistry, span: Span) -> None:
    attrs = span.attrs
    if attrs["budget_ms"] <= 0.0:
        # Fail-fast with no budget: no lock.wait span was opened, so
        # the refused wait is counted here.
        registry.inc("lock_waits_total", mode=attrs["mode"])
    registry.inc("lock_wait_timeouts_total")


def _txn_end(registry: MetricsRegistry, span: Span) -> None:
    registry.inc("store_txns_total",
                 outcome="commit" if span.attrs["committed"] else "abort")


def _coord_inv_begin(registry: MetricsRegistry, span: Span) -> None:
    attrs = span.attrs
    deployment = attrs["deployment"]
    members = attrs["members"]
    registry.inc("coord_inv_rounds_total", deployment=deployment)
    if members:
        registry.inc("coord_invs_sent_total", members, deployment=deployment)
    registry.observe("coord_fanout", float(members))


def _dn_repair_end(registry: MetricsRegistry, span: Span) -> None:
    repair_ms = span.attrs["repair_ms"]
    if repair_ms is not None:
        registry.inc("dn_repairs_total")
        registry.observe("dn_repair_latency_ms", repair_ms)


def _dn_pipeline_end(registry: MetricsRegistry, span: Span) -> None:
    stored = span.attrs["stored"]
    registry.inc("dn_chunks_total", amount=float(stored))
    if stored < span.attrs["width"]:
        registry.inc("dn_partial_pipelines_total")


def _breaker_transition(registry: MetricsRegistry, span: Span) -> None:
    registry.inc("resilience_breaker_transitions_total",
                 to=span.attrs["to_state"])


def _stale_read(registry: MetricsRegistry, span: Span) -> None:
    if span.attrs.get("bounded_stale"):
        registry.inc("resilience_stale_reads_total")


SPAN_METRICS: Dict[Tuple[str, str], Handler] = {
    # client
    ("end", "client.op"): _client_op_end,
    ("begin", "rpc.tcp"): _count("rpc_requests_total", transport="tcp"),
    ("begin", "rpc.http"): _count("rpc_requests_total", transport="http"),
    ("point", "rpc.retry"): _count("rpc_retries_total", "error"),
    ("begin", "client.backoff"): _client_backoff,
    ("point", "client.straggler"): _count("client_stragglers_total"),
    ("point", "client.antithrash"): _count("client_antithrash_entries_total"),
    # rpc fabric
    ("point", "tcp.connect_back"): _count(
        "tcp_connections_opened_total", "deployment"),
    ("point", "tcp.close"): _count("tcp_connections_closed_total", "deployment"),
    ("begin", "rpc.sibling_hop"): _count(
        "tcp_connection_reuse_total", source="sibling"),
    # metastore
    ("begin", "lock.wait"): _count("lock_waits_total", "mode"),
    ("end", "lock.wait"): _duration("lock_wait_ms"),
    ("point", "lock.wait_timeout"): _lock_wait_timeout,
    ("point", "txn.end"): _txn_end,
    # coordination
    ("begin", "coord.inv"): _coord_inv_begin,
    ("end", "coord.inv"): _duration("coord_ack_latency_ms"),
    ("point", "coord.ack"): _count("coord_acks_total"),
    # faas
    ("begin", "faas.queue"): _count("faas_invocations_total", "deployment"),
    ("point", "faas.provision"): _count("faas_cold_starts_total", "deployment"),
    ("point", "faas.terminate"): _count(
        "faas_terminations_total", "deployment", "reason"),
    # datanode
    ("point", "dn.alive"): _count("dn_revivals_total"),
    ("point", "dn.dead"): _count("dn_deaths_total"),
    ("point", "dn.kill"): _count("dn_kills_total", "rack"),
    ("end", "dn.repair"): _dn_repair_end,
    ("point", "dn.pipeline_break"): _count("dn_pipeline_breaks_total"),
    ("end", "dn.pipeline"): _dn_pipeline_end,
    # resilience
    ("point", "resilience.deadline"): _count(
        "resilience_deadline_expired_total", "stage"),
    ("point", "resilience.breaker"): _breaker_transition,
    ("point", "resilience.breaker_reject"): _count(
        "resilience_breaker_rejections_total", "edge"),
    ("point", "resilience.budget_exhausted"): _count(
        "resilience_retry_budget_exhausted_total"),
    ("point", "resilience.shed"): _count(
        "resilience_sheds_total", "stage", "reason"),
    ("point", "resilience.deadline_violation"): _count(
        "resilience_deadline_violations_total", "stage"),
    ("point", "nn.cache_hit"): _stale_read,
}
