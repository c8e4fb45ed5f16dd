"""Fleet-wide, sim-time telemetry for the λFS simulator.

A :class:`MetricsRegistry` hangs off ``env.metrics``.  Domain code
never writes counters beside its spans: the :class:`Telemetry` bundle
subscribes to the tracer's span stream and derives counters and
histograms from it (:mod:`repro.telemetry.spans`), so telemetry off
costs nothing beyond the tracer's own ``env.tracer is None`` checks.
Gauges are callbacks registered at build time over live structures.
A :class:`Sampler` sim-process snapshots the registry every N sim-ms
into a :class:`TimeSeries`; exporters write JSONL/CSV/Prometheus;
:func:`render_dashboard` turns a run into an ascii report
(``repro telemetry``).

Typical wiring (what ``bench.harness`` does for ``telemetry=True``)::

    telemetry = install_telemetry(env, interval_ms=500.0)
    ...  # build system, run workload
    telemetry.stop()
    telemetry.export("out/")          # telemetry.{jsonl,csv,prom}
    print(telemetry.dashboard())
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.telemetry.registry import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    label_key,
    parse_series_key,
    series_key,
)
from repro.telemetry.sampler import Sampler, TimeSeries
from repro.telemetry.export import (
    parse_prometheus_text,
    read_jsonl,
    write_csv,
    write_jsonl,
    write_prometheus,
)
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.spans import SPAN_METRICS
from repro.trace.tracer import Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sampler",
    "Telemetry",
    "TimeSeries",
    "install_telemetry",
    "label_key",
    "parse_prometheus_text",
    "parse_series_key",
    "read_jsonl",
    "render_dashboard",
    "series_key",
    "write_csv",
    "write_jsonl",
    "write_prometheus",
]


class Telemetry:
    """Bundle of one registry + one sampler attached to an environment.

    Subscribes to ``env.tracer``, installing a tracer that keeps no
    spans when none is attached (so attach a full tracer first).
    """

    #: Span kinds with a telemetry handler (the tracer routes only these).
    kinds = frozenset(kind for _, kind in SPAN_METRICS)

    def __init__(self, env: Any, interval_ms: float = 500.0) -> None:
        self.env = env
        self.registry = MetricsRegistry(env)
        self.registry.bundle = self  # backref for shared-env reuse
        self.sampler = Sampler(env, self.registry, interval_ms=interval_ms)
        tracer = env.tracer or Tracer(env, keep_spans=False)
        tracer.add_checker(self)

    def observe(self, phase: str, span: Span) -> None:
        """Span-stream subscriber: fold one event into the registry."""
        handler = SPAN_METRICS.get((phase, span.kind))
        if handler is not None:
            handler(self.registry, span)

    @property
    def timeseries(self) -> TimeSeries:
        return self.sampler.timeseries

    def start(self) -> "Telemetry":
        self.sampler.start()
        return self

    def stop(self, final_sample: bool = True) -> None:
        self.sampler.stop(final_sample=final_sample)

    def export(self, directory: str, basename: str = "telemetry") -> Dict[str, str]:
        """Write all three formats into ``directory``; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = {
            "jsonl": os.path.join(directory, f"{basename}.jsonl"),
            "csv": os.path.join(directory, f"{basename}.csv"),
            "prom": os.path.join(directory, f"{basename}.prom"),
        }
        write_jsonl(self.timeseries, paths["jsonl"])
        write_csv(self.timeseries, paths["csv"])
        write_prometheus(self.registry, paths["prom"])
        return paths

    def dashboard(self, width: int = 56) -> str:
        return render_dashboard(self.timeseries, self.registry, width=width)

    def attach_detector(self, detector: Any) -> Any:
        """Hook an alert detector onto the sampler.

        ``detector.observe(timeseries)`` runs after every sample; pass
        the detector's registry mirror this bundle's registry so
        firing-state gauges land in the exports.  Returns the detector
        for chaining.
        """
        self.sampler.on_sample = detector.observe
        return detector


def install_telemetry(
    env: Any,
    interval_ms: float = 500.0,
    start: bool = True,
) -> Telemetry:
    """Attach a registry to ``env.metrics`` and start the sampler."""
    telemetry = Telemetry(env, interval_ms=interval_ms)
    if start:
        telemetry.start()
    return telemetry
