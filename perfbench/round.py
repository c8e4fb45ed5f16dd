"""One measured round of one workload, run in a fresh process.

``python3 perfbench/round.py --workload NAME --seed N [--profile]``

Builds and warms the system (set-up), runs the workload's fixed,
seeded timed phase, checks the outputs, and prints one JSON object on
its last stdout line: wall timings, simulated metrics, the
determinism fingerprint, per-layer counters, and, with ``--profile``,
the cProfile split of the timed phase by layer.  ``run.py`` starts
several rounds under different ``PYTHONHASHSEED`` values and takes
medians; a round never decides on its own whether the run passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

STARTED = time.perf_counter()
"""When this process began running the benchmark: set-up is timed from
here, so the parent's spawn cost and its scheduling do not enter it."""

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC, "repro")

# Generator entry points counted during a profiled round: (layer
# metric, module, class, method).  None keeps a counter of its own, and
# cProfile counts every resumption of a generator as a call, so these
# are wrapped instead.
COUNTED_GENERATORS = (
    ("metastore.lock_acquires", "repro.metastore.locks", "LockManager", "acquire"),
    ("core.resolve_calls", "repro.core.operations", "NamespaceOps", "resolve"),
    ("core.namenode_requests", "repro.core.namenode", "LambdaNameNode", "handle"),
)
# Plain functions whose calls cProfile counts exactly: (layer metric,
# file under src/repro, function name).
COUNTED_FUNCTIONS = (
    ("core.partition_hashes", "_util.py", "stable_hash"),
)


def install_call_counters() -> dict:
    """Wrap :data:`COUNTED_GENERATORS` on their classes with call
    counters (one count per call, not per resumption).  Must run
    before the system is built."""
    import importlib

    counts = {name: 0 for name, *_ in COUNTED_GENERATORS}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return wrapper

    for name, module_name, class_name, attr in COUNTED_GENERATORS:
        owner = getattr(importlib.import_module(module_name), class_name)
        setattr(owner, attr, counted(name, getattr(owner, attr)))
    return counts


def profiled_calls(stats: dict) -> dict:
    """Call counts of :data:`COUNTED_FUNCTIONS` from cProfile stats."""
    counts = {}
    for name, filename, function in COUNTED_FUNCTIONS:
        path = os.path.join(REPRO_DIR, filename)
        counts[name] = sum(
            value[1] for (file, _, func), value in stats.items()
            if func == function and os.path.abspath(file) == path
        )
    return counts


def peak_instances(platform, since_ms: float) -> int:
    """Most live NameNode instances at any moment after ``since_ms``."""
    live = {name: 0 for name in platform.deployments}
    events = platform.scale_events
    for event in events:
        if event.time_ms < since_ms:
            live[event.deployment] = event.active_after
    peak = sum(live.values())
    for event in events:
        if event.time_ms >= since_ms:
            live[event.deployment] = event.active_after
            peak = max(peak, sum(live.values()))
    return peak


def counters(prepared) -> dict:
    """Cumulative public counters of every layer, at this instant."""
    fs = prepared.handle.system
    cache = fs.aggregate_cache_stats()
    store = fs.store.stats
    out = {
        "events": prepared.env.steps,
        "records": len(fs.metrics.records),
        "cost_usd": fs.cost_usd(),
        "store_commits": store.commits,
        "store_aborts": store.aborts,
        "store_rows_read": store.rows_read,
        "store_busy_ms": store.busy_ms,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_evictions": cache.evictions,
        "cache_invalidations": cache.invalidations,
        "tcp_calls": sum(c.stats_tcp_rpcs for c in prepared.clients),
        "http_calls": sum(c.stats_http_rpcs for c in prepared.clients),
        "client_retries": sum(c.stats_retries for c in prepared.clients),
        "stragglers": sum(c.stats_stragglers for c in prepared.clients),
        "invs_sent": fs.coordinator.invs_sent,
        "acks_received": fs.coordinator.acks_received,
        "cold_starts": fs.platform.cold_starts,
        "invocations": fs.total_http_requests(),
        "spans": 0,
        "samples": 0,
    }
    if prepared.handle.tracer is not None:
        out["spans"] = prepared.handle.tracer.summary()["spans"]
    if prepared.handle.telemetry is not None:
        out["samples"] = len(prepared.handle.telemetry.timeseries)
    return out


def check_outputs(prepared, issued: int, completed: int, failed: int) -> list:
    """Reasons the round's outputs are wrong; empty when they are right."""
    from repro.namespace.inode import ROOT_INODE_ID, dirent_key, inode_key
    from repro.namespace.paths import components

    problems = []
    if issued != completed + failed:
        problems.append(
            f"issued {issued} ops but {completed} completed + {failed} failed"
        )
    tracer = prepared.handle.tracer
    if prepared.spotify is not None and tracer is not None:
        summary = tracer.summary()
        if summary["violations"]:
            problems.append(
                f"{summary['violations']} invariant violations: "
                + "; ".join(str(v) for v in tracer.violations()[:3])
            )
        if summary["open_spans"]:
            problems.append(f"{summary['open_spans']} spans left open")
    if prepared.created is not None:
        store = prepared.handle.system.store
        missing = 0
        for path in prepared.created:
            parent = ROOT_INODE_ID
            for name in components(path):
                parent = store.peek(dirent_key(parent, name))
                if parent is None:
                    break
            if parent is None or store.peek(inode_key(parent)) is None:
                missing += 1
        if missing:
            problems.append(
                f"{missing} of {len(prepared.created)} created paths missing "
                "from the store"
            )
    return problems


def run_round(workload: str, seed: int, profile: bool) -> dict:
    sys.path[:0] = [SRC, HERE]
    import workloads as wl
    from stats import percentile

    calls = install_call_counters() if profile else None
    prepared = wl.prepare(workload, seed)
    env = prepared.env
    fs = prepared.handle.system
    before = counters(prepared)
    sim_start_ms = env.now
    if calls is not None:
        calls.update({name: 0 for name in calls})
    profiler = None
    if profile:
        import cProfile

        profiler = cProfile.Profile()
    # Start timing from a clean heap, not halfway to collecting the
    # set-up's garbage.
    gc.collect()
    first_op = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    issued = prepared.timed()
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - first_op

    after = counters(prepared)
    delta = {key: after[key] - before[key] for key in after}
    records = fs.metrics.records[before["records"]:]
    failed = sum(1 for record in records if not record.ok)
    completed = len(records) - failed
    latencies = sorted(record.latency_ms for record in records)
    sim_s = (env.now - sim_start_ms) / 1_000.0
    fingerprint = {
        "sim.events": delta["events"],
        "ops_issued": issued,
        "ops_completed": completed,
        "ops_failed": failed,
        "sim_end_ms": env.now,
        "sim_ops_per_s": len(records) / sim_s,
        "sim_latency_p50_ms": percentile(latencies, 50),
        "sim_latency_p99_ms": percentile(latencies, 99),
        "sim_cost_usd": delta["cost_usd"],
    }
    if prepared.spotify is not None:
        fingerprint["event_hash"] = prepared.handle.tracer.summary()["event_hash"]

    params = wl.PARAMS[workload]
    result = {
        "workload": workload,
        "seed": seed,
        "params": {
            **{k: getattr(v, "value", v) for k, v in vars(params).items()},
            "clients": wl.CLIENTS,
            "deployments": wl.DEPLOYMENTS,
            "vcpus": wl.VCPUS,
        },
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "setup_s": first_op - STARTED,
        "wall_s": wall_s,
        "ops": len(records),
        "latency_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint,
        "counters": delta,
        "peak_instances": peak_instances(fs.platform, sim_start_ms),
        "alerts": len(prepared.detector.alerts) if prepared.detector else 0,
        "problems": check_outputs(prepared, issued, completed, failed),
    }
    if prepared.spotify is not None:
        from stats import spotify_scheduled_ops

        config = prepared.spotify.config
        result["scheduled_ops"] = spotify_scheduled_ops(
            prepared.spotify.schedule, config.interval_ms, config.duration_ms,
            len(prepared.clients),
        )
    if profiler is not None:
        import pstats

        from attribution import layer_self_times

        stats = pstats.Stats(profiler).stats
        result["calls"] = {**calls, **profiled_calls(stats)}
        result["layer_self_s"] = layer_self_times(stats, REPRO_DIR, HERE)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_round(args.workload, args.seed, args.profile)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
