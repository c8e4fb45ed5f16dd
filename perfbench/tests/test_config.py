"""BENCHMARK.json, the runner and the workload table name the same things."""

import json
import os

import pytest

import run

with open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")) as handle:
    CONFIG = json.load(handle)


def _round(hash_seed="1", profiled=False):
    counters = {
        key: 3 for key in (
            "events", "records", "cost_usd", "store_commits", "store_aborts",
            "store_rows_read", "store_busy_ms", "cache_hits", "cache_misses",
            "cache_evictions", "cache_invalidations", "tcp_calls", "http_calls",
            "client_retries", "stragglers", "invs_sent", "acks_received",
            "cold_starts", "invocations", "spans", "samples",
        )
    }
    result = {
        "hash_seed": hash_seed,
        "wall_s": 2.0,
        "setup_s": 0.5,
        "ops": 100,
        "peak_rss_mb": 60.0,
        "peak_instances": 8,
        "alerts": 0,
        "problems": [],
        "counters": counters,
        "fingerprint": {
            "sim.events": 900, "ops_issued": 100, "ops_completed": 100,
            "ops_failed": 0, "sim_end_ms": 10.0, "sim_ops_per_s": 1e4,
            "sim_latency_p50_ms": 1.0, "sim_latency_p99_ms": 2.0,
            "sim_cost_usd": 1e-3,
        },
    }
    if profiled:
        result["wall_s"] = 4.0
        result["calls"] = {
            "metastore.lock_acquires": 1, "core.resolve_calls": 1,
            "core.namenode_requests": 100, "core.partition_hashes": 500,
        }
        result["layer_self_s"] = {"sim": 2.0, "core": 1.9, "unattributed": 0.1}
    return result


def test_workload_names_agree():
    import workloads

    names = [w["name"] for w in CONFIG["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.PARAMS)


def test_end_to_end_metrics_agree():
    reported = run.end_to_end([_round()])
    assert [m["name"] for m in CONFIG["end_to_end"]] == list(reported)
    for metric in CONFIG["end_to_end"]:
        assert reported[metric["name"]][1] == metric["unit"]
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


def test_per_layer_metrics_agree():
    reported = run.per_layer([_round()], _round("2", profiled=True))
    assert sorted(m["name"] for m in CONFIG["per_layer"]) == sorted(reported)
    for metric in CONFIG["per_layer"]:
        assert reported[metric["name"]][1] == metric["unit"]
    assert reported["bench.traced_slowdown"][0] == pytest.approx(2.0)
    assert reported["bench.attributed_frac"][0] == pytest.approx(3.9 / 4.0)


def test_fingerprint_mismatch_fails_the_run():
    other = _round("2")
    other["fingerprint"] = dict(other["fingerprint"], **{"sim.events": 901})
    problems = run.check([_round(), other], None)
    assert len(problems) == 1 and "PYTHONHASHSEED=2" in problems[0]
    assert run.check([_round(), _round("2")], None) == []


def test_thin_attribution_fails_the_run():
    profiled = _round("2", profiled=True)
    profiled["layer_self_s"] = {"sim": 3.0, "unattributed": 1.0}
    assert any("account for" in p for p in run.check([_round()], profiled))


def test_attribution_counts_only_the_named_layers():
    profiled = _round("2", profiled=True)
    # Every second is charged somewhere, but a quarter of it to the
    # benchmark's own wrappers and a package outside the named layers.
    profiled["layer_self_s"] = {"sim": 3.0, "perfbench": 0.5, "metrics": 0.5}
    assert any("account for" in p for p in run.check([_round()], profiled))
    layers = run.per_layer([_round()], profiled)
    assert layers["bench.attributed_frac"][0] == pytest.approx(0.75)
    assert layers["bench.unattributed_s"][0] == pytest.approx(1.0)


def test_failed_ops_do_not_count_as_throughput():
    failing = _round()
    failing["fingerprint"] = dict(
        failing["fingerprint"], ops_completed=40, ops_failed=60
    )
    assert run.end_to_end([failing])["wall_ops_per_s"][0] == pytest.approx(20.0)
    assert run.end_to_end([_round()])["wall_ops_per_s"][0] == pytest.approx(50.0)
