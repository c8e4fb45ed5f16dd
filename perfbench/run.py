"""Full-stack λFS benchmark: wall-clock speed of the simulator on
seeded read-hot, create-contended and Spotify workloads.

    python3 perfbench/run.py --workload read-hot --seed 1 --seconds 20 --trace 0

Runs identical *rounds* of one workload, each in a fresh interpreter
(``round.py``) under a different ``PYTHONHASHSEED``, until ``--seconds``
of wall time have passed (at least :data:`MIN_ROUNDS`).  Every round
must produce the same determinism fingerprint.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics (medians over rounds);
with ``--trace 1`` one more round runs under cProfile and the line
carries the per-layer metrics.  A manifest of the run is written to
``perfbench/out/``.  Exits non-zero if any output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

from stats import backlog_frac, quartile_spread, ratio

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("read-hot", "create-contended", "spotify-observed")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0
"""No new round starts once the run would likely pass this."""
MIN_ATTRIBUTED = 0.95
"""Share of the profiled wall time the layers must account for."""

NAMED_LAYERS = (
    "sim", "metastore", "core", "namespace", "rpc", "faas", "coordination",
    "workloads", "trace", "telemetry", "incidents", "util",
)


def _spawn_round(workload: str, seed: int, hash_seed: int, profile: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    command = [
        sys.executable, os.path.join(HERE, "round.py"),
        "--workload", workload, "--seed", str(seed),
    ]
    if profile:
        command.append("--profile")
    spawned = time.perf_counter()
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"round {workload} seed={seed} hash_seed={hash_seed} exited "
            f"{done.returncode}:\n{done.stderr[-4000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["round_s"] = time.perf_counter() - spawned
    return result


def run_rounds(
    workload: str, seed: int, seconds: float, profile: bool
) -> Tuple[List[dict], Optional[dict]]:
    """Untraced rounds for ``seconds`` (then one profiled round)."""
    started = time.perf_counter()
    rounds: List[dict] = []
    while True:
        rounds.append(_spawn_round(workload, seed, len(rounds) + 1, False))
        elapsed = time.perf_counter() - started
        longest = max(r["round_s"] for r in rounds)
        reserve = 3.0 * longest if profile else 0.0
        if elapsed + longest + reserve > RUN_BUDGET_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed >= seconds:
            break
    profiled = None
    if profile:
        profiled = _spawn_round(workload, seed, len(rounds) + 1, True)
    return rounds, profiled


def wall_ops_per_s(r: dict) -> float:
    """Ops completed per wall second of a round's timed phase; failed
    ops do not count, so failing fast cannot raise it."""
    return r["fingerprint"]["ops_completed"] / r["wall_s"]


def end_to_end(rounds: List[dict]) -> Dict[str, Tuple[float, str]]:
    fingerprint = rounds[0]["fingerprint"]
    return {
        "wall_ops_per_s": (median([wall_ops_per_s(r) for r in rounds]), "ops/s"),
        "setup_s": (median([r["setup_s"] for r in rounds]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rounds]), "MB"),
        "sim_ops_per_s": (fingerprint["sim_ops_per_s"], "ops/sim-s"),
        "sim_latency_p50_ms": (fingerprint["sim_latency_p50_ms"], "sim-ms"),
        "sim_latency_p99_ms": (fingerprint["sim_latency_p99_ms"], "sim-ms"),
        "sim_cost_usd": (fingerprint["sim_cost_usd"], "USD"),
    }


def workload_health(first: dict) -> Dict[str, Tuple[float, str]]:
    """Figures that are 0 on a healthy run: reported, never gated."""
    fingerprint = first["fingerprint"]
    scheduled = first.get("scheduled_ops")
    return {
        "op_error_rate": (
            ratio(fingerprint["ops_failed"], fingerprint["ops_issued"]), "fraction"
        ),
        "sim_backlog_frac": (
            backlog_frac(scheduled, fingerprint["ops_issued"])
            if scheduled is not None else 0.0,
            "fraction",
        ),
    }


def attributed_s(profiled: dict) -> float:
    """Profiled wall seconds the named layers account for (not the
    benchmark's own code, the ``repro`` package root or other packages)."""
    return sum(profiled["layer_self_s"].get(layer, 0.0) for layer in NAMED_LAYERS)


def per_layer(rounds: List[dict], profiled: dict) -> Dict[str, Tuple[float, str]]:
    c = profiled["counters"]
    calls = profiled["calls"]
    layers = profiled["layer_self_s"]
    ops = profiled["ops"]
    events = profiled["fingerprint"]["sim.events"]
    untraced_wall = median([r["wall_s"] for r in rounds])
    attributed = attributed_s(profiled)
    health = workload_health(profiled)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in NAMED_LAYERS + ("perfbench",):
        metrics[f"{layer}.self_s"] = (layers.get(layer, 0.0), "s")
    metrics["other.self_s"] = (
        sum(v for k, v in layers.items()
            if k not in NAMED_LAYERS + ("perfbench", "unattributed")),
        "s",
    )
    metrics.update({
        "sim.events": (events, "count"),
        "sim.events_per_op": (ratio(events, ops), "count/op"),
        "sim.events_per_s": (ratio(events, untraced_wall), "1/s"),
        "metastore.txn_commits": (c["store_commits"], "count"),
        "metastore.txn_aborts": (c["store_aborts"], "count"),
        "metastore.commit_ratio": (
            ratio(c["store_commits"], c["store_commits"] + c["store_aborts"]),
            "fraction",
        ),
        "metastore.lock_acquires": (calls["metastore.lock_acquires"], "count"),
        "metastore.rows_read_per_op": (ratio(c["store_rows_read"], ops), "count/op"),
        "metastore.shard_busy_ms": (c["store_busy_ms"], "ms"),
        "core.partition_hashes_per_op": (
            ratio(calls["core.partition_hashes"], ops), "count/op"
        ),
        "core.resolve_calls": (calls["core.resolve_calls"], "count"),
        "core.namenode_requests": (calls["core.namenode_requests"], "count"),
        "core.client_retries": (c["client_retries"], "count"),
        "core.stragglers": (c["stragglers"], "count"),
        "core.useful_attempt_ratio": (
            ratio(ops, c["tcp_calls"] + c["http_calls"]), "fraction"
        ),
        "namespace.cache_hit_ratio": (
            ratio(c["cache_hits"], c["cache_hits"] + c["cache_misses"]), "fraction"
        ),
        "namespace.cache_evictions": (c["cache_evictions"], "count"),
        "namespace.cache_invalidations": (c["cache_invalidations"], "count"),
        "rpc.tcp_calls": (c["tcp_calls"], "count"),
        "rpc.http_calls": (c["http_calls"], "count"),
        "rpc.tcp_share": (
            ratio(c["tcp_calls"], c["tcp_calls"] + c["http_calls"]), "fraction"
        ),
        "faas.cold_starts": (c["cold_starts"], "count"),
        "faas.invocations": (c["invocations"], "count"),
        "faas.peak_instances": (profiled["peak_instances"], "count"),
        "coordination.invs_sent": (c["invs_sent"], "count"),
        "coordination.acks_per_inv": (
            ratio(c["acks_received"], c["invs_sent"]), "ratio"
        ),
        "trace.spans": (c["spans"], "count"),
        "telemetry.samples": (c["samples"], "count"),
        "incidents.alerts": (profiled["alerts"], "count"),
        "workloads.backlog_frac": health["sim_backlog_frac"],
        "workloads.op_error_rate": health["op_error_rate"],
        "bench.traced_slowdown": (ratio(profiled["wall_s"], untraced_wall), "ratio"),
        "bench.attributed_frac": (ratio(attributed, profiled["wall_s"]), "fraction"),
        "bench.unattributed_s": (profiled["wall_s"] - attributed, "s"),
    })
    return metrics


def check(rounds: List[dict], profiled: Optional[dict]) -> List[str]:
    """Problems that make the run incorrect; empty when it is right."""
    problems: List[str] = []
    every = rounds + ([profiled] if profiled is not None else [])
    for r in every:
        problems.extend(f"hash_seed {r['hash_seed']}: {p}" for p in r["problems"])
    reference = every[0]["fingerprint"]
    for r in every[1:]:
        if r["fingerprint"] != reference:
            diff = {
                k: (reference.get(k), r["fingerprint"].get(k))
                for k in set(reference) | set(r["fingerprint"])
                if reference.get(k) != r["fingerprint"].get(k)
            }
            problems.append(
                f"fingerprint under PYTHONHASHSEED={r['hash_seed']} differs "
                f"from PYTHONHASHSEED={every[0]['hash_seed']}: {diff}"
            )
    if profiled is not None:
        share = ratio(attributed_s(profiled), profiled["wall_s"])
        if share < MIN_ATTRIBUTED:
            problems.append(
                f"named layers account for {share:.1%} of the profiled wall time "
                f"(need {MIN_ATTRIBUTED:.0%})"
            )
    return problems


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def write_manifest(args, rounds, profiled, e2e, layer, health, problems) -> str:
    manifest = {
        "workload": args.workload,
        "params": rounds[0]["params"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hash_seeds": [r["hash_seed"] for r in rounds],
        "fingerprint": rounds[0]["fingerprint"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in {**e2e, **health, **(layer or {})}.items()
        },
        "spread": {
            "wall_ops_per_s": quartile_spread([wall_ops_per_s(r) for r in rounds]),
            "setup_s": quartile_spread([r["setup_s"] for r in rounds]),
        },
        "rounds": [
            {k: r[k] for k in ("hash_seed", "wall_s", "setup_s", "ops", "peak_rss_mb")}
            for r in rounds
        ],
        "traced_wall_breakdown_s": profiled["layer_self_s"] if profiled else None,
        "traced_wall_s": profiled["wall_s"] if profiled else None,
        "problems": problems,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2

    try:
        rounds, profiled = run_rounds(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    problems = check(rounds, profiled)
    e2e = end_to_end(rounds)
    health = workload_health(rounds[0])
    layer = per_layer(rounds, profiled) if profiled is not None else None
    manifest = write_manifest(args, rounds, profiled, e2e, layer, health, problems)

    first = rounds[0]
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds, "
          f"{first['ops']} ops each, {first['latency_samples']} latency samples, "
          f"PYTHONHASHSEED {rounds[0]['hash_seed']}..{rounds[-1]['hash_seed']}")
    for name, (value, unit) in {**e2e, **health, **(layer or {})}.items():
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"  manifest: {os.path.relpath(manifest, ROOT)}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    reported = layer if args.trace else e2e
    every = rounds + ([profiled] if profiled is not None else [])
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["fingerprint"]["ops_issued"] for r in every),
        "failed": sum(r["fingerprint"]["ops_failed"] for r in every),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
