"""Wall-clock throughput benchmark for the simulation kernel itself.

Every other benchmark in this repository measures *simulated* systems;
this one measures the simulator.  It runs a pure-kernel workload — no
filesystem, no RPC fabric — shaped like the real traffic the kernel
serves: per-client think/send/service/receive timeout chains with a
periodic coordinator-style ``AllOf`` fan-in, at 1k/10k/100k concurrent
client processes.  Each op additionally arms fire-and-forget watchdog
timers (tens of sim-ms out), mirroring how the repository's subsystems
actually load the scheduler: every lock acquire arms a budget timer
(``request | timer`` in :mod:`repro.metastore.locks`), every RPC a
deadline guard — so at scale the *pending* set is dominated by armed
timers, several times larger than the set of runnable clients.  That
pending-set pressure is precisely what separates schedulers: a global
binary heap pays O(log n) cache-cold comparisons on it for every
event, a calendar queue does not.

The timed pass starts from a collected heap and runs under the run
loop's own GC policy (:mod:`repro.sim.core`: setup graph frozen,
gen-0 threshold raised), the same policy every full-stack run pays.

Reported numbers are **wall-clock** events/sec and
ops/sec plus peak memory, so kernel speedups are proven, not claimed:

* ``events`` — kernel events executed (read from the environment's
  step counter when present, cross-checked against the closed-form
  count of the workload; ``verify_count=True`` asserts both against an
  ``on_step`` counting hook);
* ``ops`` — client operations completed (one think+round-trip chain);
* ``rss_max_kb`` — process peak RSS via :mod:`resource` after the run;
* ``py_heap_peak_kb`` — peak Python heap from a separate, *untimed*
  :mod:`tracemalloc` probe at the same concurrency (2 ops/client), i.e.
  the kernel's per-pending-client footprint, measured without slowing
  the timed pass.

``compare_kernel_bench`` implements ``repro profile diff``-style
regression gating: candidate events/sec more than ``threshold`` below
the baseline at any shared scale point fails (exit 1 in the CLI), so
``scripts/smoke.sh`` can gate on the committed ``BENCH_kernel.json``.

The workload itself is fully deterministic (named, seeded RNG streams;
sim behaviour is independent of wall time), so same-seed runs execute
the identical event sequence — only the wall-clock figures vary.
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.sim import AllOf, Environment, RngStreams, Timeout

#: Mean client think time (sim-ms) between operations.
THINK_MEAN_MS = 8.0
#: Every FANIN_EVERY-th op runs a 3-way AllOf fan-in (coordinator shape).
FANIN_EVERY = 8
FANIN_WIDTH = 3
#: Fire-and-forget watchdog timers armed per op, mirroring the real
#: subsystems' per-op timer load: one deadline guard per RPC hop
#: (three hops per op), one lock-budget timer, one lease-renewal
#: timer, and one client-side op timeout.  They fire later as
#: zero-callback events, so what they exercise is the scheduler, not
#: dispatch.
GUARDS_PER_OP = 6
GUARD_MIN_MS = 20.0
GUARD_MAX_MS = 60.0


@dataclass(frozen=True)
class KernelScale:
    """One benchmark point: ``clients`` concurrent processes."""

    name: str
    clients: int
    ops_per_client: int

    def events_expected(self) -> int:
        """Closed-form kernel event count for this workload shape.

        Per client: one ``Initialize`` plus one process-end event; per
        op four timeouts (think/send/service/receive) plus
        ``GUARDS_PER_OP`` watchdog timers; and — on every
        ``FANIN_EVERY``-th op — ``FANIN_WIDTH`` ack timeouts plus the
        ``AllOf`` condition event itself.
        """
        ops = self.ops_per_client
        fanins = (ops + FANIN_EVERY - 1) // FANIN_EVERY
        per_client = 2 + (4 + GUARDS_PER_OP) * ops + (FANIN_WIDTH + 1) * fanins
        return self.clients * per_client

    def ops_total(self) -> int:
        return self.clients * self.ops_per_client


#: The standard scale ladder.  Ops per client shrink as client counts
#: grow so every point finishes in seconds while the pending-event set
#: (the part that stresses the scheduler) scales with the client count.
SCALES: Dict[str, KernelScale] = {
    scale.name: scale
    for scale in (
        KernelScale("1k", clients=1_000, ops_per_client=48),
        KernelScale("10k", clients=10_000, ops_per_client=12),
        KernelScale("100k", clients=100_000, ops_per_client=6),
    )
}

#: The scale the quick (smoke) gate runs.
QUICK_SCALES = ("10k",)


def _client(env: Environment, think, net, guard, ops: int):
    # Draws use the batched BufferedDraws APIs (one call per op for
    # the guard block, one raw triple per op for the hops) — the bench
    # measures the kernel, not Python call overhead in the workload.
    expovariate = think.expovariate
    net3 = net.random3
    guard2 = guard.uniform2
    guard4 = guard.uniform4
    rate = 1.0 / THINK_MEAN_MS
    for serial in range(ops):
        # Watchdogs armed, never awaited (GUARDS_PER_OP of them).
        g0, g1, g2, g3 = guard4(GUARD_MIN_MS, GUARD_MAX_MS)
        g4, g5 = guard2(GUARD_MIN_MS, GUARD_MAX_MS)
        Timeout(env, g0)
        Timeout(env, g1)
        Timeout(env, g2)
        Timeout(env, g3)
        Timeout(env, g4)
        Timeout(env, g5)
        yield Timeout(env, expovariate(rate))
        r0, r1, r2 = net3()
        yield Timeout(env, 0.25 + 0.30 * r0)         # request one-way
        yield Timeout(env, 0.10 + 0.80 * r1)         # service
        yield Timeout(env, 0.25 + 0.30 * r2)         # response one-way
        if not serial & 7:  # serial % FANIN_EVERY == 0
            # FANIN_WIDTH-way ack fan-in, unrolled.
            a0, a1, a2 = net3()
            yield AllOf(env, [
                Timeout(env, 0.10 + 0.30 * a0),
                Timeout(env, 0.10 + 0.30 * a1),
                Timeout(env, 0.10 + 0.30 * a2),
            ])


class _StepCounter:
    """A minimal ``on_step`` hook for cross-checking event counts."""

    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, when, priority, eid, event) -> None:
        self.steps += 1


def run_kernel_point(
    scale: KernelScale,
    seed: int = 0,
    verify_count: bool = False,
    mem_probe: bool = True,
) -> Dict[str, object]:
    """Run one scale point; returns its result record."""
    expected = scale.events_expected()

    def build() -> Environment:
        env = Environment()
        streams = RngStreams(seed)
        think = streams.buffered("kernel.think", block=1024)
        net = streams.buffered("kernel.net", block=1024)
        guard = streams.buffered("kernel.guard", block=1024)
        for _ in range(scale.clients):
            env.process(_client(env, think, net, guard, scale.ops_per_client))
        return env

    counter = None
    if verify_count:
        env = build()
        counter = _StepCounter()
        env.tracer = counter
        env.run()
        env.tracer = None
        if counter.steps != expected:
            raise AssertionError(
                f"{scale.name}: hook counted {counter.steps} events, "
                f"closed form predicts {expected}"
            )

    env = build()
    # Time from a clean heap; the run loop's own GC policy (see
    # repro.sim.core) keeps the collector off the timed pass.
    gc.collect()
    start = time.perf_counter()
    env.run()
    wall_s = time.perf_counter() - start

    executed = getattr(env, "steps", None)
    events = executed if executed is not None else expected
    if executed is not None and executed != expected:
        raise AssertionError(
            f"{scale.name}: kernel executed {executed} events, "
            f"closed form predicts {expected}"
        )

    record: Dict[str, object] = {
        "clients": scale.clients,
        "ops_per_client": scale.ops_per_client,
        "events": events,
        "ops": scale.ops_total(),
        "final_sim_ms": env.now,
        "wall_s": wall_s,
        "events_per_sec": events / wall_s if wall_s > 0 else float("inf"),
        "ops_per_sec": scale.ops_total() / wall_s if wall_s > 0 else float("inf"),
        "rss_max_kb": _rss_max_kb(),
    }
    if mem_probe:
        record["py_heap_peak_kb"] = _py_heap_peak_kb(scale, seed)
    return record


def _rss_max_kb() -> Optional[float]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak / 1024.0 if sys.platform == "darwin" else float(peak)


def _py_heap_peak_kb(scale: KernelScale, seed: int) -> float:
    """Peak Python heap at this concurrency (untimed tracemalloc pass)."""
    import tracemalloc

    env = Environment()
    streams = RngStreams(seed)
    think = streams.buffered("kernel.think", block=1024)
    net = streams.buffered("kernel.net", block=1024)
    guard = streams.buffered("kernel.guard", block=1024)
    tracemalloc.start()
    try:
        for _ in range(scale.clients):
            env.process(_client(env, think, net, guard, 2))
        env.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024.0


def run_kernel_bench(
    scales: Iterable[str] = tuple(SCALES),
    seed: int = 0,
    repeats: int = 2,
    verify_count: bool = False,
    mem_probe: bool = True,
) -> Dict[str, object]:
    """Run the requested scale points; best-of-``repeats`` per point."""
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    unknown = [name for name in scales if name not in SCALES]
    if unknown:
        raise ValueError(f"unknown kernel scale(s): {unknown} "
                         f"(known: {sorted(SCALES)})")
    points: Dict[str, Dict[str, object]] = {}
    for name in scales:
        scale = SCALES[name]
        best: Optional[Dict[str, object]] = None
        heap_kb: Optional[float] = None
        for attempt in range(repeats):
            record = run_kernel_point(
                scale, seed=seed,
                verify_count=verify_count and attempt == 0,
                mem_probe=mem_probe and attempt == 0,
            )
            if attempt == 0:
                heap_kb = record.get("py_heap_peak_kb")
            if best is None or record["wall_s"] < best["wall_s"]:
                best = record
        if heap_kb is not None:
            best["py_heap_peak_kb"] = heap_kb
        points[name] = best
    return {
        "version": 1,
        "seed": seed,
        "repeats": repeats,
        "python": platform.python_version(),
        "points": points,
    }


def save_kernel_bench(result: Dict[str, object], path: str) -> str:
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return path


def load_kernel_bench(path: str) -> Dict[str, object]:
    with open(path) as fh:
        result = json.load(fh)
    if "points" not in result:
        raise ValueError(f"{path} is not a kernel bench file (no 'points')")
    return result


@dataclass
class KernelDiff:
    """Comparison of two kernel bench results on shared scale points."""

    rows: List[List[object]]
    regressions: List[str]
    threshold: float

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_kernel_bench(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = 0.10,
) -> KernelDiff:
    """Gate ``candidate`` against ``baseline`` on events/sec.

    A shared scale point whose candidate events/sec falls more than
    ``threshold`` (relative) below the baseline is a regression.
    """
    rows: List[List[object]] = []
    regressions: List[str] = []
    base_points = baseline.get("points", {})
    cand_points = candidate.get("points", {})
    for name in cand_points:
        if name not in base_points:
            continue
        base = float(base_points[name]["events_per_sec"])
        cand = float(cand_points[name]["events_per_sec"])
        ratio = cand / base if base > 0 else float("inf")
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: {cand:,.0f} events/s is "
                f"{(1.0 - ratio) * 100:.1f}% below baseline {base:,.0f}"
            )
        rows.append([
            name, f"{base:,.0f}", f"{cand:,.0f}", f"{ratio:.2f}x", verdict,
        ])
    return KernelDiff(rows=rows, regressions=regressions, threshold=threshold)


def format_kernel_bench(result: Dict[str, object]) -> str:
    from repro.bench.report import tabulate

    rows = []
    for name, point in result["points"].items():
        heap = point.get("py_heap_peak_kb")
        rows.append([
            name,
            point["clients"],
            point["events"],
            f"{point['wall_s']:.3f}",
            f"{point['events_per_sec']:,.0f}",
            f"{point['ops_per_sec']:,.0f}",
            "-" if point.get("rss_max_kb") is None
            else f"{point['rss_max_kb'] / 1024:.0f}",
            "-" if heap is None else f"{heap / 1024:.0f}",
        ])
    return tabulate(
        ["scale", "clients", "events", "wall (s)", "events/s", "ops/s",
         "rss (MB)", "py heap (MB)"],
        rows,
    )


def format_kernel_diff(diff: KernelDiff) -> str:
    from repro.bench.report import tabulate

    table = tabulate(
        ["scale", "baseline ev/s", "candidate ev/s", "ratio", "verdict"],
        diff.rows,
    )
    if diff.ok:
        status = (f"kernel bench: PASS "
                  f"(no point >{diff.threshold * 100:.0f}% below baseline)")
    else:
        status = "kernel bench: FAIL\n" + "\n".join(
            f"  {line}" for line in diff.regressions
        )
    return f"{table}\n{status}"


def quick_scale_names(quick: bool, scales: Optional[Sequence[str]]) -> List[str]:
    """Resolve the CLI's scale selection."""
    if scales:
        return list(scales)
    return list(QUICK_SCALES if quick else SCALES)
