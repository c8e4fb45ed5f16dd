"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — the quickstart scenario (basic metadata ops);
* ``spotify`` — a miniature Figure 8(a): λFS vs HopsFS under the
  bursty industrial workload, with throughput plots;
* ``scaling`` — one client-scaling comparison point per system;
* ``table3`` — the subtree-mv latency table;
* ``replay`` — replay an audit-log trace file;
* ``telemetry`` — a telemetry-instrumented microbenchmark rendering
  the sim-time metrics dashboard (fleet size, RPC mix, cache rates);
* ``profile`` — critical-path profiling: ``run`` a profiled
  microbenchmark (attribution report + Perfetto/flamegraph exports),
  ``diff`` two profile.json files stage-by-stage, ``export`` from a
  spans dump;
* ``chaos`` — deterministic fault injection: ``run`` one scenario
  (built-in name or JSON file) under load and verify recovery,
  ``matrix`` the regression scenario set (add ``--detect`` for online
  alerting + the detection gate);
* ``incidents`` — online SLO alerting + root-cause attribution:
  ``run`` one detected chaos scenario (incident timeline report),
  ``matrix`` the detection regression set, ``analyze`` a telemetry
  JSONL export offline, ``rules`` the alert-rule catalog;
* ``resilience`` — overload protection: ``run`` one overload scenario
  under gate 7, ``matrix`` the overload set with its expected-FAIL twin;
* ``bench`` — wall-clock benchmarks of the toolkit itself: ``kernel``
  measures raw simulator events/sec + peak RSS at 1k/10k/100k client
  scales, with ``--baseline`` regression gating against a committed
  BENCH_kernel.json;
* ``experiments`` — list the experiment drivers and what they map to.

The three ``matrix`` subcommands share one path (``_run_matrix``):
each scenario runs in its own ``Environment``, so its record depends
only on the seed and config.  ``--bench-json PATH`` writes the records
with sorted keys; ``scripts/check_baselines.sh`` gates the committed
BENCH files by regenerating each and diffing it against the committed
copy.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.report import tabulate


def _print_trace_summary(tracer) -> None:
    summary = tracer.summary()
    print(f"\ntrace: {summary['spans']} spans ({summary['points']} points), "
          f"{summary['events_hashed']} events hashed, "
          f"event hash {summary['event_hash']}, "
          f"{summary['violations']} invariant violation(s)")
    for violation in tracer.violations():
        print(f"  {violation}")


def _cmd_demo(args) -> int:
    from repro.core import LambdaFS
    from repro.sim import Environment

    env = Environment()
    tracer = None
    if args.trace:
        from repro.trace import install_tracer

        tracer = install_tracer(env)
    fs = LambdaFS(env)
    fs.format()
    fs.start()
    client = fs.new_client()

    def scenario(env):
        for op, path in (
            ("mkdirs", "/cli/demo"),
            ("create_file", "/cli/demo/file.txt"),
            ("stat", "/cli/demo/file.txt"),
            ("ls", "/cli/demo"),
            ("delete", "/cli/demo/file.txt"),
        ):
            response = yield from getattr(client, op)(path)
            print(f"{op:12s} {path:22s} ok={response.ok}")

    done = env.process(scenario(env))
    env.run(until=done)
    print(f"\nactive NameNodes: {fs.active_namenodes()}  "
          f"avg latency: {fs.metrics.average_latency():.2f} ms  "
          f"cost: ${fs.cost_usd():.6f}")
    if tracer is not None:
        _print_trace_summary(tracer)
    return 0


def _cmd_spotify(args) -> int:
    from repro.bench.experiments import fig8_spotify
    from repro.metrics.ascii_plot import line_plot

    runs = fig8_spotify(
        base_throughput=args.base,
        duration_ms=args.duration * 1000.0,
        clients=args.clients,
        systems=("lambda", "hopsfs"),
        trace=args.trace,
    )
    rows = [
        [run.name, run.avg_throughput, run.peak_throughput,
         run.avg_latency_ms, f"${run.final_cost_usd:.4f}"]
        for run in runs.values()
    ]
    print(tabulate(
        ["system", "avg ops/s", "peak ops/s", "avg lat (ms)", "cost"], rows
    ))
    print()
    print(line_plot({
        "λFS": runs["lambda"].throughput_timeline,
        "HopsFS": runs["hopsfs"].throughput_timeline,
    }))
    report = runs["lambda"].trace_report
    if report is not None:
        print(f"\ntrace: {report['spans']} spans, "
              f"event hash {report['event_hash']}, "
              f"{report['violations']} invariant violation(s)")
        for line in report["violation_detail"]:
            print(f"  {line}")
    return 0


def _cmd_scaling(args) -> int:
    from repro.bench.experiments import fig11_client_scaling
    from repro.core import OpType

    points = fig11_client_scaling(
        client_counts=(args.clients,),
        ops=(OpType.READ_FILE,),
        ops_per_client=args.ops,
        warmup_per_client=max(8, args.ops // 4),
    )
    print(tabulate(
        ["system", "clients", "ops/s", "servers", "cost"],
        [
            [p.system, p.clients, p.throughput, p.active_servers,
             f"${p.cost_usd:.4f}"]
            for p in points
        ],
    ))
    return 0


def _cmd_table3(args) -> int:
    from repro.bench.experiments import table3_subtree_mv

    rows = table3_subtree_mv(directory_sizes=tuple(args.sizes))
    print(tabulate(
        ["files", "HopsFS (ms)", "λFS (ms)", "λFS advantage"],
        [
            [r["files"], r["hopsfs"], r["lambda"],
             f"{(r['hopsfs'] - r['lambda']) / r['hopsfs'] * 100:.1f}%"]
            for r in rows
        ],
    ))
    return 0


def _cmd_replay(args) -> int:
    from repro.core import LambdaFS
    from repro.sim import Environment
    from repro.workloads import TraceReplayer, load_trace

    with open(args.trace) as handle:
        records = load_trace(handle)
    env = Environment()
    tracer = None
    if args.trace_spans:
        from repro.trace import install_tracer

        tracer = install_tracer(env)
    fs = LambdaFS(env)
    fs.format()
    fs.start()
    clients = [fs.new_client() for _ in range(args.clients)]
    warm = env.process((lambda g: (yield from g))(fs.prewarm(1)))
    env.run(until=warm)
    box = {}

    def main(env):
        box["r"] = yield from TraceReplayer(env, records).run(clients)

    done = env.process(main(env))
    env.run(until=done)
    result = box["r"]
    print(f"replayed {result.issued} ops "
          f"({result.succeeded} ok, {result.failed} failed) "
          f"in {result.duration_ms / 1000:.2f} s simulated "
          f"-> {result.throughput:,.0f} ops/s")
    print(f"avg latency {fs.metrics.average_latency():.2f} ms, "
          f"cost ${fs.cost_usd():.6f}, "
          f"NameNodes {fs.active_namenodes()}")
    if tracer is not None:
        _print_trace_summary(tracer)
    return 0


def _cmd_telemetry(args) -> int:
    """A Fig-11-style microbenchmark with full telemetry.

    A short prelude run by a few clients per VM establishes the
    shared TCP connections, so the measured phases' HTTP traffic is
    purely the deliberate replacement signal (§3.6) — the fleet
    timeline then scales out with ``--replacement`` instead of with
    the artefactual all-HTTP first-contact burst.  Phase 1 (reads)
    warms caches under that signal; a mid-run subtree mv (away and
    back) injects an invalidation storm so cache hit-rate gauges
    visibly dip; phase 2 re-reads under the cooled caches.  The
    sampled series are exported (JSONL/CSV/Prometheus) and rendered
    as a dashboard.
    """
    from repro.telemetry import read_jsonl, render_dashboard

    if args.load:
        print(render_dashboard(read_jsonl(args.load)))
        return 0

    from repro.bench.harness import build_lambdafs, drive
    from repro.core import OpType
    from repro.namespace.treegen import TreeSpec, generate_tree
    from repro.sim import Environment
    from repro.workloads import MicroBenchmark

    env = Environment()
    tree = generate_tree(TreeSpec(seed=args.seed))
    handle = build_lambdafs(
        env, tree,
        deployments=args.deployments,
        seed=args.seed,
        client_overrides={"replacement_probability": args.replacement},
        trace=args.trace,
        telemetry=True,
        telemetry_interval_ms=args.interval,
    )
    telemetry = handle.telemetry
    clients = handle.make_clients(args.clients)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=args.seed)
    # Connection prelude: a handful of clients (spanning every VM —
    # connections are VM-shared) touch every deployment so the fleet
    # the measured phases see is TCP-connected from op one.
    drive(env, bench.run(clients[:8], OpType.READ_FILE, 0, args.warmup))
    drive(env, bench.run(clients, OpType.READ_FILE, args.ops, 0))
    # Injected subtree invalidation: move a hot directory away and
    # back, blowing every deployment's cached entries beneath it.
    victim = tree.directories[1]

    def invalidate(env):
        yield from clients[0].mv(victim, victim + "_tmp")
        yield from clients[0].mv(victim + "_tmp", victim)

    drive(env, invalidate(env))
    drive(env, bench.run(clients, OpType.READ_FILE, args.ops, 0))
    telemetry.stop()
    print(telemetry.dashboard())
    if args.out:
        paths = telemetry.export(args.out)
        print("\nexports:")
        for kind in sorted(paths):
            print(f"  {kind:6s} {paths[kind]}")
    if handle.tracer is not None:
        _print_trace_summary(handle.tracer)
    return 0


def _run_profiled_micro(args):
    """Build a profiled λFS and run the standard profile workload.

    One read phase (cache-dominated) plus one create-file phase
    (store + coherence-dominated), after a TCP-connection prelude, so
    every stage of the taxonomy shows up in the attribution.  Returns
    ``(handle, profile)``.
    """
    from dataclasses import replace as _replace

    from repro.bench.harness import build_lambdafs, drive
    from repro.core import OpType
    from repro.metastore import NdbConfig
    from repro.namespace.treegen import TreeSpec, generate_tree
    from repro.sim import Environment
    from repro.workloads import MicroBenchmark

    ndb = None
    if args.slow_store != 1.0:
        base = NdbConfig()
        ndb = _replace(
            base,
            read_service_ms=base.read_service_ms * args.slow_store,
            write_service_ms=base.write_service_ms * args.slow_store,
            commit_service_ms=base.commit_service_ms * args.slow_store,
        )
    env = Environment()
    tree = generate_tree(TreeSpec(seed=args.seed))
    handle = build_lambdafs(
        env, tree,
        deployments=args.deployments,
        seed=args.seed,
        ndb=ndb,
        client_overrides={"replacement_probability": args.replacement},
        profile=True,
    )
    clients = handle.make_clients(args.clients)
    drive(env, handle.prewarm())
    bench = MicroBenchmark(env, tree, seed=args.seed)
    drive(env, bench.run(clients[:8], OpType.READ_FILE, 0, args.warmup))
    drive(env, bench.run(clients, OpType.READ_FILE, args.ops, 0))
    drive(env, bench.run(clients, OpType.CREATE_FILE, max(1, args.ops // 4), 0))
    return handle, handle.profiler.analyze()


def _cmd_profile(args) -> int:
    import os

    from repro.profile import (
        Profile,
        diff_profiles,
        dump_spans,
        format_diff,
        format_report,
        load_spans,
        analyze_spans,
        write_chrome_trace,
        write_folded_stacks,
    )

    if args.profile_command == "run":
        handle, profile = _run_profiled_micro(args)
        print(format_report(profile, top=args.top))
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            tracer = handle.tracer
            paths = {
                "profile": profile.save(os.path.join(args.out, "profile.json")),
                "chrome": write_chrome_trace(
                    tracer.spans.values(),
                    os.path.join(args.out, "trace.chrome.json"),
                ),
                "folded": write_folded_stacks(
                    profile, os.path.join(args.out, "stacks.folded")
                ),
                "spans": dump_spans(
                    tracer.spans.values(),
                    os.path.join(args.out, "spans.jsonl"),
                ),
            }
            print("\nexports:")
            for kind in sorted(paths):
                print(f"  {kind:8s} {paths[kind]}")
        if args.bench_json:
            _write_bench_json(args.bench_json, {
                "version": 1,
                "event_hash": handle.tracer.event_hash(),
                "ops": profile.to_dict()["summary"],
            })
        _print_trace_summary(handle.tracer)
        return 0

    if args.profile_command == "diff":
        before = Profile.load(args.before)
        after = Profile.load(args.after)
        diff = diff_profiles(
            before, after,
            rel_threshold=args.threshold, min_ms=args.min_ms,
        )
        print(format_diff(diff, verbose=args.verbose))
        return 1 if diff.regressions() else 0

    if args.profile_command == "export":
        spans = load_spans(args.spans)
        os.makedirs(args.out, exist_ok=True)
        profile = analyze_spans(spans)
        chrome = write_chrome_trace(
            spans, os.path.join(args.out, "trace.chrome.json")
        )
        folded = write_folded_stacks(
            profile, os.path.join(args.out, "stacks.folded"), by=args.by
        )
        print(f"chrome trace: {chrome}\nfolded stacks: {folded}")
        print(f"({len(profile.ops)} completed op(s) attributed)")
        return 0

    raise ValueError(f"unknown profile subcommand {args.profile_command!r}")


def _chaos_run_config(args, detect: Optional[bool] = None):
    from repro.chaos import ChaosRunConfig, RecoverySLO

    return ChaosRunConfig(
        seed=args.seed,
        clients=args.clients,
        deployments=args.deployments,
        write_fraction=args.write_frac,
        think_ms=args.think,
        telemetry_interval_ms=args.interval,
        drain_ms=args.drain,
        slo=RecoverySLO(window_ms=args.window),
        datanodes=args.datanodes,
        chunk_write_fraction=args.chunk_write_frac,
        detect=(
            detect if detect is not None
            else getattr(args, "detect", False)
        ),
        ruleset=getattr(args, "ruleset", "default"),
    )


def _report_chaos_run(result, verbose: bool) -> int:
    """Print one scenario run's verdict; returns its exit code."""
    injections = [e for e in result.engine.log if e.action == "inject"]
    print(result.summary())
    print(result.report.render())
    print(f"fault log: {len(result.engine.log)} event(s), "
          f"{len(injections)} injection(s), hash {result.log_hash}")
    if result.incidents is not None:
        print()
        print(result.incidents.render())
    if verbose:
        for event in result.engine.log:
            print(f"  {event}")
    return 0 if result.passed else 1


def _cmd_chaos(args) -> int:
    from repro.chaos import MATRIX, builtin_scenarios, load_scenario, run_scenario

    if args.chaos_command == "run":
        if args.list:
            rows = [
                [s.name, len(s.faults), f"{s.clear_ms / 1000:.1f}s",
                 s.description]
                for s in builtin_scenarios().values()
            ]
            print(tabulate(["scenario", "faults", "clear", "description"],
                           rows))
            return 0
        if args.file:
            scenario = load_scenario(args.file)
        elif args.scenario:
            scenario = builtin_scenarios().get(args.scenario)
            if scenario is None:
                print(f"unknown scenario {args.scenario!r} "
                      f"(try: repro chaos run --list)", file=sys.stderr)
                return 2
        else:
            print("need a scenario name or --file (or --list)",
                  file=sys.stderr)
            return 2
        result = run_scenario(scenario, _chaos_run_config(args))
        return _report_chaos_run(result, args.verbose)

    if args.chaos_command == "matrix":
        return _run_matrix(args, MATRIX, _chaos_run_config(args), "matrix")

    raise ValueError(f"unknown chaos subcommand {args.chaos_command!r}")


def _write_bench_json(path: str, payload: dict) -> None:
    """Write a BENCH baseline file (sorted keys, indent 2)."""
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"\nbench json: {path}")


def _scenario_record(result) -> dict:
    """One scenario's BENCH record: the base verdict fields, plus the
    incidents, resilience, tenants and fleet blocks when present."""
    from repro.chaos import EXPECTED_FAIL

    report = result.report
    record = {
        "passed": result.passed,
        "expected_fail": result.scenario.name in EXPECTED_FAIL,
        "ops_ok": result.ops_ok,
        "ops_failed": result.ops_failed,
        "errors": result.errors,
        "checks": report.checks,
        "hung_ops": len(report.hung_ops),
        "recovery_time_ms": report.recovery_time_ms,
        "duration_ms": result.duration_ms,
        "event_hash": result.event_hash,
        "fault_log_hash": result.log_hash,
    }
    if result.incidents is not None:
        record.update({
            "incidents": len(result.incidents.incidents),
            "alerts": result.incidents.alerts_total,
            "mttd_ms": result.incidents.mttd_ms,
            "top_suspect": report.top_suspect,
        })
    if result.resilience is not None:
        snap = result.resilience
        record.update({
            "shed": snap["sheds"],
            "deadline_expirations": snap["deadline_expirations"],
            "deadline_violations": report.deadline_violations,
            "breaker_opened": snap["breaker_opens"] > 0,
            "breaker_opens": snap["breaker_opens"],
            "breaker_transitions": snap["breaker_transitions"],
            "stale_reads": snap["stale_reads"],
            "budget_exhaustions": snap["budget_exhaustions"],
            "baseline_goodput": report.baseline_goodput,
            "recovered_goodput": report.recovered_goodput,
        })
    if result.tenant_counts is not None:
        record.update({
            "tenants": {
                tenant: {"issued": c.issued, "ok": c.ok,
                         "failed": c.failed, "errors": c.errors}
                for tenant, c in sorted(result.tenant_counts.items())
            },
            "jain_min": report.jain_min,
            "jain_recovered": report.jain_recovered,
            "baseline_victim_p99_ms": report.baseline_victim_p99_ms,
            "recovered_victim_p99_ms": report.recovered_victim_p99_ms,
            "fairness_recovery_ms": report.fairness_recovery_ms,
        })
    if result.fleet is not None:
        record.update({
            "datanodes": len(result.fleet.nodes),
            "datanodes_dead": len(result.fleet.tracker.dead()),
            "blocks": len(result.fleet.blocks),
            "repairs": len(result.fleet.scanner.records),
            "lost_blocks": sorted(result.fleet.scanner.lost),
            "replication_recovery_ms": report.replication_recovery_ms,
        })
    return record


#: Matrix table columns after scenario and verdict, as (header, record
#: field); a column shows when any scenario's record carries its field.
_MATRIX_COLUMNS = (
    ("ok", "ops_ok"), ("failed", "ops_failed"),
    ("recovery", "recovery_time_ms"),
    ("incidents", "incidents"), ("MTTD", "mttd_ms"),
    ("top suspect", "top_suspect"),
    ("sheds", "shed"), ("give-ups", "deadline_expirations"),
    ("violations", "deadline_violations"),
    ("breaker opens", "breaker_opens"),
    ("events", "event_hash"),
)


def _matrix_cell(field: str, value):
    if value is None:
        return "-"
    if field.endswith("_ms"):
        return f"{value:.0f} ms"
    if field == "event_hash":
        return value[:12]
    return value


def _run_matrix(args, default_names, config, label: str) -> int:
    """Run a scenario matrix (``--scenarios`` or ``default_names``) in
    order under ``config``: print the table, write ``--bench-json``,
    and exit 1 when any outcome differs from its expectation (the
    expected-FAIL twins must fail)."""
    from repro.chaos import builtin_scenarios, run_scenario

    scenarios = builtin_scenarios()
    names = list(args.scenarios or default_names)
    unknown = [n for n in names if n not in scenarios]
    if unknown:
        print(f"unknown scenario(s): {unknown}", file=sys.stderr)
        return 2
    records = {}
    exit_code = 0
    for name in names:
        result = run_scenario(scenarios[name], config)
        records[name] = _scenario_record(result)
        if result.passed == records[name]["expected_fail"]:
            exit_code = 1
            print(result.report.render())
    columns = [
        (header, field) for header, field in _MATRIX_COLUMNS
        if any(field in record for record in records.values())
    ]
    rows = []
    for name, record in records.items():
        ok = record["passed"] != record["expected_fail"]
        verdict = "PASS" if record["passed"] else "FAIL"
        if record["expected_fail"] and ok:
            verdict += " (expected)"
        elif not ok:
            verdict += " (!)"
        rows.append([name, verdict] + [
            _matrix_cell(field, record.get(field)) for _, field in columns
        ])
    print(tabulate(
        ["scenario", "verdict"] + [header for header, _ in columns], rows
    ))
    if args.bench_json:
        payload = {"version": 1, "seed": config.seed, "scenarios": records}
        if config.detect:
            payload["detection_window_ms"] = config.slo.detection_window_ms
        _write_bench_json(args.bench_json, payload)
    print(f"{label}:", "PASS" if exit_code == 0 else "FAIL")
    return exit_code


def _incident_rules(args):
    """Resolve --ruleset / --rules-file into a rule list."""
    from repro.incidents import get_ruleset, load_rules

    if getattr(args, "rules_file", None):
        with open(args.rules_file) as handle:
            return load_rules(handle.read())
    return get_ruleset(getattr(args, "ruleset", "default"))


def _incidents_exports(result, out: str) -> List[str]:
    """Write incidents.json / incidents.md / telemetry.jsonl to ``out``."""
    import os

    from repro.telemetry.export import write_jsonl

    os.makedirs(out, exist_ok=True)
    paths = [result.incidents.save(os.path.join(out, "incidents.json"))]
    md = os.path.join(out, "incidents.md")
    with open(md, "w") as handle:
        handle.write(result.incidents.render_markdown())
    paths.append(md)
    if result.timeseries is not None:
        series = os.path.join(out, "telemetry.jsonl")
        write_jsonl(result.timeseries, series)
        paths.append(series)
    return paths


def _cmd_incidents(args) -> int:
    import json
    import os

    from repro.incidents import (
        AlertEngine,
        Evidence,
        build_report,
        rule_to_dict,
    )

    if args.incidents_command == "rules":
        rules = _incident_rules(args)
        if args.json:
            print(json.dumps(
                [rule_to_dict(rule) for rule in rules],
                indent=2, sort_keys=True,
            ))
            return 0
        rows = [
            [rule.name, rule.kind, rule.severity, rule.condition(),
             rule.description]
            for rule in rules
        ]
        print(tabulate(
            ["rule", "kind", "severity", "condition", "description"], rows
        ))
        return 0

    if args.incidents_command == "analyze":
        from repro.telemetry import read_jsonl

        timeseries = read_jsonl(args.series)
        engine = AlertEngine(_incident_rules(args))
        alerts = engine.replay(timeseries)
        end_ms = timeseries.samples[-1][0] if timeseries.samples else 0.0
        report = build_report(
            alerts, Evidence(timeseries=timeseries),
            scenario=args.scenario or os.path.basename(args.series),
            end_ms=end_ms,
        )
        print(report.render())
        if args.json:
            report.save(args.json)
            print(f"\nincidents json: {args.json}")
        return 0

    from repro.chaos import MATRIX, builtin_scenarios, load_scenario, \
        run_scenario

    if args.incidents_command == "run":
        if args.file:
            scenario = load_scenario(args.file)
        else:
            scenario = builtin_scenarios().get(args.scenario or "")
            if scenario is None:
                print(f"unknown scenario {args.scenario!r}", file=sys.stderr)
                return 2
        result = run_scenario(scenario, _chaos_run_config(args, detect=True))
        print(result.summary())
        print(result.report.render())
        print()
        print(result.incidents.render())
        if args.out:
            print("\nexports:")
            for path in _incidents_exports(result, args.out):
                print(f"  {path}")
        return 0 if result.passed else 1

    if args.incidents_command == "matrix":
        return _run_matrix(
            args, MATRIX + ("control",), _chaos_run_config(args, detect=True),
            "detection matrix",
        )

    raise ValueError(
        f"unknown incidents subcommand {args.incidents_command!r}"
    )


def _resilience_config(args):
    from repro.chaos import RecoverySLO, resilience_run_config

    return resilience_run_config(
        seed=args.seed,
        clients=args.clients,
        deployments=args.deployments,
        write_fraction=args.write_frac,
        think_ms=args.think,
        telemetry_interval_ms=args.interval,
        drain_ms=args.drain,
        slo=RecoverySLO(window_ms=args.window),
        ruleset=getattr(args, "ruleset", "default"),
    )


def _cmd_resilience(args) -> int:
    from repro.chaos import RESILIENCE_MATRIX, builtin_scenarios, run_scenario

    scenarios = builtin_scenarios()
    default_names = list(RESILIENCE_MATRIX) + ["metastable-brownout-noshed"]

    if args.resilience_command == "run":
        if args.list:
            rows = [
                [s.name, len(s.faults), f"{s.clear_ms / 1000:.1f}s",
                 s.description]
                for s in (scenarios[n] for n in default_names)
            ]
            print(tabulate(["scenario", "faults", "clear", "description"],
                           rows))
            return 0
        if not args.scenario:
            print("need a scenario name (or --list)", file=sys.stderr)
            return 2
        scenario = scenarios.get(args.scenario)
        if scenario is None:
            print(f"unknown scenario {args.scenario!r} "
                  f"(try: repro resilience run --list)", file=sys.stderr)
            return 2
        result = run_scenario(scenario, _resilience_config(args))
        return _report_chaos_run(result, args.verbose)

    if args.resilience_command == "matrix":
        return _run_matrix(
            args, default_names, _resilience_config(args), "resilience matrix"
        )

    raise ValueError(
        f"unknown resilience subcommand {args.resilience_command!r}"
    )


def _cmd_tenants(args) -> int:
    """Multi-tenant run: per-tenant dashboard + fairness report."""
    import json

    from repro.tenants import TenantRunConfig, render_tenant_dashboard, run_tenants

    config = TenantRunConfig(
        seed=args.seed,
        duration_ms=args.duration,
        deployments=args.deployments,
        telemetry_interval_ms=args.interval,
        governed=args.governed,
        profile=args.profile,
    )
    result = run_tenants(config=config)
    print(render_tenant_dashboard(
        result.timeseries, specs=result.specs, report=result.report,
    ))
    print(f"\n{result.total_ops} op(s) across {len(result.specs)} tenant(s) "
          f"in {result.duration_ms:.0f} sim-ms  "
          f"events={result.event_hash[:12]}")
    if result.profile is not None:
        print("\nper-tenant critical-path shares:")
        for tenant, ops in sorted(result.profile.by_tenant().items()):
            if not tenant:
                continue
            shares = result.profile.stage_shares(tenant=tenant)
            top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
            stages = "  ".join(f"{s} {100 * v:.0f}%" for s, v in top)
            print(f"  {tenant:<12s} {len(ops):5d} ops  {stages}")
    if args.out:
        import os

        os.makedirs(args.out, exist_ok=True)
        from repro.telemetry.export import write_csv, write_jsonl, write_prometheus

        jsonl = os.path.join(args.out, "tenants.jsonl")
        csv = os.path.join(args.out, "tenants.csv")
        prom = os.path.join(args.out, "tenants.prom")
        write_jsonl(result.timeseries, jsonl)
        write_csv(result.timeseries, csv)
        write_prometheus(result.registry, prom)
        print("\nexports:")
        for path in (jsonl, csv, prom):
            print(f"  {path}")
    if args.json:
        payload = {
            "version": 1,
            "seed": args.seed,
            "duration_ms": result.duration_ms,
            "event_hash": result.event_hash,
            "report": result.report.as_dict(),
            "counts": {
                tenant: {"issued": c.issued, "ok": c.ok, "failed": c.failed}
                for tenant, c in sorted(result.counts.items())
            },
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\njson: {args.json}")
    return 0


def _cmd_bench(args) -> int:
    from repro.bench.kernel import (
        compare_kernel_bench,
        format_kernel_bench,
        format_kernel_diff,
        load_kernel_bench,
        quick_scale_names,
        run_kernel_bench,
        save_kernel_bench,
    )

    if args.bench_command != "kernel":
        raise ValueError(f"unknown bench subcommand {args.bench_command!r}")

    if args.diff:
        before = load_kernel_bench(args.diff[0])
        after = load_kernel_bench(args.diff[1])
        diff = compare_kernel_bench(before, after, threshold=args.threshold)
        print(format_kernel_diff(diff))
        return 0 if diff.ok else 1

    scales = quick_scale_names(args.quick, args.scales)
    result = run_kernel_bench(
        scales=scales,
        seed=args.seed,
        repeats=args.repeats,
        verify_count=args.verify_count,
        mem_probe=not args.no_mem,
    )
    print(format_kernel_bench(result))
    if args.json:
        print(f"\nbench json: {save_kernel_bench(result, args.json)}")
    if args.baseline:
        baseline = load_kernel_bench(args.baseline)
        diff = compare_kernel_bench(baseline, result, threshold=args.threshold)
        print()
        print(format_kernel_diff(diff))
        return 0 if diff.ok else 1
    return 0


def _cmd_experiments(_args) -> int:
    table = [
        ("fig8a/fig8b", "Spotify workload throughput", "benchmarks/test_fig8a…,8b…"),
        ("fig8c", "performance-per-cost timeline", "benchmarks/test_fig8c…"),
        ("fig9", "cumulative cost", "benchmarks/test_fig9…"),
        ("fig10", "latency CDFs", "benchmarks/test_fig10…"),
        ("fig11", "client-driven scaling", "benchmarks/test_fig11…"),
        ("fig12", "resource scaling", "benchmarks/test_fig12…"),
        ("fig13", "read perf-per-cost", "benchmarks/test_fig13…"),
        ("fig14", "auto-scaling ablation", "benchmarks/test_fig14…"),
        ("table3", "subtree mv latency", "benchmarks/test_table3…"),
        ("fig15", "fault tolerance", "benchmarks/test_fig15…"),
        ("fig16", "λIndexFS vs IndexFS", "benchmarks/test_fig16…"),
        ("app B/C/D", "straggler / anti-thrash / offload", "benchmarks/test_app*…"),
    ]
    print(tabulate(["experiment", "reproduces", "bench target"], table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="λFS (ASPLOS '23) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace_help = "enable causal tracing + invariant checking"
    demo = sub.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument("--trace", action="store_true", help=trace_help)

    spotify = sub.add_parser("spotify", help="mini Figure 8(a) run")
    spotify.add_argument("--base", type=float, default=3_000.0,
                         help="base throughput (ops/s)")
    spotify.add_argument("--duration", type=float, default=20.0,
                         help="workload duration (seconds)")
    spotify.add_argument("--clients", type=int, default=128)
    spotify.add_argument("--trace", action="store_true", help=trace_help)

    scaling = sub.add_parser("scaling", help="one client-scaling point")
    scaling.add_argument("--clients", type=int, default=64)
    scaling.add_argument("--ops", type=int, default=96)

    table3 = sub.add_parser("table3", help="subtree mv latency table")
    table3.add_argument("--sizes", type=int, nargs="+",
                        default=[1_024, 4_096])

    replay = sub.add_parser("replay", help="replay an audit-log trace")
    replay.add_argument("trace", help="trace file: '<ms> <op> <path> [dst]'")
    replay.add_argument("--clients", type=int, default=8)
    replay.add_argument("--trace-spans", action="store_true", help=trace_help)

    telemetry = sub.add_parser(
        "telemetry",
        help="telemetry-instrumented microbenchmark + ascii dashboard",
    )
    telemetry.add_argument("--clients", type=int, default=256)
    telemetry.add_argument("--ops", type=int, default=192,
                           help="measured ops per client per phase")
    telemetry.add_argument("--warmup", type=int, default=64,
                           help="connection-prelude ops per prelude client")
    telemetry.add_argument("--deployments", type=int, default=4)
    telemetry.add_argument("--interval", type=float, default=250.0,
                           help="sampling interval (sim-ms)")
    telemetry.add_argument("--replacement", type=float, default=0.1,
                           help="HTTP-TCP replacement probability")
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument("--out", default=None,
                           help="directory for JSONL/CSV/Prometheus exports")
    telemetry.add_argument("--load", default=None, metavar="JSONL",
                           help="render a dashboard from an existing export")
    telemetry.add_argument("--trace", action="store_true", help=trace_help)

    profile = sub.add_parser(
        "profile",
        help="critical-path profiling: run / diff / export",
    )
    profile_sub = profile.add_subparsers(dest="profile_command", required=True)

    profile_run = profile_sub.add_parser(
        "run", help="profiled microbenchmark + attribution report"
    )
    profile_run.add_argument("--clients", type=int, default=64)
    profile_run.add_argument("--ops", type=int, default=48,
                             help="measured ops per client (read phase; "
                                  "the create phase runs a quarter)")
    profile_run.add_argument("--warmup", type=int, default=32,
                             help="connection-prelude ops per prelude client")
    profile_run.add_argument("--deployments", type=int, default=4)
    profile_run.add_argument("--seed", type=int, default=0)
    profile_run.add_argument("--replacement", type=float, default=0.05,
                             help="HTTP-TCP replacement probability")
    profile_run.add_argument("--slow-store", type=float, default=1.0,
                             help="multiply store service times (regression "
                                  "injection for diff testing)")
    profile_run.add_argument("--top", type=int, default=10,
                             help="rows in the top-contributors table")
    profile_run.add_argument("--out", default=None,
                             help="directory for profile.json, Chrome trace, "
                                  "folded stacks, spans JSONL")
    profile_run.add_argument("--bench-json", default=None, metavar="PATH",
                             help="write per-op p50/p99 + stage shares JSON")

    profile_diff = profile_sub.add_parser(
        "diff", help="stage-by-stage regression diff of two profile.json"
    )
    profile_diff.add_argument("before", help="baseline profile.json")
    profile_diff.add_argument("after", help="candidate profile.json")
    profile_diff.add_argument("--threshold", type=float, default=0.25,
                              help="relative growth flagged as regression")
    profile_diff.add_argument("--min-ms", type=float, default=0.05,
                              help="absolute per-op growth floor (ms)")
    profile_diff.add_argument("--verbose", action="store_true",
                              help="print every stage cell, not just movers")

    profile_export = profile_sub.add_parser(
        "export", help="re-render exports from a spans.jsonl dump"
    )
    profile_export.add_argument("spans", help="spans.jsonl from 'profile run'")
    profile_export.add_argument("--out", required=True,
                                help="output directory")
    profile_export.add_argument("--by", choices=("kind", "stage"),
                                default="kind",
                                help="folded-stack leaf frames")

    chaos = sub.add_parser(
        "chaos",
        help="deterministic fault injection: run / matrix",
    )
    chaos_sub = chaos.add_subparsers(dest="chaos_command", required=True)

    def _chaos_knobs(p):
        p.add_argument("--clients", type=int, default=24)
        p.add_argument("--deployments", type=int, default=4)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--write-frac", type=float, default=0.15,
                       help="fraction of ops that are metadata writes")
        p.add_argument("--think", type=float, default=40.0,
                       help="mean client think time (sim-ms)")
        p.add_argument("--interval", type=float, default=250.0,
                       help="telemetry sampling interval (sim-ms)")
        p.add_argument("--window", type=float, default=10_000.0,
                       help="recovery-SLO window after faults clear (sim-ms)")
        p.add_argument("--drain", type=float, default=8_000.0,
                       help="grace beyond the SLO window before cutoff")
        p.add_argument("--datanodes", type=int, default=None,
                       help="DataNode fleet size (default: auto — 9 for "
                            "data-plane scenarios, none otherwise)")
        p.add_argument("--chunk-write-frac", type=float, default=0.25,
                       help="fraction of ops that are pipelined chunk "
                            "writes when a fleet is attached")
        p.add_argument("--ruleset", default="default",
                       help="alert rule catalog for --detect runs")

    chaos_detect_help = ("attach the online alert engine and add the "
                         "detection gate to the verdict")

    chaos_run = chaos_sub.add_parser(
        "run", help="one scenario under load + recovery verification"
    )
    chaos_run.add_argument("scenario", nargs="?", default=None,
                           help="built-in scenario name")
    chaos_run.add_argument("--file", default=None, metavar="JSON",
                           help="load the scenario from a JSON file instead")
    chaos_run.add_argument("--list", action="store_true",
                           help="list built-in scenarios and exit")
    chaos_run.add_argument("--verbose", action="store_true",
                           help="print the full fault log")
    chaos_run.add_argument("--detect", action="store_true",
                           help=chaos_detect_help)
    _chaos_knobs(chaos_run)

    chaos_matrix = chaos_sub.add_parser(
        "matrix", help="the regression scenario matrix"
    )
    chaos_matrix.add_argument("--scenarios", nargs="+", default=None,
                              help="override the default matrix set")
    chaos_matrix.add_argument("--bench-json", default=None, metavar="PATH",
                              help="write per-scenario verdicts + hashes JSON")
    chaos_matrix.add_argument("--detect", action="store_true",
                              help=chaos_detect_help)
    _chaos_knobs(chaos_matrix)

    resilience = sub.add_parser(
        "resilience",
        help="overload resilience: deadline / breaker / shedding "
             "scenarios with the gate-7 verdict: run / matrix",
    )
    resilience_sub = resilience.add_subparsers(
        dest="resilience_command", required=True
    )

    resilience_run = resilience_sub.add_parser(
        "run", help="one overload scenario under the convoy-prone "
                    "workload shape"
    )
    resilience_run.add_argument("scenario", nargs="?", default=None,
                                help="built-in scenario name")
    resilience_run.add_argument("--list", action="store_true",
                                help="list the overload scenarios and exit")
    resilience_run.add_argument("--verbose", action="store_true",
                                help="print the full fault log")
    _chaos_knobs(resilience_run)

    resilience_matrix = resilience_sub.add_parser(
        "matrix", help="the overload regression set (includes the "
                       "expected-FAIL noshed twin)"
    )
    resilience_matrix.add_argument("--scenarios", nargs="+", default=None,
                                   help="override the default set")
    resilience_matrix.add_argument("--bench-json", default=None,
                                   metavar="PATH",
                                   help="write the resilience baseline JSON "
                                        "(BENCH_resilience.json)")
    _chaos_knobs(resilience_matrix)

    for p in (resilience_run, resilience_matrix):
        # The convoy-prone canonical shape (see resilience_run_config),
        # not the generic chaos defaults.
        p.set_defaults(clients=48, write_frac=0.5, window=8_000.0)

    incidents = sub.add_parser(
        "incidents",
        help="online alerting + root-cause attribution: "
             "run / matrix / analyze / rules",
    )
    incidents_sub = incidents.add_subparsers(
        dest="incidents_command", required=True
    )

    incidents_run = incidents_sub.add_parser(
        "run", help="one chaos scenario with detection on: incident "
                    "timeline + ranked suspects"
    )
    incidents_run.add_argument("scenario", nargs="?", default=None,
                               help="built-in scenario name")
    incidents_run.add_argument("--file", default=None, metavar="JSON",
                               help="load the scenario from a JSON file")
    incidents_run.add_argument("--out", default=None, metavar="DIR",
                               help="write incidents.json / incidents.md / "
                                    "telemetry.jsonl")
    _chaos_knobs(incidents_run)

    incidents_matrix = incidents_sub.add_parser(
        "matrix", help="the detection regression set (matrix + control)"
    )
    incidents_matrix.add_argument("--scenarios", nargs="+", default=None,
                                  help="override the default set "
                                       "(matrix + control)")
    incidents_matrix.add_argument("--bench-json", default=None,
                                  metavar="PATH",
                                  help="write the detection baseline JSON "
                                       "(BENCH_incidents.json)")
    _chaos_knobs(incidents_matrix)

    incidents_analyze = incidents_sub.add_parser(
        "analyze", help="offline rule replay over a telemetry JSONL export"
    )
    incidents_analyze.add_argument("series", help="telemetry.jsonl path")
    incidents_analyze.add_argument("--scenario", default=None,
                                   help="label for the report header")
    incidents_analyze.add_argument("--ruleset", default="default")
    incidents_analyze.add_argument("--rules-file", default=None,
                                   metavar="JSON",
                                   help="load rules from a JSON file "
                                        "instead of a named ruleset")
    incidents_analyze.add_argument("--json", default=None, metavar="PATH",
                                   help="write the incident report JSON")

    incidents_rules = incidents_sub.add_parser(
        "rules", help="show the alert-rule catalog"
    )
    incidents_rules.add_argument("--ruleset", default="default")
    incidents_rules.add_argument("--rules-file", default=None, metavar="JSON")
    incidents_rules.add_argument("--json", action="store_true",
                                 help="dump the catalog as JSON")

    tenants = sub.add_parser(
        "tenants",
        help="multi-tenant run: per-tenant dashboard + fairness report",
    )
    tenants.add_argument("--seed", type=int, default=0)
    tenants.add_argument("--duration", type=float, default=10_000.0,
                         help="workload duration (sim-ms)")
    tenants.add_argument("--deployments", type=int, default=4)
    tenants.add_argument("--interval", type=float, default=250.0,
                         help="telemetry sampling interval (sim-ms)")
    tenants.add_argument("--governed", action="store_true",
                         help="attach the QoS token-bucket governor")
    tenants.add_argument("--profile", action="store_true",
                         help="also attribute per-tenant critical paths")
    tenants.add_argument("--out", default=None, metavar="DIR",
                         help="export the series (JSONL/CSV/Prometheus)")
    tenants.add_argument("--json", default=None, metavar="PATH",
                         help="write the fairness report JSON")

    bench = sub.add_parser(
        "bench",
        help="wall-clock toolkit benchmarks: kernel",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_kernel = bench_sub.add_parser(
        "kernel",
        help="raw simulator throughput (events/sec, ops/sec, peak RSS)",
    )
    bench_kernel.add_argument("--quick", action="store_true",
                              help="run only the smoke scale point "
                                   "(for regression gating)")
    bench_kernel.add_argument("--scales", nargs="+", default=None,
                              help="explicit scale points (default: all)")
    bench_kernel.add_argument("--seed", type=int, default=0)
    bench_kernel.add_argument("--repeats", type=int, default=2,
                              help="timed repetitions per point (best wins)")
    bench_kernel.add_argument("--json", default=None, metavar="PATH",
                              help="write the result JSON (BENCH_kernel.json)")
    bench_kernel.add_argument("--baseline", default=None, metavar="PATH",
                              help="gate events/sec against this bench JSON "
                                   "(exit 1 on regression)")
    bench_kernel.add_argument("--threshold", type=float, default=0.10,
                              help="relative events/sec drop that fails "
                                   "the gate")
    bench_kernel.add_argument("--diff", nargs=2, default=None,
                              metavar=("BEFORE", "AFTER"),
                              help="compare two bench JSONs without running")
    bench_kernel.add_argument("--no-mem", action="store_true",
                              help="skip the tracemalloc heap probe")
    bench_kernel.add_argument("--verify-count", action="store_true",
                              help="cross-check event counts with a "
                                   "counting on_step hook (untimed)")

    sub.add_parser("experiments", help="list experiment drivers")
    return parser


COMMANDS = {
    "demo": _cmd_demo,
    "spotify": _cmd_spotify,
    "scaling": _cmd_scaling,
    "table3": _cmd_table3,
    "replay": _cmd_replay,
    "telemetry": _cmd_telemetry,
    "profile": _cmd_profile,
    "chaos": _cmd_chaos,
    "resilience": _cmd_resilience,
    "incidents": _cmd_incidents,
    "tenants": _cmd_tenants,
    "bench": _cmd_bench,
    "experiments": _cmd_experiments,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
