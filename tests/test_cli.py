"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "create_file" in out
    assert "ok=True" in out
    assert "active NameNodes" in out


def test_experiments_command(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig11" in out
    assert "table3" in out


def test_table3_command(capsys):
    assert main(["table3", "--sizes", "64"]) == 0
    out = capsys.readouterr().out
    assert "HopsFS (ms)" in out
    assert "64" in out


def test_scaling_command(capsys):
    assert main(["scaling", "--clients", "8", "--ops", "12"]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out
    assert "cephfs" in out


def test_spotify_defaults_parse():
    args = build_parser().parse_args(["spotify"])
    assert args.base == 3_000.0
    assert args.clients == 128


def test_replay_command(tmp_path, capsys):
    trace = tmp_path / "ops.trace"
    trace.write_text("0 mkdirs /t\n5 create /t/a\n9 stat /t/a\n")
    from repro.cli import main as cli_main

    assert cli_main(["replay", str(trace), "--clients", "2"]) == 0
    out = capsys.readouterr().out
    assert "replayed 3 ops (3 ok, 0 failed)" in out


def test_chaos_run_list(capsys):
    assert main(["chaos", "run", "--list"]) == 0
    out = capsys.readouterr().out
    assert "ack-loss" in out
    assert "tcp-sever" in out


def test_chaos_run_rejects_unknown_scenario(capsys):
    assert main(["chaos", "run", "meteor-strike"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_chaos_run_requires_a_scenario(capsys):
    assert main(["chaos", "run"]) == 2
    assert "need a scenario" in capsys.readouterr().err


@pytest.mark.slow
@pytest.mark.chaos
def test_chaos_run_from_json_file(tmp_path, capsys):
    import json

    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "name": "tiny",
        "faults": [
            {"kind": "tcp_delay", "at_ms": 300.0, "duration_ms": 400.0,
             "params": {"extra_ms": 5.0}},
        ],
    }))
    code = main([
        "chaos", "run", "--file", str(path),
        "--clients", "4", "--think", "10",
        "--window", "1200", "--drain", "1500",
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "tiny: PASS" in out
    assert "verifier: PASS" in out
    assert "fault log:" in out


def _baseline_file(tmp_path, scenarios):
    import json

    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps({"version": 1, "scenarios": scenarios}))
    return str(path)


def test_check_baseline_unchanged_is_ok(tmp_path, capsys):
    from repro.cli import _check_baseline

    records = {"a": {"passed": True, "shed": 0, "extra": 1.5}}
    path = _baseline_file(tmp_path, {"a": {"passed": True, "shed": 0,
                                           "extra": 9.0}})
    assert _check_baseline(records, path, ("passed", "shed"), label="x") == 0
    assert "x baseline: OK" in capsys.readouterr().out


def test_check_baseline_flipped_field_is_drift(tmp_path, capsys):
    from repro.cli import _check_baseline

    records = {"a": {"passed": False, "shed": 0}}
    path = _baseline_file(tmp_path, {
        "a": {"passed": True, "shed": 0},
        "not-run": {"passed": True, "shed": 3},
    })
    assert _check_baseline(records, path, ("passed", "shed"), label="x") == 1
    out = capsys.readouterr().out
    assert "x baseline drift:" in out
    assert "  a: passed True -> False" in out
    assert "not-run" not in out
