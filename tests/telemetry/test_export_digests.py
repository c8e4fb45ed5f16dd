"""Pinned telemetry exports: counter values must not drift.

Counters and histograms feed the incident rules, the chaos recovery
gates and the tenant fairness math, so a refactor of how they are
derived must leave every exported byte unchanged.  This runs a small
``repro telemetry`` microbenchmark and compares SHA-256 digests of the
JSONL, CSV and Prometheus exports against the recorded values — once
traced and once untraced, which must agree.

If a change moves a counter on purpose, re-record the digests with the
command in ``_run`` and say in the change log which series moved and why.
"""

import hashlib
import os

import pytest

from repro.cli import main

pytestmark = pytest.mark.telemetry

ARGS = [
    "--clients", "16", "--ops", "8", "--warmup", "8",
    "--deployments", "2", "--interval", "100",
]

EXPECTED = {
    "telemetry.jsonl":
        "1a394e0101ff54f233531ef987a7b9b0900ba6eaf8902f32dd1268d21fe3e7b0",
    "telemetry.csv":
        "c9dc0a81f9e5de1af41da54078d3a41424339bc680c76a6cb9a9d13b82de89d6",
    "telemetry.prom":
        "0eefabe4c816c93dccf0174d8f081871cb39b15fdbfbb5c6bb8120df7468e987",
}


def _run(out, trace):
    assert main(["telemetry", *ARGS, "--out", str(out)]
                + (["--trace"] if trace else [])) == 0
    digests = {}
    for name in EXPECTED:
        with open(os.path.join(out, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_telemetry_exports_match_recorded_digests(tmp_path, trace):
    assert _run(tmp_path, trace) == EXPECTED
