#!/usr/bin/env bash
# Baseline gates: regenerate committed BENCH files from their documented
# commands and diff each against the committed copy.  The files are
# written with sorted keys, so `diff -u` is a field-level drift report.
#
#   scripts/check_baselines.sh                      # every baseline below
#   scripts/check_baselines.sh datanode resilience  # a subset, by name
#
# Exits non-zero if any file drifts or any command fails.  To re-record
# a baseline on purpose, run its command with --bench-json BENCH_<name>.json
# and explain each moved hash in the change log.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

declare -A COMMANDS=(
    [chaos]="chaos matrix"
    [datanode]="chaos matrix --scenarios datanode-kill disk-slow"
    [tenants]="chaos matrix --scenarios noisy-neighbor noisy-neighbor-runaway"
    [incidents]="incidents matrix"
    [resilience]="resilience matrix"
    [profile]="profile run --clients 32 --ops 24 --warmup 16 --deployments 4"
)
ORDER=(chaos datanode tenants incidents resilience profile)

names=("$@")
[ ${#names[@]} -gt 0 ] || names=("${ORDER[@]}")

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
status=0
for name in "${names[@]}"; do
    command="${COMMANDS[$name]:?unknown baseline $name (one of: ${ORDER[*]})}"
    file="BENCH_$name.json"
    # shellcheck disable=SC2086  # the command is a word list on purpose
    if ! python -m repro $command --bench-json "$out/$file" \
            > "$out/$name.txt"; then
        cat "$out/$name.txt"
        echo "baseline run failed: repro $command"
        status=1
    elif diff -u "$file" "$out/$file"; then
        echo "baseline ok: $file"
    else
        echo "baseline drift: $file (regenerate: repro $command --bench-json $file)"
        status=1
    fi
done
exit $status
