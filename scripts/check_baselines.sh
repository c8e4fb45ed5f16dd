#!/usr/bin/env bash
# Baseline gates: regenerate committed BENCH files from their documented
# commands and diff each against the committed copy.  The files are
# written with sorted keys, so `diff -u` is a field-level drift report.
#
#   scripts/check_baselines.sh                      # every baseline below
#   scripts/check_baselines.sh datanode resilience  # a subset, by name
#   scripts/check_baselines.sh --update [name...]   # re-record on purpose
#
# Exits non-zero if any file drifts or any command fails.  --update
# prints each drift the same way, then overwrites the committed file
# with the output of the command below (never a hand-typed one), and
# exits non-zero only if a command fails.  Explain each moved hash in
# the change log.
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

update=0
if [ "${1:-}" = "--update" ]; then
    update=1
    shift
fi
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
    elif [ $update -eq 1 ]; then
        cp "$out/$file" "$file"
        echo "baseline updated: $file (repro $command --bench-json $file)"
    else
        echo "baseline drift: $file (re-record: scripts/check_baselines.sh --update $name)"
        status=1
    fi
done
exit $status
