#!/usr/bin/env bash
# Collects a result set: every workload once per seed (the ten seeds the
# growth driver's repeatability check uses), the run records appended to
# one file that `run.sh compare` reads.
#
#   benchmark/repeat.sh OUT.jsonl [--seconds S]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${1:?usage: repeat.sh OUT.jsonl [--seconds S]}"
shift
seconds=()
if [ "${1:-}" = "--seconds" ]; then
    seconds=(--seconds "${2:?--seconds needs a value}")
    shift 2
fi
[ $# -eq 0 ] || { echo "unknown argument $1" >&2; exit 2; }

: > "$out"
for workload in cold-10k hot-10k storm-10k cold-100k; do
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        # A run that fails (a wrong answer, a generator-limited phase)
        # still leaves its record, with `correct` false and the reason.
        "$here/run.sh" --workload "$workload" --seed "$seed" "${seconds[@]}" > /dev/null || true
        cat "$here/out/$workload.json" >> "$out"
    done
done
echo "$(wc -l < "$out") run records in $out"
