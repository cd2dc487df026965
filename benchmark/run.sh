#!/usr/bin/env bash
# The repository's benchmark: builds the harness from source (offline)
# and runs it. See README.md beside this script.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
#   benchmark/run.sh compare BASE.jsonl NEW.jsonl
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The harness is a package of its own (its own manifest and lockfile);
# building it leaves the root workspace's Cargo.toml/Cargo.lock alone.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

ATIS_BENCHMARK_DIR="$here" exec "$target/release/atis-benchmark" "$@"
