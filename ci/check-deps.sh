#!/usr/bin/env sh
# Checks that every workspace dependency edge is used: each `atis-*`,
# `proptest` or `loom` dependency (normal, dev or target-specific) that
# the root Cargo.toml or a crates/*/Cargo.toml declares must be named in
# code — `atis_x::`, `atis_x as`, `proptest!` and the like — somewhere in
# that package's src/, tests/, benches/ or examples/. An edge nothing
# names still orders the build and misstates the crate layering.
#
# Usage: ci/check-deps.sh   (from the repo root)
set -eu

fail=0
edges=0

for manifest in Cargo.toml crates/*/Cargo.toml; do
    [ -f "$manifest" ] || continue
    dir=$(dirname "$manifest")
    dirs=""
    for sub in src tests benches examples; do
        [ -d "$dir/$sub" ] && dirs="$dirs $dir/$sub"
    done
    # Dependency tables only: [dependencies], [dev-dependencies] and
    # [target.'cfg(..)'.dependencies] — not [workspace.dependencies].
    deps=$(awk '
        /^\[/ { deps = ($0 ~ /^\[(target\..*\.)?(dev-)?dependencies\]$/); next }
        deps && /^(atis-[a-z]+|proptest|loom)[ .=]/ { sub(/[ .=].*$/, ""); print }
    ' "$manifest" | sort -u)
    for dep in $deps; do
        edges=$((edges + 1))
        ident=$(echo "$dep" | tr - _)
        # shellcheck disable=SC2086 # $dirs is a list of directories
        if [ -z "$dirs" ] || ! grep -rqE --include='*.rs' \
            "(^|[^A-Za-z0-9_])$ident(::| as |!)" $dirs; then
            echo "UNUSED DEP: $manifest declares $dep, but no code under $dir/{src,tests,benches,examples} names $ident"
            fail=1
        fi
    done
done

if [ "$edges" -eq 0 ]; then
    echo "DEPS: inspected no dependency edge (manifest layout changed?)"
    fail=1
fi
if [ "$fail" -eq 0 ]; then
    echo "check-deps: all $edges dependency edges are used"
fi
exit "$fail"
