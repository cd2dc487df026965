#!/usr/bin/env sh
# Benchmark-regression gate: diff freshly produced bench artifacts
# against the baselines committed at HEAD and fail on regressions beyond
# a per-metric tolerance. POSIX sh + awk only (no jq on the runners).
#
# Baselines come from `git show HEAD:<file>` — the bench runs overwrite
# the working-tree files, so the committed copy *is* the baseline. A PR
# that regresses performance can only go green by committing the worse
# numbers as the new baseline, which puts the regression in the diff
# where reviewers see it.
#
# Gated metrics:
#   BENCH_estimators.json  nodes_expanded and block_reads per
#                          (network, algorithm) — lower is better; tight
#                          tolerance (default 2%) because both counters
#                          are deterministic. wall_ms, preprocess_ms and
#                          hierarchy_ms are recorded but never gated
#                          (wall clock is machine-dependent). CI reruns
#                          everything except the metro-100k long-haul
#                          section (BENCH_estimators_smoke.json), so
#                          baseline records for networks absent from the
#                          fresh artifact are skipped, not failed;
#                          dropping an algorithm *within* a measured
#                          network still fails.
#   BENCH_scaling.json     nodes_expanded, block_reads and physical_reads
#                          per (network, layout, workload, algorithm) —
#                          lower is better, same tight tolerance (all
#                          three counters are deterministic: seeded
#                          generator, deterministic pool) — plus
#                          hierarchy_arcs per (network, layout), which
#                          must be *equal*: the overlay's size is a pure
#                          function of the graph and the order, so a
#                          change in either direction is a different
#                          hierarchy, not noise (hierarchy_ms beside it
#                          is wall clock and stays ungated). Records
#                          predating the workload field key as
#                          "regional". CI reruns only the 10k smoke
#                          scale (BENCH_scaling_smoke.json), so baseline
#                          records for scales absent from the fresh
#                          artifact are skipped, not failed — scale
#                          coverage is a run-mode choice; dropping an
#                          algorithm, layout or workload *within* a
#                          measured scale still fails.
# A key present in the baseline but missing from the fresh artifact
# fails the gate: silently dropping a bench configuration must not read
# as a pass.
#
# Usage:
#   ci/compare-bench.sh                  # gate working-tree artifacts vs HEAD
#   ci/compare-bench.sh --self-test      # prove the gate trips on
#                                        # injected regressions
#   ci/compare-bench.sh --estimators BASE FRESH   # gate one pair directly
#   ci/compare-bench.sh --scaling BASE FRESH      # gate one pair directly
set -eu

EST_TOL=${EST_TOL:-0.02}

# --- estimators: nodes_expanded / block_reads per record, lower is better --
compare_estimators() {
    base=$1 fresh=$2
    awk -v tol="$EST_TOL" '
        function str(key,    s) {
            if (match($0, "\"" key "\":\"[^\"]*\"")) {
                s = substr($0, RSTART, RLENGTH)
                sub("\"" key "\":\"", "", s)
                sub("\"$", "", s)
                return s
            }
            return ""
        }
        function num(key,    s) {
            if (match($0, "\"" key "\":[0-9.]+")) {
                s = substr($0, RSTART, RLENGTH)
                sub("\"" key "\":", "", s)
                return s + 0
            }
            return -1
        }
        /"benchmark":"estimator_quality"/ {
            net = str("network")
            key = net "|" str("algorithm")
            ne = num("nodes_expanded"); br = num("block_reads")
            if (NR == FNR) { base_ne[key] = ne; base_br[key] = br; base_net[key] = net }
            else { fresh_ne[key] = ne; fresh_br[key] = br; seen[key] = 1; nets[net] = 1 }
        }
        END {
            fail = 0
            for (k in base_ne) {
                # A network the fresh run did not measure at all (smoke
                # mode skips the metro-100k long-haul section) is
                # skipped; a dropped algorithm within a measured network
                # is a failure.
                if (!(base_net[k] in nets)) {
                    printf "skip estimators: %s (network not measured by this run)\n", k
                    continue
                }
                if (!(k in seen)) {
                    printf "FAIL estimators: %s missing from fresh artifact\n", k
                    fail = 1
                    continue
                }
                bad = 0
                if (fresh_ne[k] > base_ne[k] * (1 + tol)) {
                    printf "FAIL estimators: %s nodes_expanded %d > baseline %d (tol %.0f%%)\n", \
                        k, fresh_ne[k], base_ne[k], tol * 100
                    bad = 1
                }
                if (fresh_br[k] > base_br[k] * (1 + tol)) {
                    printf "FAIL estimators: %s block_reads %d > baseline %d (tol %.0f%%)\n", \
                        k, fresh_br[k], base_br[k], tol * 100
                    bad = 1
                }
                if (bad) fail = 1
                else printf "ok   estimators: %s expanded %d (baseline %d), reads %d (baseline %d)\n", \
                    k, fresh_ne[k], base_ne[k], fresh_br[k], base_br[k]
            }
            exit fail
        }
    ' "$base" "$fresh"
}

# --- scaling: three deterministic counters per (network, layout, algo) -----
compare_scaling() {
    base=$1 fresh=$2
    awk -v tol="$EST_TOL" '
        function str(key,    s) {
            if (match($0, "\"" key "\":\"[^\"]*\"")) {
                s = substr($0, RSTART, RLENGTH)
                sub("\"" key "\":\"", "", s)
                sub("\"$", "", s)
                return s
            }
            return ""
        }
        function num(key,    s) {
            if (match($0, "\"" key "\":[0-9.]+")) {
                s = substr($0, RSTART, RLENGTH)
                sub("\"" key "\":", "", s)
                return s + 0
            }
            return -1
        }
        /"benchmark":"scaling"/ {
            net = str("network")
            # Artifacts predating the long-haul study carry no workload
            # field; their records are the regional workload.
            w = str("workload"); if (w == "") w = "regional"
            key = net "|" str("layout") "|" w "|" str("algorithm")
            ne = num("nodes_expanded"); br = num("block_reads"); pr = num("physical_reads")
            if (NR == FNR) { base_ne[key] = ne; base_br[key] = br; base_pr[key] = pr; base_net[key] = net }
            else { fresh_ne[key] = ne; fresh_br[key] = br; fresh_pr[key] = pr; seen[key] = 1; nets[net] = 1 }
            # Only the v5 records carry the overlay size; every one of
            # a (network, layout) carries the same number.
            arcs = num("hierarchy_arcs")
            if (arcs >= 0) {
                hkey = net "|" str("layout")
                if (NR == FNR) { base_arcs[hkey] = arcs; arcs_net[hkey] = net }
                else fresh_arcs[hkey] = arcs
            }
        }
        END {
            fail = 0
            for (k in base_arcs) {
                if (!(arcs_net[k] in nets)) continue
                if (!(k in fresh_arcs)) {
                    printf "FAIL scaling: %s hierarchy_arcs missing from fresh artifact\n", k
                    fail = 1
                } else if (fresh_arcs[k] != base_arcs[k]) {
                    printf "FAIL scaling: %s hierarchy_arcs %d != baseline %d (must be equal)\n", \
                        k, fresh_arcs[k], base_arcs[k]
                    fail = 1
                } else printf "ok   scaling: %s hierarchy_arcs %d\n", k, fresh_arcs[k]
            }
            for (k in base_ne) {
                # A scale the fresh run did not measure at all (smoke
                # mode) is skipped; a dropped config within a measured
                # scale is a failure.
                if (!(base_net[k] in nets)) {
                    printf "skip scaling: %s (scale not measured by this run)\n", k
                    continue
                }
                if (!(k in seen)) {
                    printf "FAIL scaling: %s missing from fresh artifact\n", k
                    fail = 1
                    continue
                }
                bad = 0
                if (fresh_ne[k] > base_ne[k] * (1 + tol)) {
                    printf "FAIL scaling: %s nodes_expanded %d > baseline %d (tol %.0f%%)\n", \
                        k, fresh_ne[k], base_ne[k], tol * 100
                    bad = 1
                }
                if (fresh_br[k] > base_br[k] * (1 + tol)) {
                    printf "FAIL scaling: %s block_reads %d > baseline %d (tol %.0f%%)\n", \
                        k, fresh_br[k], base_br[k], tol * 100
                    bad = 1
                }
                if (fresh_pr[k] > base_pr[k] * (1 + tol)) {
                    printf "FAIL scaling: %s physical_reads %d > baseline %d (tol %.0f%%)\n", \
                        k, fresh_pr[k], base_pr[k], tol * 100
                    bad = 1
                }
                if (bad) fail = 1
                else printf "ok   scaling: %s expanded %d, reads %d, physical %d\n", \
                    k, fresh_ne[k], fresh_br[k], fresh_pr[k]
            }
            exit fail
        }
    ' "$base" "$fresh"
}

# --- first run: no committed baseline --------------------------------------
# When HEAD carries no baseline for a metric file there is nothing to
# gate against — but failing would keep the very first bench run red
# forever. Instead the fresh artifact is *recorded* as the would-be
# baseline: copied into the baseline location (a no-op in the main flow,
# where the fresh file already sits at that path) and reported, so
# committing it is all it takes to arm the gate for the next run.
record_baseline() {
    fresh=$1 target=$2
    if [ ! -f "$fresh" ]; then
        echo "FAIL: no committed baseline AND no fresh artifact for $target"
        return 1
    fi
    if [ "$fresh" != "$target" ]; then
        cp "$fresh" "$target"
    fi
    echo "RECORDED $target: no committed baseline — fresh artifact recorded; commit it to arm the gate"
}

self_test() {
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    status=0

    cat > "$tmp/est_base.json" <<'EOF'
{"benchmark":"estimator_quality","network":"grid30","algorithm":"A* (version 3)","nodes_expanded":1399,"block_reads":66678,"wall_ms":5.0}
{"benchmark":"estimator_quality","network":"grid30","algorithm":"A* (version 4)","nodes_expanded":131,"block_reads":6294,"wall_ms":1.0}
{"benchmark":"estimator_quality","network":"metro-100k","algorithm":"A* (version 4)","nodes_expanded":28286,"block_reads":409898,"wall_ms":15618.0}
{"benchmark":"estimator_quality","network":"metro-100k","algorithm":"A* (version 5)","nodes_expanded":793,"block_reads":2421,"wall_ms":12.0}
EOF

    cat > "$tmp/scaling_base.json" <<'EOF'
{"benchmark":"scaling","network":"metro-10k","layout":"region","algorithm":"Dijkstra","nodes_expanded":856,"block_reads":13043,"physical_reads":106}
{"benchmark":"scaling","network":"metro-10k","layout":"region","workload":"long-haul","algorithm":"A* (version 5)","nodes_expanded":166,"block_reads":558,"physical_reads":0,"hierarchy_arcs":109621,"hierarchy_ms":317.0}
{"benchmark":"scaling","network":"metro-10k","layout":"shuffled","algorithm":"Dijkstra","nodes_expanded":856,"block_reads":13670,"physical_reads":733}
{"benchmark":"scaling","network":"metro-100k","layout":"region","algorithm":"Dijkstra","nodes_expanded":856,"block_reads":19181,"physical_reads":822}
EOF

    echo "self-test 1: identical artifacts must pass"
    compare_estimators "$tmp/est_base.json" "$tmp/est_base.json" || status=1
    compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_base.json" || status=1

    echo "self-test 2: a 30% nodes_expanded regression must fail"
    sed 's/"nodes_expanded":131/"nodes_expanded":171/' "$tmp/est_base.json" \
        > "$tmp/est_bad.json"
    if compare_estimators "$tmp/est_base.json" "$tmp/est_bad.json"; then
        echo "self-test FAILED: regressed estimator artifact passed the gate"
        status=1
    fi

    echo "self-test 3: a dropped bench configuration must fail"
    grep -v '"A\* (version 4)"' "$tmp/est_base.json" > "$tmp/est_missing.json" || true
    if compare_estimators "$tmp/est_base.json" "$tmp/est_missing.json"; then
        echo "self-test FAILED: missing estimator record passed the gate"
        status=1
    fi

    echo "self-test 4: a scaling physical_reads regression must fail"
    sed 's/"physical_reads":106/"physical_reads":150/' "$tmp/scaling_base.json" \
        > "$tmp/scaling_bad.json"
    if compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_bad.json"; then
        echo "self-test FAILED: regressed scaling artifact passed the gate"
        status=1
    fi

    echo "self-test 5: a smoke run must skip unmeasured scales but gate measured ones"
    grep -v '"metro-100k"' "$tmp/scaling_base.json" > "$tmp/scaling_smoke.json" || true
    compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_smoke.json" || {
        echo "self-test FAILED: smoke artifact with full 10k coverage failed the gate"
        status=1
    }
    grep -v '"layout":"shuffled"' "$tmp/scaling_smoke.json" > "$tmp/scaling_dropped.json" || true
    if compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_dropped.json"; then
        echo "self-test FAILED: dropped layout within a measured scale passed the gate"
        status=1
    fi

    echo "self-test 6: a missing committed baseline must record, not fail"
    rm -f "$tmp/recorded.json"
    if record_baseline "$tmp/est_base.json" "$tmp/recorded.json" \
        && cmp -s "$tmp/est_base.json" "$tmp/recorded.json"; then
        :
    else
        echo "self-test FAILED: first run did not record the baseline"
        status=1
    fi
    if record_baseline "$tmp/absent.json" "$tmp/absent_target.json"; then
        echo "self-test FAILED: no baseline and no artifact still passed"
        status=1
    fi

    echo "self-test 7: an estimator smoke run must skip unmeasured networks, and a v5 regression must fail"
    grep -v '"metro-100k"' "$tmp/est_base.json" > "$tmp/est_smoke.json" || true
    compare_estimators "$tmp/est_base.json" "$tmp/est_smoke.json" || {
        echo "self-test FAILED: estimator smoke artifact failed the gate"
        status=1
    }
    sed 's/"nodes_expanded":793/"nodes_expanded":1200/' "$tmp/est_base.json" \
        > "$tmp/est_v5_bad.json"
    if compare_estimators "$tmp/est_base.json" "$tmp/est_v5_bad.json"; then
        echo "self-test FAILED: regressed v5 long-haul record passed the gate"
        status=1
    fi

    echo "self-test 8: a dropped long-haul workload within a measured scale must fail"
    grep -v '"workload":"long-haul"' "$tmp/scaling_base.json" > "$tmp/scaling_no_lh.json" || true
    if compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_no_lh.json"; then
        echo "self-test FAILED: dropped long-haul workload passed the gate"
        status=1
    fi

    echo "self-test 9: a changed overlay size must fail in either direction, a changed hierarchy_ms must not"
    sed 's/"hierarchy_ms":317.0/"hierarchy_ms":52.0/' "$tmp/scaling_base.json" \
        > "$tmp/scaling_faster.json"
    compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_faster.json" || {
        echo "self-test FAILED: a changed hierarchy_ms (wall clock) failed the gate"
        status=1
    }
    for arcs in 109620 109622; do
        sed "s/\"hierarchy_arcs\":109621/\"hierarchy_arcs\":$arcs/" "$tmp/scaling_base.json" \
            > "$tmp/scaling_arcs_bad.json"
        if compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_arcs_bad.json"; then
            echo "self-test FAILED: hierarchy_arcs $arcs (baseline 109621) passed the gate"
            status=1
        fi
    done

    if [ "$status" -eq 0 ]; then
        echo "compare-bench self-test OK"
    else
        echo "compare-bench self-test FAILED"
    fi
    return "$status"
}

case "${1:-}" in
    --self-test)
        self_test
        ;;
    --estimators)
        compare_estimators "$2" "$3"
        ;;
    --scaling)
        compare_scaling "$2" "$3"
        ;;
    "")
        tmp=$(mktemp -d)
        trap 'rm -rf "$tmp"' EXIT
        status=0
        for f in BENCH_estimators.json BENCH_scaling.json; do
            if ! git show "HEAD:$f" > "$tmp/$(basename "$f")" 2>/dev/null; then
                record_baseline "$f" "$f" || status=1
                continue
            fi
            # The scaling and estimator benches' CI smoke runs write
            # separate artifacts; gate against them when present (the
            # committed full artifacts stay the baselines).
            fresh="$f"
            if [ "$f" = "BENCH_scaling.json" ] && [ -f BENCH_scaling_smoke.json ]; then
                fresh=BENCH_scaling_smoke.json
            fi
            if [ "$f" = "BENCH_estimators.json" ] && [ -f BENCH_estimators_smoke.json ]; then
                fresh=BENCH_estimators_smoke.json
            fi
            if [ ! -f "$fresh" ]; then
                echo "FAIL: $fresh was not produced by the bench run"
                status=1
                continue
            fi
            case "$f" in
                BENCH_scaling.json) compare_scaling "$tmp/$f" "$fresh" || status=1 ;;
                *) compare_estimators "$tmp/$f" "$fresh" || status=1 ;;
            esac
        done
        if [ "$status" -ne 0 ]; then
            echo "benchmark-regression gate FAILED"
            exit 1
        fi
        echo "benchmark-regression gate OK"
        ;;
    *)
        echo "usage: $0 [--self-test | --estimators BASE FRESH | --scaling BASE FRESH]" >&2
        exit 2
        ;;
esac
