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
#   BENCH_serve.json       req_per_s per (mode, workers, shards, batch)
#                          config — higher is better; loose tolerance
#                          (default 15%) because throughput on shared
#                          runners is noisy — plus shed_fraction, gated
#                          with an absolute slack (default 0.05). Records
#                          predating the sharded schema carry no mode key
#                          and parse as mode="legacy", shards=1, batch=1;
#                          a legacy baseline facing a sharded-schema
#                          fresh artifact is skipped with a migration
#                          message (commit the fresh artifact to migrate)
#                          rather than failed on phantom-missing keys.
#                          Sharded-schema fresh records must carry
#                          p999_ms and shed_fraction — the open-loop
#                          harness always emits them, so their absence
#                          means a truncated artifact. PR CI reruns only
#                          one worker count (SERVE_SMOKE=1 writes
#                          BENCH_serve_smoke.json), so baseline records
#                          for worker counts absent from the fresh
#                          artifact are skipped, not failed; dropping a
#                          mode *within* a measured worker count still
#                          fails.
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
# A (network, algorithm) or workers key present in the baseline but
# missing from the fresh artifact fails the gate: silently dropping a
# bench configuration must not read as a pass.
#
# Usage:
#   ci/compare-bench.sh                  # gate working-tree artifacts vs HEAD
#   ci/compare-bench.sh --self-test      # prove the gate trips on an
#                                        # injected >15% regression
#   ci/compare-bench.sh --serve BASE FRESH        # gate one pair directly
#   ci/compare-bench.sh --estimators BASE FRESH   # gate one pair directly
#   ci/compare-bench.sh --scaling BASE FRESH      # gate one pair directly
set -eu

SERVE_TOL=${SERVE_TOL:-0.15}
SHED_SLACK=${SHED_SLACK:-0.05}
EST_TOL=${EST_TOL:-0.02}

# --- serve: req_per_s + shed per (mode, workers, shards, batch) ------------
compare_serve() {
    base=$1 fresh=$2
    awk -v tol="$SERVE_TOL" -v shed_slack="$SHED_SLACK" '
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
        # Split the configs array into one record per {...} chunk.
        {
            n = split($0, chunk, "{")
            for (i = 1; i <= n; i++) {
                if (chunk[i] !~ /"workers"/) continue
                $0 = chunk[i]
                w = num("workers"); r = num("req_per_s")
                if (w < 0 || r < 0) continue
                # Pre-sharding artifacts carry none of the mode keys.
                m = str("mode"); if (m == "") m = "legacy"
                sh = num("shards"); if (sh < 0) sh = 1
                b = num("batch"); if (b < 0) b = 1
                key = m "|w" w "|s" sh "|b" b
                if (NR == FNR) {
                    base_rps[key] = r
                    base_w[key] = w
                    base_shed[key] = num("shed_fraction")
                    if (m != "legacy") base_mode = 1
                } else {
                    fresh_rps[key] = r
                    fresh_shed[key] = num("shed_fraction")
                    seen[key] = 1
                    fresh_workers[w] = 1
                    if (m != "legacy") {
                        fresh_mode = 1
                        if (num("p999_ms") < 0 || num("shed_fraction") < 0) {
                            printf "FAIL serve: %s lacks p999_ms/shed_fraction (truncated artifact?)\n", key
                            schema_fail = 1
                        }
                    }
                }
            }
        }
        END {
            if (schema_fail) exit 1
            # A legacy (pre-sharding) baseline cannot gate a
            # sharded-schema run: no key overlaps, so every record
            # would read as dropped. Skip with a migration message.
            if (!base_mode && fresh_mode) {
                print "skip serve: baseline predates the sharded schema — commit the fresh artifact to migrate the baseline"
                exit 0
            }
            fail = 0
            for (k in base_rps) {
                # A worker count the fresh run did not measure at all
                # (SERVE_SMOKE runs one) is skipped; a dropped mode
                # within a measured worker count is a failure.
                if (!(base_w[k] in fresh_workers)) {
                    printf "skip serve: %s (worker count not measured by this run)\n", k
                    continue
                }
                if (!(k in seen)) {
                    printf "FAIL serve: %s missing from fresh artifact\n", k
                    fail = 1
                    continue
                }
                floor = base_rps[k] * (1 - tol)
                if (fresh_rps[k] < floor) {
                    printf "FAIL serve: %s req_per_s %.1f < %.1f (baseline %.1f, tol %.0f%%)\n", \
                        k, fresh_rps[k], floor, base_rps[k], tol * 100
                    fail = 1
                } else {
                    printf "ok   serve: %s req_per_s %.1f (baseline %.1f)\n", \
                        k, fresh_rps[k], base_rps[k]
                }
                if (base_shed[k] >= 0 && fresh_shed[k] >= 0 \
                    && fresh_shed[k] > base_shed[k] + shed_slack) {
                    printf "FAIL serve: %s shed_fraction %.4f > baseline %.4f + %.2f slack\n", \
                        k, fresh_shed[k], base_shed[k], shed_slack
                    fail = 1
                }
            }
            exit fail
        }
    ' "$base" "$fresh"
}

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

    cat > "$tmp/serve_base.json" <<'EOF'
{"benchmark":"serve_throughput","configs":[{"workers":1,"req_per_s":200.00,"p50_ms":80.0},{"workers":4,"req_per_s":750.00,"p50_ms":18.0}]}
EOF
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
    compare_serve "$tmp/serve_base.json" "$tmp/serve_base.json" || status=1
    compare_estimators "$tmp/est_base.json" "$tmp/est_base.json" || status=1
    compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_base.json" || status=1

    echo "self-test 2: a 30% throughput regression must fail"
    sed 's/"req_per_s":750.00/"req_per_s":525.00/' "$tmp/serve_base.json" \
        > "$tmp/serve_bad.json"
    if compare_serve "$tmp/serve_base.json" "$tmp/serve_bad.json"; then
        echo "self-test FAILED: regressed serve artifact passed the gate"
        status=1
    fi

    echo "self-test 3: a 30% nodes_expanded regression must fail"
    sed 's/"nodes_expanded":131/"nodes_expanded":171/' "$tmp/est_base.json" \
        > "$tmp/est_bad.json"
    if compare_estimators "$tmp/est_base.json" "$tmp/est_bad.json"; then
        echo "self-test FAILED: regressed estimator artifact passed the gate"
        status=1
    fi

    echo "self-test 4: a dropped bench configuration must fail (worker counts are a run-mode choice and skip)"
    sed 's/,{"workers":4[^}]*}//' "$tmp/serve_base.json" > "$tmp/serve_missing.json"
    compare_serve "$tmp/serve_base.json" "$tmp/serve_missing.json" || {
        echo "self-test FAILED: absent worker count (smoke run mode) failed the gate"
        status=1
    }
    grep -v '"A\* (version 4)"' "$tmp/est_base.json" > "$tmp/est_missing.json" || true
    if compare_estimators "$tmp/est_base.json" "$tmp/est_missing.json"; then
        echo "self-test FAILED: missing estimator record passed the gate"
        status=1
    fi

    echo "self-test 5: a scaling physical_reads regression must fail"
    sed 's/"physical_reads":106/"physical_reads":150/' "$tmp/scaling_base.json" \
        > "$tmp/scaling_bad.json"
    if compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_bad.json"; then
        echo "self-test FAILED: regressed scaling artifact passed the gate"
        status=1
    fi

    echo "self-test 6: a smoke run must skip unmeasured scales but gate measured ones"
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

    echo "self-test 7: a missing committed baseline must record, not fail"
    rm -f "$tmp/recorded.json"
    if record_baseline "$tmp/serve_base.json" "$tmp/recorded.json" \
        && cmp -s "$tmp/serve_base.json" "$tmp/recorded.json"; then
        :
    else
        echo "self-test FAILED: first run did not record the baseline"
        status=1
    fi
    if record_baseline "$tmp/absent.json" "$tmp/absent_target.json"; then
        echo "self-test FAILED: no baseline and no artifact still passed"
        status=1
    fi

    echo "self-test 8: an estimator smoke run must skip unmeasured networks, and a v5 regression must fail"
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

    echo "self-test 9: a dropped long-haul workload within a measured scale must fail"
    grep -v '"workload":"long-haul"' "$tmp/scaling_base.json" > "$tmp/scaling_no_lh.json" || true
    if compare_scaling "$tmp/scaling_base.json" "$tmp/scaling_no_lh.json"; then
        echo "self-test FAILED: dropped long-haul workload passed the gate"
        status=1
    fi

    echo "self-test 10: the sharded serve schema must gate per (mode, workers) and smoke-skip absent worker counts"
    cat > "$tmp/serve_sharded_base.json" <<'EOF'
{"benchmark":"serve_throughput","open_loop":true,"configs":[{"mode":"global","workers":4,"shards":1,"batch":1,"req_per_s":290.00,"p99_ms":710.0,"p999_ms":715.0,"shed_fraction":0.7900},{"mode":"sharded","workers":4,"shards":8,"batch":8,"req_per_s":2000.00,"p99_ms":2.3,"p999_ms":16.6,"shed_fraction":0.0000},{"mode":"global","workers":8,"shards":1,"batch":1,"req_per_s":550.00,"p99_ms":368.0,"p999_ms":386.0,"shed_fraction":0.6600},{"mode":"sharded","workers":8,"shards":8,"batch":8,"req_per_s":2000.00,"p99_ms":1.6,"p999_ms":16.7,"shed_fraction":0.0000}]}
EOF
    compare_serve "$tmp/serve_sharded_base.json" "$tmp/serve_sharded_base.json" || {
        echo "self-test FAILED: identical sharded serve artifacts failed the gate"
        status=1
    }
    sed 's/"req_per_s":2000.00,"p99_ms":2.3/"req_per_s":1400.00,"p99_ms":2.3/' \
        "$tmp/serve_sharded_base.json" > "$tmp/serve_sharded_bad.json"
    if compare_serve "$tmp/serve_sharded_base.json" "$tmp/serve_sharded_bad.json"; then
        echo "self-test FAILED: regressed sharded mode passed the gate"
        status=1
    fi
    sed 's/"shed_fraction":0.7900/"shed_fraction":0.9500/' \
        "$tmp/serve_sharded_base.json" > "$tmp/serve_shed_bad.json"
    if compare_serve "$tmp/serve_sharded_base.json" "$tmp/serve_shed_bad.json"; then
        echo "self-test FAILED: regressed shed_fraction passed the gate"
        status=1
    fi
    sed 's/,{"mode":"global","workers":8[^}]*},{"mode":"sharded","workers":8[^}]*}//' \
        "$tmp/serve_sharded_base.json" > "$tmp/serve_sharded_smoke.json"
    compare_serve "$tmp/serve_sharded_base.json" "$tmp/serve_sharded_smoke.json" || {
        echo "self-test FAILED: serve smoke artifact (workers=4 only) failed the gate"
        status=1
    }
    sed 's/,{"mode":"sharded","workers":4[^}]*}//' \
        "$tmp/serve_sharded_smoke.json" > "$tmp/serve_mode_dropped.json"
    if compare_serve "$tmp/serve_sharded_base.json" "$tmp/serve_mode_dropped.json"; then
        echo "self-test FAILED: dropped mode within a measured worker count passed the gate"
        status=1
    fi

    echo "self-test 11: a legacy baseline must skip (not fail) a sharded-schema run, and a truncated sharded record must fail"
    compare_serve "$tmp/serve_base.json" "$tmp/serve_sharded_base.json" || {
        echo "self-test FAILED: legacy baseline vs sharded fresh did not skip"
        status=1
    }
    sed 's/"p999_ms":16.6,//' "$tmp/serve_sharded_base.json" > "$tmp/serve_truncated.json"
    if compare_serve "$tmp/serve_sharded_base.json" "$tmp/serve_truncated.json"; then
        echo "self-test FAILED: sharded record without p999_ms passed the gate"
        status=1
    fi

    echo "self-test 12: a changed overlay size must fail in either direction, a changed hierarchy_ms must not"
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
    --serve)
        compare_serve "$2" "$3"
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
        for f in BENCH_serve.json BENCH_estimators.json BENCH_scaling.json; do
            if ! git show "HEAD:$f" > "$tmp/$(basename "$f")" 2>/dev/null; then
                record_baseline "$f" "$f" || status=1
                continue
            fi
            # The scaling and estimator benches' CI smoke runs write
            # separate artifacts; gate against them when present (the
            # committed full artifacts stay the baselines).
            fresh="$f"
            if [ "$f" = "BENCH_serve.json" ] && [ -f BENCH_serve_smoke.json ]; then
                fresh=BENCH_serve_smoke.json
            fi
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
                BENCH_serve.json) compare_serve "$tmp/$f" "$fresh" || status=1 ;;
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
        echo "usage: $0 [--self-test | --serve BASE FRESH | --estimators BASE FRESH | --scaling BASE FRESH]" >&2
        exit 2
        ;;
esac
