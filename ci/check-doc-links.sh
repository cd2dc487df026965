#!/usr/bin/env sh
# Checks that every relative markdown link and every bare mention of a
# tracked .md / .rs / .sh file in the repo's markdown docs points at a
# file that exists, so cross-document references cannot rot.
#
# Usage: ci/check-doc-links.sh   (from the repo root)
set -eu

fail=0

# Markdown files to scan: the tracked docs (tooling config under .claude/
# is not part of the documentation set, and neither is ISSUE.md, the
# growth driver's task file — it names files a PR is asked to delete).
docs=$(git ls-files '*.md' | grep -v '^\.claude/' | grep -vx 'ISSUE.md')

# Checks 1-2 also skip ROADMAP.md: like the task file excluded above, it
# names files a change is asked to delete.
for doc in $(echo "$docs" | grep -vx 'ROADMAP.md'); do
    dir=$(dirname "$doc")

    # 1. Explicit markdown links [text](target) with a relative target.
    #    External links (scheme://, mailto:) and pure anchors are skipped;
    #    in-page anchors on files (FILE.md#section) are checked as FILE.md.
    targets=$(grep -o ']([^)#][^)]*)' "$doc" 2>/dev/null \
        | sed -e 's/^](\(.*\))$/\1/' -e 's/#.*$//' \
        | grep -v '^[a-z+]*://' | grep -v '^mailto:' | sort -u) || true
    for t in $targets; do
        [ -z "$t" ] && continue
        if [ ! -e "$dir/$t" ] && [ ! -e "$t" ]; then
            echo "BROKEN LINK: $doc -> $t"
            fail=1
        fi
    done

    # 2. Repo-style path mentions like `tests/observability.rs` or
    #    `.github/workflows/ci.yml` in backticks must resolve from the
    #    repo root (bare module names such as `astar.rs` are prose
    #    shorthand and are not checked). The extension list must cover
    #    everything the docs reference — when it lags the docs (as it
    #    once did for .yml and .json), stale references pass silently.
    mentions=$(grep -o '`[A-Za-z0-9_./-]*/[A-Za-z0-9_.-]*\.\(md\|rs\|sh\|toml\|yml\|yaml\|json\)`' "$doc" 2>/dev/null \
        | tr -d '`' | sort -u) || true
    for m in $mentions; do
        if [ ! -e "$m" ] && [ ! -e "$dir/$m" ]; then
            echo "BROKEN MENTION: $doc -> $m"
            fail=1
        fi
    done
done

# 3. Orphan check: every tracked top-level document must be reachable
#    from the rest of the documentation set. A doc nothing links to or
#    mentions is drift — either wire it in or delete it. (README.md is
#    the root; CHANGES.md is the append-only session log.)
for doc in $(git ls-files '*.md' | grep -v '/' ); do
    case "$doc" in
        # README is the root; CHANGES/ISSUE are the growth driver's
        # session log and task file, not part of the documentation set.
        README.md|CHANGES.md|ISSUE.md) continue ;;
    esac
    referenced=0
    for other in $docs; do
        [ "$other" = "$doc" ] && continue
        if grep -q "$doc" "$other" 2>/dev/null; then
            referenced=1
            break
        fi
    done
    if [ "$referenced" -eq 0 ]; then
        echo "ORPHAN DOC: $doc is referenced by no other document"
        fail=1
    fi
done

# 4. Rule-doc drift: every linter rule id declared in the atis-analyze
#    rule table must be documented in ANALYSIS.md, so adding a rule
#    without writing it up (or renaming one without updating the doc)
#    fails the docs gate, not a reviewer's memory.
#    Pass ids live as `pub const ID` in the pass modules (the rule
#    table references them by path, so the literal never appears in
#    rules.rs) — collect both sources.
if [ -f crates/analyze/src/rules.rs ]; then
    rule_ids=$(grep -o 'id: "[a-z-]*"' crates/analyze/src/rules.rs | sed 's/id: "\(.*\)"/\1/')
    pass_ids=$(grep -ho 'pub const ID: &str = "[a-z-]*"' crates/analyze/src/passes/*.rs 2>/dev/null \
        | sed 's/.*"\(.*\)"/\1/') || true
    for id in $rule_ids $pass_ids; do
        if ! grep -q "\`$id\`" ANALYSIS.md; then
            echo "UNDOCUMENTED RULE: $id is not documented in ANALYSIS.md"
            fail=1
        fi
    done
fi

# 5. Ladder-doc drift: SERVING.md is where the degrade ladder is written
#    up, and the table in ladder.rs is where it is declared. Every rung
#    `name` the table declares (plus the `PRIMARY` label) must appear in
#    SERVING.md, and every rung any doc shows — `rung: "…"` or
#    `Degraded { "…" }` — must be one the table declares: a rung nobody
#    emits cannot be documented. Likewise every breaker a doc names —
#    `breaker_state("…")` or a `"…"` circuit breaker in backticks — must
#    be a name `RouteService::breaker_state` answers. (CHANGES.md, the
#    session log, records what earlier PRs deleted and is not checked.)
current_docs=$(echo "$docs" | grep -vx 'CHANGES.md')
ladder=crates/algorithms/src/ladder.rs
if [ -f "$ladder" ]; then
    rungs=$( (grep -o '^ *Rung::new("[a-z0-9-]*"' "$ladder"; grep -o '^pub const PRIMARY: &str = "[a-z0-9-]*"' "$ladder") \
        | sed 's/.*"\(.*\)"/\1/' | sort -u)
    for rung in $rungs; do
        if ! grep -q "\`$rung\`\|\"$rung\"" SERVING.md; then
            echo "UNDOCUMENTED RUNG: $rung (declared in $ladder) is not in SERVING.md"
            fail=1
        fi
    done
    for doc in $current_docs; do
        for shown in $(grep -o 'rung: *"[^"]*"\|Degraded { *"[^"]*"' "$doc" | sed 's/.*"\(.*\)"/\1/' | sort -u); do
            if ! echo "$rungs" | grep -qx "$shown"; then
                echo "UNKNOWN RUNG: $doc shows rung \"$shown\", which $ladder does not declare"
                fail=1
            fi
        done
    done
fi
service=crates/serve/src/service.rs
if [ -f "$service" ]; then
    breakers=$(sed -n '/pub fn breaker_state(/,/^    }/p' "$service" | grep -o '"[a-z0-9-]*" =>' | tr -d '" =>')
    if [ -z "$breakers" ]; then
        echo "BREAKERS: no resource name found in RouteService::breaker_state ($service)"
        fail=1
    fi
    for doc in $current_docs; do
        for named in $(grep -o 'breaker_state("[^"]*")\|`"[^"]*"` circuit breaker' "$doc" | sed 's/[^"]*"\([^"]*\)".*/\1/' | sort -u); do
            if ! echo "$breakers" | grep -qx "$named"; then
                echo "UNKNOWN BREAKER: $doc names a \"$named\" circuit breaker, which RouteService::breaker_state does not answer"
                fail=1
            fi
        done
    done
fi

# 6. Refresh-doc drift: the update path's vocabulary lives in
#    crates/serve/src/ — the `HierarchyRefresh` / `LandmarkRefresh`
#    variants an install reports and the `serve_hierarchy_*` /
#    `serve_landmark*` metric names it feeds. Every variant and every
#    such metric name that HIERARCHY.md, OBSERVABILITY.md or SERVING.md
#    mention must exist there: a deleted arm or a renamed counter fails
#    here, not in a reader's dashboard. `Enum::{A, B}` lists are
#    expanded; a variant counts only inside its own enum's braces.
serve_src=crates/serve/src
if [ -d "$serve_src" ]; then
    for doc in HIERARCHY.md OBSERVABILITY.md SERVING.md; do
        [ -f "$doc" ] || continue
        for enum in HierarchyRefresh LandmarkRefresh; do
            declared=$(sed -n "/^pub enum $enum {/,/^}/p" "$serve_src/epoch.rs" \
                | grep -o '^    [A-Z][A-Za-z]*' | tr -d ' ')
            mentioned=$(grep -o "$enum::\({[^}]*}\|[A-Z][A-Za-z]*\)" "$doc" 2>/dev/null \
                | sed "s/^$enum:://" | tr -d '{}' | tr ',' '\n' | tr -d ' ' | sort -u) || true
            for variant in $mentioned; do
                if ! echo "$declared" | grep -qx "$variant"; then
                    echo "UNKNOWN VARIANT: $doc mentions $enum::$variant, which $serve_src/epoch.rs does not declare"
                    fail=1
                fi
            done
        done
        for metric in $(grep -o 'serve_\(hierarchy\|landmark\)[a-z_]*' "$doc" 2>/dev/null | sort -u); do
            if ! grep -rqF "\"$metric\"" "$serve_src"; then
                echo "UNKNOWN METRIC: $doc mentions $metric, which nothing in $serve_src emits"
                fail=1
            fi
        done
    done
fi

# 7. Tree drift: DESIGN.md's repository tree is checked, not remembered.
#    Inside its fenced block an entry line is `├── names  description`
#    (names end at the first double space; `{a,b}.rs` lists expand) and a
#    crate's branch starts at `├── <dir>/  atis-<crate>`. Every `*.rs` a
#    branch names must exist under that crate's src/ (a leading `src/`
#    is the crate's own), and — because that is where modules come and go
#    — every file under crates/algorithms/src/ and crates/storage/src/
#    (recursively) other than lib.rs must be named in its crate's branch.
if [ -f DESIGN.md ]; then
    named=$(awk '
        /^```/ { fenced = !fenced; next }
        !fenced || !/(├|└)── / { next }
        {
            line = $0
            sub(/^.*(├|└)── /, "", line)
            sub(/  .*$/, "", line)
            if (line ~ /^[a-z]+\/$/ && $0 ~ /  atis-[a-z]+ /) {
                crate = line
                sub(/\/$/, "", crate)
                next
            }
            if (crate == "") next
            while (match(line, /\{[^}]*\}\.rs/)) {
                list = substr(line, RSTART + 1, RLENGTH - 5)
                gsub(/,/, ".rs ", list)
                line = substr(line, 1, RSTART - 1) list ".rs" substr(line, RSTART + RLENGTH)
            }
            n = split(line, words, " ")
            for (i = 1; i <= n; i++)
                if (words[i] ~ /\.rs$/) { sub(/^src\//, "", words[i]); print crate, words[i] }
        }' DESIGN.md)
    if [ -z "$named" ]; then
        echo "TREE: DESIGN.md names no source file in its repository tree"
        fail=1
    fi
    echo "$named" | while read -r crate file; do
        [ -z "$crate" ] && continue
        if [ -z "$(find "crates/$crate/src" -path "*/$file" 2>/dev/null)" ]; then
            echo "TREE: DESIGN.md lists $file under $crate/, but crates/$crate/src/ has no such file"
            exit 1
        fi
    done || fail=1
    for src in $(find crates/algorithms/src crates/storage/src -name '*.rs' | sort); do
        crate=$(echo "$src" | cut -d/ -f2)
        file=$(basename "$src")
        [ "$file" = lib.rs ] && continue
        if ! echo "$named" | grep -qx "$crate $file"; then
            echo "TREE: $src is not in DESIGN.md's repository tree"
            fail=1
        fi
    done
fi

# 8. Hierarchy-doc drift, the twin of check 6 for crates/hierarchy/src/:
#    every `Hierarchy::x`, `HierarchyConfig::x`, `BuildReport::x`,
#    `UpArc::x` and `Pricing::x` that HIERARCHY.md, DESIGN.md, SERVING.md
#    or SCALING.md mention (`Type::{a, b}` lists are expanded) must be an
#    `fn x` or a field `x:` declared there, so a deleted method, column
#    or knob fails here, not in a reader's editor.
hier_src=crates/hierarchy/src
if [ -d "$hier_src" ]; then
    for doc in HIERARCHY.md DESIGN.md SERVING.md SCALING.md; do
        [ -f "$doc" ] || continue
        for type in Hierarchy HierarchyConfig BuildReport UpArc Pricing; do
            mentioned=$(grep -o "\\b$type::\\({[^}]*}\\|[a-z_][a-z0-9_]*\\)" "$doc" 2>/dev/null \
                | sed "s/^$type:://" | tr -d '{}' | tr ',' '\n' | tr -d ' ' | sort -u) || true
            for name in $mentioned; do
                if ! grep -rq "fn $name[(<]\|^ *\(pub \|pub(crate) \)\?$name: " "$hier_src"; then
                    echo "UNKNOWN HIERARCHY NAME: $doc mentions $type::$name, which $hier_src declares neither as a fn nor as a field"
                    fail=1
                fi
            done
        done
    done
fi

# 9. Bench drift: every `[[bench]]` in crates/bench/Cargo.toml must be
#    run by a workflow (`--bench <name>` in .github/workflows/) or
#    regenerate a figure (bench `<name>` in a row of DESIGN.md's figure
#    table, the `| F…` / `| T…` rows). A bench nothing runs and no doc
#    cites still compiles on every build and rots unseen. The reverse
#    holds too: every bench a workflow runs or the table names must be
#    declared. The table's rows also cite the modules that implement each
#    figure: every backticked `file.rs` must exist under some
#    crates/*/src/, and every `crate::module` (`crate::{a,b}` lists are
#    expanded) must be crates/<crate>/src/<module>.rs or <module>/mod.rs.
bench_toml=crates/bench/Cargo.toml
if [ -f "$bench_toml" ]; then
    declared=$(awk '/^\[\[bench\]\]/ { b = 1; next } b && /^name *=/ { gsub(/^name *= *"|".*$/, ""); print; b = 0 }' "$bench_toml")
    run=$(cat .github/workflows/*.yml 2>/dev/null | grep -o -- '--bench [A-Za-z0-9_]*' | sed 's/^--bench //' | sort -u) || true
    cited=$(grep '^| [FT][0-9A-Z]* ' DESIGN.md 2>/dev/null | grep -o 'bench `[A-Za-z0-9_]*`' | sed 's/^bench `\(.*\)`$/\1/' | sort -u) || true
    for bench in $declared; do
        if ! echo "$run" | grep -qx "$bench" && ! echo "$cited" | grep -qx "$bench"; then
            echo "UNUSED BENCH: $bench ($bench_toml) is run by no workflow and regenerates no figure in DESIGN.md's table"
            fail=1
        fi
    done
    for bench in $run $cited; do
        if ! echo "$declared" | grep -qx "$bench"; then
            echo "UNKNOWN BENCH: $bench is run by a workflow or named in DESIGN.md's figure table, but $bench_toml does not declare it"
            fail=1
        fi
    done
fi
refs=$(grep '^| [FT][0-9A-Z]* ' DESIGN.md 2>/dev/null | grep -o '`[^` ]*`' | tr -d '`' \
    | grep '\.rs$\|^[a-z_]*::' | sort -u) || true
for ref in $refs; do
    case "$ref" in
        *::*)
            crate=${ref%%::*}
            for module in $(echo "${ref#*::}" | sed 's/^{\([^}]*\)}.*/\1/' | tr ',' ' '); do
                module=${module%%::*}
                if [ ! -f "crates/$crate/src/$module.rs" ] && [ ! -f "crates/$crate/src/$module/mod.rs" ]; then
                    echo "UNKNOWN MODULE: DESIGN.md's figure table cites $crate::$module, but crates/$crate/src/ has no such module"
                    fail=1
                fi
            done
            ;;
        *)
            if [ -z "$(find crates/*/src -path "*/$ref" 2>/dev/null)" ]; then
                echo "UNKNOWN FILE: DESIGN.md's figure table cites $ref, but no crates/*/src/ has such a file"
                fail=1
            fi
            ;;
    esac
done

# 10. Event-taxonomy drift: the `"type"` column of OBSERVABILITY.md's
#     event-taxonomy table must name exactly the `.string("type", "…")`
#     discriminators crates/obs/src/event.rs renders, both ways. A
#     deleted event family whose rows linger fails here, and so does a
#     new event nobody wrote up.
events=crates/obs/src/event.rs
if [ -f "$events" ] && [ -f OBSERVABILITY.md ]; then
    emitted=$(grep -o '\.string("type", "[a-z_]*")' "$events" | sed 's/.*, "\(.*\)")/\1/' | sort -u)
    documented=$(awk '/^## /{ on = ($0 == "## Event taxonomy") } on && /^\| `/' OBSERVABILITY.md \
        | awk -F'|' '{ print $3 }' | tr -d ' `' | sort -u)
    if [ -z "$emitted" ] || [ -z "$documented" ]; then
        echo "EVENTS: no event types found in $events or in OBSERVABILITY.md's event-taxonomy table"
        fail=1
    fi
    for t in $documented; do
        if ! echo "$emitted" | grep -qx "$t"; then
            echo "UNKNOWN EVENT: OBSERVABILITY.md's event taxonomy lists \"$t\", which $events never renders"
            fail=1
        fi
    done
    for t in $emitted; do
        if ! echo "$documented" | grep -qx "$t"; then
            echo "UNDOCUMENTED EVENT: $events renders \"$t\", which OBSERVABILITY.md's event taxonomy does not list"
            fail=1
        fi
    done
fi

if [ "$fail" -ne 0 ]; then
    echo "doc-link check FAILED"
    exit 1
fi
echo "doc-link check OK"
