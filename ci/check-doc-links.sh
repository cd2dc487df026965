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

for doc in $docs; do
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
#    SERVING.md, and every `rung: "…"` SERVING.md shows must be one the
#    table declares — a rung nobody emits cannot be documented.
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
    for shown in $(grep -o 'rung: "[^"]*"' SERVING.md | sed 's/rung: "\(.*\)"/\1/' | sort -u); do
        if ! echo "$rungs" | grep -qx "$shown"; then
            echo "UNKNOWN RUNG: SERVING.md shows rung \"$shown\", which $ladder does not declare"
            fail=1
        fi
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
#    — every file in crates/algorithms/src/ other than lib.rs must be
#    named in its branch.
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
    for src in crates/algorithms/src/*.rs; do
        file=$(basename "$src")
        [ "$file" = lib.rs ] && continue
        if ! echo "$named" | grep -qx "algorithms $file"; then
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

if [ "$fail" -ne 0 ]; then
    echo "doc-link check FAILED"
    exit 1
fi
echo "doc-link check OK"
