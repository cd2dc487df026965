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
# names files a change is asked to delete. CHANGES.md, the session log,
# names files earlier changes deleted, so it is skipped too.
for doc in $(echo "$docs" | grep -vx 'ROADMAP.md\|CHANGES.md'); do
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
    #    Bare top-level names — a capital letter first, `.md` or `.json`
    #    last, such as `SCALING.md` or `BENCHMARK.json` — must resolve
    #    from the repo root too: a deleted artifact's name has no `/`.
    mentions=$(grep -o '`[A-Za-z0-9_./-]*/[A-Za-z0-9_.-]*\.\(md\|rs\|sh\|toml\|yml\|yaml\|json\)`' "$doc" 2>/dev/null \
        | tr -d '`' | sort -u) || true
    for m in $mentions; do
        if [ ! -e "$m" ] && [ ! -e "$dir/$m" ]; then
            echo "BROKEN MENTION: $doc -> $m"
            fail=1
        fi
    done
    tops=$(grep -o '`[A-Z][A-Za-z0-9_.-]*\.\(md\|json\)`' "$doc" 2>/dev/null \
        | tr -d '`' | sort -u) || true
    for m in $tops; do
        if [ ! -e "$m" ]; then
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

# 4. Lock-level drift: the "Lock levels" table in ANALYSIS.md must list
#    exactly the rank markers crates/serve/src/sync.rs orders in its
#    `order!(…)` list, in rank order and numbered from 0. A rank added,
#    dropped or reordered in the types but not in the table (or the
#    reverse) fails here. Finding no rank list at all fails too: a moved
#    declaration must not pass vacuously.
sync_rs=crates/serve/src/sync.rs
if [ -f "$sync_rs" ]; then
    declared=$(grep -o '^order!([^)]*)' "$sync_rs" | sed 's/^order!(\(.*\))$/\1/' | tr -d ' ' | tr ',' '\n' \
        | awk 'NF { printf "%s%d:%s", (n ? " " : ""), n, $0; n++ }')
    tabled=$(awk '/^## /{ on = ($0 == "## Lock levels") } on && /^\| [0-9]/' ANALYSIS.md \
        | awk -F'|' '{ gsub(/[ `]/, "", $2); gsub(/[ `]/, "", $3); printf "%s%s:%s", (n++ ? " " : ""), $2, $3 }')
    if [ -z "$declared" ]; then
        echo "LOCK LEVELS: no order!(…) rank list found in $sync_rs"
        fail=1
    elif [ "$declared" != "$tabled" ]; then
        echo "LOCK LEVELS: ANALYSIS.md's level table lists [$tabled], but $sync_rs orders [$declared]"
        fail=1
    fi
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
#    crates/serve/src/ — the `Refresh` variants an install reports for
#    each artifact and the `serve_hierarchy_*` /
#    `serve_landmark*` metric names it feeds. Every variant and every
#    such metric name that HIERARCHY.md, OBSERVABILITY.md or SERVING.md
#    mention must exist there: a deleted arm or a renamed counter fails
#    here, not in a reader's dashboard. `Enum::{A, B}` lists are
#    expanded; a variant counts only inside its own enum's braces.
serve_src=crates/serve/src
if [ -d "$serve_src" ]; then
    for doc in HIERARCHY.md OBSERVABILITY.md SERVING.md; do
        [ -f "$doc" ] || continue
        for enum in Refresh; do
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
#    — every file under crates/algorithms/src/, crates/costmodel/src/,
#    crates/obs/src/ and crates/storage/src/ (recursively) other than
#    lib.rs must be named in its crate's branch.
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
    for src in $(find crates/algorithms/src crates/costmodel/src crates/obs/src crates/storage/src -name '*.rs' | sort); do
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

# 9. Figure-table drift: the rows of DESIGN.md's figure table (the
#    `| F…` / `| T…` rows) cite the modules that implement each figure:
#    every backticked `file.rs` must exist under some crates/*/src/, and
#    every `crate::module` (`crate::{a,b}` lists are expanded) must be
#    crates/<crate>/src/<module>.rs or <module>/mod.rs.
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

# 11. Clippy-config drift: the table in ANALYSIS.md's "Clippy
#     configuration" section must name exactly the `path = "…"` entries
#     of the crate clippy.toml files, both ways, and exactly the
#     `clippy::` lints that some `#![…]` inner attribute under crates/ or
#     examples/ enables, both ways. The costmodel, hierarchy, preprocess
#     and storage configs must be symlinks to the algorithms one, so the
#     determinism and metered-I/O scope has one source of truth. The
#     serve config's `atis_serve::` entries are checked against the code
#     as well (below).
configs=$(ls crates/*/clippy.toml 2>/dev/null) || true
if [ -n "$configs" ]; then
    configured=$(cat $configs | grep -o 'path = "[^"]*"' | sed 's/path = "\(.*\)"/\1/' | sort -u)
    table=$(awk '/^## /{ on = ($0 == "## Clippy configuration") } on && /^\| /' ANALYSIS.md)
    tabled=$(echo "$table" | grep -o '`[A-Za-z_][A-Za-z0-9_]*::[A-Za-z0-9_:]*`' | tr -d '`' \
        | grep -v '^clippy::' | sort -u) || true
    tabled_lints=$(echo "$table" | grep -o '`clippy::[a-z_]*`' | tr -d '`' | sort -u) || true
    enabled_lints=$(find crates/*/src examples -name '*.rs' -exec awk '
        /^#!\[/ { on = 1 }
        on { print }
        on && /\)\]$/ { on = 0 }' {} + | grep -o 'clippy::[a-z_]*' | sort -u) || true
    for lint in $enabled_lints; do
        if ! echo "$tabled_lints" | grep -qx "$lint"; then
            echo "CLIPPY CONFIG: $lint is enabled by a #![…] attribute but missing from ANALYSIS.md's Clippy table"
            fail=1
        fi
    done
    for lint in $tabled_lints; do
        if ! echo "$enabled_lints" | grep -qx "$lint"; then
            echo "CLIPPY CONFIG: ANALYSIS.md's Clippy table names $lint, which no #![…] attribute enables"
            fail=1
        fi
    done
    if [ -z "$tabled" ]; then
        echo "CLIPPY CONFIG: ANALYSIS.md's Clippy configuration table names no path"
        fail=1
    fi
    for path in $configured; do
        if ! echo "$tabled" | grep -qx "$path"; then
            echo "CLIPPY CONFIG: $path is configured in a crate clippy.toml but missing from ANALYSIS.md's Clippy table"
            fail=1
        fi
    done
    for path in $tabled; do
        if ! echo "$configured" | grep -qx "$path"; then
            echo "CLIPPY CONFIG: ANALYSIS.md's Clippy table names $path, which no crate clippy.toml configures"
            fail=1
        fi
    done
    # The `atis_serve::…` entries are the serve crate's root-minting
    #    methods: exactly the `pub fn`s under crates/serve/src/ (outside
    #    test code) whose body calls `Level::root()`, named
    #    module::Type::method. A public method that mints a root but is
    #    not listed could be called under a held lock; a listed one that
    #    no longer mints (or exists) is stale.
    minting=$(for f in "$serve_src"/*.rs; do
        awk -v mod="$(basename "$f" .rs)" '
            /^#\[cfg\(test\)\]/ { exit }
            /^impl/ { ty = $0; sub(/ *\{$/, "", ty); sub(/.* for /, "", ty); sub(/^impl(<[^>]*>)? /, "", ty); sub(/<.*/, "", ty) }
            /^    pub fn / { name = $0; sub(/^    pub fn /, "", name); sub(/[(<].*/, "", name); body = 1; mints = 0; next }
            body && /Level::root\(\)/ { mints = 1 }
            body && /^    }$/ { if (mints) print "atis_serve::" mod "::" ty "::" name; body = 0 }' "$f"
    done | sort -u)
    listed=$(grep -o 'path = "atis_serve::[^"]*"' crates/serve/clippy.toml | sed 's/path = "\(.*\)"/\1/' | sort -u)
    if [ -z "$minting" ]; then
        echo "CLIPPY CONFIG: no public method under $serve_src mints Level::root()"
        fail=1
    fi
    for method in $minting; do
        if ! echo "$listed" | grep -qx "$method"; then
            echo "CLIPPY CONFIG: $method mints Level::root(), but crates/serve/clippy.toml does not disallow it"
            fail=1
        fi
    done
    for method in $listed; do
        if ! echo "$minting" | grep -qx "$method"; then
            echo "CLIPPY CONFIG: crates/serve/clippy.toml disallows $method, which is no public serve method that mints Level::root()"
            fail=1
        fi
    done
    for crate in costmodel hierarchy preprocess storage; do
        link=crates/$crate/clippy.toml
        if [ ! -L "$link" ] || [ "$(readlink "$link")" != ../algorithms/clippy.toml ]; then
            echo "CLIPPY CONFIG: $link is not a symlink to crates/algorithms/clippy.toml"
            fail=1
        fi
    done
fi

# 12. Metric-doc drift: every metric name crates/serve/src records must
#     be documented in OBSERVABILITY.md. A name is the literal first
#     argument of an `inc`, `set`, `observe` or `add` call, or any string
#     literal ending in `_total` or `_seconds` (the counter and timing
#     suffixes), which also catches names routed through a helper such as
#     `storage_fault_metric`. Test code (each file from its first column-0
#     `#[cfg(test)]`) is not scanned.
if [ -d "$serve_src" ] && [ -f OBSERVABILITY.md ]; then
    live=$(find "$serve_src" -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/ { exit } { print }' {} \; \
        | grep -o '\b\(inc\|set\|observe\|add\)("[a-z0-9_]*"\|"[a-z0-9_]*_\(total\|seconds\)"' \
        | sed 's/.*"\(.*\)"/\1/' | sort -u) || true
    if [ -z "$live" ]; then
        echo "METRICS: no metric name found in $serve_src"
        fail=1
    fi
    for metric in $live; do
        if ! grep -qw "$metric" OBSERVABILITY.md; then
            echo "UNDOCUMENTED METRIC: $serve_src records $metric, which OBSERVABILITY.md does not document"
            fail=1
        fi
    done
fi

# 13. Target drift: every `--bench <name>`, `--example <name>` and
#     `--bin <name>` that a tracked doc mentions (ROADMAP.md and
#     CHANGES.md aside, as in checks 1-2) must name a target that exists:
#     a `[[bench]]`, `[[example]]` or `[[bin]]` some tracked Cargo.toml
#     declares, or one cargo discovers (a file under `benches/`,
#     `examples/` or `src/bin/`; a package with a `src/main.rs` is a bin
#     of its own name). A deleted or renamed target then fails here
#     instead of lingering in the docs. Finding no mention at all fails
#     too: a changed flag spelling must not pass vacuously.
manifests=$(git ls-files '*Cargo.toml')
known=$(
    for kind in bench example bin; do
        awk -v kind="$kind" '$0 == "[[" kind "]]" { t = 1; next } /^\[/ { t = 0 }
            t && /^name *=/ { gsub(/^name *= *"|".*$/, ""); print kind, $0; t = 0 }' $manifests
    done
    git ls-files '*benches/*.rs' | sed 's|.*/||; s|\.rs$||; s|^|bench |'
    git ls-files '*examples/*.rs' | sed 's|.*/||; s|\.rs$||; s|^|example |'
    git ls-files '*src/bin/*.rs' | sed 's|.*/||; s|\.rs$||; s|^|bin |'
    for manifest in $manifests; do
        if [ -f "$(dirname "$manifest")/src/main.rs" ]; then
            awk '/^\[package\]/ { p = 1; next } /^\[/ { p = 0 }
                p && /^name *=/ { gsub(/^name *= *"|".*$/, ""); print "bin", $0; exit }' "$manifest"
        fi
    done
)
mentioned=$(for doc in $(echo "$docs" | grep -vx 'ROADMAP.md\|CHANGES.md'); do
    grep -o -- '--\(bench\|example\|bin\) [A-Za-z0-9_-][A-Za-z0-9_-]*' "$doc" 2>/dev/null \
        | sed "s|^--|$doc |"
done | sort -u)
if [ -z "$mentioned" ]; then
    echo "TARGETS: no doc mentions a --bench, --example or --bin target"
    fail=1
fi
while read -r doc kind name; do
    [ -n "$name" ] || continue
    if ! echo "$known" | grep -qx "$kind $name"; then
        echo "UNKNOWN TARGET: $doc mentions --$kind $name, which no Cargo.toml declares and cargo does not discover"
        fail=1
    fi
done <<EOF
$mentioned
EOF

# 14. Symbol drift: every backticked `Type::member` in the docs of checks
#     1-2 whose `Type` is a `pub struct`, `enum` or `trait` under
#     crates/*/src must name something that exists: its lowercase
#     `member` must be a `fn` or a `pub` field in the crate (or crates)
#     declaring `Type`. Methods a derive supplies (`clone`, `default`,
#     `fmt`, ...) are accepted. A renamed or deleted method then fails
#     here instead of lingering in the docs. Finding no such mention at
#     all fails too: a changed spelling must not pass vacuously.
derived='clone clone_from default fmt eq ne hash cmp partial_cmp'
symbols=$(for doc in $(echo "$docs" | grep -vx 'ROADMAP.md\|CHANGES.md'); do
    grep -o '`[^`]*`' "$doc" 2>/dev/null \
        | grep -o '\(^\|[^A-Za-z0-9_]\)[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*' \
        | sed "s|^[^A-Z]*||; s|::| |; s|^|$doc |"
done | sort -u)
checked=0
while read -r doc ty member; do
    [ -n "$member" ] || continue
    crates=$(grep -rlE "^ *pub (struct|enum|trait) $ty\b" crates/*/src --include='*.rs' \
        | cut -d/ -f1-2 | sort -u)
    [ -n "$crates" ] || continue
    checked=$((checked + 1))
    case " $derived " in *" $member "*) continue ;; esac
    srcs=$(for c in $crates; do echo "$c/src"; done)
    # shellcheck disable=SC2086 # one path per crate
    if ! grep -rqE "\bfn $member\b|^ *pub $member *:" $srcs --include='*.rs'; then
        echo "UNKNOWN SYMBOL: $doc names $ty::$member, but no fn or pub field $member is in $(echo $crates | tr ' ' ',')"
        fail=1
    fi
done <<EOF
$symbols
EOF
if [ "$checked" -eq 0 ]; then
    echo "SYMBOLS: no doc names a Type::member of a crate type"
    fail=1
fi

# 15. Frontier drift: the frontier-representation column of DESIGN.md's
#     "One loop, …" table must name exactly the types search.rs implements
#     `Frontier` for (`impl Frontier for X`, `impl<…> Frontier for X<…>`),
#     both ways. A frontier added to the one loop but not to the table
#     fails here, and so does a tabled one whose impl is gone. Finding
#     none on either side fails too.
search_rs=crates/algorithms/src/search.rs
if [ -f "$search_rs" ] && [ -f DESIGN.md ]; then
    implemented=$(grep -o '^impl\(<[^>]*>\)\? Frontier for [A-Za-z]*' "$search_rs" \
        | sed 's/.* for //' | sort -u)
    tabled=$(awk '/^#/{ on = ($0 ~ /^### One loop, /) } on && /^\| `/' DESIGN.md \
        | awk -F'|' '{ print $3 }' | grep -o '`[A-Z][A-Za-z]*' | tr -d '`' | sort -u) || true
    if [ -z "$implemented" ] || [ -z "$tabled" ]; then
        echo "FRONTIERS: no impl Frontier in $search_rs or no frontier in DESIGN.md's one-loop table"
        fail=1
    fi
    for frontier in $implemented; do
        if ! echo "$tabled" | grep -qx "$frontier"; then
            echo "UNTABLED FRONTIER: $search_rs implements Frontier for $frontier, which DESIGN.md's one-loop table does not name"
            fail=1
        fi
    done
    for frontier in $tabled; do
        if ! echo "$implemented" | grep -qx "$frontier"; then
            echo "UNKNOWN FRONTIER: DESIGN.md's one-loop table names $frontier, for which $search_rs implements no Frontier"
            fail=1
        fi
    done
fi

# 16. Study-block drift: a generated table in a doc is held by a test, or
#     it is hand-edited text that only looks generated. Every marker line
#     `<!-- study: NAME -->` in a tracked doc must be listed, with that
#     doc, in the `BLOCKS` table of tests/study_counters.rs (the blocks its
#     tests assert, and the only ones: its `assert_committed` refuses any
#     other name), and every block listed there must have exactly one
#     marker in its doc. A marker no test reads fails here, and so does a
#     test whose marker is gone. Finding no table fails too: a moved
#     declaration must not pass vacuously.
study_test=tests/study_counters.rs
listed=$(awk '/^const BLOCKS/ { on = 1; next } on && /^\];/ { on = 0 } on' "$study_test" 2>/dev/null \
    | sed -n 's/^ *("\([^"]*\)", "\([^"]*\)"),$/\1|\2/p')
if [ -z "$listed" ]; then
    echo "STUDY BLOCKS: no BLOCKS table in $study_test"
    fail=1
fi
markers=$(for doc in $docs; do
    sed -n "s|^<!-- study: \(.*\) -->\$|$doc\|\1|p" "$doc"
done)
while IFS= read -r marker; do
    [ -n "$marker" ] || continue
    if ! echo "$listed" | grep -qxF "$marker"; then
        echo "UNCHECKED STUDY BLOCK: ${marker%%|*} has a '${marker#*|}' block that $study_test does not assert"
        fail=1
    fi
done <<EOF
$markers
EOF
while IFS= read -r block; do
    [ -n "$block" ] || continue
    count=$(echo "$markers" | grep -cxF "$block") || true
    if [ "$count" -ne 1 ]; then
        echo "STUDY BLOCK MARKERS: $study_test asserts '${block#*|}' in ${block%%|*}, which has $count markers for it (want 1)"
        fail=1
    fi
done <<EOF
$listed
EOF

if [ "$fail" -ne 0 ]; then
    echo "doc-link check FAILED"
    exit 1
fi
echo "doc-link check OK"
