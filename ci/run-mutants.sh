#!/usr/bin/env sh
# Runs the mutant catalogue (ci/mutants/*.txt): for each entry, applies
# its mutation to a copy of the working tree, builds the test binaries the
# entry names in release mode and runs them. A mutant is killed when one
# of them fails; every catalogued mutant must be.
#
# Usage (from the repo root):
#   ci/run-mutants.sh            every entry
#   ci/run-mutants.sh NAME...    the entries ci/mutants/NAME.txt
#   ci/run-mutants.sh --files    the files the catalogue mutates, one a line
#
# An entry is a text file. Lines before the first `file` line are
# comments (`# …`) and `kill ARGS` lines; each `kill` line names one test
# binary as `cargo test` arguments (`--test route_cache`, `-p atis-serve
# --lib shard::`). Then one or more hunks:
#
#   file crates/serve/src/shard.rs
#   search
#   <lines that occur exactly once in the file>
#   replace
#   <the lines that take their place>
#   end
#
# The copy lives in $MUTANTS_WORK (default: $TMPDIR/atis-mutants, or
# /tmp/atis-mutants), with one cargo target directory shared by every
# mutant, so each rebuilds only the crates its hunks touch. The copy is
# taken afresh with new modification times on every run, and a mutated
# file is restored by rewriting it, so no build of a mutant is ever
# mistaken for a build of the tree. Exit status 1 if an entry is broken
# (a search string not found exactly once, a kill binary that does not
# build) or a mutant survives.
set -eu

catalogue=ci/mutants
if [ "${1:-}" = "--files" ]; then
    awk '$1 == "file" { print $2 }' "$catalogue"/*.txt | sort -u
    exit 0
fi

work=${MUTANTS_WORK:-${TMPDIR:-/tmp}/atis-mutants}
tree=$work/tree
export CARGO_TARGET_DIR="$work/target"
mkdir -p "$work"
rm -rf "$tree" "$work/hunks"
mkdir -p "$tree" "$work/hunks"
# Tracked files as they stand in the working tree; -m stamps them now.
git ls-files -z | xargs -0 tar -cf - | (cd "$tree" && tar -xmf -)

if [ "$#" -gt 0 ]; then
    entries=$(for name in "$@"; do echo "$catalogue/$name.txt"; done)
else
    entries=$(ls "$catalogue"/*.txt)
fi

# Splits entry $1 into $work/hunks/N.{file,search,replace}, N = 1, 2, ….
split_hunks() {
    rm -f "$work"/hunks/*
    awk -v out="$work/hunks" '
        $1 == "file" && part == "" { n++; print $2 > (out "/" n ".file"); close(out "/" n ".file"); next }
        part == "" && $0 == "search" { part = "search"; next }
        part == "search" && $0 == "replace" { part = "replace"; printf "" > (out "/" n ".replace"); next }
        part == "replace" && $0 == "end" { part = ""; next }
        part != "" { print > (out "/" n "." part) }
    ' "$1"
}

# Prints how often the text of file $2 occurs in file $1.
occurrences() {
    awk -v needle="$2" 'BEGIN {
        RS = "\001"
        getline text < ARGV[1]; getline pat < needle
        n = 0
        while ((i = index(text, pat)) > 0) { n++; text = substr(text, i + length(pat)) }
        print n
        exit
    }' "$1"
}

# Replaces the one occurrence of file $2's text in file $1 by file $3's.
substitute() {
    awk -v needle="$2" -v with="$3" 'BEGIN {
        RS = "\001"
        getline text < ARGV[1]; getline pat < needle; getline rep < with
        i = index(text, pat)
        printf "%s%s%s", substr(text, 1, i - 1), rep, substr(text, i + length(pat))
        exit
    }' "$1" > "$1.mutant"
    cat "$1.mutant" > "$1"
    rm -f "$1.mutant"
}

# Milliseconds since the epoch (whole seconds where `date` has no %N).
now_ms() {
    t=$(date +%s%N)
    case $t in
        *N) echo $(($(date +%s) * 1000)) ;;
        *) echo $((t / 1000000)) ;;
    esac
}

failed=0
for entry in $entries; do
    name=$(basename "$entry" .txt)
    split_hunks "$entry"
    broken=""
    for hunk in "$work"/hunks/*.file; do
        n=${hunk%.file}
        file=$tree/$(cat "$hunk")
        if [ ! -f "$file" ] || [ "$(occurrences "$file" "$n.search")" != 1 ]; then
            broken="its search text does not occur exactly once in $(cat "$hunk")"
            break
        fi
    done
    if [ -z "$broken" ]; then
        for hunk in "$work"/hunks/*.file; do
            n=${hunk%.file}
            file=$tree/$(cat "$hunk")
            cp "$file" "$n.original"
            substitute "$file" "$n.search" "$n.replace"
        done
        killed=""
        rm -f "$work/$name.log"
        while read -r word args; do
            [ "$word" = "file" ] && break
            [ "$word" = "kill" ] || continue
            # shellcheck disable=SC2086 # args are cargo test arguments
            if ! (cd "$tree" && cargo test --release -q --no-run $args) > "$work/$name.build.log" 2>&1; then
                broken="kill binary '$args' does not build (see $work/$name.build.log)"
                break
            fi
            start=$(now_ms)
            # shellcheck disable=SC2086
            if (cd "$tree" && cargo test --release -q $args) >> "$work/$name.log" 2>&1; then
                echo "  $name: '$args' passes ($(($(now_ms) - start)) ms)"
            else
                echo "  $name: '$args' fails ($(($(now_ms) - start)) ms)"
                killed="${killed:+$killed, }$args"
            fi
        done < "$entry"
        # Restore by rewriting, so the next build sees the file as new.
        for hunk in "$work"/hunks/*.file; do
            n=${hunk%.file}
            cat "$n.original" > "$tree/$(cat "$hunk")"
        done
    fi
    if [ -n "$broken" ]; then
        echo "BROKEN   $name: $broken"
        failed=1
    elif [ -n "$killed" ]; then
        echo "killed   $name by $killed"
    else
        echo "SURVIVED $name"
        failed=1
    fi
done
exit "$failed"
