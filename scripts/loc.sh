#!/usr/bin/env sh
# Code size as one number per crate: Rust lines under each crate's `src/`
# that are not blank, not comments and not inside a `#[cfg(test)]` item
# (`tests/`, `benches/` and `examples/` directories are not counted at all).
# Files or directories named as arguments are counted the same way, one
# line each plus their total, so a PR can state "before -> after" for the
# files it set out to shrink:
#
#   scripts/loc.sh                          # every crate
#   scripts/loc.sh crates/core/src crates/exec/src/runtime.rs
set -eu
cd "$(dirname "$0")/.."

# Counts the files given as arguments; prints the total.
count() {
    awk '
        FNR == 1 { in_test = 0; in_block = 0 }
        {
            line = $0
            sub(/^[ \t]+/, "", line)
            if (in_block) { if (line ~ /\*\//) in_block = 0; next }
            if (line == "" || line ~ /^\/\//) next
            if (line ~ /^\/\*/) { if (line !~ /\*\//) in_block = 1; next }
            if (in_test) {
                # Skip the item the attribute is on: to its closing brace,
                # or to the `;` of a brace-less item.
                opened += gsub(/\{/, "{", line)
                depth = opened - (closed += gsub(/\}/, "}", line))
                if (opened ? depth <= 0 : line ~ /;$/) in_test = 0
                next
            }
            if (line ~ /^#\[cfg\(test\)\]/) { in_test = 1; opened = closed = 0; next }
            n++
        }
        END { print n + 0 }
    ' "$@" /dev/null
}

# Rust sources under a file or directory, test-only directories left out.
sources() {
    find "$1" -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' \
        -not -path '*/examples/*' | sort
}

[ "$#" -gt 0 ] || set -- src crates/*/src
total=0
for path; do
    # shellcheck disable=SC2046 — source paths in this repo have no spaces
    n=$(count $(sources "$path"))
    printf '%7d  %s\n' "$n" "$path"
    total=$((total + n))
done
printf '%7d  total\n' "$total"
