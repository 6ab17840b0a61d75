#!/usr/bin/env bash
# Prints the non-test lines of each crate: the non-blank lines of every
# `*.rs` file under its `src/`, counted down to the file's first
# `#[cfg(test)]` (a file without one counts whole). The root package's
# `src/` is listed as `src`.
#   bash scripts/loc.sh            # every crate, then the total
#   bash scripts/loc.sh crates/search/src ...
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { in_test = 0 }
        /#\[cfg\(test\)\]/ { in_test = 1 }
        !in_test && NF > 0 { n++ }
        END { print n + 0 }
    '
}

if [ $# -gt 0 ]; then
    dirs=("$@")
else
    dirs=(crates/*/src src)
fi
total=0
for d in "${dirs[@]}"; do
    n=$(count "$d")
    total=$((total + n))
    printf '%-24s %6d\n' "$d" "$n"
done
[ $# -eq 1 ] || printf '%-24s %6d\n' total "$total"
