#!/usr/bin/env bash
# Holds one splc build to another's output, byte for byte: the optimized
# i-code of the twelve plans of benchmark/plans.wisdom, and the C at
# `-B 64` of the six straight-line ones (2..64 points). A change meant to
# print nothing new (a faster pass, a faster emitter) must pass it
# against a build of its parent. The looped plans' C is held by the
# bitwise tests (tests/codegen_native.rs) and golden_identity's hashes.
#
#   bash scripts/cmp-splc.sh <base-splc> [<head-splc>]
#
# <head-splc> defaults to this checkout's target/release/splc. Exits 1
# and shows the start of the first difference when an output differs.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base=${1:?usage: cmp-splc.sh <base-splc> [<head-splc>]}
head=${2:-$root/target/release/splc}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

python3 "$root/scripts/plans-to-spl.py" "$root/benchmark/plans.wisdom" "$work"

count=0
for f in "$work"/plan*.spl; do
    n=$(basename "$f" .spl)
    modes=("--icode")
    if [ "${n#plan}" -le 64 ]; then
        modes+=("--language c")
    fi
    for mode in "${modes[@]}"; do
        # shellcheck disable=SC2086
        "$base" -B 64 $mode "$f" > "$work/base.out"
        # shellcheck disable=SC2086
        "$head" -B 64 $mode "$f" > "$work/head.out"
        if ! cmp -s "$work/base.out" "$work/head.out"; then
            echo "cmp-splc: $(basename "$f") $mode differs" >&2
            diff "$work/base.out" "$work/head.out" | head -40 >&2 || true
            exit 1
        fi
        count=$((count + 1))
    done
done
test "$count" -eq 18
echo "cmp-splc: 12 plans' i-code, 6 straight-line plans' C at -B 64: identical"
