#!/usr/bin/env bash
# Holds one splc build to another's output, byte for byte: the optimized
# i-code of the twelve plans of benchmark/plans.wisdom and their C at
# `-B 64`, the six straight-line ones' (2..64 points) as a build without
# AVX compiles it: each `#if defined(__AVX__)` side dropped (their quad
# form, and the 32-byte types), blank lines ignored. A change meant to
# print nothing new (a faster pass, a faster emitter) must pass it
# against a build of its parent. The straight-line plans' AVX side is
# held by the bitwise tests (tests/codegen_native.rs) and
# golden_identity's hashes.
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
# The lines a build without AVX compiles, but blank ones.
without_avx() {
    awk '
        /^#if defined\(__AVX__\)/ { skip[++depth] = 1; guarded[depth] = 1; next }
        /^#if/ { skip[++depth] = 0; guarded[depth] = 0 }
        /^#else$/ && guarded[depth] { skip[depth] = !skip[depth]; next }
        /^#endif$/ { g = guarded[depth]; delete skip[depth--]; if (g) next }
        { for (k = 1; k <= depth; k++) if (skip[k]) next }
        NF > 0 { print }
    '
}

for f in "$work"/plan*.spl; do
    n=$(basename "$f" .spl)
    for mode in "--icode" "--language c"; do
        # shellcheck disable=SC2086
        "$base" -B 64 $mode "$f" > "$work/base.out"
        # shellcheck disable=SC2086
        "$head" -B 64 $mode "$f" > "$work/head.out"
        if [ "$mode" != "--icode" ] && [ "${n#plan}" -le 64 ]; then
            for side in base head; do
                without_avx < "$work/$side.out" > "$work/$side.plain"
                mv "$work/$side.plain" "$work/$side.out"
            done
        fi
        if ! cmp -s "$work/base.out" "$work/head.out"; then
            echo "cmp-splc: $(basename "$f") $mode differs" >&2
            diff "$work/base.out" "$work/head.out" | head -40 >&2 || true
            exit 1
        fi
        count=$((count + 1))
    done
done
test "$count" -eq 24
echo "cmp-splc: 12 plans' i-code and C at -B 64 (straight-line C without AVX): identical"
