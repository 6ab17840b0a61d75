#!/usr/bin/env bash
# Holds one splc build to another's output, byte for byte: the C at
# `-B 64` and the optimized i-code of the twelve plans of
# benchmark/plans.wisdom. A change meant to print nothing new (a faster
# pass, a faster emitter) must pass it against a build of its parent.
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

# Each "size: spec" line as SPL: a leaf n is (F n); (ct a b) is the
# Cooley-Tukey split FftTree::to_sexp prints.
python3 - "$root/benchmark/plans.wisdom" "$work" <<'EOF'
import sys

def parse(toks, i):
    if toks[i] == "(":
        assert toks[i + 1] == "ct", toks[i + 1]
        a, i = parse(toks, i + 2)
        b, i = parse(toks, i)
        assert toks[i] == ")"
        return ("ct", a, b), i + 1
    return int(toks[i]), i + 1

def size(t):
    return t if isinstance(t, int) else size(t[1]) * size(t[2])

def spl(t):
    if isinstance(t, int):
        return f"(F {t})"
    a, b = size(t[1]), size(t[2])
    n = a * b
    return (f"(compose (tensor {spl(t[1])} (I {b})) (T {n} {b}) "
            f"(tensor (I {a}) {spl(t[2])}) (L {n} {a}))")

for line in open(sys.argv[1]):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    n, spec = line.split(":", 1)
    toks = spec.replace("(", " ( ").replace(")", " ) ").split()
    with open(f"{sys.argv[2]}/plan{n.strip()}.spl", "w") as f:
        f.write(spl(parse(toks, 0)[0]) + "\n")
EOF

count=0
for f in "$work"/plan*.spl; do
    for mode in "--language c" "--icode"; do
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
test "$count" -eq 24
echo "cmp-splc: 12 plans x (C at -B 64, i-code): identical"
