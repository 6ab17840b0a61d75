#!/usr/bin/env bash
# Checks where splc prints wide loop bodies, on the C at `-B 64` of the
# twelve plans of benchmark/plans.wisdom:
#
# * every innermost scalar loop of an even trip count whose subscripts
#   all step by 0 or 2 doubles per iteration is the `#else` form of an
#   `#if defined(__AVX__)` block, whose `#if` form steps by 2;
# * straight-line C (2..64 points) names no `__AVX__` at all.
#
#   bash scripts/check-wide-loops.sh [<splc>]
#
# <splc> defaults to this checkout's target/release/splc. Exits 1 and
# names the plan and loop on a miss.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
splc=${1:-$root/target/release/splc}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

python3 "$root/scripts/plans-to-spl.py" "$root/benchmark/plans.wisdom" "$work"
for f in "$work"/plan*.spl; do
    "$splc" -B 64 --language c "$f" > "${f%.spl}.c"
done

python3 - "$work" <<'EOF'
import glob, re, sys

HEAD = re.compile(r"for \((i\d+) = (-?\d+); \1 <= (-?\d+); \1(\+\+| \+= 2)\) \{")

def steps(body, var):
    """The loop variable's coefficient in each subscript of `body`."""
    for sub in re.findall(r"\w+\[([^\]]*)\]", body):
        coef = 0
        for sign, k, v in re.findall(r"([+-]?)(?:(\d+)\*)?(i\d+)", sub):
            if v == var:
                coef = int(k or 1) * (-1 if sign == "-" else 1)
        yield coef

bad = 0
for path in sorted(glob.glob(f"{sys.argv[1]}/plan*.c")):
    n = int(re.search(r"plan(\d+)\.c$", path).group(1))
    lines = open(path).read().split("\n")
    if n <= 64:
        if any("__AVX__" in l for l in lines):
            print(f"plan {n}: straight-line C names __AVX__")
            bad += 1
        continue
    guards = wide = 0
    cond = []  # per open #if: [text, in #else]
    for at, line in enumerate(lines):
        if line.startswith("#if"):
            cond.append([line, False])
        elif line.startswith("#else"):
            cond[-1][1] = True
        elif line.startswith("#endif"):
            cond.pop()
        guards += line == "#if defined(__AVX__)"
        m = HEAD.search(line)
        if not m:
            continue
        var, lo, hi, step = m.groups()
        if step == " += 2":
            wide += lines[at - 1] == "#if defined(__AVX__)"
            continue
        indent = len(line) - len(line.lstrip())
        end = next(k for k in range(at + 1, len(lines))
                   if lines[k] == " " * indent + "}")
        body = "\n".join(lines[at + 1:end])
        if "for (" in body:
            continue  # not innermost
        trips = int(hi) - int(lo) + 1
        unit = trips % 2 == 0 and all(c in (0, 2) for c in steps(body, var))
        guarded = cond and cond[-1] == ["#if defined(__AVX__)", True]
        if unit and not guarded:
            print(f"plan {n}: unit-stride loop {var} is not the #else of an AVX guard")
            bad += 1
        if guarded and not unit:
            print(f"plan {n}: loop {var} under an AVX guard is not unit-stride")
            bad += 1
    if guards != wide or guards == 0:
        print(f"plan {n}: {guards} AVX guards, {wide} loops stepping by 2 after one")
        bad += 1
    print(f"plan {n}: {wide} wide loops")
sys.exit(1 if bad else 0)
EOF
echo "check-wide-loops: every unit-stride innermost loop is guarded, straight-line C is not"
