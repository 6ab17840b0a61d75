#!/usr/bin/env bash
# Checks where splc prints loop bodies two iterations per 32-byte vector,
# on the C at `-B 64` of the twelve plans of benchmark/plans.wisdom:
#
# * every `#if defined(__AVX__)` guard around a loop guards a wide loop
#   or a lane nest, and its `#if` form takes that loop's trips two at a
#   time: it steps by 2, or (a lane nest with a rest at its own level)
#   steps by 1 and enters the levels down to its leaf on even trips only;
# * a wide loop's `#else` form is an innermost scalar loop whose
#   subscripts all step by 0 or 2 doubles per iteration, and every such
#   loop of an even trip count is the `#else` form of a guard (a wide
#   loop's own, or a lane nest's);
# * a lane nest's `#else` form is the loop as a build without AVX
#   compiled it before there were nests: one `for` stepping by 1, no
#   preprocessor line, no 32-byte vector, no lane loop;
# * the 2^12 plan's first stage is a lane nest that takes `i0` two trips
#   at a time and loads `x[2*i0+...]` as `spl_v4du`;
# * straight-line C of 16..64 points has one `#if defined(__AVX__)` guard
#   (beside its types' preamble): a run of statements that names
#   `spl_v4d` (two complex values per 32-byte vector), no loop in it, and
#   an `#else` that names none, the pair form; of 2..8 points it names no
#   `__AVX__` (its quads take no fewer statements, a half move counted
#   twice, and the pair form prints alone).
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

def loop_end(lines, at):
    """The line that closes the loop whose header is `lines[at]`."""
    indent = len(lines[at]) - len(lines[at].lstrip())
    return next(k for k in range(at + 1, len(lines))
                if lines[k] == " " * indent + "}")

def unit(lines, at):
    """Whether the loop at `at` is innermost, of an even trip count, and
    steps every subscript by 0 or 2 doubles."""
    var, lo, hi, _ = HEAD.search(lines[at]).groups()
    body = "\n".join(lines[at + 1:loop_end(lines, at)])
    trips = int(hi) - int(lo) + 1
    return ("for (" not in body and trips % 2 == 0
            and all(c in (0, 2) for c in steps(body, var)))

def branches(lines, at):
    """The `#else` and `#endif` lines of the `#if` at `at`."""
    depth, other = 0, None
    for k in range(at + 1, len(lines)):
        if lines[k].startswith("#if"):
            depth += 1
        elif lines[k] == "#else" and depth == 0:
            other = k
        elif lines[k] == "#endif":
            if depth == 0:
                return other, k
            depth -= 1

bad = 0
for path in sorted(glob.glob(f"{sys.argv[1]}/plan*.c")):
    n = int(re.search(r"plan(\d+)\.c$", path).group(1))
    lines = open(path).read().split("\n")
    if n <= 64:
        guards = [at for at, l in enumerate(lines) if l == "#if defined(__AVX__)"]
        for at in guards:
            other, end = branches(lines, at)
            avx = lines[at + 1:other or end]
            plain = lines[other + 1:end] if other else []
            if (not any("spl_v4d v" in l for l in avx) or not plain
                    or any(l.startswith("#") or "for (" in l for l in avx + plain)
                    or any("spl_v4d" in l for l in plain)):
                print(f"plan {n}: the guard at line {at + 1} is not a run on spl_v4d beside one without")
                bad += 1
        preamble = "#if defined(__AVX__) && !defined(SPL_V4D)"
        stray = [l for l in lines if "__AVX__" in l and l not in ("#if defined(__AVX__)", preamble)]
        if stray or len(guards) != int(n >= 16):
            print(f"plan {n}: {len(guards)} quad runs, {len(stray)} other __AVX__ lines")
            bad += 1
        print(f"plan {n}: {len(guards)} quad runs")
        continue
    wide = nests = 0
    cond = []  # per open #if: [text, in #else, guards a lane nest]
    for at, line in enumerate(lines):
        if line.startswith("#if"):
            nest = False
            if line == "#if defined(__AVX__)" and HEAD.search(lines[at + 1]):
                m = HEAD.search(lines[at + 1])
                other, end = branches(lines, at)
                plain = lines[other + 1:end] if other else []
                want = f"for ({m[1]} = {m[2]}; {m[1]} <= {m[3]}; {m[1]}++) {{"
                even = f"if (({m[1]} & 1) == 0) {{", f"if ((({m[1]} - {m[2]}) & 1) == 0) {{"
                by_two = m[4] == " += 2" or lines[at + 2].strip() in even
                if not by_two or not plain or plain[0].strip() != want:
                    print(f"plan {n}: the guard at line {at + 1} is not a loop two trips at a time beside it by 1")
                    bad += 1
                elif unit(plain, 0):
                    wide += 1
                else:
                    nest = True
                    nests += 1
                    text = "\n".join(plain)
                    lanes = re.findall(r"for \((i\d+) = 0; \1 <= 1; \1\+\+\)", "\n".join(lines[at:other]))
                    lanes = [v for v in lanes if f"for ({v} = " not in text]
                    if "#" in text or "spl_v4d" in text or loop_end(plain, 0) != len(plain) - 1 \
                            or any(f"{v}" in text for v in lanes):
                        print(f"plan {n}: lane nest {m[1]}'s #else is not its loop without lanes")
                        bad += 1
                    if n == 4096 and not (m[1] == "i0" and any(
                            "*(const spl_v4du *)&x[2*i0+" in l for l in lines[at:other])):
                        print(f"plan {n}: the first stage is not a lane nest over i0 loading x as spl_v4du")
                        bad += 1
            cond.append([line, False, nest])
            continue
        if line.startswith("#else"):
            cond[-1][1] = True
            continue
        if line.startswith("#endif"):
            cond.pop()
            continue
        m = HEAD.search(line)
        if not m or m[4] == " += 2":
            continue
        guard = next((c for c in reversed(cond) if c[0] == "#if defined(__AVX__)"), None)
        in_else = guard is not None and guard[1]
        if unit(lines, at) and not in_else:
            print(f"plan {n}: unit-stride loop {m[1]} is not in the #else of an AVX guard")
            bad += 1
        if in_else and not guard[2] and not unit(lines, at):
            print(f"plan {n}: loop {m[1]} in a wide loop's #else is not unit-stride")
            bad += 1
    if wide == 0 or nests != (n > 128):
        print(f"plan {n}: {wide} wide loops, {nests} lane nests")
        bad += 1
    print(f"plan {n}: {wide} wide loops, {nests} lane nests")
sys.exit(1 if bad else 0)
EOF
echo "check-wide-loops: every unit-stride innermost loop is guarded, each lane nest's #else is its loop without lanes, straight-line C from 16 points is one run on spl_v4d beside its pair form"
