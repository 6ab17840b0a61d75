"""Writes each "size: spec" line of a flat wisdom file as SPL, one
<dir>/plan<size>.spl per plan: a leaf n is (F n); (ct a b) is the
Cooley-Tukey split FftTree::to_sexp prints.

    python3 scripts/plans-to-spl.py benchmark/plans.wisdom <dir>
"""
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
