#!/usr/bin/env bash
# The perf gate: splbench at <base-ref> against the working tree, on this
# machine, in one sitting.
#   bash scripts/bench-compare.sh <base-ref>
# Three result sets of three runs per workload (base, head, base again, so
# that drift of the machine shows as a difference between the two base
# sets), then the head set compared against each base set. Exit 1 iff a
# row reads `regressed` or a comparison was refused; `unresolved` rows
# (run-to-run spread wider than the bound) are printed and pass.
set -euo pipefail

# Reads one `run.sh --compare` table on stdin and prints it. `run.sh`
# itself exits 1 on `unresolved` as well, so the decision is taken from
# the verdict column; a table without a single verdict row means the
# compare refused the pair (another machine) or its layout changed.
verdict() {
    awk '
        { print }
        $NF == "ok" || $NF == "unresolved" { rows++ }
        $NF == "regressed" { rows++; bad++ }
        END { exit (bad > 0 || rows == 0) }
    '
}

# Sourced (tests/bench_compare.rs does): the function, and nothing run.
if [[ ${BASH_SOURCE[0]} != "$0" ]]; then
    return 0
fi

if [ $# -ne 1 ]; then
    echo "usage: bash scripts/bench-compare.sh <base-ref>" >&2
    exit 2
fi
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'git -C "$root" worktree remove --force "$tmp/base" 2>/dev/null || true; rm -rf "$tmp"' EXIT
git -C "$root" worktree add --detach "$tmp/base" "$1"

# Each checkout builds into its own benchmark/target, and run.sh changes
# to its checkout: hence absolute paths. A failed operation is a non-zero
# exit of its run, which `set -e` makes ours.
unset CARGO_TARGET_DIR
bash "$tmp/base/benchmark/run.sh" --runs 3 --out "$tmp/base-1.json"
bash "$root/benchmark/run.sh" --runs 3 --out "$tmp/head.json"
bash "$tmp/base/benchmark/run.sh" --runs 3 --out "$tmp/base-2.json"

status=0
for base in "$tmp/base-1.json" "$tmp/base-2.json"; do
    { bash "$root/benchmark/run.sh" --compare "$base" "$tmp/head.json" || true; } \
        | verdict || status=1
done
exit $status
