#!/usr/bin/env bash
# The perf gate: splbench at <base-ref> against the working tree, on this
# machine, in one sitting.
#   bash scripts/bench-compare.sh <base-ref>
# Base and head take turns: one run of every workload per side per seed
# (seeds 1-4), the side that goes first alternating from seed to seed, so
# that drift of the machine lands on both sides alike. Each side's runs are
# merged into one result set (merge_sets), and the head set is compared
# against the base set. Exit 1 iff a row reads `regressed` or the
# comparison was refused; `unresolved` rows (run-to-run spread wider than
# the bound) are printed and pass. A head that brings a new VM backend is
# still compared (align_backend). Needs `jq`.
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

# Prints the base set to compare the head set `$2` against: `$1` itself,
# unless `simd_backend` is the one machine field (SAME_MACHINE in
# benchmark/src/compare.rs) the two sets disagree on. The VM's backend is
# a property of the code under test — a change can add one — so then the
# move is shown on stderr and the answer is a copy of `$1` whose field
# holds the head's value. Any other field that differs is left for the
# compare to refuse.
align_backend() {
    local base=$1 head=$2 from to
    local machine='.environment | [.nproc, .cpu_model, .bench_cpus, .cc_version]'
    from=$(jq -r '.environment.simd_backend' "$base")
    to=$(jq -r '.environment.simd_backend' "$head")
    if [ "$from" = "$to" ] || [ "$(jq -c "$machine" "$base")" != "$(jq -c "$machine" "$head")" ]; then
        echo "$base"
        return
    fi
    echo "simd_backend: $from → $to" >&2
    jq --arg to "$to" '.environment.simd_backend = $to' "$base" > "${base%.json}.$to.json"
    echo "${base%.json}.$to.json"
}

# Prints one result set holding every run of the result sets named, in
# their order, each workload's runs after one another; the environment is
# the first set's (the compare checks that two sets share a machine, not
# that their runs share a seed).
merge_sets() {
    jq -s '.[0] + {workloads: (reduce (.[].workloads | to_entries[]) as $w
        ({}; .[$w.key] += $w.value))}' "$@"
}

# Sourced (tests/bench_compare.rs does): the functions, and nothing run.
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
for seed in 1 2 3 4; do
    order=("$tmp/base" "$root")
    if [ $((seed % 2)) -eq 0 ]; then
        order=("$root" "$tmp/base")
    fi
    for checkout in "${order[@]}"; do
        side=head
        [ "$checkout" = "$root" ] || side=base
        bash "$checkout/benchmark/run.sh" --runs 1 --seed "$seed" --out "$tmp/$side-$seed.json"
    done
done
merge_sets "$tmp"/base-?.json > "$tmp/base.json"
merge_sets "$tmp"/head-?.json > "$tmp/head.json"

base=$(align_backend "$tmp/base.json" "$tmp/head.json")
{ bash "$root/benchmark/run.sh" --compare "$base" "$tmp/head.json" || true; } | verdict
