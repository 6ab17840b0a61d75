#!/usr/bin/env bash
# splbench: builds the release binaries and runs the benchmark.
#   bash benchmark/run.sh                      every workload, every end-to-end metric
#   bash benchmark/run.sh --trace              ... and the traced runs: per-layer metrics
#   bash benchmark/run.sh --selftest           two sets back to back, then compare them
#   bash benchmark/run.sh --compare A.json B.json
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (the driver's form)
# See benchmark/README.md; `--help` lists every option.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
cd "$root"

if [ ! -f Cargo.toml ] || [ ! -d crates ] || [ ! -d src/bin ]; then
    echo "splbench: $root holds no SPL repository around benchmark/: nothing to build or measure" >&2
    exit 2
fi

# One target directory for both builds, inside the checkout: the one the
# caller names, else benchmark/target.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

# The daemon and the search tool are measured as the binaries the
# repository ships; the benchmark is a package of its own beside them.
cargo build --release --offline --quiet --bin spld --bin splsearch
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

# Everything a run writes lives under benchmark/out/run-<pid>: the
# daemon's socket and state, the wisdom store, kernel caches, and (via
# TMPDIR) the shared objects the native tier builds.
run=benchmark/out/run-$$
mkdir -p "$run/tmp"
export TMPDIR=$root/$run/tmp

cleanup() {
    # Children the benchmark could not reap itself (it was killed, or
    # panicked past its guards): kill what is left, then remove the state.
    if [ -f "$run/pids" ]; then
        while read -r pid; do
            kill -9 "$pid" 2>/dev/null || true
        done < "$run/pids"
    fi
    rm -rf "$run"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Everything timed in or from the benchmark's process (compiles, kernels,
# the client and the daemon it talks to) shares the last allowed core, so
# that no timed path waits for another core to wake up; splsearch gets all
# of them. Without taskset, or with one core, nothing is pinned.
pin=()
if command -v taskset >/dev/null 2>&1; then
    cpus=()
    IFS=, read -ra ranges <<< "$(taskset -cp $$ | sed 's/.*: *//')"
    for r in "${ranges[@]}"; do
        for c in $(seq "${r%-*}" "${r#*-}"); do cpus+=("$c"); done
    done
    if [ "${#cpus[@]}" -ge 2 ]; then
        pin=(--pin "${cpus[-1]}" "$(IFS=,; echo "${cpus[*]}")")
    fi
fi

# The benchmark's own heap keeps what it once got (see HEAP_ENV in
# src/main.rs); the binaries under test run without these settings.
MALLOC_TOP_PAD_=268435456 MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_MMAP_THRESHOLD_=1073741824 \
"$target/release/splbench" --bin-dir "$target/release" --run-dir "$run" "${pin[@]}" "$@"
