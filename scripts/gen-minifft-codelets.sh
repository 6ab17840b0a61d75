#!/usr/bin/env bash
# Regenerates spl-minifft's codelets from their SPL formulas:
#   bash scripts/gen-minifft-codelets.sh
# Each crates/minifft/codelets/fft<n>.spl goes through `splc -B 64` (one
# straight-line C function, constants inline, no static state) into
# crates/minifft/codelets/codelets.c, which the crate's build.rs compiles.
# tests/minifft_codelets.rs fails when the committed C and this output
# differ; run this script after a change to the formulas or to the
# compiler's C.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q --bin splc
dir=crates/minifft/codelets
{
    printf '/* Generated by scripts/gen-minifft-codelets.sh from fft*.spl: do not edit. */\n\n'
    for n in 2 4 8 16 32 64; do
        ./target/release/splc -B 64 "$dir/fft$n.spl"
    done
} > "$dir/codelets.c.tmp"
mv "$dir/codelets.c.tmp" "$dir/codelets.c"
