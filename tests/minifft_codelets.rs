//! The baseline's codelets are `splc`'s output. `spl-minifft` links the C
//! in `crates/minifft/codelets/codelets.c`, which `splc -B 64` generated
//! from the committed `fft{2,…,64}.spl`. These tests hold that file to
//! its formulas, hold the formulas to one fixed rule (the balanced split),
//! and hold the compiled codelets to the VM bit for bit, so the invariant
//! that every tier equals the VM covers the baseline's leaves too.

use std::path::PathBuf;

use spl::compiler::{CompiledUnit, Compiler, CompilerOptions};
use spl::generator::fft::{FftTree, Rule};
use spl::minifft::codelet::{Codelet, CODELET_SIZES};
use spl::numeric::rng::Rng;
use spl::vm::VmState;

/// The first line `scripts/gen-minifft-codelets.sh` writes.
const HEADER: &str =
    "/* Generated by scripts/gen-minifft-codelets.sh from fft*.spl: do not edit. */\n\n";

fn codelet_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/minifft/codelets")
}

/// Compiles the committed formula for `n` as `splc -B 64` does.
fn compile(n: usize) -> CompiledUnit {
    let path = codelet_dir().join(format!("fft{n}.spl"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut compiler = Compiler::with_options(CompilerOptions {
        unroll_threshold: Some(64),
        ..Default::default()
    });
    let mut units = compiler
        .compile_source(&src)
        .expect("codelet formula compiles");
    assert_eq!(units.len(), 1, "{} holds one formula", path.display());
    units.remove(0)
}

/// The balanced split of `2^k`: left factor `2^⌈k/2⌉`, applied recursively.
fn balanced(k: u32) -> FftTree {
    if k == 1 {
        return FftTree::leaf(2);
    }
    let left = k.div_ceil(2);
    FftTree::node(Rule::CooleyTukey, balanced(left), balanced(k - left))
}

#[test]
fn committed_codelets_are_splc_output() {
    let mut want = String::from(HEADER);
    for n in CODELET_SIZES {
        // splc prints a blank line after each unit.
        want.push_str(&compile(n).emit());
        want.push('\n');
    }
    let path = codelet_dir().join("codelets.c");
    let got = std::fs::read_to_string(&path).expect("codelets.c is committed");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "{} is not what splc emits for the committed formulas (first difference at \
             line {}); regenerate it with `bash scripts/gen-minifft-codelets.sh`",
            path.display(),
            line + 1
        );
    }
}

#[test]
fn codelet_formulas_are_the_balanced_split() {
    for (k, n) in (1u32..).zip(CODELET_SIZES) {
        let unit = compile(n);
        assert_eq!(unit.name, format!("minifft_codelet_{n}"));
        assert_eq!(unit.formula, balanced(k).to_sexp(), "n={n}");
    }
}

#[test]
fn codelets_equal_the_vm_bit_for_bit() {
    for n in CODELET_SIZES {
        let vm = spl::vm::lower(&compile(n).program).expect("codelet lowers");
        let codelet = Codelet::new(n);
        let mut state = VmState::new(&vm);
        for seed in [3u64, 11] {
            let mut rng = Rng::new(seed);
            let x: Vec<f64> = (0..2 * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let mut want = vec![0.0; 2 * n];
            vm.run(&x, &mut want, &mut state);

            let mut y = vec![0.0; 2 * n];
            codelet.apply(&x, 1, &mut y, 1);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&want), "n={n} seed={seed} unit stride");

            // Input at complex stride 3, output at complex stride 2.
            let mut xs = vec![f64::NAN; 2 * 3 * n];
            for k in 0..n {
                xs[6 * k..6 * k + 2].copy_from_slice(&x[2 * k..2 * k + 2]);
            }
            let mut ys = vec![0.0; 2 * 2 * n];
            codelet.apply(&xs, 3, &mut ys, 2);
            let got: Vec<f64> = (0..n).flat_map(|k| [ys[4 * k], ys[4 * k + 1]]).collect();
            assert_eq!(bits(&got), bits(&want), "n={n} seed={seed} strides (3, 2)");
        }
    }
}
