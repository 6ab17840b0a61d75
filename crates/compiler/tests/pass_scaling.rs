//! Value numbering and forward substitution must stay near-linear in
//! the size of a straight-line block: expanded tensor code is big by
//! construction, and the search compiles every candidate. Complex
//! `(F 32)` unrolls to 4.3 times the instructions of complex `(F 16)`
//! (8256 against 1920); a pass that takes more than 8 times as long on
//! it is on its way back to quadratic (16 times and more — the
//! per-instruction scans these passes once had measured 11 and 18).
//!
//! The same bound holds for `dce` on loop code whose twiddles were folded
//! into an unrolled codelet: each codelet leaves one self-feeding `$r`
//! chain per point, which `dce` removes without a scan per chain.

use spl_compiler::{Compiler, CompilerOptions};

const PASSES: [&str; 3] = ["value-number", "forward-substitute", "dce"];

/// Fastest of `reps` compiles: nanoseconds in each of [`PASSES`], and
/// the instruction count entering the optimizer.
fn pass_times(src: &str, reps: usize) -> ([u128; 3], u64) {
    let mut best = [u128::MAX; 3];
    let mut instrs = 0;
    for _ in 0..reps {
        let mut c = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(64),
            ..Default::default()
        });
        c.compile_formula_str(src).unwrap();
        let tel = c.take_telemetry();
        for (slot, pass) in best.iter_mut().zip(PASSES) {
            let ns = tel.span_ns(&format!("pass.{pass}")).expect("pass ran");
            *slot = (*slot).min(ns);
        }
        instrs = tel.counter("optimize.instrs_before").unwrap();
    }
    (best, instrs)
}

#[test]
fn four_times_the_block_costs_at_most_eight_times_the_pass() {
    let (small, n_small) = pass_times("(F 16)", 5);
    let (large, n_large) = pass_times("(F 32)", 5);
    let growth = n_large as f64 / n_small as f64;
    assert!(
        (4.0..4.6).contains(&growth),
        "the pair no longer spans 4x: {n_small} -> {n_large} instructions"
    );
    for ((pass, s), l) in PASSES.iter().zip(small).zip(large) {
        let ratio = l as f64 / s as f64;
        println!("pass.{pass}: {s} ns -> {l} ns, {ratio:.1}x for {growth:.1}x the instructions");
        assert!(
            ratio <= 8.0,
            "pass.{pass} took {ratio:.1}x as long on {growth:.1}x the instructions \
             ({s} ns -> {l} ns): a per-instruction scan of the block is back"
        );
    }
}

/// `(F_r ⊗ I_128) · T · (I_r ⊗ F_128) · L` at `-B 64`: `F_r` is unrolled
/// inside a live loop over 128, its twiddle loop with it.
fn folded_split(r: usize) -> String {
    let n = 128 * r;
    format!("(compose (tensor (F {r}) (I 128)) (T {n} 128) (tensor (I {r}) (F 128)) (L {n} {r}))")
}

#[test]
fn dce_stays_linear_over_self_feeding_chains() {
    let (small, n_small) = pass_times(&folded_split(16), 5);
    let (large, n_large) = pass_times(&folded_split(32), 5);
    let growth = n_large as f64 / n_small as f64;
    assert!(
        (3.5..4.6).contains(&growth),
        "the pair no longer spans 4x: {n_small} -> {n_large} instructions"
    );
    let (s, l) = (small[2], large[2]);
    let ratio = l as f64 / s as f64;
    println!("pass.dce: {s} ns -> {l} ns, {ratio:.1}x for {growth:.1}x the instructions");
    assert!(
        ratio <= 8.0,
        "pass.dce took {ratio:.1}x as long on {growth:.1}x the instructions ({s} ns -> {l} ns)"
    );
}
