//! The full SPIRAL-style pipeline: formula generation → compilation →
//! measured dynamic-programming search → best implementation, for FFT
//! sizes 2..64 (paper Section 4.1), with the winning formulas printed as
//! SPL source.
//!
//! Run with `cargo run --release --example search_pipeline`.

use std::time::Duration;

use spl::generator::fft::enumerate_trees;
use spl::generator::fft::Rule;
use spl::numeric::pseudo_mflops;
use spl::search::{compile_tree_native, EvaluatorPool, NativeEvaluator, Search, SearchConfig};
use spl::telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // How big is the space the search walks? (Equation 10 trees.)
    println!("factorization-space sizes (Equation 10, with naive leaves):");
    for k in 1..=6 {
        println!(
            "  F_{:<3} {:>4} formulas",
            1 << k,
            enumerate_trees(k, Rule::CooleyTukey).len()
        );
    }

    println!("\nrunning measured dynamic programming (native execution) ...");
    // One driver for every search: this one is serial (a pool of one
    // evaluator), untraced (a throw-away telemetry sink) and keeps
    // nothing (the default in-memory store).
    let mut pool = EvaluatorPool::single(NativeEvaluator::new(64, Duration::from_millis(10)));
    let found = Search::new(SearchConfig::default()).run(6, &mut pool, &mut Telemetry::new())?;

    println!("\n{:<4} {:>12} {:<24} formula", "N", "pMFLOPS", "shape");
    for r in &found.small {
        let n = r.tree.size();
        let kernel = compile_tree_native(&r.tree, 64)?;
        let t = kernel.measure(Duration::from_millis(10));
        println!(
            "{:<4} {:>12.1} {:<24} {}",
            n,
            pseudo_mflops(n, t * 1e6),
            r.tree.describe(),
            r.tree.to_sexp()
        );
    }
    println!(
        "\n(the winning SPL formulas above can be fed back to the compiler\n\
         verbatim, e.g. with #subname/#datatype directives prepended)"
    );
    Ok(())
}
