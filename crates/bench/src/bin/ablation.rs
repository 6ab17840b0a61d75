//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **k-best DP** (the paper keeps 3 plans per size, arguing the best
//!    formula for one size need not be the best sub-formula for a larger
//!    one): sweep `keep ∈ {1, 3}` and report the final plan costs.
//! 2. **Unroll threshold** (the paper's `-B`, fixed at 64 to parallel
//!    FFTW): sweep `B ∈ {4, 16, 64}` at a mid-size transform.
//! 3. **Breakdown rule** (Eq. 5 vs. the DIF/parallel/vector forms of
//!    Eqs. 7–9) on the same tree shape.
//!
//! Usage: `ablation [--quick]`.

use std::time::Duration;

use spl_bench::{print_table, quick_mode, with_report, MEASURE_TIME};
use spl_generator::fft::{ct_sequence, FftTree, Rule, ALL_RULES};
use spl_numeric::pseudo_mflops;
use spl_search::{compile_tree_native, EvaluatorPool, NativeEvaluator, Search, SearchConfig};
use spl_telemetry::{RunReport, Telemetry};

fn mflops(tree: &FftTree, unroll: usize, min_time: Duration) -> f64 {
    let kernel = compile_tree_native(tree, unroll).expect("compiles");
    pseudo_mflops(tree.size(), kernel.measure(min_time) * 1e6)
}

fn main() {
    with_report("ablation", run);
}

fn run(report: &mut RunReport) {
    let quick = quick_mode();
    let min_time = if quick {
        Duration::from_millis(2)
    } else {
        MEASURE_TIME
    };
    let max_log = if quick { 10 } else { 14 };

    // ------------------------------------------------------------------
    // 1. k-best sweep.
    // ------------------------------------------------------------------
    let mut rows = Vec::new();
    let mut winners: Vec<Vec<FftTree>> = Vec::new();
    let mut search_tel = Telemetry::new();
    for keep in [1usize, 3] {
        let config = SearchConfig {
            keep,
            ..Default::default()
        };
        let mut pool = EvaluatorPool::single(NativeEvaluator::new(min_time));
        let large = Search::new(config)
            .run(max_log, &mut pool, &mut search_tel)
            .expect("search")
            .large;
        winners.push(large.iter().map(|p| p[0].tree.clone()).collect());
        for plans in &large {
            let k = plans[0].tree.size().trailing_zeros();
            if !k.is_multiple_of(2) && !quick {
                continue; // thin out the table
            }
            rows.push(vec![
                format!("keep={keep}"),
                format!("2^{k}"),
                plans[0].tree.describe(),
                format!("{:.1}", mflops(&plans[0].tree, 64, min_time)),
            ]);
        }
    }
    report.push_section("search", search_tel);
    print_table(
        "Ablation 1: k-best DP (paper keeps 3; 1 = ordinary DP)",
        &["config", "N", "winning plan", "pMFLOPS"],
        &rows,
    );
    let diverged = winners[0]
        .iter()
        .zip(&winners[1])
        .filter(|(a, b)| a.describe() != b.describe())
        .count();
    println!(
        "\nplans differing between keep=1 and keep=3: {diverged}/{} sizes\n\
         (the paper's rationale: sub-optimal sub-formulas can win at larger\n\
         sizes; a nonzero count shows the 3-best memo changes decisions)",
        winners[0].len()
    );

    // ------------------------------------------------------------------
    // 2. Unroll-threshold sweep at 2^12.
    // ------------------------------------------------------------------
    let tree = ct_sequence(&[4usize, 4, 4, 4, 4, 4], Rule::CooleyTukey);
    let mut rows = Vec::new();
    for b in [4usize, 16, 64] {
        rows.push(vec![
            format!("-B {b}"),
            format!("{:.1}", mflops(&tree, b, min_time)),
        ]);
    }
    print_table(
        "Ablation 2: unroll threshold (-B) at N = 4096, radix-4 plan",
        &["threshold", "pMFLOPS"],
        &rows,
    );

    // ------------------------------------------------------------------
    // 3. Breakdown rule comparison at 2^10.
    // ------------------------------------------------------------------
    let mut rows = Vec::new();
    for rule in ALL_RULES {
        let tree = ct_sequence(&[4usize, 16, 16], rule);
        rows.push(vec![
            format!("{rule:?}"),
            tree.describe(),
            format!("{:.1}", mflops(&tree, 64, min_time)),
        ]);
    }
    print_table(
        "Ablation 3: breakdown rule (Eq. 5 / 7 / 8 / 9) at N = 1024",
        &["rule", "shape", "pMFLOPS"],
        &rows,
    );
    println!(
        "\n(expected: DIT/DIF comparable; the parallel form pays for its extra\n\
         stride permutations on a single core, the vector form sits between)"
    );
}
