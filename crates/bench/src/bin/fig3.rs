//! Figure 3: performance for small-size FFTs (N = 2 … 64).
//!
//! The paper searches Equation-10 factorizations per size with dynamic
//! programming, generates straight-line code, compiles it with the
//! platform compiler, and compares pseudo-MFLOPS (`5·N·log₂N / t`)
//! against the FFTW codelets. Here the SPL series is the generated C
//! compiled by the host `cc` (the paper's methodology, via `spl-native`);
//! the baseline is the `spl-minifft` codelet set (DESIGN.md,
//! substitution 2). A VM column shows the portable interpreter as an
//! ablation.
//!
//! Usage: `fig3 [--quick]`.

use std::time::Duration;

use spl_bench::{print_table, quick_mode, with_report, workload, MEASURE_TIME};
use spl_minifft::Codelet;
use spl_numeric::pseudo_mflops;
use spl_search::{
    compile_tree, compile_tree_native, EvaluatorPool, NativeEvaluator, Search, SearchConfig,
};
use spl_telemetry::{RunReport, Telemetry};
use spl_vm::measure;

fn codelet_pseudo_mflops(n: usize, min_time: Duration) -> f64 {
    let c = Codelet::new(n);
    let x = spl_vm::convert::interleave(&workload(n));
    let mut y = vec![0.0f64; 2 * n];
    let per_call = spl_numeric::metrics::time_adaptive(min_time, || c.apply(&x, 1, &mut y, 1));
    pseudo_mflops(n, per_call * 1e6)
}

fn main() {
    with_report("fig3", run);
}

fn run(report: &mut RunReport) {
    let min_time = if quick_mode() {
        Duration::from_millis(2)
    } else {
        MEASURE_TIME
    };
    let max_k = if quick_mode() { 4 } else { 6 };
    let mut pool = EvaluatorPool::single(NativeEvaluator::new(min_time));
    let mut search_tel = Telemetry::new();
    let best = Search::new(SearchConfig::default())
        .run(max_k, &mut pool, &mut search_tel)
        .expect("small search")
        .small;
    report.push_section("search", search_tel);

    let mut rows = Vec::new();
    for r in &best {
        let n = r.tree.size();
        // SPL native: the generated C through the host compiler.
        let kernel = compile_tree_native(&r.tree, 64).expect("winner compiles natively");
        let spl = pseudo_mflops(n, kernel.measure(min_time) * 1e6);
        // SPL on the portable VM (ablation).
        let vm = compile_tree(&r.tree, 64).expect("winner lowers");
        let vm_mflops = pseudo_mflops(n, measure(&vm, min_time).micros_per_call());
        let fftw = codelet_pseudo_mflops(n, min_time);
        // Sanity: the winning program still computes the DFT.
        let x = workload(n);
        let y = spl_bench::run_fft(&vm, &x);
        let want = spl_numeric::reference::dft(&x);
        let err = spl_numeric::relative_rms_error(&y, &want);
        assert!(err < 1e-10, "winner for {n} is wrong (err {err})");
        rows.push(vec![
            n.to_string(),
            r.tree.describe(),
            format!("{spl:.1}"),
            format!("{fftw:.1}"),
            format!("{:.2}", spl / fftw),
            format!("{vm_mflops:.1}"),
        ]);
    }
    print_table(
        "Figure 3: small-size FFT performance (pseudo MFLOPS = 5 N log2 N / t_us)",
        &[
            "N",
            "winning formula",
            "SPL",
            "FFTW codelet",
            "SPL/FFTW",
            "SPL (VM)",
        ],
        &rows,
    );
    println!(
        "\n(paper: the SPL curve tracks the FFTW-codelet curve closely across\n\
         N = 2..64; the expected shape is a ratio near 1 at every size)"
    );
}
