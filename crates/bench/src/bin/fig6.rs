//! Figure 6: accuracy of the FFT computation.
//!
//! The paper measures relative error per size with benchfft. Here
//! (DESIGN.md, substitution 3): for N ≤ 2¹² the error is the relative RMS
//! distance to a Kahan-compensated O(n²) DFT; for larger N it is the
//! round-trip error `‖IFFT(FFT(x)) − x‖ / ‖x‖`, which grows with the same
//! O(√log N) trend.
//!
//! Usage: `fig6 [--quick] [--max-log2 N]` (default 18).

use spl_bench::{
    arg_value_parsed, print_table, quick_mode, run_fft, run_ifft, with_report, workload,
};
use spl_numeric::{reference, relative_rms_error};
use spl_search::{compile_tree, EvaluatorPool, OpCountEvaluator, Search, SearchConfig};
use spl_telemetry::{RunReport, Telemetry};

fn main() {
    with_report("fig6", run);
}

fn run(report: &mut RunReport) {
    let quick = quick_mode();
    let max_log: u32 = arg_value_parsed("--max-log2").unwrap_or(if quick { 10 } else { 18 });
    let mut pool = EvaluatorPool::single(OpCountEvaluator::default());
    let mut search_tel = Telemetry::new();
    let found = Search::new(SearchConfig::default())
        .run(max_log, &mut pool, &mut search_tel)
        .expect("search");
    report.push_section("search", search_tel);

    let mut rows = Vec::new();
    for winner in found.winners() {
        let n = winner.tree.size();
        let k = n.trailing_zeros();
        let vm = compile_tree(&winner.tree, 64).expect("tree compiles");
        let x = workload(n);
        let y = run_fft(&vm, &x);
        let (err, method) = if k <= 12 {
            let want = reference::dft_compensated(&x);
            (relative_rms_error(&y, &want), "vs compensated DFT")
        } else {
            let back = run_ifft(&vm, &y);
            (relative_rms_error(&back, &x), "round trip")
        };
        rows.push(vec![
            format!("2^{k}"),
            format!("{err:.3e}"),
            method.to_string(),
        ]);
    }
    print_table(
        "Figure 6: relative RMS error of the generated FFTs",
        &["N", "relative error", "method"],
        &rows,
    );
    println!(
        "\n(paper: errors stay near machine precision, growing slowly —\n\
         roughly as sqrt(log N) — with transform size)"
    );
}
