//! Figure 4: performance for large-size FFTs (N = 2⁷ … 2²⁰).
//!
//! Three series, as in the paper: `SPL` (loop code from the k-best
//! right-most search, leaves ≤ 64 unrolled, generated C compiled by the
//! host `cc`), `FFTW` (the minifft planner in measure mode), and
//! `FFTW estimate` (the planner's cost-model mode). Planning/search time
//! is excluded from the measurement, as in the paper.
//!
//! Usage: `fig4 [--quick] [--max-log2 N]` (default max-log2 = 18; pass 20
//! for the paper's full range).

use std::time::Duration;

use spl_bench::{arg_value_parsed, print_table, quick_mode, with_report, workload, MEASURE_TIME};
use spl_minifft::{Plan, PlanMode};
use spl_numeric::pseudo_mflops;
use spl_search::{compile_tree_native, EvaluatorPool, NativeEvaluator, Search, SearchConfig};
use spl_telemetry::{RunReport, Telemetry};

fn plan_pseudo_mflops(plan: &Plan, min_time: Duration) -> f64 {
    let n = plan.n();
    let x = spl_vm::convert::interleave(&workload(n));
    let mut y = vec![0.0f64; 2 * n];
    let per_call = spl_numeric::metrics::time_adaptive(min_time, || plan.execute(&x, &mut y));
    pseudo_mflops(n, per_call * 1e6)
}

fn main() {
    with_report("fig4", run);
}

fn run(report: &mut RunReport) {
    let quick = quick_mode();
    let max_log: u32 = arg_value_parsed("--max-log2").unwrap_or(if quick { 10 } else { 18 });
    let min_time = if quick {
        Duration::from_millis(2)
    } else {
        MEASURE_TIME
    };
    let mut search_tel = Telemetry::new();
    eprintln!("searching 2..64 natively, then 2^7..2^{max_log} with 3-best DP...");
    let mut pool = EvaluatorPool::single(NativeEvaluator::new(min_time));
    let found = Search::new(SearchConfig::default())
        .run(max_log, &mut pool, &mut search_tel)
        .expect("search");
    report.push_section("search", search_tel);

    let mut rows = Vec::new();
    for plans in &found.large {
        let n = plans[0].tree.size();
        let k = n.trailing_zeros();
        let winner = &plans[0];
        let kernel = compile_tree_native(&winner.tree, 64).expect("winner compiles natively");
        let spl = pseudo_mflops(n, kernel.measure(min_time) * 1e6);
        let fftw_plan = Plan::new(n, PlanMode::Measure);
        let fftw = plan_pseudo_mflops(&fftw_plan, min_time);
        let est_plan = Plan::new(n, PlanMode::Estimate);
        let est = plan_pseudo_mflops(&est_plan, min_time);
        rows.push(vec![
            format!("2^{k}"),
            winner.tree.describe(),
            format!("{spl:.1}"),
            format!("{fftw:.1}"),
            format!("{est:.1}"),
            format!("{:.2}", spl / fftw),
        ]);
        eprintln!("  2^{k}: SPL {spl:.1}  FFTW {fftw:.1}  FFTW-estimate {est:.1}");
    }
    print_table(
        "Figure 4: large-size FFT performance (pseudo MFLOPS)",
        &["N", "SPL plan", "SPL", "FFTW", "FFTW estimate", "SPL/FFTW"],
        &rows,
    );
    println!(
        "\n(paper: the three curves stay close, with FFTW-estimate trailing the\n\
         measured plans; performance steps down as the working set crosses the\n\
         L1 and L2 cache sizes — see EXPERIMENTS.md for the measured shape)"
    );
}
