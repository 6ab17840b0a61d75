//! Figure 5: memory consumption for large-size FFTs.
//!
//! Three series as in the paper: SPL loop code (twiddle tables +
//! temporaries + data vectors), FFTW with a measured plan (plan storage
//! plus the planner's scratch buffers), and FFTW-estimate (plan storage
//! only). The paper's observation: SPL and FFTW-estimate track each
//! other, while measured planning costs extra memory.
//!
//! Usage: `fig5 [--quick] [--max-log2 N]`.

use spl_bench::{arg_value_parsed, print_table, quick_mode, with_report};
use spl_minifft::{Plan, PlanMode};
use spl_search::{compile_tree, EvaluatorPool, OpCountEvaluator, Search, SearchConfig};
use spl_telemetry::{RunReport, Telemetry};

fn main() {
    with_report("fig5", run);
}

fn run(report: &mut RunReport) {
    let quick = quick_mode();
    let max_log: u32 = arg_value_parsed("--max-log2").unwrap_or(if quick { 10 } else { 18 });
    // Plan shapes come from the deterministic op-count DP — memory use
    // depends on the plan structure, not on timing noise.
    let mut pool = EvaluatorPool::single(OpCountEvaluator::default());
    let mut search_tel = Telemetry::new();
    let found = Search::new(SearchConfig::default())
        .run(max_log, &mut pool, &mut search_tel)
        .expect("search");
    report.push_section("search", search_tel);

    let mut rows = Vec::new();
    for plans in &found.large {
        let n = plans[0].tree.size();
        let k = n.trailing_zeros();
        let data_bytes = 2 * 2 * n * std::mem::size_of::<f64>(); // x and y
        let vm = compile_tree(&plans[0].tree, 64).expect("winner compiles");
        let spl_bytes = vm.memory_bytes() + data_bytes;
        let fftw_plan = Plan::new(n, PlanMode::Measure);
        let fftw_bytes = fftw_plan.plan_bytes() + fftw_plan.planning_peak_bytes() + data_bytes;
        let est_plan = Plan::new(n, PlanMode::Estimate);
        let est_bytes = est_plan.plan_bytes() + data_bytes;
        let kb = |b: usize| format!("{:.1}", b as f64 / 1024.0);
        rows.push(vec![
            format!("2^{k}"),
            kb(spl_bytes),
            kb(fftw_bytes),
            kb(est_bytes),
            format!("{:.2}", spl_bytes as f64 / est_bytes as f64),
        ]);
    }
    print_table(
        "Figure 5: memory for large-size FFTs (KB, including the data vectors)",
        &[
            "N",
            "SPL",
            "FFTW (measured)",
            "FFTW estimate",
            "SPL/estimate",
        ],
        &rows,
    );
    println!(
        "\n(paper: SPL's memory tracks 'FFTW estimate'; measuring plans costs\n\
         FFTW extra working memory during planning)"
    );
}
