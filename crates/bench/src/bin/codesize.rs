//! Section 4.2 code-size claim: "the increase of code size was very slow.
//! The size of the text segment of the loop code for size 2²⁰ was only
//! 50 percent larger than that of size 2⁷."
//!
//! We report the static instruction count of the lowered loop programs
//! across sizes — the analogue of the text-segment size — and the ratio
//! to the 2⁷ baseline.
//!
//! Usage: `codesize [--quick] [--max-log2 N]` (default 20; this is a
//! compile-only experiment, so the full range is cheap).

use spl_bench::{arg_value_parsed, print_table, quick_mode, with_report};
use spl_search::{compile_tree, EvaluatorPool, OpCountEvaluator, Search, SearchConfig};
use spl_telemetry::{RunReport, Telemetry};

fn main() {
    with_report("codesize", run);
}

fn run(report: &mut RunReport) {
    let max_log: u32 = arg_value_parsed("--max-log2").unwrap_or(if quick_mode() { 12 } else { 20 });
    let mut pool = EvaluatorPool::single(OpCountEvaluator);
    let mut search_tel = Telemetry::new();
    let found = Search::new(SearchConfig::default())
        .run(max_log, &mut pool, &mut search_tel)
        .expect("search");
    report.push_section("search", search_tel);

    let mut rows = Vec::new();
    let mut base = None;
    for plans in &found.large {
        let k = plans[0].tree.size().trailing_zeros();
        let vm = compile_tree(&plans[0].tree, 64).expect("winner compiles");
        let ops = vm.float_ops() + vm.int_ops();
        let base_ops = *base.get_or_insert(ops);
        rows.push(vec![
            format!("2^{k}"),
            ops.to_string(),
            format!("{:.2}", ops as f64 / base_ops as f64),
        ]);
    }
    print_table(
        "Code size of the loop programs (static instructions)",
        &["N", "instructions", "ratio vs 2^7"],
        &rows,
    );
    println!(
        "\n(paper: the 2^20 loop code is only ~1.5x the 2^7 code because\n\
         unrolled leaves are shared by loops rather than duplicated)"
    );
}
