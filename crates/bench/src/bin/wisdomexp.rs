//! Wisdom-DB experiment: how many measurements and `cc` invocations
//! does it take to reach the exhaustive search's winners?
//!
//! Three phases over the same size range, all against one wisdom DB:
//!
//! 1. **exhaustive** — the search over an in-memory store with pruning
//!    off, measuring every candidate (the baseline the pruned phases
//!    must match to within 5%).
//! 2. **pruned-cold** — a fresh wisdom DB: the search calibrates the
//!    cost model from probe measurements, then prunes DP candidates
//!    (top-K + slack) before anything is compiled or measured.
//! 3. **warm** — rerun against the populated DB: trusted entries are
//!    reused, so the search measures (and compiles) almost nothing.
//!
//! The report ends with a Figure-4-style estimate-vs-measured table for
//! the winners (calibrated-model prediction against the recorded cost)
//! and a quality gate: every pruned winner must be within 5% of the
//! exhaustive winner's cost (`--gate` turns a violation into exit 1).
//! Under `--eval native` the gate covers sizes 2^10 and up — smaller
//! kernels run sub-microsecond, where run-to-run wall-clock noise
//! alone exceeds 5% — while deterministic op counts gate every size.
//!
//! Usage: `wisdomexp [--quick] [--max-log N] [--eval native|opcount]
//!                   [--gate] [--db DIR]`

use std::path::PathBuf;
use std::time::Duration;

use spl_native::KernelCache;
use spl_search::{
    plan_features, Evaluator, EvaluatorPool, NativeEvaluator, OpCountEvaluator, PruneConfig,
    Search, SearchConfig, SearchOutcome, WisdomDb,
};

use spl_bench::{arg_value, arg_value_parsed, print_table, quick_mode, with_report};
use spl_minifft::estimate::CalibratedModel;
use spl_telemetry::{RunReport, Telemetry};

fn make_eval(kind: &str, min_time: Duration) -> Box<dyn Evaluator> {
    match kind {
        // The in-memory kernel cache is what splsearch runs with by
        // default; it also hosts the `native.cc_invocations` counter.
        "native" => Box::new(
            NativeEvaluator::new(64, min_time)
                .with_kernel_cache(std::sync::Arc::new(KernelCache::in_memory())),
        ),
        "opcount" => Box::new(OpCountEvaluator::default()),
        other => {
            eprintln!("error: --eval {other:?} is not native or opcount");
            std::process::exit(2);
        }
    }
}

struct Phase {
    name: &'static str,
    found: SearchOutcome,
    measurements: u64,
    cc: u64,
    model: Option<CalibratedModel>,
}

fn counters(tel: &Telemetry) -> (u64, u64) {
    (
        // Calibration probes are real measurements the pruned phases
        // pay for; charge them alongside the DP's own evaluations.
        tel.counter("search.plans_evaluated").unwrap_or(0)
            + tel.counter("search.calibration.probes").unwrap_or(0),
        tel.counter("native.cc_invocations").unwrap_or(0),
    )
}

fn run_phase(
    name: &'static str,
    mut search: Search,
    max_log: u32,
    eval: Box<dyn Evaluator>,
) -> (Phase, Telemetry) {
    let mut tel = Telemetry::new();
    let found = search
        .run(max_log, &mut EvaluatorPool::single(eval), &mut tel)
        .expect("search");
    let (measurements, cc) = counters(&tel);
    let phase = Phase {
        name,
        found,
        measurements,
        cc,
        model: search.model().cloned(),
    };
    (phase, tel)
}

/// Costs are seconds under `--eval native` and op counts under
/// `--eval opcount`; scientific notation reads fine for both.
fn fmt_cost(v: f64) -> String {
    format!("{v:.3e}")
}

fn main() {
    let mut failed = false;
    with_report("wisdomexp", |report| failed = run(report));
    if failed {
        std::process::exit(1);
    }
}

fn run(report: &mut RunReport) -> bool {
    let quick = quick_mode();
    let max_log: u32 = arg_value_parsed("--max-log").unwrap_or(if quick { 8 } else { 16 });
    let eval_kind = arg_value("--eval").unwrap_or_else(|| "opcount".into());
    let gate = std::env::args().any(|a| a == "--gate");
    let min_time = if quick {
        Duration::from_millis(2)
    } else {
        // Winner quality is judged at the 5% level, so the full run
        // buys steadier native timings with a wider window.
        Duration::from_millis(20)
    };
    let db_dir = arg_value("--db").map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("spl_wisdomexp_{}", std::process::id()))
    });
    let own_db = arg_value("--db").is_none();
    if own_db {
        let _ = std::fs::remove_dir_all(&db_dir);
    }
    let pruned_search = || {
        Search::new(SearchConfig::default())
            .with_store(WisdomDb::open(&db_dir).expect("wisdom db"))
            .with_prune(PruneConfig::default())
    };
    report.meta("eval", &eval_kind);
    report.meta("max_log", &max_log.to_string());

    eprintln!("phase 1/3: exhaustive search to 2^{max_log} ({eval_kind})...");
    let eval = make_eval(&eval_kind, min_time);
    let exhaustive_search = Search::new(SearchConfig::default());
    let (exhaustive, tel) = run_phase("exhaustive", exhaustive_search, max_log, eval);
    report.push_section("exhaustive", tel);

    eprintln!("phase 2/3: pruned search, cold wisdom DB...");
    let eval = make_eval(&eval_kind, min_time);
    let (pruned, tel) = run_phase("pruned-cold", pruned_search(), max_log, eval);
    report.push_section("pruned_cold", tel);

    eprintln!("phase 3/3: rerun against the warm DB...");
    let eval = make_eval(&eval_kind, min_time);
    let (warm, tel) = run_phase("warm", pruned_search(), max_log, eval);
    report.push_section("warm", tel);

    // Phase summary: the tentpole's claim in one table.
    let ratio = |a: u64, b: u64| {
        if b == 0 {
            "inf".to_string()
        } else {
            format!("{:.1}x", a as f64 / b as f64)
        }
    };
    let rows: Vec<Vec<String>> = [&exhaustive, &pruned, &warm]
        .iter()
        .map(|p| {
            vec![
                p.name.to_string(),
                p.measurements.to_string(),
                ratio(exhaustive.measurements, p.measurements),
                p.cc.to_string(),
                ratio(exhaustive.cc, p.cc),
            ]
        })
        .collect();
    print_table(
        "Wisdom DB: measurements and cc invocations per phase",
        &[
            "phase",
            "measurements",
            "vs exhaustive",
            "cc",
            "vs exhaustive",
        ],
        &rows,
    );

    // Quality: every pruned winner within 5% of the exhaustive winner.
    // Identical plans are equal by construction; for divergent plans
    // both winners are re-measured under shared conditions. A single
    // timing window cannot separate near-tie plans from scheduler and
    // frequency noise, so each divergent pair is measured by three
    // independent evaluators and the per-plan minimum is compared —
    // min-of-k is the standard robust wall-clock estimator.
    let remeasure_rounds = if eval_kind == "native" { 3 } else { 1 };
    let mut evals: Vec<Box<dyn Evaluator>> = (0..remeasure_rounds)
        .map(|_| make_eval(&eval_kind, min_time))
        .collect();
    let mut robust_cost = |tree: &spl_generator::fft::FftTree| -> f64 {
        evals
            .iter_mut()
            .map(|e| e.cost(tree).expect("re-measure winner"))
            .fold(f64::INFINITY, f64::min)
    };
    let mut quality_rows = Vec::new();
    let mut worst: f64 = 1.0;
    let mut worst_gated: f64 = 1.0;
    // Native calls below ~2^10 run sub-microsecond; the run-to-run
    // noise floor of freshly compiled kernels at that scale exceeds
    // the 5% criterion, so the gate judges the sizes the experiment
    // targets (2^10 and up). Deterministic costs gate every size.
    let gate_min_k = if eval_kind == "native" { 10 } else { 1 };
    for (exh, prn) in (exhaustive.found.winners().into_iter()).zip(pruned.found.winners()) {
        let k = exh.tree.size().trailing_zeros();
        let same = exh.tree.to_spec() == prn.tree.to_spec();
        let r = if same {
            1.0
        } else {
            let a = robust_cost(&exh.tree);
            let b = robust_cost(&prn.tree);
            b / a
        };
        worst = worst.max(r);
        if k >= gate_min_k {
            worst_gated = worst_gated.max(r);
        }
        // The calibrated model's view of the winner, Figure-4 style.
        let est = pruned
            .model
            .as_ref()
            .filter(|m| m.confident())
            .and_then(|m| Some(m.predict(&plan_features(&prn.tree, 64)?)));
        quality_rows.push(vec![
            format!("2^{k}"),
            prn.tree.describe(),
            if same {
                "= exhaustive".into()
            } else {
                exh.tree.describe()
            },
            format!("{r:.3}"),
            est.map_or("n/a".into(), fmt_cost),
            fmt_cost(prn.cost),
            est.map_or("n/a".into(), |e| format!("{:.2}", e / prn.cost)),
        ]);
    }
    print_table(
        "Pruned winners vs exhaustive (cost ratio) and estimate vs measured",
        &[
            "N",
            "pruned winner",
            "exhaustive winner",
            "cost ratio",
            "estimate",
            "measured",
            "est/meas",
        ],
        &quality_rows,
    );
    println!(
        "\nworst pruned/exhaustive cost ratio: {worst:.3} \
         (gated sizes 2^{gate_min_k}+: {worst_gated:.3}, gate: <= 1.05)\n\
         measurements: exhaustive {} -> pruned {} -> warm {}\n\
         cc invocations: exhaustive {} -> pruned {} -> warm {}",
        exhaustive.measurements,
        pruned.measurements,
        warm.measurements,
        exhaustive.cc,
        pruned.cc,
        warm.cc,
    );
    report.meta("worst_ratio", &format!("{worst:.4}"));
    report.meta("worst_ratio_gated", &format!("{worst_gated:.4}"));

    if own_db {
        let _ = std::fs::remove_dir_all(&db_dir);
    }
    if gate {
        if worst_gated > 1.05 {
            eprintln!(
                "GATE FAIL: pruned winners drift {worst_gated:.3}x from exhaustive \
                 at 2^{gate_min_k}+ (> 1.05)"
            );
            return true;
        }
        if warm.measurements > 0 && warm.measurements * 5 > exhaustive.measurements {
            eprintln!(
                "GATE FAIL: warm rerun took {} measurements vs {} exhaustive (< 5x saving)",
                warm.measurements, exhaustive.measurements
            );
            return true;
        }
        eprintln!(
            "gate passed: worst ratio {worst:.3}, warm measurements {}",
            warm.measurements
        );
    }
    false
}
