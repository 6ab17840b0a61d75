//! Integration of the search engine with the compiler and the baseline:
//! winners are valid FFTs, the k-best DP respects the paper's
//! restrictions, and the minifft baseline agrees with SPL-generated code
//! on identical inputs.

use spl::generator::fft::FftTree;
use spl::minifft::{Plan, PlanMode};
use spl::numeric::{reference, relative_rms_error, Complex};
use spl::search::{
    compile_tree, EvaluatorPool, OpCountEvaluator, Search, SearchConfig, SearchOutcome, WisdomDb,
};
use spl::telemetry::Telemetry;
use spl::vm::VmState;

/// The deterministic op-count search to `2^max_log` over `search`'s store.
fn opcount_search(mut search: Search, max_log: u32, tel: &mut Telemetry) -> SearchOutcome {
    let mut pool = EvaluatorPool::single(OpCountEvaluator);
    search.run(max_log, &mut pool, tel).unwrap()
}

fn default_search(max_log: u32) -> SearchOutcome {
    let search = Search::new(SearchConfig::default());
    opcount_search(search, max_log, &mut Telemetry::new())
}

fn workload(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.19).sin(), (i as f64 * 0.7).cos()))
        .collect()
}

fn run_tree(tree: &FftTree) -> Vec<Complex> {
    let vm = compile_tree(tree, 64).unwrap();
    let x = spl::vm::convert::interleave(&workload(tree.size()));
    let mut y = vec![0.0; vm.n_out];
    vm.run(&x, &mut y, &mut VmState::new(&vm));
    spl::vm::convert::deinterleave(&y)
}

#[test]
fn full_search_to_4096_produces_correct_ffts() {
    let found = default_search(12);
    assert_eq!((found.small.len(), found.large.len()), (6, 6));
    for r in &found.small {
        let got = run_tree(&r.tree);
        let want = reference::dft(&workload(r.tree.size()));
        assert!(relative_rms_error(&got, &want) < 1e-10);
    }
    for plans in &found.large {
        let tree = &plans[0].tree;
        let got = run_tree(tree);
        let want = reference::dft(&workload(tree.size()));
        assert!(
            relative_rms_error(&got, &want) < 1e-9,
            "size {}",
            tree.size()
        );
    }
}

#[test]
fn spl_and_minifft_agree_numerically() {
    let found = default_search(9);
    let tree = &found.large.last().unwrap()[0].tree;
    let n = tree.size();
    assert_eq!(n, 512);
    let x = workload(n);
    let spl_out = run_tree(tree);
    let plan = Plan::new(n, PlanMode::Estimate);
    let flat = spl::vm::convert::interleave(&x);
    let mut y = vec![0.0; 2 * n];
    plan.execute(&flat, &mut y);
    let fftw_out = spl::vm::convert::deinterleave(&y);
    assert!(relative_rms_error(&spl_out, &fftw_out) < 1e-11);
}

#[test]
fn minifft_both_modes_agree() {
    for n in [64usize, 256, 2048] {
        let x = spl::vm::convert::interleave(&workload(n));
        let mut y1 = vec![0.0; 2 * n];
        let mut y2 = vec![0.0; 2 * n];
        Plan::new(n, PlanMode::Estimate).execute(&x, &mut y1);
        Plan::new(n, PlanMode::Measure).execute(&x, &mut y2);
        let a = spl::vm::convert::deinterleave(&y1);
        let b = spl::vm::convert::deinterleave(&y2);
        assert!(relative_rms_error(&a, &b) < 1e-11, "n={n}");
    }
}

#[test]
fn accuracy_holds_at_moderate_sizes() {
    // The Figure 6 methodology at test scale: compensated reference below
    // 2^10, round-trip beyond.
    for plans in &default_search(10).large {
        let tree = &plans[0].tree;
        let n = tree.size();
        let x = workload(n);
        let got = run_tree(tree);
        let want = reference::dft_compensated(&x);
        let err = relative_rms_error(&got, &want);
        assert!(err < 1e-13 * (n as f64).sqrt(), "n={n}: err {err}");
    }
}

#[test]
fn search_resumes_from_a_wisdom_db_directory() {
    // The persistent store is the search's only resume mechanism: a
    // second process over the same directory evaluates nothing and
    // returns the same plans at the same costs, bit for bit.
    let dir = std::env::temp_dir().join(format!("spl_root_db_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SearchConfig {
        leaf_max: 8,
        ..SearchConfig::default()
    };
    let stored = || Search::new(config.clone()).with_store(WisdomDb::open(&dir).unwrap());

    let mut cold_tel = Telemetry::new();
    let cold = opcount_search(stored(), 6, &mut cold_tel);
    assert!(cold_tel.counter("search.plans_evaluated").unwrap() > 0);
    assert_eq!(cold_tel.counter("wisdom.db.records_written"), Some(6));

    let mut warm_tel = Telemetry::new();
    let warm = opcount_search(stored(), 6, &mut warm_tel);
    assert_eq!(warm_tel.counter("search.plans_evaluated"), None);
    assert_eq!(warm_tel.counter("wisdom.db.reused_sizes"), Some(6));
    assert_eq!(warm, cold);
    // And it agrees with a search that persists nothing.
    let plain = opcount_search(Search::new(config.clone()), 6, &mut Telemetry::new());
    assert_eq!(plain, cold);
    let _ = std::fs::remove_dir_all(&dir);
}
