//! Acceptance tests for the fault-tolerance layer: a search over sizes
//! 2…2¹⁰ with ≥10 % injected faults must complete without panicking,
//! skip exactly the candidates that faulted, and price every winner
//! with its one evaluator — a faulted candidate is never priced by
//! anything else.

use spl_search::{
    compile_unit_for_tree, Evaluator, EvaluatorPool, FaultyEvaluator, OpCountEvaluator, Search,
    SearchConfig, SearchError, SearchOutcome,
};
use spl_telemetry::Telemetry;

/// The default-configuration search to `2^max_log` with `eval`.
fn search(
    max_log: u32,
    eval: impl Evaluator + 'static,
    tel: &mut Telemetry,
) -> Result<SearchOutcome, SearchError> {
    Search::new(SearchConfig::default()).run(max_log, &mut EvaluatorPool::single(eval), tel)
}

/// The op-count model behind an injector that faults each candidate
/// with probability `rate`, the same candidates for the same `seed`.
fn faulty(seed: u64, rate: f64) -> FaultyEvaluator<OpCountEvaluator> {
    FaultyEvaluator::new(OpCountEvaluator, seed, rate)
}

#[test]
fn search_to_1024_survives_injected_faults_at_several_seeds() {
    let mut total_verification_skips = 0;
    for seed in [1u64, 7, 42, 1234] {
        let mut tel = Telemetry::new();
        let SearchOutcome { small, large } = search(10, faulty(seed, 0.25), &mut tel).unwrap();

        assert_eq!(small.len(), 6); // sizes 2..64
        assert_eq!(large.len(), 4); // sizes 128..1024

        // Every plan kept is one the same-seed injector lets through,
        // priced at exactly its clean op count: no faulted candidate was
        // priced by another evaluator.
        let mut injector = faulty(seed, 0.25);
        let kept = small
            .iter()
            .map(|r| (&r.tree, r.cost))
            .chain(large.iter().flatten().map(|p| (&p.tree, p.cost)));
        for (tree, cost) in kept {
            let d = tree.describe();
            let unit = compile_unit_for_tree(tree, 64).unwrap();
            assert!(injector.veto(tree).is_none(), "seed {seed}: {d} faults");
            assert_eq!(
                cost,
                OpCountEvaluator.cost(tree, &unit).unwrap(),
                "seed {seed}: {d}"
            );
        }
        total_verification_skips += tel
            .counter("search.skipped.verification_failed")
            .unwrap_or(0);
    }
    assert!(
        total_verification_skips > 0,
        "no corrupt candidate was ever skipped across seeds"
    );
}

#[test]
fn injected_faults_are_classified_in_telemetry() {
    // At 50 % a size-2 search (one candidate) fails half the time; the
    // counts must match whether the search completes or not.
    let mut seen = [0; 3];
    for seed in [99u64, 1, 2, 3, 4, 5] {
        let mut tel = Telemetry::new();
        let _ = search(9, faulty(seed, 0.5), &mut tel);
        for (i, (skipped, injected)) in [
            ("timeout", "timeout"),
            ("kernel_crashed", "crash"),
            ("verification_failed", "corrupt"),
        ]
        .into_iter()
        .enumerate()
        {
            let skips = tel.counter(&format!("search.skipped.{skipped}"));
            let faults = tel.counter(&format!("search.faults_injected.{injected}"));
            assert_eq!(skips, faults, "seed {seed}: {skipped}");
            seen[i] += skips.unwrap_or(0);
        }
    }
    assert!(
        seen.iter().all(|&n| n > 0),
        "a class never occurred: {seen:?}"
    );
}

#[test]
fn exhausted_chain_skips_candidates_and_reports_no_candidates() {
    // Every evaluation fails: each candidate is skipped, and the search
    // ends with a structured NoCandidates error — not a panic.
    let eval = FaultyEvaluator::with_rates(OpCountEvaluator, 6, 1.0, 0.0, 0.0);
    let mut tel = Telemetry::new();
    let err = search(4, eval, &mut tel).unwrap_err();
    assert!(matches!(err, SearchError::NoCandidates { n: 2 }), "{err}");
    assert!(tel.counter("search.skipped.timeout").unwrap_or(0) > 0);
}
