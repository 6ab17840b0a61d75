//! Acceptance tests for the fault-tolerance layer: a search over sizes
//! 2…2¹⁰ with ≥10 % injected faults must complete without panicking,
//! quarantine corrupt candidates, record its degradations — and, because
//! the fallback tier is the same deterministic model as the faulty
//! primary, still find exactly the plans a fault-free search finds.

use spl_search::{
    Evaluator, EvaluatorPool, FaultyEvaluator, OpCountEvaluator, ResilientEvaluator, Search,
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

/// A degradation chain whose primary tier injects faults at `rate` and
/// whose fallback is the same deterministic cost model, so degraded
/// searches are comparable against clean ones plan-for-plan.
fn faulty_chain(seed: u64, rate: f64) -> ResilientEvaluator {
    ResilientEvaluator::new()
        .tier(
            "faulty",
            Box::new(FaultyEvaluator::new(
                OpCountEvaluator::default(),
                seed,
                rate,
            )),
        )
        .tier("opcount", Box::new(OpCountEvaluator::default()))
}

#[test]
fn search_to_1024_survives_injected_faults_at_several_seeds() {
    let clean = search(10, OpCountEvaluator::default(), &mut Telemetry::new()).unwrap();
    let (clean_small, clean_large) = (clean.small, clean.large);

    let mut total_quarantined = 0;
    for seed in [1u64, 7, 42, 1234] {
        let mut tel = Telemetry::new();
        let SearchOutcome { small, large } =
            search(10, faulty_chain(seed, 0.25), &mut tel).unwrap();

        assert_eq!(small.len(), 6); // sizes 2..64
        assert_eq!(large.len(), 4); // sizes 128..1024

        // The chain degraded (at 25% fault rate this is overwhelmingly
        // certain over ~80 evaluations) and no candidate was lost: the
        // fallback produced the identical plans.
        assert!(
            tel.counter("search.degradations").unwrap_or(0) > 0,
            "seed {seed}: no degradations recorded"
        );
        total_quarantined += tel.counter("search.quarantined").unwrap_or(0);
        for (a, b) in small.iter().zip(&clean_small) {
            assert_eq!(a.tree, b.tree, "seed {seed}");
        }
        for (got, want) in large.iter().zip(&clean_large) {
            assert_eq!(got[0].tree, want[0].tree, "seed {seed}");
        }
    }
    assert!(
        total_quarantined > 0,
        "no corrupt candidate was ever quarantined across seeds"
    );
}

#[test]
fn injected_faults_are_classified_in_telemetry() {
    let mut tel = Telemetry::new();
    search(9, faulty_chain(99, 0.5), &mut tel).unwrap();
    let failures = tel.counter("search.failures.timeout").unwrap_or(0)
        + tel.counter("search.failures.kernel_crashed").unwrap_or(0)
        + tel
            .counter("search.failures.verification_failed")
            .unwrap_or(0);
    assert!(failures > 0, "no classified failures recorded");
    assert_eq!(
        failures,
        tel.counter("search.degradations").unwrap_or(0),
        "every failure at the primary tier should be one degradation"
    );
}

#[test]
fn search_survives_even_a_fully_faulty_primary_tier() {
    // The primary tier fails on every single call; the search must
    // complete purely on the fallback.
    let eval = ResilientEvaluator::new()
        .tier(
            "dead",
            Box::new(FaultyEvaluator::with_rates(
                OpCountEvaluator::default(),
                5,
                1.0,
                0.0,
                0.0,
            )),
        )
        .tier("opcount", Box::new(OpCountEvaluator::default()));
    let mut tel = Telemetry::new();
    let small = search(5, eval, &mut tel).unwrap().small;
    assert_eq!(small.len(), 5);
    assert_eq!(
        tel.counter("search.degradations"),
        tel.counter("search.failures.timeout")
    );
    assert!(tel.counter("search.eval_tier.opcount").unwrap_or(0) > 0);
}

#[test]
fn exhausted_chain_skips_candidates_and_reports_no_candidates() {
    // Every tier always fails: each candidate is skipped, and the search
    // ends with a structured NoCandidates error — not a panic.
    let eval = ResilientEvaluator::new().tier(
        "dead",
        Box::new(FaultyEvaluator::with_rates(
            OpCountEvaluator::default(),
            6,
            1.0,
            0.0,
            0.0,
        )),
    );
    let mut tel = Telemetry::new();
    let err = search(4, eval, &mut tel).unwrap_err();
    assert!(matches!(err, SearchError::NoCandidates { n: 2 }), "{err}");
    assert!(tel.counter("search.skipped.exhausted").unwrap_or(0) > 0);
}
