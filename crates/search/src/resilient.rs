//! The per-candidate degradation chain.
//!
//! A long search should not abort because one candidate's native build
//! hung or its kernel segfaulted: [`ResilientEvaluator`] tries a chain
//! of tiers — by convention most-accurate first (native), cheapest last
//! (op-count model) — and falls through to the next tier on any failure.
//! Every degradation, quarantine, and failure class is counted in
//! telemetry so the run report shows exactly how trustworthy each
//! number is.

use spl_generator::fft::FftTree;
use spl_telemetry::Telemetry;

use crate::{Evaluator, NativeEvaluator, OpCountEvaluator, SearchError};

/// A candidate whose output failed dense-reference verification,
/// recorded for the run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// The candidate's factorization (its `describe()` string).
    pub plan: String,
    /// The tier that rejected it.
    pub tier: String,
    /// The full verification error.
    pub detail: String,
}

/// An [`Evaluator`] that degrades per candidate through a chain of
/// tiers instead of failing.
///
/// On a tier failure the next tier is consulted (counted as
/// `search.degradations`); verification failures are additionally
/// quarantined (`search.quarantined`, [`ResilientEvaluator::quarantined`]).
/// Only when *every* tier fails does [`Evaluator::cost`] return
/// [`SearchError::Exhausted`].
///
/// Telemetry written per call: `search.eval_tier.<name>` (which tier
/// produced the accepted cost) and `search.failures.<kind>` for each
/// tier failure along the way.
#[derive(Default)]
pub struct ResilientEvaluator {
    tiers: Vec<(String, Box<dyn Evaluator>)>,
    quarantined: Vec<QuarantineEntry>,
    tel: Telemetry,
}

impl std::fmt::Debug for ResilientEvaluator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientEvaluator")
            .field(
                "tiers",
                &self.tiers.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("quarantined", &self.quarantined.len())
            .finish()
    }
}

impl ResilientEvaluator {
    /// An empty chain; add tiers with [`ResilientEvaluator::tier`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a named tier (earlier tiers are tried first).
    pub fn tier(mut self, name: &str, eval: Box<dyn Evaluator>) -> Self {
        self.tiers.push((name.to_string(), eval));
        self
    }

    /// The paper-faithful chain: native timing, degrading to VM timing,
    /// degrading to the deterministic op-count model.
    pub fn standard(unroll_threshold: usize, min_time: std::time::Duration) -> Self {
        Self::new()
            .tier(
                "native",
                Box::new(NativeEvaluator::new(unroll_threshold, min_time)),
            )
            .tier(
                "vm",
                Box::new(crate::MeasuredEvaluator::new(unroll_threshold, min_time)),
            )
            .tier("opcount", Box::new(OpCountEvaluator::default()))
    }

    /// Candidates quarantined so far (verification failures).
    pub fn quarantined(&self) -> &[QuarantineEntry] {
        &self.quarantined
    }
}

impl Evaluator for ResilientEvaluator {
    fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError> {
        let n_tiers = self.tiers.len();
        let mut last: Option<SearchError> = None;
        for (i, (name, eval)) in self.tiers.iter_mut().enumerate() {
            match eval.cost(tree) {
                Ok(c) => {
                    self.tel.add(&format!("search.eval_tier.{name}"), 1);
                    return Ok(c);
                }
                Err(e) => {
                    self.tel.add(&format!("search.failures.{}", e.kind()), 1);
                    if matches!(e, SearchError::VerificationFailed(_)) {
                        self.tel.add("search.quarantined", 1);
                        self.quarantined.push(QuarantineEntry {
                            plan: tree.describe(),
                            tier: name.clone(),
                            detail: e.to_string(),
                        });
                    }
                    if i + 1 < n_tiers {
                        self.tel.add("search.degradations", 1);
                    }
                    last = Some(e);
                }
            }
        }
        Err(SearchError::Exhausted(match last {
            Some(e) => format!(
                "all {n_tiers} tiers failed for {}; last: {e}",
                tree.describe()
            ),
            None => "no evaluation tiers configured".to_string(),
        }))
    }

    fn label(&self) -> &str {
        self.tiers.first().map_or("none", |(_, eval)| eval.label())
    }

    fn drain_telemetry(&mut self) -> Telemetry {
        let mut tel = std::mem::take(&mut self.tel);
        for (_, eval) in &mut self.tiers {
            tel.merge(&eval.drain_telemetry());
        }
        tel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvaluatorPool, Search, SearchConfig};
    use spl_generator::fft::Rule;

    /// A tier that always fails with a fixed error.
    struct Failing(SearchError);

    impl Evaluator for Failing {
        fn cost(&mut self, _tree: &FftTree) -> Result<f64, SearchError> {
            Err(self.0.clone())
        }

        fn label(&self) -> &str {
            "failing"
        }
    }

    fn t4() -> FftTree {
        FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2))
    }

    #[test]
    fn falls_through_to_working_tier() {
        let mut eval = ResilientEvaluator::new()
            .tier(
                "broken",
                Box::new(Failing(SearchError::Timeout("injected".into()))),
            )
            .tier("opcount", Box::new(OpCountEvaluator::default()));
        let c = eval.cost(&t4()).unwrap();
        assert!(c > 0.0);
        let tel = eval.drain_telemetry();
        assert_eq!(tel.counter("search.degradations"), Some(1));
        assert_eq!(tel.counter("search.failures.timeout"), Some(1));
        assert_eq!(tel.counter("search.eval_tier.opcount"), Some(1));
    }

    #[test]
    fn verification_failures_are_quarantined() {
        let mut eval = ResilientEvaluator::new()
            .tier(
                "miscompiling",
                Box::new(Failing(SearchError::VerificationFailed("bad bits".into()))),
            )
            .tier("opcount", Box::new(OpCountEvaluator::default()));
        eval.cost(&t4()).unwrap();
        assert_eq!(eval.quarantined().len(), 1);
        assert_eq!(eval.quarantined()[0].tier, "miscompiling");
        let tel = eval.drain_telemetry();
        assert_eq!(tel.counter("search.quarantined"), Some(1));
    }

    #[test]
    fn exhausted_when_all_tiers_fail() {
        let mut eval = ResilientEvaluator::new()
            .tier(
                "a",
                Box::new(Failing(SearchError::KernelCrashed("sig 11".into()))),
            )
            .tier(
                "b",
                Box::new(Failing(SearchError::Timeout("budget".into()))),
            );
        let err = eval.cost(&t4()).unwrap_err();
        assert!(matches!(err, SearchError::Exhausted(_)), "{err}");
        let tel = eval.drain_telemetry();
        // Failing at the last tier is exhaustion, not a degradation.
        assert_eq!(tel.counter("search.degradations"), Some(1));
    }

    #[test]
    fn empty_chain_is_exhausted() {
        let mut eval = ResilientEvaluator::new();
        assert!(matches!(eval.cost(&t4()), Err(SearchError::Exhausted(_))));
    }

    #[test]
    fn search_completes_through_degraded_chain() {
        let eval = ResilientEvaluator::new()
            .tier(
                "flaky",
                Box::new(Failing(SearchError::CompileFailed("cc died".into()))),
            )
            .tier("opcount", Box::new(OpCountEvaluator::default()));
        let found = Search::new(SearchConfig::default())
            .run(4, &mut EvaluatorPool::single(eval), &mut Telemetry::new())
            .unwrap();
        assert_eq!(found.small.len(), 4);
    }
}
