//! Deterministic fault injection for exercising the skip path.
//!
//! [`FaultyEvaluator`] wraps any [`Evaluator`] and, with configurable
//! probabilities, replaces an evaluation with an injected timeout,
//! crash, or corrupt-result (verification) failure. Each candidate's
//! roll is derived from the seed and the candidate's description, so a
//! fault belongs to a candidate, not to a call order: equal seeds fault
//! the same candidates at any worker count, in any evaluation order,
//! and across a killed and resumed search. CI asserts that a search
//! under ≥10 % faults skips exactly the faulted candidates and still
//! completes.

use spl_compiler::CompiledUnit;
use spl_generator::fft::FftTree;
use spl_numeric::rng::Rng;
use spl_telemetry::Telemetry;

use crate::{Evaluator, Kept, SearchError};

/// 64-bit FNV-1a, used to fold a candidate description into a seed.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// An [`Evaluator`] wrapper that injects deterministic faults.
#[derive(Debug)]
pub struct FaultyEvaluator<E> {
    inner: E,
    seed: u64,
    /// Probability an evaluation becomes [`SearchError::Timeout`].
    pub p_timeout: f64,
    /// Probability an evaluation becomes [`SearchError::KernelCrashed`].
    pub p_crash: f64,
    /// Probability an evaluation becomes
    /// [`SearchError::VerificationFailed`] (a corrupt result caught by
    /// the dense check).
    pub p_corrupt: f64,
    tel: Telemetry,
}

impl<E: Evaluator> FaultyEvaluator<E> {
    /// Wraps `inner`, splitting `fault_rate` evenly across the three
    /// fault classes. `fault_rate` is the probability that a candidate
    /// faults; each candidate's roll is derived from `(seed, candidate
    /// description)`, so it rolls the same on every call.
    pub fn new(inner: E, seed: u64, fault_rate: f64) -> Self {
        let p = (fault_rate / 3.0).clamp(0.0, 1.0 / 3.0);
        Self::with_rates(inner, seed, p, p, p)
    }

    /// Wraps `inner` with explicit per-class fault probabilities, rolled
    /// per candidate as in [`FaultyEvaluator::new`].
    pub fn with_rates(inner: E, seed: u64, p_timeout: f64, p_crash: f64, p_corrupt: f64) -> Self {
        FaultyEvaluator {
            inner,
            seed,
            p_timeout,
            p_crash,
            p_corrupt,
            tel: Telemetry::new(),
        }
    }

    /// Unwraps the inner evaluator.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: Evaluator> Evaluator for FaultyEvaluator<E> {
    /// The inner evaluator's price: the fault is rolled in
    /// [`veto`](Evaluator::veto), which the search asks before it
    /// compiles a candidate, so a candidate is rolled once.
    fn cost(&mut self, tree: &FftTree, unit: &CompiledUnit) -> Result<f64, SearchError> {
        self.inner.cost(tree, unit)
    }

    fn screen(
        &mut self,
        tree: &FftTree,
        unit: &CompiledUnit,
    ) -> Result<(f64, Option<Kept>), SearchError> {
        self.inner.screen(tree, unit)
    }

    fn refine(&mut self, kept: Kept) -> Result<f64, SearchError> {
        self.inner.refine(kept)
    }

    /// One draw per candidate, windowed over the three classes, so the
    /// total fault rate is exactly the sum of the probabilities.
    fn veto(&mut self, tree: &FftTree) -> Option<SearchError> {
        let what = tree.describe();
        let roll = Rng::new(self.seed ^ fnv1a(what.as_bytes())).next_f64();
        let (class, fault) = if roll < self.p_timeout {
            (
                "timeout",
                SearchError::Timeout(format!("injected timeout for {what}")),
            )
        } else if roll < self.p_timeout + self.p_crash {
            (
                "crash",
                SearchError::KernelCrashed(format!("injected crash for {what}")),
            )
        } else if roll < self.p_timeout + self.p_crash + self.p_corrupt {
            let text = format!("injected corrupt result for {what}");
            ("corrupt", SearchError::VerificationFailed(text))
        } else {
            return self.inner.veto(tree);
        };
        self.tel.add(&format!("search.faults_injected.{class}"), 1);
        Some(fault)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn drain_telemetry(&mut self) -> Telemetry {
        let mut tel = std::mem::take(&mut self.tel);
        tel.merge(&self.inner.drain_telemetry());
        tel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_unit_for_tree, OpCountEvaluator};
    use spl_generator::fft::{enumerate_trees, Rule};

    fn t4() -> FftTree {
        FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2))
    }

    /// Prices every candidate at 1: the fault rolls are what is tested.
    struct Unit;

    impl Evaluator for Unit {
        fn cost(&mut self, _tree: &FftTree, _unit: &CompiledUnit) -> Result<f64, SearchError> {
            Ok(1.0)
        }

        fn label(&self) -> &str {
            "unit"
        }
    }

    /// 731 distinct candidates: every Cooley–Tukey tree of `F_128`.
    fn many_trees() -> Vec<FftTree> {
        enumerate_trees(7, Rule::CooleyTukey)
    }

    /// `tree` as a search compiles it.
    fn unit(tree: &FftTree) -> CompiledUnit {
        compile_unit_for_tree(tree, 64).unwrap()
    }

    /// `tree` priced as the search prices it: the veto first, then the
    /// cost of `unit`.
    fn price<E: Evaluator>(
        e: &mut FaultyEvaluator<E>,
        tree: &FftTree,
        unit: &CompiledUnit,
    ) -> Result<f64, SearchError> {
        match e.veto(tree) {
            Some(fault) => Err(fault),
            None => e.cost(tree, unit),
        }
    }

    #[test]
    fn zero_rate_is_transparent() {
        let u = unit(&t4());
        let want = OpCountEvaluator.cost(&t4(), &u).unwrap();
        let mut faulty = FaultyEvaluator::new(OpCountEvaluator, 1, 0.0);
        for _ in 0..50 {
            assert_eq!(price(&mut faulty, &t4(), &u).unwrap(), want);
        }
    }

    #[test]
    fn full_rate_always_fails() {
        let mut faulty = FaultyEvaluator::with_rates(Unit, 2, 1.0, 0.0, 0.0);
        // `Unit` prices no unit, so one stands in for every candidate.
        let u = unit(&t4());
        for tree in many_trees().iter().take(20) {
            assert!(matches!(
                price(&mut faulty, tree, &u),
                Err(SearchError::Timeout(_))
            ));
        }
    }

    #[test]
    fn equal_seeds_give_identical_fault_sequences() {
        let mut a = FaultyEvaluator::new(Unit, 99, 0.5);
        let mut b = FaultyEvaluator::new(Unit, 99, 0.5);
        let u = unit(&t4());
        for tree in many_trees().iter().take(100) {
            let ra = price(&mut a, tree, &u).map_err(|e| e.kind());
            let rb = price(&mut b, tree, &u).map_err(|e| e.kind());
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn a_candidate_rolls_the_same_on_every_call() {
        let mut faulty = FaultyEvaluator::new(Unit, 3, 0.5);
        let u = unit(&t4());
        for tree in many_trees().iter().take(40) {
            let first = price(&mut faulty, tree, &u).map_err(|e| e.kind());
            for _ in 0..5 {
                assert_eq!(price(&mut faulty, tree, &u).map_err(|e| e.kind()), first);
            }
        }
    }

    #[test]
    fn keyed_mode_is_order_independent() {
        let trees: Vec<FftTree> = vec![
            FftTree::leaf(2),
            FftTree::leaf(4),
            t4(),
            FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(4)),
            FftTree::leaf(16),
        ];
        let units: Vec<CompiledUnit> = trees.iter().map(unit).collect();
        let mut forward = FaultyEvaluator::new(OpCountEvaluator, 42, 0.6);
        let mut backward = FaultyEvaluator::new(OpCountEvaluator, 42, 0.6);
        let fwd: Vec<_> = trees
            .iter()
            .zip(&units)
            .map(|(t, u)| price(&mut forward, t, u).map_err(|e| e.kind()))
            .collect();
        let mut bwd: Vec<_> = trees
            .iter()
            .zip(&units)
            .rev()
            .map(|(t, u)| price(&mut backward, t, u).map_err(|e| e.kind()))
            .collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
        // Something must actually be injected at 60 %.
        assert!(fwd.iter().any(|r| r.is_err()), "{fwd:?}");
    }

    #[test]
    fn keyed_mode_depends_on_seed() {
        let trees: Vec<FftTree> = (1..=6).map(|k| FftTree::leaf(1 << k)).collect();
        let u = unit(&t4());
        let outcomes = |seed: u64| -> Vec<bool> {
            let mut e = FaultyEvaluator::new(Unit, seed, 0.5);
            trees.iter().map(|t| price(&mut e, t, &u).is_ok()).collect()
        };
        // Equal seeds agree; some pair of distinct seeds must differ.
        assert_eq!(outcomes(7), outcomes(7));
        assert!(
            (0..20)
                .map(outcomes)
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn all_three_classes_occur_and_are_counted() {
        let mut faulty = FaultyEvaluator::new(Unit, 7, 0.9);
        let u = unit(&t4());
        let mut kinds = std::collections::HashSet::new();
        let trees = many_trees();
        assert!(trees.len() >= 300);
        for tree in &trees[..300] {
            if let Err(e) = price(&mut faulty, tree, &u) {
                kinds.insert(e.kind());
            }
        }
        assert!(kinds.contains("timeout"), "{kinds:?}");
        assert!(kinds.contains("kernel_crashed"), "{kinds:?}");
        assert!(kinds.contains("verification_failed"), "{kinds:?}");
        let tel = faulty.drain_telemetry();
        let total = tel.counter("search.faults_injected.timeout").unwrap_or(0)
            + tel.counter("search.faults_injected.crash").unwrap_or(0)
            + tel.counter("search.faults_injected.corrupt").unwrap_or(0);
        assert!(total > 200, "expected ~270 injected faults, saw {total}");
    }
}
