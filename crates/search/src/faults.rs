//! Deterministic fault injection for exercising the resilience path.
//!
//! [`FaultyEvaluator`] wraps any [`Evaluator`] and, with configurable
//! probabilities drawn from a seeded SplitMix64 stream, replaces an
//! evaluation with an injected timeout, crash, or corrupt-result
//! (verification) failure. Equal seeds give byte-identical fault
//! sequences, so CI can assert that a search under ≥10 % faults still
//! completes, quarantines what it must, and records its degradations.

use spl_generator::fft::FftTree;
use spl_numeric::rng::Rng;
use spl_telemetry::Telemetry;

use crate::{Evaluator, SearchError};

/// Where a fault roll comes from.
///
/// *Sequential* draws one value per `cost` call from a single stream —
/// byte-identical across runs, but dependent on evaluation *order*.
/// *Keyed* derives each roll from the seed and the candidate's
/// description, so the same candidates fault no matter the order (or
/// the number of pool workers) evaluating them.
#[derive(Debug)]
enum DrawMode {
    Sequential(Rng),
    Keyed(u64),
}

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
    draw: DrawMode,
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
    /// fault classes. `fault_rate` is the total probability that any
    /// one evaluation fails.
    pub fn new(inner: E, seed: u64, fault_rate: f64) -> Self {
        let p = (fault_rate / 3.0).clamp(0.0, 1.0 / 3.0);
        Self::with_rates(inner, seed, p, p, p)
    }

    /// Like [`FaultyEvaluator::new`], but each candidate's fault roll
    /// is derived from `(seed, candidate description)` instead of a
    /// sequential stream: evaluation order — and therefore worker count
    /// in a parallel search — cannot change which candidates fault.
    pub fn keyed(inner: E, seed: u64, fault_rate: f64) -> Self {
        let p = (fault_rate / 3.0).clamp(0.0, 1.0 / 3.0);
        FaultyEvaluator {
            draw: DrawMode::Keyed(seed),
            ..Self::with_rates(inner, seed, p, p, p)
        }
    }

    /// Wraps `inner` with explicit per-class fault probabilities.
    pub fn with_rates(inner: E, seed: u64, p_timeout: f64, p_crash: f64, p_corrupt: f64) -> Self {
        FaultyEvaluator {
            inner,
            draw: DrawMode::Sequential(Rng::new(seed)),
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
    fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError> {
        // One draw per evaluation, windowed over the three classes, so
        // the total fault rate is exactly the sum of the probabilities.
        let roll = match &mut self.draw {
            DrawMode::Sequential(rng) => rng.next_f64(),
            DrawMode::Keyed(seed) => Rng::new(*seed ^ fnv1a(tree.describe().as_bytes())).next_f64(),
        };
        if roll < self.p_timeout {
            self.tel.add("search.faults_injected.timeout", 1);
            return Err(SearchError::Timeout(format!(
                "injected timeout for {}",
                tree.describe()
            )));
        }
        if roll < self.p_timeout + self.p_crash {
            self.tel.add("search.faults_injected.crash", 1);
            return Err(SearchError::KernelCrashed(format!(
                "injected crash for {}",
                tree.describe()
            )));
        }
        if roll < self.p_timeout + self.p_crash + self.p_corrupt {
            self.tel.add("search.faults_injected.corrupt", 1);
            return Err(SearchError::VerificationFailed(format!(
                "injected corrupt result for {}",
                tree.describe()
            )));
        }
        self.inner.cost(tree)
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
    use crate::OpCountEvaluator;
    use spl_generator::fft::Rule;

    fn t4() -> FftTree {
        FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2))
    }

    #[test]
    fn zero_rate_is_transparent() {
        let mut plain = OpCountEvaluator::default();
        let want = plain.cost(&t4()).unwrap();
        let mut faulty = FaultyEvaluator::new(OpCountEvaluator::default(), 1, 0.0);
        for _ in 0..50 {
            assert_eq!(faulty.cost(&t4()).unwrap(), want);
        }
    }

    #[test]
    fn full_rate_always_fails() {
        let mut faulty = FaultyEvaluator::with_rates(OpCountEvaluator::default(), 2, 1.0, 0.0, 0.0);
        for _ in 0..20 {
            assert!(matches!(faulty.cost(&t4()), Err(SearchError::Timeout(_))));
        }
    }

    #[test]
    fn equal_seeds_give_identical_fault_sequences() {
        let mut a = FaultyEvaluator::new(OpCountEvaluator::default(), 99, 0.5);
        let mut b = FaultyEvaluator::new(OpCountEvaluator::default(), 99, 0.5);
        for _ in 0..100 {
            let ra = a.cost(&t4()).map_err(|e| e.kind());
            let rb = b.cost(&t4()).map_err(|e| e.kind());
            assert_eq!(ra.is_ok(), rb.is_ok());
            assert_eq!(ra.err(), rb.err());
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
        let mut forward = FaultyEvaluator::keyed(OpCountEvaluator::default(), 42, 0.6);
        let mut backward = FaultyEvaluator::keyed(OpCountEvaluator::default(), 42, 0.6);
        let fwd: Vec<_> = trees
            .iter()
            .map(|t| forward.cost(t).map_err(|e| e.kind()))
            .collect();
        let mut bwd: Vec<_> = trees
            .iter()
            .rev()
            .map(|t| backward.cost(t).map_err(|e| e.kind()))
            .collect();
        bwd.reverse();
        assert_eq!(fwd, bwd);
        // A sequential evaluator at the same settings would disagree
        // with itself under reordering for at least one of these seeds;
        // keyed mode must also actually inject something at 60 %.
        assert!(fwd.iter().any(|r| r.is_err()), "{fwd:?}");
    }

    #[test]
    fn keyed_mode_depends_on_seed() {
        let trees: Vec<FftTree> = (1..=6).map(|k| FftTree::leaf(1 << k)).collect();
        let outcomes = |seed: u64| -> Vec<bool> {
            let mut e = FaultyEvaluator::keyed(OpCountEvaluator::default(), seed, 0.5);
            trees.iter().map(|t| e.cost(t).is_ok()).collect()
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
        let mut faulty = FaultyEvaluator::new(OpCountEvaluator::default(), 7, 0.9);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..300 {
            if let Err(e) = faulty.cost(&t4()) {
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
