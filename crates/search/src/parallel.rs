//! Parallel candidate evaluation.
//!
//! The expensive stages of plan search — formula expansion, SPL
//! compilation, the `cc` invocation, dense-reference verification — are
//! timing-*insensitive*: running them concurrently cannot change their
//! result. Only the wall-clock measurement of a kernel is
//! timing-*sensitive*. [`EvaluatorPool`] exploits that split: a fixed
//! set of worker evaluators pulls candidates from a shared queue, each
//! worker compiling its candidate and handing the unit to its evaluator,
//! while the evaluators time under one process-wide lock
//! ([`timing_lock`]) so at most one kernel is ever being timed (the
//! other workers keep compiling and verifying in the meantime).
//!
//! Results are merged back **in candidate-index order**, so the winner
//! selection downstream sees exactly the sequence a serial run would
//! produce. With a deterministic evaluator (op-count model, per-candidate
//! fault injection) a pool of any size is therefore bit-identical to
//! `--jobs 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use spl_generator::fft::FftTree;
use spl_telemetry::Telemetry;

use crate::{compile_unit_for_tree, Evaluator, SearchError};

/// Blocks until the caller is the one thread of the process allowed to
/// time a kernel; the right is released when the guard drops.
/// Evaluators take it only around their timing sections (`measure`,
/// `measure_sandboxed` in the parent), never around compilation or
/// verification, so parallel workers contend only for the timer.
pub(crate) fn timing_lock() -> MutexGuard<'static, ()> {
    static TIMING: Mutex<()> = Mutex::new(());
    // A worker panicking while timing poisons nothing we rely on: the
    // lock guards no data, only exclusivity.
    TIMING.lock().unwrap_or_else(|e| e.into_inner())
}

/// A worker's share of a batch: `(candidate index, result)` pairs.
type WorkerResults = Vec<(usize, Result<f64, SearchError>)>;

/// Compiles `tree` under the search's `-B` and has `eval` price it,
/// unless `eval` vetoes it first (an injected fault): then nothing is
/// compiled.
fn price(
    eval: &mut dyn Evaluator,
    tree: &FftTree,
    unroll_threshold: usize,
) -> Result<f64, SearchError> {
    if let Some(fault) = eval.veto(tree) {
        return Err(fault);
    }
    eval.cost(tree, &compile_unit_for_tree(tree, unroll_threshold)?)
}

/// A fixed crew of worker evaluators sharing one candidate queue.
///
/// Each worker owns an independent [`Evaluator`] built by the factory
/// handed to [`EvaluatorPool::new`], so per-evaluator state (telemetry)
/// is never contended. Batches are distributed by work-stealing (an
/// atomic next-candidate index) and the results are merged in candidate
/// order. A pool of one worker ([`EvaluatorPool::single`]) is the serial
/// search: no threads spawned, candidates evaluated one after the other.
pub struct EvaluatorPool {
    workers: Vec<Box<dyn Evaluator>>,
    tel: Telemetry,
}

impl EvaluatorPool {
    /// Builds `jobs.max(1)` workers, one factory call each.
    pub fn new(jobs: usize, factory: impl FnMut() -> Box<dyn Evaluator>) -> EvaluatorPool {
        EvaluatorPool {
            workers: std::iter::repeat_with(factory).take(jobs.max(1)).collect(),
            tel: Telemetry::new(),
        }
    }

    /// The serial pool: one worker, the given evaluator.
    pub fn single(evaluator: impl Evaluator + 'static) -> EvaluatorPool {
        EvaluatorPool {
            workers: vec![Box::new(evaluator)],
            tel: Telemetry::new(),
        }
    }

    /// The workers' [`Evaluator::label`] (the factory builds them alike).
    pub fn label(&self) -> &str {
        self.workers[0].label()
    }

    /// Number of workers.
    pub fn jobs(&self) -> usize {
        self.workers.len()
    }

    /// Compiles every tree under `unroll_threshold` and prices it,
    /// returning costs index-aligned with the input; a tree that does
    /// not compile costs a [`SearchError::CompileFailed`]. Work is
    /// stolen candidate-by-candidate; results land in their candidate's
    /// slot regardless of which worker produced them or in what order
    /// they finished.
    pub fn costs(
        &mut self,
        trees: &[FftTree],
        unroll_threshold: usize,
    ) -> Vec<Result<f64, SearchError>> {
        if self.workers.len() == 1 || trees.len() <= 1 {
            self.tel
                .add("search.worker.0.candidates", trees.len() as u64);
            let w = &mut *self.workers[0];
            return trees
                .iter()
                .map(|t| price(w, t, unroll_threshold))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let shares: Vec<(usize, WorkerResults)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workers
                .iter_mut()
                .enumerate()
                .map(|(wi, w)| {
                    let next = &next;
                    scope.spawn(move || {
                        let mut mine: WorkerResults = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(tree) = trees.get(i) else { break };
                            mine.push((i, price(&mut **w, tree, unroll_threshold)));
                        }
                        (wi, mine)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search worker panicked"))
                .collect()
        });
        let mut slots: Vec<Option<Result<f64, SearchError>>> = Vec::new();
        slots.resize_with(trees.len(), || None);
        for (wi, mine) in shares {
            self.tel
                .add(&format!("search.worker.{wi}.candidates"), mine.len() as u64);
            for (i, r) in mine {
                slots[i] = Some(r);
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every candidate has exactly one result"))
            .collect()
    }

    /// Takes the pool's telemetry: per-worker candidate counters plus
    /// every worker evaluator's own drained telemetry, merged.
    pub fn drain_telemetry(&mut self) -> Telemetry {
        let mut tel = std::mem::take(&mut self.tel);
        for w in &mut self.workers {
            tel.merge(&w.drain_telemetry());
        }
        tel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultyEvaluator, OpCountEvaluator, Plan, Search, SearchConfig};
    use spl_generator::fft::Rule;

    fn opcount_pool(jobs: usize) -> EvaluatorPool {
        EvaluatorPool::new(jobs, || Box::new(OpCountEvaluator))
    }

    fn winners(pool: &mut EvaluatorPool) -> Vec<Plan> {
        Search::new(SearchConfig::default())
            .run(6, pool, &mut Telemetry::new())
            .unwrap()
            .winners()
    }

    #[test]
    fn pool_costs_are_index_aligned() {
        let trees: Vec<FftTree> = vec![
            FftTree::leaf(2),
            FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2)),
            FftTree::leaf(4),
            FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(4)),
        ];
        let want: Vec<f64> = trees
            .iter()
            .map(|t| price(&mut OpCountEvaluator, t, 64).unwrap())
            .collect();
        let mut pool = opcount_pool(4);
        let got = pool.costs(&trees, 64);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(*g.as_ref().unwrap(), *w);
        }
    }

    #[test]
    fn parallel_small_search_is_bit_identical_to_serial() {
        let serial = winners(&mut EvaluatorPool::single(OpCountEvaluator));
        for jobs in [1, 2, 4] {
            assert_eq!(serial, winners(&mut opcount_pool(jobs)));
        }
    }

    #[test]
    fn parallel_search_under_keyed_faults_matches_serial_at_many_seeds() {
        // Fault injection draws per candidate, not per call order,
        // so the same candidates fault no matter how many workers raced.
        for seed in [3u64, 17, 99, 2026] {
            let mk = || -> Box<dyn Evaluator> {
                Box::new(FaultyEvaluator::new(OpCountEvaluator, seed, 0.3))
            };
            let serial = winners(&mut EvaluatorPool::new(1, mk));
            let parallel = winners(&mut EvaluatorPool::new(4, mk));
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn a_candidate_the_injector_faults_is_never_compiled() {
        // (F 0) does not compile: priced past the injector's roll, it
        // would cost a compile failure, not the injected fault.
        let trees = vec![FftTree::leaf(0); 4];
        assert!(matches!(
            price(&mut OpCountEvaluator, &trees[0], 64),
            Err(SearchError::CompileFailed(_))
        ));
        let mut pool = EvaluatorPool::new(2, || {
            Box::new(FaultyEvaluator::new(OpCountEvaluator, 17, 1.0))
        });
        for got in pool.costs(&trees, 64) {
            let injected = matches!(
                got,
                Err(SearchError::Timeout(_)
                    | SearchError::KernelCrashed(_)
                    | SearchError::VerificationFailed(_))
            );
            assert!(injected, "{got:?}");
        }
    }

    #[test]
    fn worker_candidate_counters_sum_to_batch_sizes() {
        let mut pool = opcount_pool(3);
        let trees: Vec<FftTree> = (1..=4).map(|k| FftTree::leaf(1 << k)).collect();
        pool.costs(&trees, 64);
        pool.costs(&trees[..2], 64);
        let tel = pool.drain_telemetry();
        let total: u64 = (0..3)
            .filter_map(|i| tel.counter(&format!("search.worker.{i}.candidates")))
            .sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn measurement_gate_is_exclusive() {
        // The timing lock is the one measurement gate: four threads that
        // share nothing else still never hold it at once.
        let counter = AtomicUsize::new(0);
        let max_seen = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (counter, max_seen) = (&counter, &max_seen);
                s.spawn(move || {
                    for _ in 0..50 {
                        let _timing = timing_lock();
                        let inside = counter.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(inside, Ordering::SeqCst);
                        counter.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_jobs_clamps_to_one_worker() {
        let mut pool = opcount_pool(0);
        assert_eq!(pool.jobs(), 1);
        assert!(pool.costs(&[FftTree::leaf(2)], 64)[0].is_ok());
    }
}
