//! Parallel candidate evaluation.
//!
//! The expensive stages of plan search — formula expansion, SPL
//! compilation, the `cc` invocation, dense-reference verification — are
//! timing-*insensitive*: running them concurrently cannot change their
//! result. Only the wall-clock measurement of a kernel is
//! timing-*sensitive*. [`EvaluatorPool`] exploits that split: a fixed
//! set of worker evaluators pulls candidates from a shared queue, while
//! a single [`MeasurementGate`] serializes the measurement sections so
//! at most one kernel is ever being timed (the other workers keep
//! compiling and verifying in the meantime).
//!
//! Results are merged back **in candidate-index order**, so the winner
//! selection downstream sees exactly the sequence a serial run would
//! produce. With a deterministic evaluator (op-count model, keyed fault
//! injection) a pool of any size is therefore bit-identical to
//! `--jobs 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use spl_generator::fft::FftTree;
use spl_telemetry::Telemetry;

use crate::{Evaluator, SearchError};

/// The shared measurement token: whoever holds it may run wall-clock
/// timing. Cloning yields a handle to the *same* gate.
///
/// Evaluators acquire the gate only around their timing sections
/// (`measure`, `measure_sandboxed`), never around compilation or
/// verification, so parallel workers contend only for the timer.
#[derive(Clone, Debug, Default)]
pub struct MeasurementGate(Arc<Mutex<()>>);

impl MeasurementGate {
    /// A fresh gate, unrelated to any other.
    pub fn new() -> Self {
        MeasurementGate::default()
    }

    /// Blocks until this handle holds the measurement token; the token
    /// is released when the returned guard drops.
    pub fn acquire(&self) -> MeasurementToken<'_> {
        // A worker panicking while timing poisons nothing we rely on:
        // the gate guards no data, only exclusivity.
        MeasurementToken(self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Proof of exclusive measurement rights (see [`MeasurementGate`]).
#[must_use = "timing is only serialized while the token is held"]
pub struct MeasurementToken<'a>(#[allow(dead_code)] MutexGuard<'a, ()>);

/// What a worker-evaluator factory gets to know about its worker.
#[derive(Clone, Debug)]
pub struct WorkerContext {
    /// This worker's index in `0..jobs`.
    pub worker: usize,
    /// The pool-wide measurement gate; measured evaluators must be
    /// built with it (`with_gate`) so their timing is serialized.
    pub gate: MeasurementGate,
}

/// A worker's share of a batch: `(candidate index, result)` pairs.
type WorkerResults = Vec<(usize, Result<f64, SearchError>)>;

/// A fixed crew of worker evaluators sharing one candidate queue and
/// one [`MeasurementGate`].
///
/// Each worker owns an independent [`Evaluator`] built by the factory
/// handed to [`EvaluatorPool::new`], so per-evaluator state (memo
/// caches, telemetry) is never contended. Batches are distributed by
/// work-stealing (an atomic next-candidate index) and the results are
/// merged in candidate order. A pool of one worker
/// ([`EvaluatorPool::single`]) is the serial search: no threads spawned,
/// candidates evaluated one after the other.
pub struct EvaluatorPool {
    workers: Vec<Box<dyn Evaluator>>,
    tel: Telemetry,
}

impl EvaluatorPool {
    /// Builds `jobs.max(1)` workers. The factory receives each worker's
    /// [`WorkerContext`]; measured evaluators must adopt `ctx.gate` so
    /// the pool's timing stays serialized.
    pub fn new(
        jobs: usize,
        mut factory: impl FnMut(&WorkerContext) -> Box<dyn Evaluator>,
    ) -> EvaluatorPool {
        let gate = MeasurementGate::new();
        let workers = (0..jobs.max(1))
            .map(|worker| {
                factory(&WorkerContext {
                    worker,
                    gate: gate.clone(),
                })
            })
            .collect();
        EvaluatorPool {
            workers,
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

    /// Evaluates every tree, returning costs index-aligned with the
    /// input. Work is stolen candidate-by-candidate; results land in
    /// their candidate's slot regardless of which worker produced them
    /// or in what order they finished.
    pub fn costs(&mut self, trees: &[FftTree]) -> Vec<Result<f64, SearchError>> {
        if self.workers.len() == 1 || trees.len() <= 1 {
            self.tel
                .add("search.worker.0.candidates", trees.len() as u64);
            let w = &mut self.workers[0];
            return trees.iter().map(|t| w.cost(t)).collect();
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
                            mine.push((i, w.cost(tree)));
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
    use crate::{FaultyEvaluator, OpCountEvaluator, Search, SearchConfig, SizeResult};
    use spl_generator::fft::Rule;

    fn opcount_pool(jobs: usize) -> EvaluatorPool {
        EvaluatorPool::new(jobs, |_| Box::new(OpCountEvaluator::default()))
    }

    fn winners(pool: &mut EvaluatorPool) -> Vec<SizeResult> {
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
        let mut serial = OpCountEvaluator::default();
        let want: Vec<f64> = trees.iter().map(|t| serial.cost(t).unwrap()).collect();
        let mut pool = opcount_pool(4);
        let got = pool.costs(&trees);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(*g.as_ref().unwrap(), *w);
        }
    }

    #[test]
    fn parallel_small_search_is_bit_identical_to_serial() {
        let serial = winners(&mut EvaluatorPool::single(OpCountEvaluator::default()));
        for jobs in [1, 2, 4] {
            assert_eq!(serial, winners(&mut opcount_pool(jobs)));
        }
    }

    #[test]
    fn parallel_search_under_keyed_faults_matches_serial_at_many_seeds() {
        // Keyed fault injection draws per candidate, not per call order,
        // so the same candidates fault no matter how many workers raced.
        for seed in [3u64, 17, 99, 2026] {
            let mk = || -> Box<dyn Evaluator> {
                Box::new(FaultyEvaluator::keyed(
                    OpCountEvaluator::default(),
                    seed,
                    0.3,
                ))
            };
            let serial = winners(&mut EvaluatorPool::new(1, |_| mk()));
            let parallel = winners(&mut EvaluatorPool::new(4, |_| mk()));
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn worker_candidate_counters_sum_to_batch_sizes() {
        let mut pool = opcount_pool(3);
        let trees: Vec<FftTree> = (1..=4).map(|k| FftTree::leaf(1 << k)).collect();
        pool.costs(&trees);
        pool.costs(&trees[..2]);
        let tel = pool.drain_telemetry();
        let total: u64 = (0..3)
            .filter_map(|i| tel.counter(&format!("search.worker.{i}.candidates")))
            .sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn measurement_gate_is_exclusive() {
        let gate = MeasurementGate::new();
        let counter = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let gate = gate.clone();
                let counter = Arc::clone(&counter);
                let max_seen = Arc::clone(&max_seen);
                s.spawn(move || {
                    for _ in 0..50 {
                        let _token = gate.acquire();
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
        assert!(pool.costs(&[FftTree::leaf(2)])[0].is_ok());
    }
}
