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
//! A batch with more candidates than the step keeps is a race in two
//! rounds: every candidate is screened ([`Evaluator::screen`], an eighth
//! of the budget), then the contenders — the screens within [`MARGIN`]
//! of the `keep`-th best — are refined ([`Evaluator::refine`], the full
//! budget), each by the worker that screened it, on what it kept. The
//! rest come back [`Reading::Pruned`].
//!
//! Results are merged back **in candidate-index order**, so the winner
//! selection downstream sees exactly the sequence a serial run would
//! produce. With a deterministic evaluator (op-count model, per-candidate
//! fault injection) a pool of any size is therefore bit-identical to
//! `--jobs 1`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use spl_generator::fft::FftTree;
use spl_telemetry::Telemetry;

use crate::{compile_unit_for_tree, Evaluator, Kept, SearchError};

/// How far above the `keep`-th best screen of a race a candidate may
/// read and still be refined.
const MARGIN: f64 = 1.10;

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

/// A candidate's price from one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reading {
    /// Its cost: timed for the full budget, or exact. Only a plan read
    /// in full can be kept.
    Full(f64),
    /// Its screen alone: it read slower than the race's contenders, so it
    /// was not timed again.
    Pruned(f64),
}

/// A worker's share of a batch: `(candidate index, result)` pairs, and
/// how many of them it screened and refined.
#[derive(Default)]
struct Share {
    results: Vec<(usize, Result<Reading, SearchError>)>,
    screened: u64,
    refined: u64,
}

/// Compiles `tree` under the search's `-B` and has `eval` price it, in
/// full or (`screen`) as a race's first round, unless `eval` vetoes it
/// first (an injected fault): then nothing is compiled.
fn price(
    eval: &mut dyn Evaluator,
    tree: &FftTree,
    unroll_threshold: usize,
    screen: bool,
) -> Result<(f64, Option<Kept>), SearchError> {
    if let Some(fault) = eval.veto(tree) {
        return Err(fault);
    }
    let unit = compile_unit_for_tree(tree, unroll_threshold)?;
    if screen {
        eval.screen(tree, &unit)
    } else {
        Ok((eval.cost(tree, &unit)?, None))
    }
}

/// What the workers of one race share: every screen reading, and the
/// point where each waits for the others' before it refines its own.
struct Race {
    screens: Mutex<Vec<f64>>,
    all_in: Barrier,
    keep: usize,
}

impl Race {
    /// Posts a worker's screens, waits for every worker's, and returns
    /// the slowest screen a contender may read: [`MARGIN`] times the
    /// `keep`-th best (no limit with `keep` screens or fewer).
    fn cutoff(&self, mut arrival: Arrival, screens: impl Iterator<Item = f64>) -> f64 {
        arrival.0 = None;
        let posted = "no worker panics holding the screens";
        self.screens.lock().expect(posted).extend(screens);
        self.all_in.wait();
        let mut all = self.screens.lock().expect(posted).clone();
        if all.len() <= self.keep {
            return f64::INFINITY;
        }
        *all.select_nth_unstable_by(self.keep - 1, f64::total_cmp).1 * MARGIN
    }
}

/// A worker's place at its race's barrier: one that unwinds (a panic)
/// before it gets there still arrives, so the others do not wait for it
/// forever; its panic resurfaces when the pool joins it.
struct Arrival<'a>(Option<&'a Race>);

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        if let Some(race) = self.0 {
            race.all_in.wait();
        }
    }
}

/// One worker's part of a batch: candidates taken from `next` one by
/// one and priced in full or, in a `race`, screened; then, once every
/// worker's screens are in, its own contenders refined on what it kept.
fn work(
    eval: &mut dyn Evaluator,
    trees: &[FftTree],
    unroll_threshold: usize,
    next: &AtomicUsize,
    race: Option<&Race>,
) -> Share {
    let arrival = Arrival(race);
    let (mut share, mut held) = (Share::default(), Vec::new());
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(tree) = trees.get(i) else { break };
        let reading = match price(eval, tree, unroll_threshold, race.is_some()) {
            Ok((cost, Some(kept))) => {
                held.push((share.results.len(), cost, kept));
                Ok(Reading::Pruned(cost))
            }
            Ok((cost, None)) => Ok(Reading::Full(cost)),
            Err(e) => Err(e),
        };
        share.results.push((i, reading));
    }
    let Some(race) = race else { return share };
    let cutoff = race.cutoff(arrival, held.iter().map(|h| h.1));
    share.screened = held.len() as u64;
    for (slot, _, kept) in held.into_iter().filter(|h| h.1 <= cutoff) {
        share.results[slot].1 = eval.refine(kept).map(Reading::Full);
        share.refined += 1;
    }
    share
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

    /// Compiles every tree under `unroll_threshold` once and prices it
    /// for a step that keeps `keep` plans, returning readings
    /// index-aligned with the input; a tree that does not compile costs
    /// a [`SearchError::CompileFailed`]. Up to `keep` trees are each
    /// timed once, in full; more race (see the module doc), and those
    /// that lose come back [`Reading::Pruned`]. Work is stolen
    /// candidate-by-candidate; results land in their candidate's slot
    /// regardless of which worker produced them or in what order they
    /// finished.
    pub fn costs(
        &mut self,
        trees: &[FftTree],
        unroll_threshold: usize,
        keep: usize,
    ) -> Vec<Result<Reading, SearchError>> {
        let serial = self.workers.len() == 1 || trees.len() <= 1;
        let race = (trees.len() > keep).then(|| Race {
            screens: Mutex::new(Vec::new()),
            all_in: Barrier::new(if serial { 1 } else { self.workers.len() }),
            keep: keep.max(1),
        });
        let (next, race) = (AtomicUsize::new(0), race.as_ref());
        let shares: Vec<(usize, Share)> = if serial {
            let w = &mut *self.workers[0];
            vec![(0, work(w, trees, unroll_threshold, &next, race))]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (self.workers.iter_mut().enumerate())
                    .map(|(wi, w)| {
                        let next = &next;
                        scope.spawn(move || {
                            (wi, work(&mut **w, trees, unroll_threshold, next, race))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("search worker panicked"))
                    .collect()
            })
        };
        let mut slots: Vec<Option<Result<Reading, SearchError>>> = Vec::new();
        slots.resize_with(trees.len(), || None);
        for (wi, share) in shares {
            let n = share.results.len() as u64;
            self.tel.add(&format!("search.worker.{wi}.candidates"), n);
            self.tel.add("search.screened", share.screened);
            self.tel.add("search.refined", share.refined);
            for (i, r) in share.results {
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
    use crate::{FaultyEvaluator, OpCountEvaluator, Plan, Search, SearchConfig, COMPILES};
    use spl_compiler::CompiledUnit;
    use spl_generator::fft::Rule;
    use std::sync::Arc;
    use std::thread::ThreadId;

    fn opcount_pool(jobs: usize) -> EvaluatorPool {
        EvaluatorPool::new(jobs, || Box::new(OpCountEvaluator))
    }

    /// The winners of a search to `2^max_log` with leaves up to
    /// `leaf_max` points.
    fn winners(pool: &mut EvaluatorPool, leaf_max: usize, max_log: u32) -> Vec<Plan> {
        let config = SearchConfig {
            leaf_max,
            ..SearchConfig::default()
        };
        Search::new(config)
            .run(max_log, pool, &mut Telemetry::new())
            .unwrap()
            .winners()
    }

    /// A candidate's scripted readings: its screen, then its full one.
    type Script = fn(&FftTree, &CompiledUnit) -> (f64, f64);

    /// Every call an evaluator took: the candidate, the method, the thread.
    type Log = Arc<Mutex<Vec<(String, &'static str, ThreadId)>>>;

    /// Reads each candidate as its script says and logs every call. A
    /// screen keeps the candidate, the thread it ran on and the full
    /// reading, which its refinement checks and returns.
    struct Scripted {
        script: Script,
        log: Log,
    }

    impl Scripted {
        fn pool(jobs: usize, script: Script) -> (EvaluatorPool, Log) {
            let log = Log::default();
            let pool = EvaluatorPool::new(jobs, || {
                let log = Arc::clone(&log);
                Box::new(Scripted { script, log })
            });
            (pool, log)
        }

        fn note(&self, tree: &str, what: &'static str) {
            let here = std::thread::current().id();
            self.log
                .lock()
                .unwrap()
                .push((tree.to_string(), what, here));
        }
    }

    impl Evaluator for Scripted {
        fn cost(&mut self, tree: &FftTree, unit: &CompiledUnit) -> Result<f64, SearchError> {
            self.note(&tree.describe(), "cost");
            Ok((self.script)(tree, unit).1)
        }

        fn screen(
            &mut self,
            tree: &FftTree,
            unit: &CompiledUnit,
        ) -> Result<(f64, Option<Kept>), SearchError> {
            self.note(&tree.describe(), "screen");
            let (screen, full) = (self.script)(tree, unit);
            let kept = (tree.describe(), std::thread::current().id(), full);
            Ok((screen, Some(Box::new(kept))))
        }

        fn refine(&mut self, kept: Kept) -> Result<f64, SearchError> {
            let (tree, screened_on, full) = *kept.downcast::<(String, ThreadId, f64)>().unwrap();
            self.note(&tree, "refine");
            assert_eq!(
                screened_on,
                std::thread::current().id(),
                "refined off its worker"
            );
            Ok(full)
        }

        fn label(&self) -> &str {
            "scripted"
        }
    }

    /// Six leaves no other test compiles, screened at 1, 1.05, 2, 3,
    /// 1.2 and 5 and read in full at ten times that.
    fn six() -> (Vec<FftTree>, Script) {
        let trees = [11, 13, 17, 19, 23, 29].map(FftTree::leaf).to_vec();
        let script: Script = |t, _| {
            let screen = match t.size() {
                11 => 1.0,
                13 => 1.05,
                17 => 2.0,
                19 => 3.0,
                23 => 1.2,
                _ => 5.0,
            };
            (screen, 10.0 * screen)
        };
        (trees, script)
    }

    fn compiles(trees: &[FftTree]) -> Vec<usize> {
        let counts = COMPILES.lock().unwrap();
        trees
            .iter()
            .map(|t| counts.get(&t.describe()).copied().unwrap_or(0))
            .collect()
    }

    #[test]
    fn a_race_refines_each_contender_once_on_the_worker_that_screened_it() {
        let (trees, script) = six();
        for jobs in [1, 2, 4] {
            let before = compiles(&trees);
            let (mut pool, log) = Scripted::pool(jobs, script);
            // Keep 2: the 2nd best screen is 1.05, so only screens up to
            // 1.155 are contenders; 1.2 is pruned.
            let got = pool.costs(&trees, 64, 2);
            let want = [
                Reading::Full(10.0),
                Reading::Full(10.5),
                Reading::Pruned(2.0),
                Reading::Pruned(3.0),
                Reading::Pruned(1.2),
                Reading::Pruned(5.0),
            ];
            let got: Vec<Reading> = got.into_iter().map(Result::unwrap).collect();
            assert_eq!(got, want, "jobs {jobs}");
            let after: Vec<usize> = compiles(&trees).iter().map(|n| n - 1).collect();
            assert_eq!(after, before, "each candidate compiled once (jobs {jobs})");
            let log = log.lock().unwrap();
            for tree in &trees {
                let calls: Vec<_> = log.iter().filter(|c| c.0 == tree.describe()).collect();
                let refined = tree.size() <= 13;
                assert_eq!(calls.len(), 1 + usize::from(refined), "{calls:?}");
                assert_eq!(calls[0].1, "screen");
                if refined {
                    assert_eq!((calls[1].1, calls[1].2), ("refine", calls[0].2));
                }
            }
            let tel = pool.drain_telemetry();
            assert_eq!(tel.counter("search.screened"), Some(6));
            assert_eq!(tel.counter("search.refined"), Some(2));
        }
    }

    #[test]
    fn a_batch_of_at_most_keep_candidates_is_timed_once_in_full() {
        // Leaves of their own: the race test counts its leaves' compiles.
        let (_, script) = six();
        let trees = [31, 37, 41].map(FftTree::leaf);
        for (n, jobs) in [(1, 1), (2, 2), (3, 4)] {
            let (mut pool, log) = Scripted::pool(jobs, script);
            let got = pool.costs(&trees[..n], 64, 3);
            assert_eq!(got, vec![Ok(Reading::Full(50.0)); n]);
            let log = log.lock().unwrap();
            assert_eq!(log.len(), n);
            assert!(log.iter().all(|c| c.1 == "cost"), "{log:?}");
        }
    }

    #[test]
    fn a_pruned_candidate_is_never_kept() {
        // Full readings ten times the screens: a pruned candidate's
        // screen beats every finalist's full reading, so only a search
        // that keeps refined plans alone keeps every cost a full one.
        let script: Script = |_, unit| {
            let ops = unit.program.dynamic_op_count() as f64;
            (ops, 10.0 * ops)
        };
        let config = SearchConfig {
            leaf_max: 8,
            ..SearchConfig::default()
        };
        let opcount = winners(&mut opcount_pool(1), 8, 8);
        for jobs in [1, 2] {
            let (mut pool, _log) = Scripted::pool(jobs, script);
            let mut tel = Telemetry::new();
            let found = Search::new(config.clone())
                .run(8, &mut pool, &mut tel)
                .unwrap();
            let kept = found.small.iter().chain(found.large.iter().flatten());
            for plan in kept {
                let ops = compile_unit_for_tree(&plan.tree, 64)
                    .unwrap()
                    .program
                    .dynamic_op_count();
                assert_eq!(plan.cost, 10.0 * ops as f64, "{}", plan.tree.describe());
            }
            let trees = |w: &[Plan]| w.iter().map(|p| p.tree.clone()).collect::<Vec<_>>();
            assert_eq!(trees(&found.winners()), trees(&opcount));
            let (screened, refined) = (
                tel.counter("search.screened"),
                tel.counter("search.refined"),
            );
            assert!(
                screened > refined && refined > Some(0),
                "{screened:?} {refined:?}"
            );
        }
    }

    #[test]
    fn pool_costs_are_index_aligned() {
        let trees: Vec<FftTree> = vec![
            FftTree::leaf(2),
            FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2)),
            FftTree::leaf(4),
            FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(4)),
        ];
        let want: Vec<_> = trees
            .iter()
            .map(|t| Reading::Full(price(&mut OpCountEvaluator, t, 64, false).unwrap().0))
            .collect();
        // Exact costs: a race (keep 1) leaves them as they are.
        for keep in [1, 4] {
            let got = opcount_pool(4).costs(&trees, 64, keep);
            let got: Vec<_> = got.into_iter().map(Result::unwrap).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn parallel_small_search_is_bit_identical_to_serial() {
        let serial = winners(&mut EvaluatorPool::single(OpCountEvaluator), 64, 6);
        for jobs in [1, 2, 4] {
            assert_eq!(serial, winners(&mut opcount_pool(jobs), 64, 6));
        }
    }

    #[test]
    fn parallel_large_search_is_bit_identical_to_serial() {
        // Steps of both DPs race (more candidates than they keep), and
        // exact costs leave every race as it is.
        let serial = winners(&mut EvaluatorPool::single(OpCountEvaluator), 8, 8);
        for jobs in [1, 2, 4] {
            assert_eq!(serial, winners(&mut opcount_pool(jobs), 8, 8));
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
            let serial = winners(&mut EvaluatorPool::new(1, mk), 8, 8);
            for jobs in [2, 4] {
                assert_eq!(serial, winners(&mut EvaluatorPool::new(jobs, mk), 8, 8));
            }
        }
    }

    #[test]
    fn a_candidate_the_injector_faults_is_never_compiled() {
        // (F 0) does not compile: priced past the injector's roll, it
        // would cost a compile failure, not the injected fault.
        let trees = vec![FftTree::leaf(0); 4];
        assert!(matches!(
            price(&mut OpCountEvaluator, &trees[0], 64, false),
            Err(SearchError::CompileFailed(_))
        ));
        let mut pool = EvaluatorPool::new(2, || {
            Box::new(FaultyEvaluator::new(OpCountEvaluator, 17, 1.0))
        });
        for got in pool.costs(&trees, 64, 1) {
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
        pool.costs(&trees, 64, 1);
        pool.costs(&trees[..2], 64, 1);
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
        assert!(pool.costs(&[FftTree::leaf(2)], 64, 1)[0].is_ok());
    }
}
