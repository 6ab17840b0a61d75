//! The warm-cache acceptance check: rerunning the small-search workload
//! to 2^10 over a persisted kernel cache must invoke `cc` at least 5×
//! less than the cold run.
//!
//! The candidate set is pinned with the deterministic op-count model
//! (the measured search legitimately re-picks near-tie winners from run
//! to run, which would vary the candidate *trees*; the cache itself is
//! content-addressed and exact). Kernel builds, the on-disk cache, and
//! the 4-worker pool are all the real thing.

use std::sync::Arc;
use std::time::Duration;

use spl_generator::fft::{FftTree, Rule};
use spl_native::KernelCache;
use spl_search::{
    Evaluator, EvaluatorPool, NativeEvaluator, OpCountEvaluator, Search, SearchConfig,
};
use spl_telemetry::Telemetry;

/// Every candidate the small search to `2^max_k` evaluates, with
/// winners pinned by the op-count model so the set is reproducible.
fn pinned_candidates(max_k: u32) -> Vec<FftTree> {
    let config = SearchConfig {
        leaf_max: 1 << max_k,
        ..Default::default()
    };
    let mut pool = EvaluatorPool::single(OpCountEvaluator::default());
    let best = Search::new(config)
        .run(max_k, &mut pool, &mut Telemetry::new())
        .expect("op-count search")
        .small;
    let mut out = Vec::new();
    for k in 1..=max_k {
        out.push(FftTree::leaf(1usize << k));
        for i in 1..k {
            out.push(FftTree::node(
                Rule::CooleyTukey,
                best[i as usize - 1].tree.clone(),
                best[(k - i) as usize - 1].tree.clone(),
            ));
        }
    }
    out
}

/// Evaluates every tree through a fresh 4-worker pool of native
/// evaluators sharing a fresh disk-cache instance over `dir`, and
/// returns the run's merged telemetry.
fn run_pass(dir: &std::path::Path, trees: &[FftTree]) -> Telemetry {
    let cache = Arc::new(KernelCache::with_dir(dir).expect("open cache dir"));
    let mut pool = EvaluatorPool::new(4, |ctx| {
        Box::new(
            NativeEvaluator::new(64, Duration::from_millis(1))
                .with_verify(false)
                .with_gate(ctx.gate.clone())
                .with_kernel_cache(Arc::clone(&cache)),
        ) as Box<dyn Evaluator>
    });
    for r in pool.costs(trees) {
        r.expect("candidate evaluates");
    }
    let mut tel = pool.drain_telemetry();
    tel.merge(&cache.drain_telemetry());
    tel
}

#[test]
fn warm_cache_rerun_does_5x_fewer_cc_invocations() {
    let dir = std::env::temp_dir().join(format!("spl_warm_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trees = pinned_candidates(10);
    assert_eq!(trees.len(), 55); // sum over k of (1 leaf + k-1 splits)

    let cold = run_pass(&dir, &trees);
    let cold_cc = cold.counter("native.cc_invocations").unwrap_or(0);
    assert_eq!(cold_cc, 55, "cold run compiles every candidate");

    // A fresh cache instance over the same directory models a rerun in
    // a new process: only the on-disk store carries over.
    let warm = run_pass(&dir, &trees);
    let warm_cc = warm.counter("native.cc_invocations").unwrap_or(0);
    let hits = warm.counter("native.cache.disk_hits").unwrap_or(0)
        + warm.counter("native.cache.memory_hits").unwrap_or(0);
    assert_eq!(hits, 55, "every warm build is a cache hit");
    assert!(
        cold_cc >= 5 * warm_cc.max(1),
        "warm rerun must recompile at least 5x less: cold {cold_cc}, warm {warm_cc}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
