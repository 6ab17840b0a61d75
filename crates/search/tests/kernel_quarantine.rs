//! Quarantine acceptance: a kernel whose output fails dense-reference
//! verification must never be served from (or stay in) the shared
//! [`KernelCache`], and the retry must recompile from scratch.
//!
//! Two bug-injection routes:
//!
//! * a genuinely wrong object planted in the cache under the right key
//!   (a model of a miscompile or disk corruption the CRC cannot see) —
//!   exercises the real eviction path in `NativeEvaluator::cost`;
//! * a [`FaultyEvaluator`]-injected verification failure — exercises
//!   the wrapper-level guarantee that an injected miscompile never
//!   touches the cache at all.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use spl_generator::fft::{FftTree, Rule};
use spl_native::{BuildOptions, KernelCache, NativeKernel};
use spl_search::{compile_unit_for_tree, Evaluator, FaultyEvaluator, NativeEvaluator, SearchError};

/// The size-8 plan under test.
fn f8() -> FftTree {
    FftTree::node(Rule::CooleyTukey, FftTree::leaf(4), FftTree::leaf(2))
}

/// The key `tree`'s kernel is filed under, from a build through a cache
/// that stores nothing (so the cache under test sees no traffic).
fn scratch_key(tree: &FftTree) -> String {
    let unit = compile_unit_for_tree(tree, 64).expect("compile target unit");
    let (kernel, _) = NativeKernel::compile_cached(&unit, &BuildOptions, &KernelCache::none())
        .expect("scratch build");
    kernel.cache_key().to_string()
}

/// An empty cache directory for one test, which removes it at its end.
fn cache_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spl_quarantine_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn poisoned_cache_entry_is_quarantined_and_recompiled() {
    let (dir, scratch_dir) = (cache_dir("poisoned"), cache_dir("poisoned_scratch"));
    let cache = Arc::new(KernelCache::with_dir(&dir).unwrap());
    let target_key = scratch_key(&f8());

    // Build a *different* kernel (the size-4 DFT, half the I/O width)
    // and plant its object under the size-8 plan's key. The cache key
    // only covers what goes into cc, so this models a miscompiled
    // entry: structurally a valid shared object, wrong answers.
    let wrong_unit = compile_unit_for_tree(&FftTree::leaf(4), 64).expect("compile wrong unit");
    let scratch = KernelCache::with_dir(&scratch_dir).unwrap();
    let (wrong, _) = NativeKernel::compile_cached(&wrong_unit, &BuildOptions, &scratch)
        .expect("build wrong kernel");
    let object = scratch
        .lookup(wrong.cache_key())
        .expect("wrong kernel cached");
    cache.insert(&target_key, &object);

    let unit = compile_unit_for_tree(&f8(), 64).expect("compile target unit");
    let mut eval =
        NativeEvaluator::new(Duration::from_millis(1)).with_kernel_cache(Arc::clone(&cache));
    let err = eval
        .cost(&f8(), &unit)
        .expect_err("poisoned kernel must not verify");
    assert!(matches!(err, SearchError::VerificationFailed(_)), "{err}");
    assert!(
        cache.lookup(&target_key).is_none(),
        "quarantined kernel still served from the cache"
    );

    // The retry is a cache miss: the real kernel is compiled, verifies,
    // and is re-admitted.
    let cost = eval.cost(&f8(), &unit).expect("retry recompiles cleanly");
    assert!(cost > 0.0);
    assert!(cache.lookup(&target_key).is_some(), "retry not re-cached");
    let tel = eval.drain_telemetry();
    assert_eq!(tel.counter("search.kernels_quarantined"), Some(1));
    assert_eq!(tel.counter("native.cache.quarantined"), Some(1));
    assert_eq!(
        tel.counter("native.cc_invocations"),
        Some(1),
        "only the retry invokes cc; the poisoned entry was a hit"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch_dir);
}

#[test]
fn injected_miscompile_never_reaches_the_cache() {
    let dir = cache_dir("injected");
    let cache = Arc::new(KernelCache::with_dir(&dir).unwrap());
    let target_key = scratch_key(&f8());

    let unit = compile_unit_for_tree(&f8(), 64).expect("compile target unit");
    let inner =
        NativeEvaluator::new(Duration::from_millis(1)).with_kernel_cache(Arc::clone(&cache));
    // p_corrupt = 1: every candidate is reported as a verification
    // failure by the veto the search asks before any kernel is built.
    let mut faulty = FaultyEvaluator::with_rates(inner, 5, 0.0, 0.0, 1.0);
    let err = faulty.veto(&f8()).expect("corrupt fault must inject");
    assert!(matches!(err, SearchError::VerificationFailed(_)), "{err}");
    assert!(
        cache.lookup(&target_key).is_none(),
        "injected miscompile reached the kernel cache"
    );

    // The retry (injection off) is a cache miss and recompiles.
    let mut eval = faulty.into_inner();
    eval.cost(&f8(), &unit).expect("clean retry");
    let tel = eval.drain_telemetry();
    assert_eq!(
        tel.counter("native.cc_invocations"),
        Some(1),
        "retry must be a cache miss + recompile"
    );
    assert!(cache.lookup(&target_key).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
