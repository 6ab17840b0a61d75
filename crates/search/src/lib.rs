#![warn(missing_docs)]

//! The search engine (the SPIRAL component that picks implementations).
//!
//! Reproduces the strategy of paper Section 4:
//!
//! * **Small sizes (2…64)** — dynamic programming over all factorizations
//!   of Equation 10, compiled to straight-line code (full unrolling) and
//!   timed; the fastest formula per size is kept.
//! * **Large sizes (2⁷…2²⁰)** — dynamic programming over binary,
//!   right-most Cooley–Tukey splits `F_n = (F_r ⊗ I_s) T (I_r ⊗ F_s) L`
//!   with `r ≤ 64` taken from the small-size winners; a *k-best* variant
//!   keeps the three best plans per size because "the best formula for
//!   one size is not necessarily also the best sub-formula for a larger
//!   size".
//!
//! Both halves are one driver, [`Search`]: `Search::new(config)` is the
//! search over an in-memory store; [`Search::with_store`] makes it
//! resumable and cross-run (a [`WisdomDb`] directory). Every candidate
//! of a size the store does not answer is measured. [`Search::run`]
//! takes the candidates' costs from an [`EvaluatorPool`] — a serial
//! search is a pool of one ([`EvaluatorPool::single`]) — and puts the
//! small/large boundary at `config.leaf_max` itself.
//!
//! Costs come from an [`Evaluator`]: [`NativeEvaluator`] compiles the
//! generated C with the host compiler and times real machine code (the
//! paper's methodology); [`MeasuredEvaluator`] times the portable VM
//! instead; [`OpCountEvaluator`] is a deterministic operation-count model
//! used in tests and for "FFTW estimate"-style comparisons.
//!
//! # Fault tolerance
//!
//! An unattended search compiles and runs thousands of machine-generated
//! kernels, so evaluation is hardened end to end:
//!
//! * Measured evaluators **verify** each candidate against the dense
//!   reference semantics (`spl-formula::dense`) before accepting its
//!   timing; miscompiles surface as
//!   [`SearchError::VerificationFailed`] instead of corrupt plans.
//! * [`NativeEvaluator`] compiles with a `cc` timeout and runs/times each
//!   kernel in a forked sandbox, so a crashing or hanging candidate is
//!   classified ([`SearchError::KernelCrashed`], [`SearchError::Timeout`])
//!   rather than fatal.
//! * [`ResilientEvaluator`] degrades per candidate through a tier chain
//!   (native → VM → op-count by default), quarantining verification
//!   failures and counting every degradation in telemetry.
//! * The search loops skip candidates whose evaluation fails (counted as
//!   `search.skipped.<kind>`) and only error when a whole size has no
//!   surviving candidate.
//! * Over a [`WisdomDb`] directory every completed size is appended to a
//!   CRC-checked journal (`spl-resilience`), so a killed search resumes
//!   where it stopped.
//! * [`FaultyEvaluator`] injects deterministic faults for testing the
//!   whole chain.
//!
//! # Parallel evaluation
//!
//! [`EvaluatorPool`] fans each size's candidates out over a crew of
//! worker evaluators. Formula expansion, compilation, `cc`, and
//! verification run concurrently; wall-clock timing stays serialized
//! behind a single [`MeasurementGate`], and per-candidate results are
//! merged back in candidate order — so with a deterministic evaluator
//! the winners are bit-identical to the serial search at any job count.
//! [`NativeEvaluator`] workers can additionally share one
//! content-addressed compiled-kernel cache
//! ([`NativeEvaluator::with_kernel_cache`]) so identical generated C is
//! compiled by `cc` only once across the whole pool — and, with a disk
//! directory, across runs.
//!
//! # Examples
//!
//! ```
//! use spl_search::{EvaluatorPool, OpCountEvaluator, Search, SearchConfig};
//! use spl_telemetry::Telemetry;
//!
//! let config = SearchConfig { leaf_max: 8, ..SearchConfig::default() };
//! let mut pool = EvaluatorPool::single(OpCountEvaluator::default());
//! let found = Search::new(config).run(5, &mut pool, &mut Telemetry::new()).unwrap();
//! assert_eq!(found.small.len(), 3); // sizes 2, 4, 8: one winner each
//! assert_eq!(found.large.len(), 2); // sizes 16, 32: up to `keep` plans each
//! assert_eq!(found.winners()[4].tree.size(), 32);
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use spl_compiler::{Compiler, CompilerOptions, OptLevel};
use spl_generator::fft::{rightmost_splits, FftTree, Rule};
use spl_native::{BuildOptions, CacheOutcome, KernelCache, NativeError};
use spl_numeric::Complex;
use spl_telemetry::Telemetry;
use spl_vm::{describe_policy, lower, measure, VmProgram, VmState};

mod faults;
mod parallel;
mod resilient;
mod wisdom;

pub use faults::FaultyEvaluator;
pub use parallel::{EvaluatorPool, MeasurementGate, MeasurementToken, WorkerContext};
pub use resilient::{QuarantineEntry, ResilientEvaluator};
pub use wisdom::{
    cc_fingerprint, cc_key, machine_fingerprint, transform_key, wisdom_from_string,
    wisdom_to_string, Search, SearchOutcome, WisdomDb, WisdomEntry, WisdomError, WisdomErrorKind,
};

/// A structured search failure. Every variant carries human-readable
/// detail; [`SearchError::kind`] gives the stable label used in
/// telemetry counters (`search.failures.<kind>`, `search.skipped.<kind>`).
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// The SPL compiler, lowering, or the host `cc` rejected a candidate.
    CompileFailed(String),
    /// Compiling or running a candidate exceeded its time budget.
    Timeout(String),
    /// A candidate kernel died on a signal inside its sandbox.
    KernelCrashed(String),
    /// A candidate produced numerically wrong output against the dense
    /// reference; the candidate is quarantined, its timing discarded.
    VerificationFailed(String),
    /// The wisdom database holds a record that passes its CRC but does
    /// not parse.
    JournalCorrupt(String),
    /// No candidate for a size survived evaluation.
    NoCandidates {
        /// The transform size that has no surviving candidate.
        n: usize,
    },
    /// Every tier of a degradation chain failed for a candidate.
    Exhausted(String),
    /// Wisdom text or a wisdom database entry failed to parse.
    Wisdom(WisdomError),
    /// Anything else (I/O, ...).
    Other(String),
}

impl SearchError {
    /// A short, stable machine-readable label for this failure class.
    pub fn kind(&self) -> &'static str {
        match self {
            SearchError::CompileFailed(_) => "compile_failed",
            SearchError::Timeout(_) => "timeout",
            SearchError::KernelCrashed(_) => "kernel_crashed",
            SearchError::VerificationFailed(_) => "verification_failed",
            SearchError::JournalCorrupt(_) => "journal_corrupt",
            SearchError::NoCandidates { .. } => "no_candidates",
            SearchError::Exhausted(_) => "exhausted",
            SearchError::Wisdom(_) => "wisdom",
            SearchError::Other(_) => "other",
        }
    }
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::CompileFailed(m) => write!(f, "search: compile failed: {m}"),
            SearchError::Timeout(m) => write!(f, "search: timed out: {m}"),
            SearchError::KernelCrashed(m) => write!(f, "search: kernel crashed: {m}"),
            SearchError::VerificationFailed(m) => write!(f, "search: verification failed: {m}"),
            SearchError::JournalCorrupt(m) => write!(f, "search: journal corrupt: {m}"),
            SearchError::NoCandidates { n } => {
                write!(f, "search: no candidate for size {n} survived evaluation")
            }
            SearchError::Exhausted(m) => write!(f, "search: evaluation exhausted: {m}"),
            SearchError::Wisdom(e) => write!(f, "search: {e}"),
            SearchError::Other(m) => write!(f, "search: {m}"),
        }
    }
}

impl Error for SearchError {}

/// Maps a native-layer failure onto the search error taxonomy.
fn native_err(e: NativeError) -> SearchError {
    match &e {
        NativeError::CompileTimeout(_) | NativeError::Timeout(_) => {
            SearchError::Timeout(e.to_string())
        }
        NativeError::Crashed(_) => SearchError::KernelCrashed(e.to_string()),
        NativeError::CompileFailed(_)
        | NativeError::Unsupported(_)
        | NativeError::LoadFailed(_) => SearchError::CompileFailed(e.to_string()),
        NativeError::Io(_) | NativeError::Protocol(_) => SearchError::Other(e.to_string()),
    }
}

/// Search-wide configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Breakdown rule used for splits.
    pub rule: Rule,
    /// Largest leaf transform (the paper uses 64).
    pub leaf_max: usize,
    /// How many best plans to keep per size in the large-size DP
    /// (the paper keeps 3).
    pub keep: usize,
    /// `-B` threshold handed to the compiler (sub-formulas up to this
    /// input size are fully unrolled).
    pub unroll_threshold: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            rule: Rule::CooleyTukey,
            leaf_max: 64,
            keep: 3,
            unroll_threshold: 64,
        }
    }
}

/// Compiles a factorization tree the way the paper's experiments do:
/// complex data, real code, leaves unrolled up to the threshold, default
/// optimizations — and lowers it to an executable VM program.
///
/// # Errors
///
/// Propagates compiler and lowering failures.
pub fn compile_tree(tree: &FftTree, unroll_threshold: usize) -> Result<VmProgram, SearchError> {
    let unit = compile_unit_for_tree(tree, unroll_threshold)?;
    lower(&unit.program).map_err(|e| SearchError::CompileFailed(e.to_string()))
}

/// Compiles `I_m ⊗ A` for a factorization tree `A`: one program that
/// applies the tree's transform to `m` independent inputs laid out
/// back-to-back. The tensor-product translation (paper Table 2) turns
/// the identity factor into an outer loop over the tree's code, so a
/// server can answer `m` queued same-transform requests with a single
/// dispatch instead of `m` — same configuration as [`compile_tree`]
/// otherwise.
///
/// # Errors
///
/// Propagates compiler and lowering failures; `m = 0` is rejected.
pub fn compile_tree_batched(
    tree: &FftTree,
    m: usize,
    unroll_threshold: usize,
) -> Result<VmProgram, SearchError> {
    if m == 0 {
        return Err(SearchError::CompileFailed("batch factor m = 0".into()));
    }
    let batched =
        spl_formula::Formula::tensor(vec![spl_formula::Formula::identity(m), tree.to_formula()]);
    let sexp = spl_formula::formula_to_sexp(&batched);
    let unit = compile_sexp_for_search(
        &sexp,
        unroll_threshold,
        spl_frontend::ast::DataType::Complex,
    )
    .map_err(|e| {
        SearchError::CompileFailed(format!("compiling (I_{m} tensor {}): {e}", tree.describe()))
    })?;
    lower(&unit.program).map_err(|e| SearchError::CompileFailed(e.to_string()))
}

/// Shared compile plumbing for every evaluator: the paper's experimental
/// configuration (real code, default optimizations, leaves unrolled up to
/// the threshold) over the given data type.
fn compile_sexp_for_search(
    sexp: &spl_frontend::Sexp,
    unroll_threshold: usize,
    datatype: spl_frontend::ast::DataType,
) -> Result<spl_compiler::CompiledUnit, SearchError> {
    let mut compiler = Compiler::with_options(CompilerOptions {
        unroll_threshold: Some(unroll_threshold),
        opt_level: OptLevel::Default,
        ..Default::default()
    });
    let directives = spl_frontend::ast::DirectiveState {
        datatype,
        codetype: spl_frontend::ast::DataType::Real,
        ..Default::default()
    };
    compiler
        .compile_sexp(sexp, &directives)
        .map_err(|e| SearchError::CompileFailed(e.to_string()))
}

/// Largest size verified against the dense reference. Dense application
/// grows quadratically in memory; beyond this the check is skipped (the
/// candidate is still timed).
const VERIFY_MAX_SIZE: usize = 1 << 12;

/// Verification threshold on the benchfft relative RMS metric; generated
/// double-precision FFTs land many orders of magnitude below this, so
/// anything above it is a miscompile, not roundoff.
const VERIFY_TOLERANCE: f64 = 1e-6;

/// The deterministic verification workload: every candidate of a size is
/// checked on the identical complex vector.
fn verification_input(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
        .collect()
}

/// Checks a candidate's computed output against the dense reference
/// semantics of its own formula (`spl-formula::dense` is the independent
/// oracle: it never goes through the compiler backend under test).
///
/// # Errors
///
/// [`SearchError::VerificationFailed`] when the relative RMS error
/// exceeds [`VERIFY_TOLERANCE`].
fn verify_against_dense(tree: &FftTree, got: &[Complex]) -> Result<(), SearchError> {
    let x = verification_input(tree.size());
    let want = spl_formula::dense::apply(&tree.to_formula(), &x)
        .map_err(|e| SearchError::Other(format!("dense reference for {}: {e}", tree.describe())))?;
    let err = spl_numeric::metrics::relative_rms_error(got, &want);
    if err > VERIFY_TOLERANCE {
        return Err(SearchError::VerificationFailed(format!(
            "{}: relative RMS error {err:.3e} exceeds {VERIFY_TOLERANCE:.0e}",
            tree.describe()
        )));
    }
    Ok(())
}

/// A cost oracle for candidate trees. Lower is better.
///
/// `Send` so evaluators can serve as [`EvaluatorPool`] workers; an
/// evaluator is never *shared* between threads (each worker owns its
/// own), so `Sync` is not required.
pub trait Evaluator: Send {
    /// The cost of a candidate (seconds for measured evaluators,
    /// operation counts for model evaluators).
    ///
    /// # Errors
    ///
    /// May fail when a candidate cannot be compiled.
    fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError>;

    /// Names where the costs come from and hence their unit (`native`
    /// and `vm` are seconds, `opcount` operations). Part of every
    /// wisdom-store key ([`transform_key`]): costs under different
    /// labels never meet in one entry. Wrappers report the evaluator
    /// they try first.
    fn label(&self) -> &str;

    /// Takes whatever telemetry the evaluator accumulated (timer
    /// repetitions, cache hits, measurement policy), leaving it empty.
    /// Model evaluators keep no telemetry and return an empty set.
    fn drain_telemetry(&mut self) -> Telemetry {
        Telemetry::new()
    }
}

impl Evaluator for Box<dyn Evaluator> {
    fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError> {
        (**self).cost(tree)
    }

    fn label(&self) -> &str {
        (**self).label()
    }

    fn drain_telemetry(&mut self) -> Telemetry {
        (**self).drain_telemetry()
    }
}

/// Times each candidate on the VM (the paper's measured search).
///
/// Before a candidate's timing is accepted, its output is verified
/// against the dense reference (on by default; see
/// [`MeasuredEvaluator::with_verify`]).
#[derive(Debug)]
pub struct MeasuredEvaluator {
    /// Unroll threshold used when compiling candidates.
    pub unroll_threshold: usize,
    /// Minimum total measurement time per candidate.
    pub min_time: Duration,
    verify: bool,
    gate: MeasurementGate,
    cache: HashMap<String, f64>,
    tel: Telemetry,
}

impl MeasuredEvaluator {
    /// A measured evaluator with the paper's defaults (verification on).
    pub fn new(unroll_threshold: usize, min_time: Duration) -> Self {
        let mut tel = Telemetry::new();
        describe_policy(&mut tel, min_time);
        MeasuredEvaluator {
            unroll_threshold,
            min_time,
            verify: true,
            gate: MeasurementGate::new(),
            cache: HashMap::new(),
            tel,
        }
    }

    /// Enables or disables dense-reference verification.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Adopts a shared [`MeasurementGate`]. Compilation and
    /// verification still run freely; only the timing section waits
    /// for the gate, so concurrent workers never time two kernels at
    /// once.
    pub fn with_gate(mut self, gate: MeasurementGate) -> Self {
        self.gate = gate;
        self
    }
}

impl Evaluator for MeasuredEvaluator {
    fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError> {
        let key = tree.describe();
        if let Some(&c) = self.cache.get(&key) {
            self.tel.add("search.eval_cache_hits", 1);
            return Ok(c);
        }
        let vm = compile_tree(tree, self.unroll_threshold)?;
        if self.verify && tree.size() <= VERIFY_MAX_SIZE {
            let x = verification_input(tree.size());
            let flat = spl_vm::convert::interleave(&x);
            let mut y = vec![0.0; vm.n_out];
            let mut st = VmState::new(&vm);
            vm.run(&flat, &mut y, &mut st);
            verify_against_dense(tree, &spl_vm::convert::deinterleave(&y))?;
            self.tel.add("search.verifications", 1);
        }
        let m = {
            let _token = self.gate.acquire();
            measure(&vm, self.min_time)
        };
        m.record(&mut self.tel, "timer");
        if let Some(rs) = vm.resolve_stats() {
            rs.record(&mut self.tel);
        } else {
            self.tel.add("vm.resolve_fallbacks", 1);
        }
        self.cache.insert(key, m.secs_per_call);
        Ok(m.secs_per_call)
    }

    fn label(&self) -> &str {
        "vm"
    }

    fn drain_telemetry(&mut self) -> Telemetry {
        let tel = std::mem::take(&mut self.tel);
        describe_policy(&mut self.tel, self.min_time);
        tel
    }
}

/// Compiles each candidate's generated C with the host compiler and
/// times the native code — the paper's actual methodology (`spl-native`).
///
/// Hardened for unattended searches: `cc` runs under a timeout, each
/// kernel executes and is timed in a forked sandbox (a crash or hang is
/// a classified error, not a dead search), and every kernel's output is
/// verified against the dense reference before its timing counts.
#[derive(Debug)]
pub struct NativeEvaluator {
    /// Unroll threshold used when compiling candidates.
    pub unroll_threshold: usize,
    /// Minimum total measurement time per candidate.
    pub min_time: Duration,
    verify: bool,
    eval_timeout: Duration,
    build: BuildOptions,
    gate: MeasurementGate,
    kernel_cache: Option<Arc<KernelCache>>,
    cache: HashMap<String, f64>,
    tel: Telemetry,
}

impl NativeEvaluator {
    /// A native evaluator with the given measurement budget,
    /// verification on, and a 30-second sandbox timeout per kernel.
    pub fn new(unroll_threshold: usize, min_time: Duration) -> Self {
        let mut tel = Telemetry::new();
        describe_policy(&mut tel, min_time);
        NativeEvaluator {
            unroll_threshold,
            min_time,
            verify: true,
            eval_timeout: Duration::from_secs(30),
            build: BuildOptions::default(),
            gate: MeasurementGate::new(),
            kernel_cache: None,
            cache: HashMap::new(),
            tel,
        }
    }

    /// Sets the per-kernel sandbox execution timeout.
    pub fn with_timeout(mut self, eval_timeout: Duration) -> Self {
        self.eval_timeout = eval_timeout;
        self
    }

    /// Sets the `cc` invocation policy (timeout, retry).
    pub fn with_build(mut self, build: BuildOptions) -> Self {
        self.build = build;
        self
    }

    /// Enables or disables dense-reference verification.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Adopts a shared [`MeasurementGate`] (see
    /// [`MeasuredEvaluator::with_gate`]): `cc`, loading, and
    /// verification run freely; only `measure_sandboxed` waits.
    pub fn with_gate(mut self, gate: MeasurementGate) -> Self {
        self.gate = gate;
        self
    }

    /// Routes kernel builds through a content-addressed
    /// [`KernelCache`]: identical generated C under identical build
    /// options reuses the previously built shared object instead of
    /// invoking `cc` again. Share one cache (via `Arc`) across pool
    /// workers so concurrent evaluators deduplicate builds too.
    pub fn with_kernel_cache(mut self, cache: Arc<KernelCache>) -> Self {
        self.kernel_cache = Some(cache);
        self
    }

    /// Builds the candidate's kernel, through the kernel cache when one
    /// is attached; also returns the cache key in that case so a later
    /// verification failure can quarantine the entry.
    fn build_kernel(
        &mut self,
        tree: &FftTree,
    ) -> Result<(spl_native::NativeKernel, Option<String>), SearchError> {
        let unit = compile_unit_for_tree(tree, self.unroll_threshold)?;
        let Some(cache) = &self.kernel_cache else {
            return spl_native::NativeKernel::compile_with(&unit, &self.build)
                .map(|k| (k, None))
                .map_err(native_err);
        };
        let key = spl_native::NativeKernel::cache_key(&unit, &self.build).map_err(native_err)?;
        let (kernel, outcome) = spl_native::NativeKernel::compile_cached(&unit, &self.build, cache)
            .map_err(native_err)?;
        if outcome != CacheOutcome::Miss {
            self.tel.add("search.kernel_cache_hits", 1);
        }
        Ok((kernel, Some(key)))
    }
}

impl Evaluator for NativeEvaluator {
    fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError> {
        let key = tree.describe();
        if let Some(&c) = self.cache.get(&key) {
            self.tel.add("search.eval_cache_hits", 1);
            return Ok(c);
        }
        let (kernel, cache_key) = self.build_kernel(tree)?;
        if self.verify && tree.size() <= VERIFY_MAX_SIZE {
            let x = verification_input(tree.size());
            let flat = spl_vm::convert::interleave(&x);
            let mut y = vec![0.0; kernel.n_out];
            kernel
                .run_sandboxed(&flat, &mut y, self.eval_timeout)
                .map_err(native_err)?;
            if let Err(e) = verify_against_dense(tree, &spl_vm::convert::deinterleave(&y)) {
                // The cache key only covers what went *into* cc, so a
                // kernel whose output is wrong must be expelled or every
                // retry would be served the same bad object.
                if let (Some(cache), Some(k)) = (&self.kernel_cache, &cache_key) {
                    cache.evict(k);
                    self.tel.add("search.kernels_quarantined", 1);
                }
                return Err(e);
            }
            self.tel.add("search.verifications", 1);
        }
        let t = {
            let _token = self.gate.acquire();
            kernel
                .measure_sandboxed(self.min_time, self.eval_timeout)
                .map_err(native_err)?
        };
        self.tel.add("search.native_measurements", 1);
        self.cache.insert(key, t);
        Ok(t)
    }

    fn label(&self) -> &str {
        "native"
    }

    fn drain_telemetry(&mut self) -> Telemetry {
        let mut tel = std::mem::take(&mut self.tel);
        if let Some(cache) = &self.kernel_cache {
            // The cache may be shared; take-semantics means each
            // counter increment is reported by exactly one drainer.
            tel.merge(&cache.drain_telemetry());
        }
        describe_policy(&mut self.tel, self.min_time);
        tel
    }
}

/// Compiles a factorization tree to a natively executable kernel
/// (paper-style: generated C through the host compiler) with the default
/// build policy.
///
/// # Errors
///
/// Propagates compiler, `cc`, and loading failures.
pub fn compile_tree_native(
    tree: &FftTree,
    unroll_threshold: usize,
) -> Result<spl_native::NativeKernel, SearchError> {
    compile_tree_native_with(tree, unroll_threshold, &BuildOptions::default())
}

/// [`compile_tree_native`] with an explicit `cc` timeout/retry policy.
///
/// # Errors
///
/// Propagates compiler, `cc`, and loading failures.
pub fn compile_tree_native_with(
    tree: &FftTree,
    unroll_threshold: usize,
    build: &BuildOptions,
) -> Result<spl_native::NativeKernel, SearchError> {
    let unit = compile_unit_for_tree(tree, unroll_threshold)?;
    spl_native::NativeKernel::compile_with(&unit, build).map_err(native_err)
}

/// The SPL-compiler half of a native build (everything before `cc`),
/// shared by the direct and cache-mediated paths. Public so tooling and
/// tests can compute a candidate's [`KernelCache`] key
/// (via [`spl_native::NativeKernel::cache_key`]) without building it.
///
/// # Errors
///
/// Returns [`SearchError::CompileFailed`] when the tree's formula does
/// not compile.
pub fn compile_unit_for_tree(
    tree: &FftTree,
    unroll_threshold: usize,
) -> Result<spl_compiler::CompiledUnit, SearchError> {
    compile_sexp_for_search(
        &tree.to_sexp(),
        unroll_threshold,
        spl_frontend::ast::DataType::Complex,
    )
    .map_err(|e| SearchError::CompileFailed(format!("compiling {}: {e}", tree.describe())))
}

/// Deterministic model: compiles the candidate and counts the dynamic
/// floating-point operations plus a small per-loop overhead charge. Used
/// by tests and as the "estimate" mode analogue.
#[derive(Debug, Default)]
pub struct OpCountEvaluator {
    cache: HashMap<String, f64>,
}

impl Evaluator for OpCountEvaluator {
    fn cost(&mut self, tree: &FftTree) -> Result<f64, SearchError> {
        let key = tree.describe();
        if let Some(&c) = self.cache.get(&key) {
            return Ok(c);
        }
        let unit =
            compile_sexp_for_search(&tree.to_sexp(), 64, spl_frontend::ast::DataType::Complex)?;
        let cost = unit.program.dynamic_op_count() as f64;
        self.cache.insert(key, cost);
        Ok(cost)
    }

    fn label(&self) -> &str {
        "opcount"
    }
}

/// The winner for one transform size.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeResult {
    /// The winning factorization.
    pub tree: FftTree,
    /// Its cost under the evaluator.
    pub cost: f64,
}

/// The candidates of one small-size DP step: the naive leaf plus every
/// Equation-10 split of previous winners, in the canonical order the
/// winner selection depends on.
fn small_candidates(k: u32, config: &SearchConfig, best: &[SizeResult]) -> Vec<FftTree> {
    let mut candidates = vec![FftTree::leaf(1usize << k)];
    for i in 1..k {
        let left = best[i as usize - 1].tree.clone();
        let right = best[(k - i) as usize - 1].tree.clone();
        candidates.push(FftTree::node(config.rule, left, right));
    }
    candidates
}

/// One retained plan in the large-size k-best DP.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The factorization tree.
    pub tree: FftTree,
    /// Measured (or modeled) cost.
    pub cost: f64,
}

/// The candidates of one large-size k-best DP step: every rightmost
/// binary split over the retained sub-plans, in the canonical order the
/// retained set depends on.
fn large_candidates(
    k: u32,
    config: &SearchConfig,
    kbest: &HashMap<u32, Vec<Plan>>,
) -> Vec<FftTree> {
    let n = 1usize << k;
    let mut candidates: Vec<FftTree> = Vec::new();
    for (r, s) in rightmost_splits(n, config.leaf_max) {
        if !r.is_power_of_two() {
            continue;
        }
        let rk = r.trailing_zeros();
        let sk = s.trailing_zeros();
        let Some(left_plans) = kbest.get(&rk) else {
            continue;
        };
        let Some(right_plans) = kbest.get(&sk) else {
            continue;
        };
        let left = left_plans[0].tree.clone();
        for right in right_plans {
            candidates.push(FftTree::node(config.rule, left.clone(), right.tree.clone()));
        }
    }
    candidates
}

// ---------------------------------------------------------------------
// WHT search (generality beyond the FFT)
// ---------------------------------------------------------------------

/// A WHT cost oracle (mirrors [`Evaluator`] for Walsh–Hadamard trees).
///
/// The related-work section of the paper points at the WHT package of
/// Johnson and Püschel, which searches a space of WHT formulas the same
/// way; this function reproduces that search with the SPL toolchain:
/// dynamic programming over binary splits of `WHT_{2^k}` with direct
/// (tensor-power) leaves admitted up to `max_leaf_exp`.
///
/// Returns the winner per exponent `1..=max_k`.
///
/// # Errors
///
/// Propagates compilation failures from the evaluator.
pub fn wht_search(
    max_k: u32,
    max_leaf_exp: u32,
    unroll_threshold: usize,
    min_time: Duration,
) -> Result<Vec<(spl_generator::wht::WhtTree, f64)>, SearchError> {
    use spl_generator::wht::WhtTree;
    let mut cache: HashMap<String, f64> = HashMap::new();
    let mut cost = |tree: &WhtTree| -> Result<f64, SearchError> {
        let key = format!("{tree:?}");
        if let Some(&c) = cache.get(&key) {
            return Ok(c);
        }
        let unit = compile_sexp_for_search(
            &tree.to_sexp(),
            unroll_threshold,
            spl_frontend::ast::DataType::Real,
        )?;
        let vm = lower(&unit.program).map_err(|e| SearchError::CompileFailed(e.to_string()))?;
        let t = measure(&vm, min_time).secs_per_call;
        cache.insert(key, t);
        Ok(t)
    };
    let mut best: Vec<(WhtTree, f64)> = Vec::new();
    for k in 1..=max_k {
        let mut candidates = Vec::new();
        if k <= max_leaf_exp {
            candidates.push(WhtTree::leaf(k));
        }
        for i in 1..k {
            candidates.push(WhtTree::split(vec![
                best[i as usize - 1].0.clone(),
                best[(k - i) as usize - 1].0.clone(),
            ]));
        }
        let mut winner: Option<(WhtTree, f64)> = None;
        for tree in candidates {
            let c = cost(&tree)?;
            if winner.as_ref().is_none_or(|(_, w)| c < *w) {
                winner = Some((tree, c));
            }
        }
        best.push(winner.expect("at least one candidate"));
    }
    Ok(best)
}

// Wisdom (flat plan persistence, the keyed database, and the DP
// driver) lives in the `wisdom` module; the flat-format helpers
// `wisdom_to_string` / `wisdom_from_string` are re-exported above.

#[cfg(test)]
mod tests {
    use super::*;
    use spl_numeric::{reference, Complex};
    use spl_vm::VmState;

    fn check_tree_is_fft(tree: &FftTree) {
        let n = tree.size();
        let vm = compile_tree(tree, 64).unwrap();
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let flat = spl_vm::convert::interleave(&x);
        let mut y = vec![0.0; vm.n_out];
        let mut st = VmState::new(&vm);
        vm.run(&flat, &mut y, &mut st);
        let got = spl_vm::convert::deinterleave(&y);
        let want = reference::dft(&x);
        for (a, b) in got.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-9 * n as f64), "size {n}");
        }
    }

    #[test]
    fn batched_compile_matches_independent_applications() {
        let tree = spl_generator::fft::ct_sequence(&[4, 2], Rule::CooleyTukey);
        let n = tree.size();
        let m = 3;
        let single = compile_tree(&tree, 64).unwrap();
        let batched = compile_tree_batched(&tree, m, 64).unwrap();
        assert_eq!(batched.n_in, m * single.n_in);
        assert_eq!(batched.n_out, m * single.n_out);

        // m segments with distinct contents, back to back.
        let xs: Vec<f64> = (0..m * single.n_in)
            .map(|i| (i as f64 * 0.37).sin())
            .collect();
        let mut got = vec![0.0; batched.n_out];
        let mut st = VmState::new(&batched);
        batched.run(&xs, &mut got, &mut st);

        let mut st1 = VmState::new(&single);
        for seg in 0..m {
            let mut want = vec![0.0; single.n_out];
            single.run(
                &xs[seg * single.n_in..(seg + 1) * single.n_in],
                &mut want,
                &mut st1,
            );
            // The identity tensor factor compiles to an outer loop over
            // the same inner code, so each segment is bit-identical to
            // an unbatched run.
            assert_eq!(
                &got[seg * single.n_out..(seg + 1) * single.n_out],
                want.as_slice(),
                "segment {seg} of batched size-{n} FFT diverged"
            );
        }
    }

    #[test]
    fn batched_compile_rejects_zero_batch() {
        let tree = FftTree::Leaf(4);
        assert!(compile_tree_batched(&tree, 0, 64).is_err());
    }

    /// The op-count search to `2^max_log`, serial and untraced.
    fn opcount_search(config: &SearchConfig, max_log: u32) -> SearchOutcome {
        Search::new(config.clone())
            .run(
                max_log,
                &mut EvaluatorPool::single(OpCountEvaluator::default()),
                &mut Telemetry::new(),
            )
            .unwrap()
    }

    #[test]
    fn small_search_returns_correct_ffts() {
        let best = opcount_search(&SearchConfig::default(), 5).small;
        assert_eq!(best.len(), 5);
        for (k, r) in best.iter().enumerate() {
            assert_eq!(r.tree.size(), 1 << (k + 1));
            check_tree_is_fft(&r.tree);
        }
    }

    #[test]
    fn small_search_prefers_fast_algorithms() {
        // For size 32 the naive leaf costs O(n^2); any split wins.
        let best = opcount_search(&SearchConfig::default(), 5).small;
        assert!(matches!(best[4].tree, FftTree::Node { .. }));
        // O(n log n)-ish op count.
        assert!(best[4].cost < 3_000.0, "cost {}", best[4].cost);
    }

    #[test]
    fn large_search_builds_correct_plans() {
        let config = SearchConfig {
            leaf_max: 8,
            ..Default::default()
        };
        let found = opcount_search(&config, 6);
        assert_eq!(found.small.len(), 3); // sizes 2, 4, 8
        assert_eq!(found.large.len(), 3); // sizes 16, 32, 64
        for (i, plans) in found.large.iter().enumerate() {
            assert!(!plans.is_empty() && plans.len() <= config.keep);
            for p in plans {
                assert_eq!(p.tree.size(), 1 << (i + 4));
            }
            // Plans are sorted best-first.
            for w in plans.windows(2) {
                assert!(w[0].cost <= w[1].cost);
            }
            check_tree_is_fft(&plans[0].tree);
        }
        let sizes: Vec<usize> = found.winners().iter().map(|w| w.tree.size()).collect();
        assert_eq!(sizes, [2, 4, 8, 16, 32, 64]);
    }

    #[test]
    fn boundary_follows_leaf_max_and_max_log() {
        // Below the leaf size there is no large search at all.
        let found = opcount_search(&SearchConfig::default(), 4);
        assert_eq!((found.small.len(), found.large.len()), (4, 0));
    }

    #[test]
    fn large_search_is_rightmost() {
        // The left child of every large plan is a small-size winner
        // (cannot itself be a fresh split of a large size).
        let config = SearchConfig {
            leaf_max: 8,
            ..Default::default()
        };
        for plans in &opcount_search(&config, 7).large {
            for p in plans {
                if let FftTree::Node { left, .. } = &p.tree {
                    assert!(left.size() <= config.leaf_max);
                }
            }
        }
    }

    #[test]
    fn measured_evaluator_runs() {
        let mut eval = MeasuredEvaluator::new(64, Duration::from_millis(2));
        let t = FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2));
        let c1 = eval.cost(&t).unwrap();
        assert!(c1 > 0.0);
        // Cache hit returns the identical value.
        let c2 = eval.cost(&t).unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn shared_kernel_cache_deduplicates_cc_invocations() {
        // Two evaluators (as two pool workers would be) sharing one
        // content-addressed cache: the second build of the same tree is
        // a memory hit, not a second `cc` run.
        let cache = Arc::new(KernelCache::in_memory());
        let t = FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2));
        let mut a = NativeEvaluator::new(64, Duration::from_millis(2))
            .with_kernel_cache(Arc::clone(&cache));
        let mut b = NativeEvaluator::new(64, Duration::from_millis(2))
            .with_kernel_cache(Arc::clone(&cache));
        let ca = a.cost(&t).unwrap();
        let cb = b.cost(&t).unwrap();
        assert!(ca > 0.0 && cb > 0.0);
        let mut tel = a.drain_telemetry();
        tel.merge(&b.drain_telemetry());
        assert_eq!(tel.counter("native.cc_invocations"), Some(1));
        assert_eq!(tel.counter("native.cache.memory_hits"), Some(1));
        assert_eq!(tel.counter("search.kernel_cache_hits"), Some(1));
    }

    #[test]
    fn native_evaluator_agrees_with_vm_on_ordering() {
        // Both evaluators must agree that a split beats the naive leaf
        // at size 32.
        let leaf = FftTree::leaf(32);
        let split = FftTree::node(
            Rule::CooleyTukey,
            FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(2)),
            FftTree::node(Rule::CooleyTukey, FftTree::leaf(2), FftTree::leaf(4)),
        );
        let mut native = NativeEvaluator::new(64, Duration::from_millis(3));
        assert!(native.cost(&split).unwrap() < native.cost(&leaf).unwrap());
    }

    #[test]
    fn wisdom_round_trips() {
        let best = opcount_search(&SearchConfig::default(), 5).small;
        let text = wisdom_to_string(&best);
        let back = wisdom_from_string(&text).unwrap();
        assert_eq!(back.len(), best.len());
        for (a, b) in back.iter().zip(&best) {
            assert_eq!(a.tree, b.tree);
        }
        // Comments and blanks are tolerated.
        let with_comments = format!(
            "# saved plans

{text}"
        );
        assert_eq!(
            wisdom_from_string(&with_comments).unwrap().len(),
            best.len()
        );
    }

    #[test]
    fn wisdom_rejects_inconsistent_lines() {
        let e = wisdom_from_string("16: (ct 2 2)").unwrap_err();
        assert_eq!(
            e.kind,
            WisdomErrorKind::SizeMismatch {
                computed: 4,
                labelled: 16
            }
        );
        let e = wisdom_from_string("nonsense").unwrap_err();
        assert_eq!(e.kind, WisdomErrorKind::MissingColon);
        let e = wisdom_from_string("8: (zz 2 4)").unwrap_err();
        assert!(matches!(e.kind, WisdomErrorKind::BadSpec(_)), "{e}");
    }

    #[test]
    fn wisdom_empty_set_round_trips() {
        let text = wisdom_to_string(&[]);
        assert!(text.is_empty());
        assert!(wisdom_from_string(&text).unwrap().is_empty());
        // Comment- and whitespace-only wisdom is the empty set too.
        assert!(wisdom_from_string("\n# only a comment\n\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn wisdom_rejects_malformed_inputs() {
        // Every malformed shape maps to a typed kind; the error also
        // carries the 1-based line and renders the historical message.
        type KindCheck = fn(&WisdomErrorKind) -> bool;
        let cases: [(&str, KindCheck); 6] = [
            ("4 (ct 2 2)", |k| *k == WisdomErrorKind::MissingColon),
            (":", |k| *k == WisdomErrorKind::BadSize),
            ("x: (ct 2 2)", |k| *k == WisdomErrorKind::BadSize),
            ("4:", |k| matches!(k, WisdomErrorKind::BadSpec(_))),
            ("-4: (ct 2 2)", |k| *k == WisdomErrorKind::BadSize),
            ("8: (ct 2", |k| matches!(k, WisdomErrorKind::BadSpec(_))),
        ];
        for (bad, want) in cases {
            let e = wisdom_from_string(bad).unwrap_err();
            assert!(want(&e.kind), "{bad:?} -> {e}");
            assert_eq!(e.line, 1, "{bad:?}");
        }
        // Line numbers skip blanks and comments but count real lines.
        let e = wisdom_from_string("# ok\n4: (ct 2 2)\nbroken").unwrap_err();
        assert_eq!(e.line, 3);
        assert_eq!(e.to_string(), "wisdom line 3: missing ':'");
        // The typed error lifts into the search taxonomy.
        let lifted: SearchError = e.into();
        assert_eq!(lifted.kind(), "wisdom");
        assert!(lifted.to_string().starts_with("search: wisdom line 3"));
    }

    #[test]
    fn search_records_telemetry() {
        let mut pool = EvaluatorPool::single(MeasuredEvaluator::new(64, Duration::from_millis(1)));
        let mut tel = Telemetry::new();
        let best = Search::new(SearchConfig::default())
            .run(3, &mut pool, &mut tel)
            .unwrap()
            .small;
        assert_eq!(best.len(), 3);
        // Candidates per size: 1 (F2) + 2 (F4) + 3 (F8).
        assert_eq!(tel.counter("search.plans_evaluated"), Some(6));
        assert!(tel.span_ns("search.small").is_some());
        for n in [2usize, 4, 8] {
            assert!(tel.metric(&format!("search.best_cost.{n}")).unwrap() > 0.0);
        }
        // Evaluator telemetry is merged in: timed reps, warm-ups, and
        // the measurement policy.
        assert!(tel.counter("timer.reps").unwrap() >= 6);
        assert!(tel.counter("timer.warmup_reps").unwrap() >= 1);
        assert!(tel.metric("timer.min_time_secs").is_some());
        // Draining left the evaluator with a fresh policy-only set.
        assert!(pool.drain_telemetry().counter("timer.reps").is_none());
    }

    #[test]
    fn wht_search_returns_correct_transforms() {
        let best = wht_search(4, 3, 64, Duration::from_millis(2)).unwrap();
        assert_eq!(best.len(), 4);
        for (k, (tree, _)) in best.iter().enumerate() {
            assert_eq!(tree.exponent(), k as u32 + 1);
            // Verify against the reference WHT through the dense oracle.
            let n = tree.size();
            let xr: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
            let x: Vec<spl_numeric::Complex> =
                xr.iter().map(|&v| spl_numeric::Complex::real(v)).collect();
            let y = spl_formula::dense::apply(&tree.to_formula(), &x).unwrap();
            let want = reference::wht(&xr);
            for (a, b) in y.iter().zip(&want) {
                assert!((a.re - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn kbest_keeps_at_most_k() {
        let config = SearchConfig {
            leaf_max: 16,
            keep: 2,
            ..Default::default()
        };
        for plans in &opcount_search(&config, 8).large {
            assert!(plans.len() <= 2);
        }
    }
}
