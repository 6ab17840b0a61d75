//! The daemon's plan store: hot transforms and their degradation chain.
//!
//! A *plan* is everything the daemon keeps warm for one transform size:
//! the factorization tree (from wisdom or a default radix-2 split), the
//! resolved [`VmProgram`], and a natively compiled kernel (through the
//! shared on-disk [`KernelCache`], so a restart reloads instead of
//! recompiling).
//!
//! # The degradation chain
//!
//! Every execution walks `native kernel → resolved VM → reject`:
//! failures are *classified and counted*, the request falls to the
//! next tier, and a kernel that faults is quarantined (and evicted from
//! the shared cache) so it is never tried again. The VM tier is the trusted
//! baseline — the resolved interpreter executes exactly the compiled
//! i-code — so the chain keeps one invariant the whole daemon is built
//! on: **every reply is bit-identical to the plan's VM output**. A
//! native kernel earns the fast path only by *promotion*: before any
//! request reaches it, whoever built it runs it once in a fork sandbox
//! on a deterministic probe, and it must reproduce the VM output
//! bit-for-bit; a kernel whose rounding differs (e.g. FMA contraction)
//! is demoted to the VM tier rather than allowed to serve
//! almost-right answers, and a crash or mismatch quarantines it. A
//! request therefore sees two tiers: a trusted kernel, or the VM.
//!
//! # Two ways to a plan
//!
//! A plan has two halves: the VM program (one compile of the tree,
//! milliseconds) and the native kernel (`cc`, up to seconds).
//! [`PlanStore::plan`] does the first and *queues* the second on the
//! store's one builder thread — the daemon's request path, which must
//! never wait for the C compiler: a cold size is answered from the VM at
//! once and switches to its kernel when the builder has promoted it.
//! [`PlanStore::entry`] does both before it returns, for callers that
//! want the finished plan. Either way the tree is compiled once and the
//! kernel is built from the unit the VM program was lowered from.
//!
//! # Crash safety
//!
//! The store writes one thing to disk: the kernel cache under the state
//! directory, content-addressed by the C text and the `cc` line. A
//! daemon killed with `SIGKILL` comes back with no plans; the first
//! request for a size compiles its tree (from the wisdom the daemon was
//! started with) and is answered from the VM, and the builder finds the
//! kernel on disk without invoking `cc`.

use std::collections::hash_map::{Entry, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use spl_generator::fft::{ct_sequence, FftTree, Rule};
use spl_native::{CompiledUnit, KernelCache, NativeKernel};
use spl_search::{compile_unit_for_tree, wisdom_from_string};
use spl_telemetry::Telemetry;
use spl_vm::{lower, VmProgram, VmState};

use crate::chaos::ChaosInjector;
use crate::protocol::Tier;

/// Wall-clock budget for a kernel's sandboxed promotion run.
const SANDBOX_TIMEOUT: Duration = Duration::from_secs(10);

/// Why the store could not serve a request. Maps onto the wire error
/// classes (`u`/`c`/`i`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The transform size is not servable (not a power of two and not
    /// in wisdom, or beyond the configured limit).
    Unsupported(String),
    /// Compiling the plan failed.
    Compile(String),
    /// An internal invariant broke (always a bug, never client input).
    Internal(String),
}

impl ServeError {
    /// The wire error-class byte for this error.
    pub fn class(&self) -> u8 {
        match self {
            ServeError::Unsupported(_) => b'u',
            ServeError::Compile(_) => b'c',
            ServeError::Internal(_) => b'i',
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Unsupported(m) => write!(f, "unsupported: {m}"),
            ServeError::Compile(m) => write!(f, "compile: {m}"),
            ServeError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A [`NativeKernel`] shared across the executing connection threads,
/// entered by one of them at a time.
///
/// The generated C keeps a looped kernel's temporaries in `static`
/// arrays (`spl-compiler`'s `codegen.rs`: automatic ones would overflow
/// the stack at large sizes), so the entry point is *not* re-entrant:
/// two threads inside the same kernel corrupt each other's transform.
/// Every run therefore holds `running`.
struct SharedKernel {
    kernel: NativeKernel,
    running: Mutex<()>,
}

// SAFETY: `NativeKernel` is `!Send`/`!Sync` only for its raw dlopen
// handle and entry pointer. The entry point allocates nothing and
// touches three things: its argument buffers (each caller's own), the
// shared object's twiddle tables (filled by `spl-native` before the
// kernel existed, read-only since), and its static temporaries, which
// `running` gives to one caller at a time — `with` is the only way to
// `kernel`. The handle itself is only used again at drop, which runs
// once, on whichever thread lets go of the last `Arc`.
unsafe impl Send for SharedKernel {}
unsafe impl Sync for SharedKernel {}

impl SharedKernel {
    /// Runs `f` on the kernel with no other thread inside it. (The
    /// promotion run needs no lock — no request can reach the kernel
    /// yet, and the forked child has its own copy of the statics — but
    /// this is the only way in.)
    fn with<R>(&self, f: impl FnOnce(&NativeKernel) -> R) -> R {
        // The lock guards no Rust data, only exclusivity, and the C
        // entry point cannot unwind: a poisoned lock is still a lock.
        let _running = self.running.lock().unwrap_or_else(|e| e.into_inner());
        f(&self.kernel)
    }
}

/// Where one plan's native fast path currently stands.
enum NativeTier {
    /// No kernel: not built yet, the build failed, or native serving is
    /// disabled.
    Missing,
    /// Built and promoted: serves in-process.
    Trusted(Arc<SharedKernel>),
    /// Rounding differs from the VM (e.g. FMA contraction): correct to
    /// tolerance but not bit-identical, so the VM serves instead.
    Demoted,
    /// Crashed or produced wrong output: never tried again.
    Quarantined,
}

/// One warm transform size.
pub struct PlanEntry {
    /// Transform size (complex points).
    pub n: usize,
    /// The factorization this plan executes.
    pub tree: FftTree,
    vm: Arc<VmProgram>,
    /// Execution states of `vm` between runs, one per run that has ever
    /// been concurrent with another: building one copies the program's
    /// tables and zeroes its temporaries, more memory than the run's own
    /// input and output.
    vm_states: Mutex<Vec<VmState>>,
    native: Mutex<NativeTier>,
    /// What `vm` was lowered from, until the native build takes it
    /// (`None` from the start without native serving). The lock is held
    /// across that build: a second builder of the same plan waits it
    /// out and finds nothing left to do.
    unit: Mutex<Option<CompiledUnit>>,
}

impl PlanEntry {
    /// The resolved single-request program (the trusted tier).
    pub fn vm(&self) -> &Arc<VmProgram> {
        &self.vm
    }

    /// Runs the trusted VM tier: always available once the plan exists.
    /// The run takes an idle execution state, or builds one, and leaves
    /// it for the next (a run that panics loses its state, no more).
    pub fn run_vm(&self, x: &[f64], y: &mut [f64]) {
        // The lock is held for a pop or a push, never across a run, and
        // the list is valid between any two of those: poison is no news.
        let idle = || self.vm_states.lock().unwrap_or_else(|e| e.into_inner());
        let popped = idle().pop();
        let mut st = popped.unwrap_or_else(|| VmState::new(&self.vm));
        self.vm.run(x, y, &mut st);
        idle().push(st);
    }
}

/// Configuration for [`PlanStore::new`].
#[derive(Debug, Clone)]
pub struct PlanStoreOptions {
    /// Serving state directory (the kernel cache); `None` disables
    /// persistence (every kernel is built by `cc` again after a restart).
    pub state_dir: Option<PathBuf>,
    /// `-B` unrolling threshold handed to the compiler.
    pub unroll_threshold: usize,
    /// Largest servable transform size.
    pub max_size: usize,
    /// Whether to compile native kernels at all (tests without a
    /// working `cc` can turn this off).
    pub native: bool,
}

impl Default for PlanStoreOptions {
    fn default() -> Self {
        PlanStoreOptions {
            state_dir: None,
            unroll_threshold: 64,
            max_size: 1 << 16,
            native: true,
        }
    }
}

/// What the store shares with its builder thread: everything a native
/// build reads, and where both sides count.
struct Shared {
    opts: PlanStoreOptions,
    /// Every kernel is built through it: the state directory's, or
    /// without one a cache that stores nothing.
    kernels: KernelCache,
    tel: Mutex<Telemetry>,
    /// Held by the builder thread across each build it does.
    building: Mutex<()>,
    /// Set by [`PlanStore::call_off_builds`]: a `cc` in flight is killed,
    /// no build is started.
    builds_called_off: AtomicBool,
}

impl Shared {
    fn count(&self, key: &str) {
        self.tel.lock().unwrap().add(key, 1);
    }

    /// The native half of a plan, at most once per plan: compiles (or
    /// cache-loads) the kernel from the unit the VM program was lowered
    /// from, runs the promotion gate, and leaves the verdict in the
    /// plan's tier — unless something has settled that meanwhile, which
    /// a build never overrules. Runs on the builder thread, or inline in
    /// [`PlanStore::entry`]; never on the daemon's request path.
    fn build_native(&self, plan: &PlanEntry) {
        // Poisoned means a build of this plan panicked: it took the unit
        // with it, and the plan stays on the VM.
        let mut unit = plan.unit.lock().unwrap_or_else(|e| e.into_inner());
        let Some(unit) = unit.take() else {
            return;
        };
        let started = Instant::now();
        let verdict = self.build_and_promote(plan, &unit);
        let mut tier = plan.native.lock().unwrap();
        if matches!(*tier, NativeTier::Missing) {
            *tier = verdict;
        }
        drop(tier);
        let ms = started.elapsed().as_millis() as u64;
        self.tel.lock().unwrap().add("spld.native.build_ms", ms);
    }

    /// Compile-or-load, then the promotion gate: the kernel's first run,
    /// in a fork sandbox, compared bit-for-bit against the VM tier on a
    /// deterministic probe. Failure of either step is a degradation,
    /// not an error: the plan serves on the VM tier.
    fn build_and_promote(&self, plan: &PlanEntry, unit: &CompiledUnit) -> NativeTier {
        let called_off = &self.builds_called_off;
        let built = NativeKernel::compile_cached_unless(unit, &self.kernels, called_off);
        let Ok((kernel, _)) = built else {
            self.count("spld.native.compile_failures");
            return NativeTier::Missing;
        };
        let kernel = Arc::new(SharedKernel {
            kernel,
            running: Mutex::new(()),
        });
        let x = probe(plan.vm.n_in);
        let mut want = vec![0.0; plan.vm.n_out];
        plan.run_vm(&x, &mut want);
        let mut got = vec![0.0; plan.vm.n_out];
        let ran = kernel.with(|k| k.run_sandboxed(&x, &mut got, SANDBOX_TIMEOUT));
        match ran {
            Ok(()) if same_bits(&got, &want) => {
                self.count("spld.native.promoted");
                NativeTier::Trusted(kernel)
            }
            Ok(()) if within_tolerance(&got, &want) => {
                // Correct but not bit-identical (rounding differences,
                // e.g. FMA contraction): the VM must keep serving so
                // replies stay reproducible.
                self.count("spld.native.rounding_demoted");
                NativeTier::Demoted
            }
            // Wrong output, a crash or a timeout.
            _ => {
                self.quarantine(&kernel);
                NativeTier::Quarantined
            }
        }
    }

    /// Counts a kernel whose plan goes to [`NativeTier::Quarantined`] and
    /// evicts its shared cache entry, so no restart (or sibling process)
    /// reloads the bad object.
    fn quarantine(&self, kernel: &SharedKernel) {
        self.count("spld.quarantined");
        self.count("spld.degradations");
        kernel.with(|k| self.kernels.evict(k.cache_key()));
    }
}

/// The builder thread: one native build at a time, in queue order, until
/// the store is gone.
fn build_queued(queue: &mpsc::Receiver<Arc<PlanEntry>>, shared: &Weak<Shared>) {
    for plan in queue {
        // Without the store nobody will ask for this kernel: what is
        // still queued is dropped.
        let Some(shared) = shared.upgrade() else {
            return;
        };
        // Nothing valid or invalid behind this lock: poison is no news.
        let _building = shared.building.lock().unwrap_or_else(|e| e.into_inner());
        if shared.builds_called_off.load(Ordering::SeqCst) {
            return;
        }
        shared.build_native(&plan);
        shared.count("spld.native.builds_finished");
    }
}

/// The daemon's shared plan store. All methods take `&self`; internal
/// state is mutex-guarded, and the expensive steps (compiles) happen
/// outside any lock held by executions.
pub struct PlanStore {
    shared: Arc<Shared>,
    /// Preferred factorizations by size, from wisdom.
    trees: Mutex<HashMap<usize, FftTree>>,
    plans: Mutex<HashMap<usize, Arc<PlanEntry>>>,
    /// The way to the builder thread, which the first queued build
    /// spawns. The thread is detached and holds the store's state
    /// weakly: nobody joins it, and builds still queued when the store
    /// is dropped are dropped with it.
    builds: Mutex<Option<mpsc::Sender<Arc<PlanEntry>>>>,
}

impl PlanStore {
    /// Opens the store and, with a state directory, its on-disk kernel
    /// cache. No plan exists until a size is first asked for.
    ///
    /// # Errors
    ///
    /// Fails on state-directory I/O errors.
    pub fn new(opts: PlanStoreOptions) -> Result<PlanStore, ServeError> {
        let kernels = match &opts.state_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| {
                    ServeError::Internal(format!("creating {}: {e}", dir.display()))
                })?;
                KernelCache::with_dir(&dir.join("kernels"))
                    .map_err(|e| ServeError::Internal(format!("kernel cache: {e}")))?
            }
            None => KernelCache::none(),
        };
        Ok(PlanStore {
            shared: Arc::new(Shared {
                opts,
                kernels,
                tel: Mutex::new(Telemetry::new()),
                building: Mutex::new(()),
                builds_called_off: AtomicBool::new(false),
            }),
            trees: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            builds: Mutex::new(None),
        })
    }

    /// Loads wisdom text (`spl_search::wisdom_to_string` format):
    /// subsequent plans for those sizes use the searched factorization
    /// instead of the default radix-2 split. Returns how many sizes
    /// were loaded.
    ///
    /// # Errors
    ///
    /// Propagates wisdom parse failures as [`ServeError::Unsupported`].
    pub fn load_wisdom(&self, text: &str) -> Result<usize, ServeError> {
        let results = wisdom_from_string(text)
            .map_err(|e| ServeError::Unsupported(format!("wisdom: {e}")))?;
        let mut trees = self.trees.lock().unwrap();
        let mut loaded = 0;
        for r in results {
            trees.insert(r.tree.size(), r.tree);
            loaded += 1;
        }
        self.shared
            .tel
            .lock()
            .unwrap()
            .add("spld.wisdom.sizes", loaded);
        Ok(loaded as usize)
    }

    /// The plan for size `n` without waiting for its native kernel:
    /// instantiated on first use with the VM tier alone,
    /// its native build queued on the store's builder thread. Requests
    /// are answered from the VM until the builder has promoted the
    /// kernel.
    ///
    /// # Errors
    ///
    /// [`ServeError::Unsupported`] for unservable sizes,
    /// [`ServeError::Compile`] when compilation fails.
    pub fn plan(&self, n: usize) -> Result<Arc<PlanEntry>, ServeError> {
        let (plan, fresh) = self.instantiate(n)?;
        if fresh && self.shared.opts.native {
            self.queue_build(&plan);
        }
        Ok(plan)
    }

    /// The warm plan for size `n`, instantiating it on first use:
    /// [`plan`](PlanStore::plan), and the native build done
    /// (or waited for, where the builder thread has it) before
    /// returning.
    ///
    /// # Errors
    ///
    /// As [`plan`](PlanStore::plan); a kernel that cannot be built or
    /// promoted is a degradation, not an error.
    pub fn entry(&self, n: usize) -> Result<Arc<PlanEntry>, ServeError> {
        let (plan, _) = self.instantiate(n)?;
        self.shared.build_native(&plan);
        Ok(plan)
    }

    /// The VM half of a plan, and whether this call is the one that
    /// inserted it.
    fn instantiate(&self, n: usize) -> Result<(Arc<PlanEntry>, bool), ServeError> {
        if let Some(plan) = self.plans.lock().unwrap().get(&n) {
            return Ok((Arc::clone(plan), false));
        }
        let tree = self.tree_for(n)?;
        // Compile outside the plans lock: concurrent first requests for
        // the same size may both compile; the first insert wins and the
        // other's work is discarded.
        let unit = compile_unit_for_tree(&tree, self.shared.opts.unroll_threshold)
            .map_err(|e| ServeError::Compile(e.to_string()))?;
        let vm = lower(&unit.program).map_err(|e| ServeError::Compile(e.to_string()))?;
        let plan = Arc::new(PlanEntry {
            n,
            tree,
            vm: Arc::new(vm),
            vm_states: Mutex::default(),
            native: Mutex::new(NativeTier::Missing),
            unit: Mutex::new(self.shared.opts.native.then_some(unit)),
        });
        match self.plans.lock().unwrap().entry(n) {
            Entry::Occupied(winner) => return Ok((Arc::clone(winner.get()), false)),
            Entry::Vacant(slot) => slot.insert(Arc::clone(&plan)),
        };
        Ok((plan, true))
    }

    /// Hands `plan` to the builder thread, spawning it on first use.
    /// Builds run one at a time, in the order they were queued.
    fn queue_build(&self, plan: &Arc<PlanEntry>) {
        // An `Option` is valid whatever a panicking holder was doing.
        let mut builds = self.builds.lock().unwrap_or_else(|e| e.into_inner());
        let tx = builds.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel::<Arc<PlanEntry>>();
            let shared = Arc::downgrade(&self.shared);
            std::thread::spawn(move || build_queued(&rx, &shared));
            tx
        });
        self.count("spld.native.builds_queued");
        if tx.send(Arc::clone(plan)).is_err() {
            // The builder died (a panic in a build). This plan stays on
            // the VM; the next one spawns a new builder.
            *builds = None;
            self.count("spld.native.builds_finished");
        }
    }

    /// Calls off the builder thread's work, for a store about to go: a
    /// `cc` it is waiting for is killed (its `.c`/`.so` pair goes with
    /// the failed build), what is queued behind is dropped, and this
    /// returns once the thread is between builds — so that a process
    /// that exits next leaves nothing of a build in its `TMPDIR`. A
    /// build past its `cc` is waited for: the promotion run is bounded
    /// by a 10-second timeout.
    pub fn call_off_builds(&self) {
        // SeqCst: the builder reads the flag under `building`, or polls
        // it while it waits for `cc`; neither may see it late.
        self.shared.builds_called_off.store(true, Ordering::SeqCst);
        drop(
            self.shared
                .building
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
    }

    /// Executes one request through the degradation chain, from the
    /// caller's `x` into the caller's `y`: nothing is allocated for the
    /// samples, which is what lets a connection serve every request out
    /// of the same two buffers. `y` is bit-identical to the plan's VM
    /// output whichever tier the returned [`Tier`] names.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when `x` or `y` is not of the plan's
    /// input or output length (`y` is then untouched).
    pub fn run_single_into(
        &self,
        plan: &PlanEntry,
        x: &[f64],
        y: &mut [f64],
        chaos: Option<&ChaosInjector>,
    ) -> Result<Tier, ServeError> {
        if x.len() != plan.vm.n_in || y.len() != plan.vm.n_out {
            return Err(ServeError::Internal(format!(
                "input length {} and output length {} for plan n_in {} n_out {}",
                x.len(),
                y.len(),
                plan.vm.n_in,
                plan.vm.n_out
            )));
        }
        Ok(match self.try_native(plan, x, y, chaos) {
            Some(()) => Tier::Native,
            None => {
                plan.run_vm(x, y);
                Tier::Vm
            }
        })
    }

    /// [`run_single_into`](PlanStore::run_single_into) a fresh output
    /// vector: for callers that have no buffer to reuse.
    ///
    /// # Errors
    ///
    /// As `run_single_into`.
    pub fn run_single(
        &self,
        plan: &PlanEntry,
        x: &[f64],
        chaos: Option<&ChaosInjector>,
    ) -> Result<(Vec<f64>, Tier), ServeError> {
        let mut y = vec![0.0; plan.vm.n_out];
        let tier = self.run_single_into(plan, x, &mut y, chaos)?;
        Ok((y, tier))
    }

    /// Executes `m` same-size requests (`xs` = inputs back to back) one
    /// after another through [`run_single_into`](PlanStore::run_single_into),
    /// as the daemon runs `m` queued requests: the outputs back to back.
    /// `None` unless `m ≥ 2` and `xs` holds `m` inputs. Kept for the
    /// benchmark's per-layer row; the daemon does not call it.
    pub fn run_batched(&self, plan: &PlanEntry, m: usize, xs: &[f64]) -> Option<Vec<f64>> {
        let (n_in, n_out) = (plan.vm.n_in, plan.vm.n_out);
        if m < 2 || xs.len() != m * n_in {
            return None;
        }
        let mut ys = vec![0.0; m * n_out];
        for (x, y) in xs.chunks_exact(n_in).zip(ys.chunks_exact_mut(n_out)) {
            self.run_single_into(plan, x, y, None).ok()?;
        }
        Some(ys)
    }

    /// Takes the store's accumulated telemetry (its own counters merged
    /// with the kernel cache's), leaving both empty.
    pub fn drain_telemetry(&self) -> Telemetry {
        let mut tel = std::mem::take(&mut *self.shared.tel.lock().unwrap());
        tel.merge(&self.shared.kernels.drain_telemetry());
        tel
    }

    /// Number of instantiated plans.
    pub fn plan_count(&self) -> usize {
        self.plans.lock().unwrap().len()
    }

    fn count(&self, key: &str) {
        self.shared.count(key);
    }

    /// The factorization to serve size `n` with: wisdom first, then a
    /// default radix-2 rightmost split for powers of two.
    fn tree_for(&self, n: usize) -> Result<FftTree, ServeError> {
        if n < 2 || n > self.shared.opts.max_size {
            return Err(ServeError::Unsupported(format!(
                "size {n} out of range 2..={}",
                self.shared.opts.max_size
            )));
        }
        if let Some(tree) = self.trees.lock().unwrap().get(&n) {
            return Ok(tree.clone());
        }
        if !n.is_power_of_two() {
            return Err(ServeError::Unsupported(format!(
                "size {n} is not a power of two and no wisdom covers it"
            )));
        }
        let twos = vec![2usize; n.trailing_zeros() as usize];
        Ok(ct_sequence(&twos, Rule::CooleyTukey))
    }

    /// The native leg of the chain: `Some(())` when `y` was filled by a
    /// trusted kernel, `None` to fall through to the VM tier.
    fn try_native(
        &self,
        plan: &PlanEntry,
        x: &[f64],
        y: &mut [f64],
        chaos: Option<&ChaosInjector>,
    ) -> Option<()> {
        // Decide under the tier lock, run outside it.
        let kernel = match &*plan.native.lock().unwrap() {
            NativeTier::Trusted(k) => Arc::clone(k),
            _ => return None,
        };
        if let Some(injector) = chaos {
            if injector.kernel_fault() {
                // Simulated crash, reported before the kernel runs: the
                // request is recomputed on the VM tier from scratch.
                self.count("spld.chaos.kernel_faults");
                *plan.native.lock().unwrap() = NativeTier::Quarantined;
                self.shared.quarantine(&kernel);
                return None;
            }
        }
        kernel.with(|k| k.run(x, y));
        self.count("spld.tier.native");
        Some(())
    }
}

/// The deterministic input of the promotion run.
fn probe(len: usize) -> Vec<f64> {
    (0..len).map(|i| (i as f64 * 0.7311).sin()).collect()
}

/// Bit-for-bit equality: `==` would let `-0.0` pass for `0.0`.
fn same_bits(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Relative RMS tolerance for the demotion band (matches the search's
/// verification threshold scale).
fn within_tolerance(got: &[f64], want: &[f64]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let mut num = 0.0;
    let mut den = 0.0;
    for (g, w) in got.iter().zip(want) {
        num += (g - w) * (g - w);
        den += w * w;
    }
    if den == 0.0 {
        return num == 0.0;
    }
    (num / den).sqrt() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(dir: Option<&std::path::Path>, native: bool) -> PlanStore {
        PlanStore::new(PlanStoreOptions {
            state_dir: dir.map(std::path::Path::to_path_buf),
            native,
            ..Default::default()
        })
        .unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spl_plans_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn vm_tier_serves_without_native() {
        let s = store(None, false);
        let plan = s.entry(8).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64).cos()).collect();
        let (y, tier) = s.run_single(&plan, &x, None).unwrap();
        assert_eq!(tier, Tier::Vm);
        let mut want = vec![0.0; 16];
        plan.run_vm(&x, &mut want);
        assert_eq!(y, want);
    }

    #[test]
    fn unsupported_sizes_are_typed() {
        let s = store(None, false);
        assert!(matches!(s.entry(0), Err(ServeError::Unsupported(_))));
        assert!(matches!(s.entry(12), Err(ServeError::Unsupported(_))));
        assert!(matches!(s.entry(1 << 30), Err(ServeError::Unsupported(_))));
    }

    #[test]
    fn batched_dispatch_is_bit_identical_to_singles() {
        let s = store(None, false);
        let plan = s.entry(4).unwrap();
        let m = 3;
        let xs: Vec<f64> = (0..m * 8).map(|i| (i as f64 * 0.9).sin()).collect();
        let ys = s.run_batched(&plan, m, &xs).unwrap();
        assert_eq!(ys.len(), m * 8);
        for (x, y) in xs.chunks_exact(8).zip(ys.chunks_exact(8)) {
            let (want, _) = s.run_single(&plan, x, None).unwrap();
            assert!(same_bits(y, &want));
        }
        assert!(s.run_batched(&plan, 1, &xs[..8]).is_none(), "m < 2");
        assert!(s.run_batched(&plan, m, &xs[1..]).is_none(), "m inputs");
    }

    #[test]
    fn injected_kernel_fault_degrades_to_vm_with_correct_answer() {
        use crate::chaos::{ChaosConfig, ChaosInjector};
        let dir = tmp("chaosfault");
        let s = store(Some(&dir), true);
        let plan = s.entry(4).unwrap();
        let chaos = ChaosInjector::new(ChaosConfig {
            p_kernel_fault: 1.0,
            ..Default::default()
        });
        let x: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        let (y, tier) = s.run_single(&plan, &x, Some(&chaos)).unwrap();
        assert_eq!(tier, Tier::Vm, "fault must degrade to the VM tier");
        let mut want = vec![0.0; 8];
        plan.run_vm(&x, &mut want);
        assert_eq!(y, want, "degraded reply must still be exact");
        let tel = s.drain_telemetry();
        assert_eq!(tel.counter("spld.chaos.kernel_faults"), Some(1));
        assert_eq!(tel.counter("spld.quarantined"), Some(1));
        // Quarantine is sticky: the next run degrades silently.
        let (_, tier2) = s.run_single(&plan, &x, Some(&chaos)).unwrap();
        assert_eq!(tier2, Tier::Vm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Puts the test in the builder thread's place: queued builds wait
    /// in the returned receiver until the test runs them.
    fn hold_builds(s: &PlanStore) -> mpsc::Receiver<Arc<PlanEntry>> {
        let (tx, rx) = mpsc::channel();
        *s.builds.lock().unwrap() = Some(tx);
        rx
    }

    fn tier_name(plan: &PlanEntry) -> &'static str {
        match &*plan.native.lock().unwrap() {
            NativeTier::Missing => "missing",
            NativeTier::Trusted(_) => "trusted",
            NativeTier::Demoted => "demoted",
            NativeTier::Quarantined => "quarantined",
        }
    }

    fn wait_for_builds(s: &PlanStore, finished: u64) -> Telemetry {
        let mut tel = Telemetry::new();
        let deadline = Instant::now() + Duration::from_secs(120);
        while tel.counter("spld.native.builds_finished").unwrap_or(0) < finished {
            assert!(Instant::now() < deadline, "the builder never finished");
            std::thread::sleep(Duration::from_millis(5));
            tel.merge(&s.drain_telemetry());
        }
        tel
    }

    #[test]
    fn plan_returns_before_any_kernel_exists_and_entry_after() {
        let s = store(None, true);
        let queue = hold_builds(&s);
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).cos()).collect();
        let plan = s.plan(8).unwrap();
        assert_eq!(tier_name(&plan), "missing");
        let (vm_reply, tier) = s.run_single(&plan, &x, None).unwrap();
        assert_eq!(tier, Tier::Vm, "a cold size is answered from the VM");
        assert_eq!(queue.try_iter().count(), 1, "and its build is queued");

        let same = s.entry(8).unwrap();
        assert!(Arc::ptr_eq(&plan, &same));
        assert_eq!(tier_name(&plan), "trusted");
        let (native_reply, tier) = s.run_single(&plan, &x, None).unwrap();
        assert_eq!(tier, Tier::Native);
        assert_eq!(native_reply, vm_reply);
        let tel = s.drain_telemetry();
        assert_eq!(tel.counter("spld.native.builds_queued"), Some(1));
        assert_eq!(tel.counter("spld.native.promoted"), Some(1));
        assert!(tel.counter("spld.native.build_ms").is_some());
    }

    #[test]
    fn threads_racing_plan_on_one_cold_size_queue_one_build() {
        let s = store(None, true);
        let queue = hold_builds(&s);
        let barrier = std::sync::Barrier::new(8);
        let plans: Vec<Arc<PlanEntry>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        s.plan(16).unwrap()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(plans.iter().all(|p| Arc::ptr_eq(p, &plans[0])));
        assert_eq!(queue.try_iter().count(), 1);
        let tel = s.drain_telemetry();
        assert_eq!(tel.counter("spld.native.builds_queued"), Some(1));
    }

    #[test]
    fn a_settled_tier_is_never_overwritten_by_a_late_build() {
        let s = store(None, true);
        let queue = hold_builds(&s);
        let plan = s.plan(4).unwrap();
        // The verdict arrives before this build does.
        *plan.native.lock().unwrap() = NativeTier::Demoted;
        s.shared.build_native(&queue.try_recv().unwrap());
        let tel = s.drain_telemetry();
        assert_eq!(tel.counter("spld.native.promoted"), Some(1), "it did build");
        assert_eq!(tier_name(&plan), "demoted");
        // And a plan is built once: there is nothing left to build from.
        s.shared.build_native(&plan);
        assert_eq!(s.drain_telemetry().counter("spld.native.promoted"), None);
        let x: Vec<f64> = (0..8).map(|i| (i as f64).sin()).collect();
        assert_eq!(s.run_single(&plan, &x, None).unwrap().1, Tier::Vm);
    }

    #[test]
    fn entry_beside_the_builder_is_harmless() {
        let dir = tmp("beside");
        let s = store(Some(&dir), true);
        s.plan(32).unwrap(); // the real builder thread has it
        let plan = s.entry(32).unwrap(); // builds it, or waits for the builder
        assert_eq!(tier_name(&plan), "trusted");
        let tel = wait_for_builds(&s, 1);
        assert_eq!(tel.counter("spld.native.builds_queued"), Some(1));
        assert_eq!(tel.counter("spld.native.builds_finished"), Some(1));
        assert_eq!(tel.counter("spld.native.promoted"), Some(1));
        assert_eq!(tel.counter("native.cc_invocations"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builds_still_queued_when_the_store_goes_are_dropped() {
        let s = store(None, true);
        let queue = hold_builds(&s);
        let plans = [s.plan(4).unwrap(), s.plan(8).unwrap()];
        let shared = Arc::downgrade(&s.shared);
        drop(s);
        build_queued(&queue, &shared); // returns: no sender, no store
        assert!(plans.iter().all(|p| tier_name(p) == "missing"));
    }

    #[test]
    fn without_native_serving_nothing_is_queued() {
        let s = store(None, false);
        s.plan(8).unwrap();
        assert!(s.builds.lock().unwrap().is_none(), "no builder thread");
        assert_eq!(
            s.drain_telemetry().counter("spld.native.builds_queued"),
            None
        );
    }

    #[test]
    fn a_state_directory_from_before_the_kernel_cache_stood_alone_still_opens() {
        // Earlier stores also kept a CRC-framed plan log beside the
        // kernels: one valid record (size 8 as (ct 4 2), not today's
        // radix-2 default) and a torn tail.
        let dir = tmp("parentera");
        std::fs::create_dir_all(&dir).unwrap();
        let old_log = dir.join("plans.journal");
        let record = "plan 8 (ct 4 2)";
        let crc = spl_resilience::crc32::crc32(record.as_bytes());
        let bytes = format!("splj1 {crc:08x} {record}\nsplj1 0000");
        std::fs::write(&old_log, &bytes).unwrap();

        let s = store(Some(&dir), false);
        assert_eq!(s.plan_count(), 0, "nothing is replayed");
        let plan = s.entry(8).unwrap();
        assert_eq!(plan.tree.to_spec(), "(ct 2 (ct 2 2))", "today's tree");
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.4).cos()).collect();
        let (y, tier) = s.run_single(&plan, &x, None).unwrap();
        assert_eq!(tier, Tier::Vm);
        let reference = store(None, false);
        let (want, _) = reference
            .run_single(&reference.entry(8).unwrap(), &x, None)
            .unwrap();
        assert!(same_bits(&y, &want));
        drop(s);
        assert_eq!(
            std::fs::read_to_string(&old_log).unwrap(),
            bytes,
            "untouched"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wisdom_overrides_default_tree() {
        let s = store(None, false);
        // A wisdom file preferring a (ct 4 4) split for size 16.
        let tree = FftTree::node(Rule::CooleyTukey, FftTree::leaf(4), FftTree::leaf(4));
        let wisdom = spl_search::wisdom_to_string(&[spl_search::Plan {
            tree: tree.clone(),
            cost: 1.0,
        }]);
        assert_eq!(s.load_wisdom(&wisdom).unwrap(), 1);
        let plan = s.entry(16).unwrap();
        assert_eq!(plan.tree.to_spec(), tree.to_spec());
    }
}
