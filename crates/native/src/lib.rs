#![warn(missing_docs)]

//! Native execution of generated C code — the paper's own methodology,
//! hardened for unattended searches.
//!
//! The paper evaluates the SPL compiler by feeding its output to the
//! platform's native compiler and timing the resulting machine code.
//! This crate does exactly that on the host: a [`CompiledUnit`]'s C
//! output is written to a temporary file, compiled with the system C
//! compiler (`cc -O2 -ffp-contract=off -shared -fPIC` plus the host's
//! widest FMA-free vector ISA, `-mavx2 -mno-fma` where the CPU has it —
//! the [`target`] module derives the line and explains why it is never
//! `-march=native`), loaded with `dlopen`, and invoked
//! through its `void name(double *restrict y, const double *restrict x)`
//! entry point. `cc` is handed code, not data: the twiddle tables are
//! declared in the text ([`TableMode::Loaded`]) and copied in from the
//! unit once the object is loaded, before the kernel can run.
//!
//! Because a timing search compiles and runs thousands of generated
//! kernels, every external step is fault-contained:
//!
//! * `cc` runs under a configurable wall-clock timeout with bounded
//!   retry + backoff ([`BuildOptions`]); a hung compiler is killed and
//!   reported as [`NativeError::CompileTimeout`]. A `cc` that rejects the
//!   ISA tokens is retried once at baseline and the process stays there.
//! * Temporary `.c`/`.so` artifacts are cleaned up on **every** path —
//!   success (on kernel drop), compile failure, load failure, timeout —
//!   via an RAII guard, and `cc` diagnostics are truncated to a sane
//!   length before entering error values.
//! * Loaded kernels can be executed and timed in a forked child process
//!   ([`NativeKernel::run_sandboxed`], [`NativeKernel::measure_sandboxed`])
//!   so a SIGSEGV or infinite loop in generated code is contained and
//!   classified ([`NativeError::Crashed`] / [`NativeError::Timeout`])
//!   instead of killing the search.
//!
//! The `spl-vm` interpreter remains available as a portable fallback and
//! as the deterministic substrate for unit tests; benchmarks prefer this
//! native path so that the comparison against the (natively compiled)
//! FFTW-like baseline is apples-to-apples.
//!
//! # Examples
//!
//! ```
//! use spl_compiler::Compiler;
//! use spl_native::NativeKernel;
//!
//! let mut c = Compiler::new();
//! let unit = c.compile_formula_str("(F 2)").unwrap();
//! let kernel = NativeKernel::compile(&unit).unwrap();
//! let x = [1.0, 0.0, 2.0, 0.0]; // (1, 2) as interleaved complex
//! let mut y = [0.0; 4];
//! kernel.run(&x, &mut y);
//! assert_eq!(y, [3.0, 0.0, -1.0, 0.0]);
//! ```

use std::error::Error;
use std::ffi::{c_char, c_int, c_void, CString};
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use spl_compiler::{codegen, CodegenOptions, TableMode};
use spl_frontend::ast::{DataType, Language};
use spl_resilience::command::CommandError;
use spl_resilience::{run_command_unless, run_isolated, RetryPolicy, SandboxError};

pub mod cache;
pub mod target;

pub use cache::{CacheOutcome, KernelCache};
/// What every kernel here is built from, for callers that keep one until
/// its build (spld's background builder) without depending on the
/// compiler crate themselves.
pub use spl_compiler::CompiledUnit;
pub use target::{cc_command_line, isa_tokens, CcTarget};

extern "C" {
    fn dlopen(filename: *const c_char, flag: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
}

const RTLD_NOW: c_int = 2;

/// The entry-point symbol used by [`NativeKernel::compile_cached`].
/// Cached objects share one canonical name so byte-identical kernels
/// from differently named units still hit; `dlopen`'s default local
/// binding keeps the identically named symbols of concurrently loaded
/// kernels isolated per handle.
const CACHED_SYMBOL: &str = "spl_kernel";

/// Longest `cc` stderr excerpt kept in an error value; full compiler
/// diagnostics for machine-generated code can run to megabytes.
const MAX_STDERR_CHARS: usize = 2000;

/// An error from native compilation, loading, or sandboxed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NativeError {
    /// The unit cannot be emitted as C (complex-typed code).
    Unsupported(String),
    /// Filesystem trouble around the temporary artifacts.
    Io(String),
    /// The host C compiler reported errors (stderr excerpt attached).
    CompileFailed(String),
    /// The host C compiler exceeded its time budget and was killed.
    CompileTimeout(String),
    /// `dlopen`/`dlsym` failed on the built object.
    LoadFailed(String),
    /// The kernel crashed (died on a signal) in its sandbox.
    Crashed(String),
    /// The kernel exceeded its execution time budget and was killed.
    Timeout(String),
    /// Sandbox plumbing failed (fork/pipe trouble, short payload).
    Protocol(String),
}

impl NativeError {
    /// A short machine-readable kind, used for telemetry counters.
    pub fn kind(&self) -> &'static str {
        match self {
            NativeError::Unsupported(_) => "unsupported",
            NativeError::Io(_) => "io",
            NativeError::CompileFailed(_) => "compile_failed",
            NativeError::CompileTimeout(_) => "compile_timeout",
            NativeError::LoadFailed(_) => "load_failed",
            NativeError::Crashed(_) => "crashed",
            NativeError::Timeout(_) => "timeout",
            NativeError::Protocol(_) => "protocol",
        }
    }
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tag, msg) = match self {
            NativeError::Unsupported(m) => ("unsupported", m),
            NativeError::Io(m) => ("i/o", m),
            NativeError::CompileFailed(m) => ("cc failed", m),
            NativeError::CompileTimeout(m) => ("cc timed out", m),
            NativeError::LoadFailed(m) => ("load failed", m),
            NativeError::Crashed(m) => ("kernel crashed", m),
            NativeError::Timeout(m) => ("kernel timed out", m),
            NativeError::Protocol(m) => ("sandbox", m),
        };
        write!(f, "native execution: {tag}: {msg}")
    }
}

impl Error for NativeError {}

/// How to run the host C compiler.
#[derive(Debug, Clone)]
pub struct BuildOptions {
    /// Wall-clock budget for one `cc` invocation.
    pub cc_timeout: Duration,
    /// Retry policy for *transient* failures (spawn errors, timeouts).
    /// Deterministic compile errors are never retried.
    pub retry: RetryPolicy,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            cc_timeout: Duration::from_secs(60),
            retry: RetryPolicy {
                attempts: 2,
                base_delay: Duration::from_millis(100),
                max_delay: Duration::from_secs(1),
            },
        }
    }
}

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// The `called_off` of every build nobody can call off.
static NEVER: AtomicBool = AtomicBool::new(false);

/// Truncates `cc` stderr to a bounded, single-report excerpt.
fn clip_stderr(stderr: &[u8]) -> String {
    let s = String::from_utf8_lossy(stderr);
    let s = s.trim();
    if s.len() <= MAX_STDERR_CHARS {
        return s.to_string();
    }
    let mut cut = MAX_STDERR_CHARS;
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}... [{} bytes truncated]", &s[..cut], s.len() - cut)
}

/// RAII guard that deletes the temporary `.c`/`.so` pair on drop, so no
/// failure path — compile error, timeout, load failure, panic — can
/// leak artifacts into the shared temp directory. A successful
/// [`TempArtifacts::load`] hands the files to the [`Loaded`] object.
struct TempArtifacts {
    c_path: PathBuf,
    so_path: PathBuf,
    armed: bool,
}

impl TempArtifacts {
    fn new(dir: &Path, stem: &str) -> TempArtifacts {
        TempArtifacts {
            c_path: dir.join(format!("{stem}.c")),
            so_path: dir.join(format!("{stem}.so")),
            armed: true,
        }
    }

    /// `dlopen`s the `.so` and resolves `name` in it.
    fn load(mut self, name: &str) -> Result<Loaded, NativeError> {
        let so_c = CString::new(self.so_path.to_string_lossy().as_bytes())
            .map_err(|_| NativeError::Io("bad path".into()))?;
        let name_c =
            CString::new(name.as_bytes()).map_err(|_| NativeError::Io("bad name".into()))?;
        // SAFETY: loading an object this crate built (directly or via the
        // kernel cache); symbol looked up by name.
        let (handle, sym) = unsafe {
            let handle = dlopen(so_c.as_ptr(), RTLD_NOW);
            if handle.is_null() {
                return Err(NativeError::LoadFailed(format!(
                    "dlopen {} failed",
                    self.so_path.display()
                )));
            }
            let sym = dlsym(handle, name_c.as_ptr());
            if sym.is_null() {
                dlclose(handle);
                return Err(NativeError::LoadFailed(format!("symbol {name} not found")));
            }
            (handle, sym)
        };
        self.armed = false;
        Ok(Loaded {
            handle,
            sym,
            so_path: std::mem::take(&mut self.so_path),
            c_path: std::mem::take(&mut self.c_path),
        })
    }
}

impl Drop for TempArtifacts {
    fn drop(&mut self) {
        if self.armed {
            let _ = std::fs::remove_file(&self.c_path);
            let _ = std::fs::remove_file(&self.so_path);
        }
    }
}

/// A `dlopen`ed object, the entry symbol resolved in it, and the temp
/// files behind it. Dropping it unloads the object and removes them.
struct Loaded {
    handle: *mut c_void,
    sym: *mut c_void,
    so_path: PathBuf,
    c_path: PathBuf,
}

impl Drop for Loaded {
    fn drop(&mut self) {
        // SAFETY: handle came from a successful dlopen and is unloaded
        // exactly once.
        unsafe {
            dlclose(self.handle);
        }
        let _ = std::fs::remove_file(&self.so_path);
        let _ = std::fs::remove_file(&self.c_path);
    }
}

/// The C text of `unit` with entry point `name` — the one emit behind
/// every build path. Tables are declared, not initialised: the loaded
/// object gets their values from [`fill_tables`].
fn c_source(unit: &CompiledUnit, name: &str, io_params: bool) -> Result<String, NativeError> {
    if unit.program.complex {
        return Err(NativeError::Unsupported(
            "C output requires real-typed code (set #codetype real)".into(),
        ));
    }
    Ok(codegen::emit(
        name,
        &unit.program,
        &CodegenOptions {
            language: Language::C,
            codetype: DataType::Real,
            peephole: false,
            io_params,
            tables: TableMode::Loaded,
        },
    ))
}

/// Gives a freshly loaded object, built from `c_source(unit, name, _)`,
/// its unit's table values: one call of the `<name>_tables` entry point
/// that text has when the unit has tables at all.
fn fill_tables(lib: &Loaded, name: &str, unit: &CompiledUnit) -> Result<(), NativeError> {
    if unit.program.tables.is_empty() {
        return Ok(());
    }
    let values = codegen::table_values(&unit.program);
    let filler = format!("{name}_tables");
    let filler_c =
        CString::new(filler.as_bytes()).map_err(|_| NativeError::Io("bad name".into()))?;
    // SAFETY: the handle is a live `dlopen` of an object built from
    // `c_source(unit, name, _)`, whose emitter gives `<name>_tables` the
    // C ABI signature `void (const double *)` and has it read exactly
    // the words of `table_values` — one slice per table, in
    // `IProgram::tables` order — into statics private to this handle.
    // Nothing else can be inside the object yet: its entry point leaves
    // this module only in the kernel the caller builds after this.
    //
    // That is also what keeps the kernel-cache key at "C text + build
    // options + `cc` line": an object is a pure function of its text,
    // every load goes through a temp `.so` of its own (own handle, own
    // statics) and is filled from its own unit here, so two units whose
    // text differs only in table *values* share one `cc` run and still
    // each compute with their own tables.
    unsafe {
        let sym = dlsym(lib.handle, filler_c.as_ptr());
        if sym.is_null() {
            return Err(NativeError::LoadFailed(format!(
                "symbol {filler} not found"
            )));
        }
        let fill: extern "C" fn(*const f64) = std::mem::transmute(sym);
        fill(values.as_ptr());
    }
    Ok(())
}

/// A natively compiled, loaded SPL subroutine.
///
/// Dropping the kernel unloads the shared object and removes its
/// temporary files.
pub struct NativeKernel {
    entry: extern "C" fn(*mut f64, *const f64),
    /// Input length in `f64` words.
    pub n_in: usize,
    /// Output length in `f64` words.
    pub n_out: usize,
    lib: Loaded,
}

impl fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeKernel")
            .field("n_in", &self.n_in)
            .field("n_out", &self.n_out)
            .field("so_path", &self.lib.so_path)
            .finish()
    }
}

impl NativeKernel {
    /// Emits C for the unit, compiles it with the host `cc` under the
    /// default [`BuildOptions`], and loads the resulting shared object.
    ///
    /// # Errors
    ///
    /// Fails when the unit is complex-typed (C output requires real
    /// code), when `cc` is unavailable, errors, or times out, or when
    /// the object cannot be loaded.
    pub fn compile(unit: &CompiledUnit) -> Result<NativeKernel, NativeError> {
        Self::compile_with(unit, &BuildOptions::default())
    }

    /// [`NativeKernel::compile`] with explicit compiler-run options.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`NativeKernel::compile`].
    pub fn compile_with(
        unit: &CompiledUnit,
        opts: &BuildOptions,
    ) -> Result<NativeKernel, NativeError> {
        Self::compile_for(unit, opts, CcTarget::host())
    }

    /// [`NativeKernel::compile_with`] for an explicit target line
    /// (tests of the ISA fallback; everything else builds for the host).
    #[doc(hidden)]
    pub fn compile_for(
        unit: &CompiledUnit,
        opts: &BuildOptions,
        target: &CcTarget,
    ) -> Result<NativeKernel, NativeError> {
        let name = sanitize(&unit.name);
        let c_src = c_source(unit, &name, false)?;
        let lib = build_and_load(&std::env::temp_dir(), &name, &c_src, opts, target, &NEVER)?;
        Self::from_loaded(lib, &name, unit)
    }

    /// [`NativeKernel::compile_with`] through a content-addressed
    /// [`KernelCache`]: the emitted C (with a canonical entry-point
    /// name) is hashed together with the build options and the `cc`
    /// command line, and a hit loads the previously built shared object
    /// instead of invoking `cc`. Returns the kernel plus where it came
    /// from ([`CacheOutcome`]).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`NativeKernel::compile`]; a corrupt
    /// disk-cache entry is discarded and recompiled, never an error.
    pub fn compile_cached(
        unit: &CompiledUnit,
        opts: &BuildOptions,
        cache: &KernelCache,
    ) -> Result<(NativeKernel, CacheOutcome), NativeError> {
        Self::compile_cached_unless(unit, opts, cache, &NEVER)
    }

    /// [`NativeKernel::compile_cached`] for a caller that may stop
    /// wanting the kernel (a daemon asked to drain): once `called_off`
    /// reads true, a `cc` this call is waiting for is killed, none is
    /// started, and the call returns [`NativeError::CompileTimeout`]
    /// with its temporary files removed like after any failed build.
    ///
    /// # Errors
    ///
    /// As [`NativeKernel::compile_cached`].
    pub fn compile_cached_unless(
        unit: &CompiledUnit,
        opts: &BuildOptions,
        cache: &KernelCache,
        called_off: &AtomicBool,
    ) -> Result<(NativeKernel, CacheOutcome), NativeError> {
        let c_src = c_source(unit, CACHED_SYMBOL, false)?;
        let target = CcTarget::host();
        let line = target.command_line();
        let mut key = KernelCache::key_for(&c_src, opts, line);
        if let Some((bytes, outcome)) = cache.lookup(&key) {
            // The bytes go to a fresh uniquely named temp `.so` (dlopen
            // works on files) and load like a freshly built object.
            let tmp = TempArtifacts::new(&std::env::temp_dir(), &fresh_stem());
            std::fs::write(&tmp.so_path, bytes.as_slice())
                .map_err(|e| NativeError::Io(format!("writing {}: {e}", tmp.so_path.display())))?;
            let kernel = Self::from_loaded(tmp.load(CACHED_SYMBOL)?, CACHED_SYMBOL, unit)?;
            return Ok((kernel, outcome));
        }
        let table_words: usize = unit.program.tables.iter().map(Vec::len).sum();
        cache.count_cc_invocation(c_src.len(), table_words * std::mem::size_of::<f64>());
        let tmp_dir = std::env::temp_dir();
        let lib = build_and_load(&tmp_dir, CACHED_SYMBOL, &c_src, opts, target, called_off)?;
        if target.command_line() != line {
            // This build fell back to baseline: file it under the line
            // that produced it.
            key = KernelCache::key_for(&c_src, opts, target.command_line());
        }
        if let Ok(bytes) = std::fs::read(&lib.so_path) {
            cache.insert(&key, bytes);
        }
        let kernel = Self::from_loaded(lib, CACHED_SYMBOL, unit)?;
        Ok((kernel, CacheOutcome::Miss))
    }

    /// The [`KernelCache`] key [`NativeKernel::compile_cached`] uses for
    /// `unit` under `opts` — for callers that must quarantine
    /// ([`KernelCache::evict`]) a kernel whose *output* was found wrong
    /// after compilation, which the input-addressed key cannot detect.
    ///
    /// # Errors
    ///
    /// Fails like `compile_cached` on complex-typed units.
    pub fn cache_key(unit: &CompiledUnit, opts: &BuildOptions) -> Result<String, NativeError> {
        c_source(unit, CACHED_SYMBOL, false).map(|c_src| KernelCache::key(&c_src, opts))
    }

    /// The one place a resolved symbol becomes a callable entry point,
    /// with its tables filled first: no kernel exists without them.
    fn from_loaded(
        lib: Loaded,
        name: &str,
        unit: &CompiledUnit,
    ) -> Result<NativeKernel, NativeError> {
        fill_tables(&lib, name, unit)?;
        // SAFETY: every object reaching here was built — just now, or
        // earlier into the kernel cache, whose key covers the C text —
        // from `c_source(unit, name, false)`, and the emitter gives that
        // entry point the C ABI signature
        // `void name(double *restrict y, const double *restrict x)`.
        let entry: extern "C" fn(*mut f64, *const f64) = unsafe { std::mem::transmute(lib.sym) };
        Ok(NativeKernel {
            entry,
            n_in: unit.program.n_in,
            n_out: unit.program.n_out,
            lib,
        })
    }

    /// Runs the kernel: `y = f(x)`.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match `n_in`/`n_out`.
    pub fn run(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_in, "input length mismatch");
        assert_eq!(y.len(), self.n_out, "output length mismatch");
        (self.entry)(y.as_mut_ptr(), x.as_ptr());
    }

    /// Runs the kernel in a forked child under `timeout`: a crash or
    /// hang in the generated code is contained and classified instead
    /// of taking the process down. All buffers are allocated before the
    /// fork; the child only executes the kernel entry point.
    ///
    /// # Errors
    ///
    /// [`NativeError::Crashed`], [`NativeError::Timeout`], or
    /// [`NativeError::Protocol`]; falls back to in-process execution on
    /// platforms without fork.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match `n_in`/`n_out`.
    pub fn run_sandboxed(
        &self,
        x: &[f64],
        y: &mut [f64],
        timeout: Duration,
    ) -> Result<(), NativeError> {
        assert_eq!(x.len(), self.n_in, "input length mismatch");
        assert_eq!(y.len(), self.n_out, "output length mismatch");
        let entry = self.entry;
        match run_isolated(timeout, y, |out| {
            entry(out.as_mut_ptr(), x.as_ptr());
        }) {
            Ok(()) => Ok(()),
            Err(SandboxError::Unsupported) => {
                // No fork on this platform: run in-process (the paper's
                // original behavior) rather than failing outright.
                self.run(x, y);
                Ok(())
            }
            Err(e) => Err(sandbox_to_native(e)),
        }
    }

    /// Adaptive timing: seconds per call, measured over at least
    /// `min_time` of repetitions on a deterministic workload.
    pub fn measure(&self, min_time: Duration) -> f64 {
        let x: Vec<f64> = (0..self.n_in)
            .map(|i| ((i as f64) * 0.7311).sin())
            .collect();
        let mut y = vec![0.0f64; self.n_out];
        spl_numeric::metrics::time_adaptive(min_time, || self.run(&x, &mut y))
    }

    /// [`NativeKernel::measure`] in a forked child under `timeout`:
    /// returns seconds per call, or a contained, classified failure if
    /// the generated code crashes or hangs. Buffers are allocated
    /// before the fork.
    ///
    /// # Errors
    ///
    /// [`NativeError::Crashed`], [`NativeError::Timeout`], or
    /// [`NativeError::Protocol`]; falls back to in-process measurement
    /// on platforms without fork.
    pub fn measure_sandboxed(
        &self,
        min_time: Duration,
        timeout: Duration,
    ) -> Result<f64, NativeError> {
        let x: Vec<f64> = (0..self.n_in)
            .map(|i| ((i as f64) * 0.7311).sin())
            .collect();
        let mut y = vec![0.0f64; self.n_out];
        let mut result = [0.0f64; 1];
        let entry = self.entry;
        // Bound the repetition count so the in-child timing loop cannot
        // outlive the parent's deadline by adaptive over-calibration.
        let cap = 1u64 << 22;
        match run_isolated(timeout, &mut result, |out| {
            out[0] = spl_numeric::metrics::time_adaptive_capped(min_time, cap, || {
                entry(y.as_mut_ptr(), x.as_ptr());
            });
        }) {
            Ok(()) => Ok(result[0]),
            Err(SandboxError::Unsupported) => Ok(self.measure(min_time)),
            Err(e) => Err(sandbox_to_native(e)),
        }
    }
}

fn sandbox_to_native(e: SandboxError) -> NativeError {
    match e {
        SandboxError::Crashed { signal } => {
            NativeError::Crashed(format!("generated kernel died on signal {signal}"))
        }
        SandboxError::TimedOut { timeout } => NativeError::Timeout(format!(
            "generated kernel exceeded {:.1}s",
            timeout.as_secs_f64()
        )),
        SandboxError::ChildFailed { code } => {
            NativeError::Protocol(format!("sandbox child exited with code {code}"))
        }
        SandboxError::Protocol(m) => NativeError::Protocol(m),
        SandboxError::Unsupported => NativeError::Protocol("sandbox unsupported".into()),
    }
}

/// A natively compiled subroutine with the paper's Section 3.5
/// offset/stride parameters:
/// `void name(double *restrict y, const double *restrict x, long yofs,
/// long xofs, long ystr, long xstr)`, strides and offsets counted in *logical
/// elements* of the generated code (real words for real-typed code).
pub struct NativeIoKernel {
    entry: extern "C" fn(*mut f64, *const f64, i64, i64, i64, i64),
    /// Logical input length (number of strided elements consumed).
    pub n_in: usize,
    /// Logical output length.
    pub n_out: usize,
    _lib: Loaded,
}

impl fmt::Debug for NativeIoKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeIoKernel")
            .field("n_in", &self.n_in)
            .field("n_out", &self.n_out)
            .finish()
    }
}

impl NativeIoKernel {
    /// Emits C with `io_params` enabled, compiles, and loads it.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`NativeKernel::compile`].
    pub fn compile(unit: &CompiledUnit) -> Result<NativeIoKernel, NativeError> {
        Self::compile_with(unit, &BuildOptions::default())
    }

    /// [`NativeIoKernel::compile`] with explicit compiler-run options.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`NativeKernel::compile`].
    pub fn compile_with(
        unit: &CompiledUnit,
        opts: &BuildOptions,
    ) -> Result<NativeIoKernel, NativeError> {
        let name = sanitize(&unit.name);
        let c_src = c_source(unit, &name, true)?;
        let tmp_dir = std::env::temp_dir();
        let lib = build_and_load(&tmp_dir, &name, &c_src, opts, CcTarget::host(), &NEVER)?;
        fill_tables(&lib, &name, unit)?;
        // SAFETY: the symbol was emitted with exactly this C signature;
        // its `long` parameters are `i64` on every 64-bit Linux target
        // this crate's dlopen path supports (LP64).
        let entry: extern "C" fn(*mut f64, *const f64, i64, i64, i64, i64) =
            unsafe { std::mem::transmute(lib.sym) };
        Ok(NativeIoKernel {
            entry,
            n_in: unit.program.n_in,
            n_out: unit.program.n_out,
            _lib: lib,
        })
    }

    /// Runs the kernel reading `x[xofs + xstr·k]` and writing
    /// `y[yofs + ystr·k]`.
    ///
    /// # Panics
    ///
    /// Panics if any strided access would fall outside the slices.
    pub fn run(
        &self,
        x: &[f64],
        y: &mut [f64],
        yofs: usize,
        xofs: usize,
        ystr: usize,
        xstr: usize,
    ) {
        let last = |ofs: usize, stride: usize, n: usize| {
            stride
                .checked_mul(n.saturating_sub(1))
                .and_then(|v| v.checked_add(ofs))
        };
        assert!(
            last(xofs, xstr, self.n_in).is_some_and(|v| v < x.len()),
            "strided input out of range"
        );
        assert!(
            last(yofs, ystr, self.n_out).is_some_and(|v| v < y.len()),
            "strided output out of range"
        );
        (self.entry)(
            y.as_mut_ptr(),
            x.as_ptr(),
            yofs as i64,
            xofs as i64,
            ystr as i64,
            xstr as i64,
        );
    }
}

/// Builds for `target`: with its ISA tokens, and when `cc` fails with
/// them, once more without. No probe compile tells a `cc` that knows
/// the tokens from one that does not — the first build finds out, and
/// only a baseline build that *succeeds* blames them: bad C fails both
/// times and downgrades nothing.
fn run_cc(
    c_path: &Path,
    so_path: &Path,
    opts: &BuildOptions,
    target: &CcTarget,
    called_off: &AtomicBool,
) -> Result<(), NativeError> {
    let isa = target.isa();
    match cc_once(c_path, so_path, opts, isa, called_off) {
        Err(NativeError::CompileFailed(_)) if !isa.is_empty() => {
            cc_once(c_path, so_path, opts, &[], called_off)?;
            target.downgrade();
            Ok(())
        }
        done => done,
    }
}

/// Runs `cc` on the written source under the timeout/retry policy.
/// Spawn failures and timeouts are retried with backoff (the machine
/// may be briefly overloaded); compile *errors* are deterministic and
/// fail immediately, and so does a build its caller called off.
fn cc_once(
    c_path: &Path,
    so_path: &Path,
    opts: &BuildOptions,
    isa: &[&str],
    called_off: &AtomicBool,
) -> Result<(), NativeError> {
    let attempts = opts.retry.attempts.max(1);
    let mut last: Option<NativeError> = None;
    for attempt in 0..attempts {
        let mut cmd = Command::new("cc");
        cmd.args(target::CC_FLAGS).args(isa);
        cmd.arg("-o").arg(so_path).arg(c_path);
        match run_command_unless(&mut cmd, opts.cc_timeout, called_off) {
            Ok(out) if out.status.success() => return Ok(()),
            Ok(out) => {
                // Deterministic diagnostic: retrying would reproduce it.
                return Err(NativeError::CompileFailed(clip_stderr(&out.stderr)));
            }
            Err(CommandError::CalledOff) => {
                return Err(NativeError::CompileTimeout(
                    "cc killed: the build was called off".into(),
                ));
            }
            Err(CommandError::TimedOut { timeout }) => {
                last = Some(NativeError::CompileTimeout(format!(
                    "cc exceeded {:.1}s (attempt {}/{attempts})",
                    timeout.as_secs_f64(),
                    attempt + 1
                )));
            }
            Err(e) => {
                last = Some(NativeError::Io(format!(
                    "running cc: {e} (attempt {}/{attempts})",
                    attempt + 1
                )));
            }
        }
        if attempt + 1 < attempts {
            let d = opts.retry.delay_after(attempt);
            if !d.is_zero() {
                std::thread::sleep(d);
            }
        }
    }
    Err(last.unwrap_or_else(|| NativeError::Io("cc never ran".into())))
}

/// Shared cc + dlopen plumbing, with the `.c`/`.so` pair placed in
/// `dir`. The temp artifacts are owned by an RAII guard until the very
/// end, so every early return cleans up.
fn build_and_load(
    dir: &Path,
    name: &str,
    c_src: &str,
    opts: &BuildOptions,
    target: &CcTarget,
    called_off: &AtomicBool,
) -> Result<Loaded, NativeError> {
    let tmp = TempArtifacts::new(dir, &fresh_stem());
    std::fs::write(&tmp.c_path, c_src)
        .map_err(|e| NativeError::Io(format!("writing {}: {e}", tmp.c_path.display())))?;
    run_cc(&tmp.c_path, &tmp.so_path, opts, target, called_off)?;
    tmp.load(name)
}

/// A collision-free temp-file stem: pid + counter + a timestamp
/// component keeps names unique across concurrent processes (and the
/// concurrent worker threads of one search) in the shared temp
/// directory.
fn fresh_stem() -> String {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nonce = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    format!("spl_native_{}_{}_{nonce}", std::process::id(), id)
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.is_empty() || s.chars().next().unwrap().is_ascii_digit() {
        s.insert(0, 's');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_compiler::{Compiler, CompilerOptions};
    use spl_numeric::{reference, Complex};

    fn kernel(src: &str, opts: CompilerOptions) -> NativeKernel {
        let mut c = Compiler::with_options(opts);
        let unit = c.compile_formula_str(src).unwrap();
        NativeKernel::compile(&unit).unwrap()
    }

    fn run_complex(k: &NativeKernel, x: &[Complex]) -> Vec<Complex> {
        let flat: Vec<f64> = x.iter().flat_map(|z| [z.re, z.im]).collect();
        let mut y = vec![0.0; k.n_out];
        k.run(&flat, &mut y);
        y.chunks(2).map(|p| Complex::new(p[0], p[1])).collect()
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect()
    }

    #[test]
    fn butterfly_runs_natively() {
        let k = kernel("(F 2)", CompilerOptions::default());
        let x = ramp(2);
        let y = run_complex(&k, &x);
        let want = reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-13));
        }
    }

    #[test]
    fn looped_fft_with_tables_runs_natively() {
        let src = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))";
        let k = kernel(src, CompilerOptions::default());
        let x = ramp(8);
        let y = run_complex(&k, &x);
        let want = reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn unrolled_fft_matches_vm() {
        let src = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
        let opts = CompilerOptions {
            unroll_threshold: Some(64),
            ..Default::default()
        };
        let mut c = Compiler::with_options(opts.clone());
        let unit = c.compile_formula_str(src).unwrap();
        let k = NativeKernel::compile(&unit).unwrap();
        let vm = spl_vm::lower(&unit.program).unwrap();
        let x: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).cos()).collect();
        let mut y_native = vec![0.0; 8];
        let mut y_vm = vec![0.0; 8];
        k.run(&x, &mut y_native);
        let mut st = spl_vm::VmState::new(&vm);
        vm.run(&x, &mut y_vm, &mut st);
        for (a, b) in y_native.iter().zip(&y_vm) {
            assert!((a - b).abs() < 1e-13, "native {a} vs vm {b}");
        }
    }

    #[test]
    fn measure_returns_positive_time() {
        let k = kernel("(F 4)", CompilerOptions::default());
        let t = k.measure(Duration::from_millis(3));
        assert!(t > 0.0);
    }

    #[test]
    fn sandboxed_run_matches_in_process() {
        let k = kernel("(F 4)", CompilerOptions::default());
        let x: Vec<f64> = (0..k.n_in).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y_direct = vec![0.0; k.n_out];
        let mut y_sandboxed = vec![0.0; k.n_out];
        k.run(&x, &mut y_direct);
        k.run_sandboxed(&x, &mut y_sandboxed, Duration::from_secs(30))
            .unwrap();
        assert_eq!(y_direct, y_sandboxed);
    }

    #[test]
    fn sandboxed_measure_returns_positive_time() {
        let k = kernel("(F 4)", CompilerOptions::default());
        let t = k
            .measure_sandboxed(Duration::from_millis(2), Duration::from_secs(30))
            .unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn complex_ir_rejected() {
        let mut c = Compiler::new();
        let units = c
            .compile_source("#datatype complex\n#codetype complex\n(F 2)")
            .unwrap();
        assert!(matches!(
            NativeKernel::compile(&units[0]),
            Err(NativeError::Unsupported(_))
        ));
    }

    #[test]
    fn compile_failure_cleans_temp_artifacts_and_clips_stderr() {
        // The emitter itself never produces bad C: hand the internal
        // plumbing some. Its artifacts go to a directory of the test's
        // own, so that other tests' kernels coming and going in the
        // shared temp directory are not counted.
        let dir = artifact_dir("broken");
        let err = build_and_load(
            &dir,
            "broken",
            "void broken(double *y, const double *x) { this is not C; }",
            &BuildOptions::default(),
            CcTarget::host(),
            &NEVER,
        )
        .err()
        .unwrap();
        match &err {
            NativeError::CompileFailed(msg) => {
                assert!(msg.len() <= MAX_STDERR_CHARS + 64, "stderr not clipped");
                assert!(!msg.is_empty());
            }
            other => panic!("expected CompileFailed, got {other:?}"),
        }
        assert_eq!(
            leftovers(&dir),
            Vec::<String>::new(),
            "temp artifacts leaked"
        );
    }

    #[test]
    fn cc_timeout_is_classified_and_cleaned_up() {
        // A 0-budget build can never finish: the runner must kill cc,
        // classify the failure, and leave no artifacts behind.
        let dir = artifact_dir("slowbuild");
        let opts = BuildOptions {
            cc_timeout: Duration::from_millis(0),
            retry: RetryPolicy::none(),
        };
        let err = build_and_load(
            &dir,
            "slowbuild",
            "void slowbuild(double *y, const double *x) { y[0] = x[0]; }",
            &opts,
            CcTarget::host(),
            &NEVER,
        )
        .err()
        .unwrap();
        assert!(matches!(err, NativeError::CompileTimeout(_)), "got {err:?}");
        assert_eq!(
            leftovers(&dir),
            Vec::<String>::new(),
            "temp artifacts leaked"
        );
    }

    #[test]
    fn a_called_off_build_starts_no_cc_and_cleans_up() {
        let dir = artifact_dir("calledoff");
        let err = build_and_load(
            &dir,
            "calledoff",
            "void calledoff(double *y, const double *x) { y[0] = x[0]; }",
            &BuildOptions::default(),
            CcTarget::host(),
            &AtomicBool::new(true),
        )
        .err()
        .unwrap();
        assert!(matches!(err, NativeError::CompileTimeout(_)), "got {err:?}");
        assert_eq!(
            leftovers(&dir),
            Vec::<String>::new(),
            "temp artifacts leaked"
        );
    }

    /// An empty directory for one test's `.c`/`.so` pairs.
    fn artifact_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spl_native_test_{}_{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// What is left in `dir`, which is then removed.
    fn leftovers(dir: &Path) -> Vec<String> {
        let names = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let _ = std::fs::remove_dir_all(dir);
        names
    }

    #[test]
    fn clip_stderr_bounds_length() {
        let long = "e".repeat(100_000);
        let clipped = clip_stderr(long.as_bytes());
        assert!(clipped.len() < MAX_STDERR_CHARS + 64);
        assert!(clipped.contains("truncated"));
        assert_eq!(clip_stderr(b"short"), "short");
    }

    #[test]
    fn io_kernel_runs_with_strides_and_offsets() {
        // Run the F2 butterfly on every other complex element of a
        // larger buffer, writing to an offset strided region — the paper's
        // "computation performed on vector elements that are not
        // consecutive" (Section 3.5).
        let mut c = Compiler::new();
        let unit = c.compile_formula_str("(F 2)").unwrap();
        let k = NativeIoKernel::compile(&unit).unwrap();
        assert_eq!(k.n_in, 4); // 2 complex points = 4 real words
                               // Input x embedded at real-word stride 2 starting at word 1:
                               // logical elements x[1], x[3], x[5], x[7].
        let x = [0.0, 3.0, 0.0, 0.5, 0.0, 5.0, 0.0, -1.5];
        let mut y = vec![0.0; 16];
        // Output at word stride 3 starting at word 2.
        k.run(&x, &mut y, 2, 1, 3, 2);
        // (3+0.5i) and (5-1.5i): sum = 8-1i, diff = -2+2i
        assert_eq!(y[2], 8.0);
        assert_eq!(y[5], -1.0);
        assert_eq!(y[8], -2.0);
        assert_eq!(y[11], 2.0);
        // Untouched slots stay zero.
        assert_eq!(y[0], 0.0);
        assert_eq!(y[3], 0.0);
    }

    #[test]
    fn io_kernel_with_unit_strides_matches_plain_kernel() {
        let src = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))";
        let mut c = Compiler::new();
        let unit = c.compile_formula_str(src).unwrap();
        let plain = NativeKernel::compile(&unit).unwrap();
        let io = NativeIoKernel::compile(&unit).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y1 = vec![0.0; 16];
        let mut y2 = vec![0.0; 16];
        plain.run(&x, &mut y1);
        io.run(&x, &mut y2, 0, 0, 1, 1);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn cached_compile_hits_memory_and_matches_cold_kernel() {
        let mut c = Compiler::new();
        let unit = c.compile_formula_str("(F 4)").unwrap();
        let cache = KernelCache::in_memory();
        let opts = BuildOptions::default();
        let (k1, o1) = NativeKernel::compile_cached(&unit, &opts, &cache).unwrap();
        let (k2, o2) = NativeKernel::compile_cached(&unit, &opts, &cache).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        assert_eq!(o2, CacheOutcome::MemoryHit);
        let x: Vec<f64> = (0..k1.n_in).map(|i| (i as f64 * 0.41).sin()).collect();
        let mut y1 = vec![0.0; k1.n_out];
        let mut y2 = vec![0.0; k2.n_out];
        k1.run(&x, &mut y1);
        k2.run(&x, &mut y2);
        assert_eq!(y1, y2, "cached kernel differs from cold compile");
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cc_invocations"), Some(1));
        assert_eq!(tel.counter("native.cache.memory_hits"), Some(1));
    }

    #[test]
    fn cached_compile_survives_a_fresh_disk_cache_instance() {
        let dir =
            std::env::temp_dir().join(format!("spl_native_kcache_{}_disk", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = Compiler::new();
        let unit = c.compile_formula_str("(F 2)").unwrap();
        let opts = BuildOptions::default();
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            let (_k, o) = NativeKernel::compile_cached(&unit, &opts, &cache).unwrap();
            assert_eq!(o, CacheOutcome::Miss);
        }
        // A new process would open the directory afresh: the object must
        // come back from disk without another cc run.
        let cache = KernelCache::with_dir(&dir).unwrap();
        let (k, o) = NativeKernel::compile_cached(&unit, &opts, &cache).unwrap();
        assert_eq!(o, CacheOutcome::DiskHit);
        let x = [1.0, 0.0, 2.0, 0.0];
        let mut y = [0.0; 4];
        k.run(&x, &mut y);
        assert_eq!(y, [3.0, 0.0, -1.0, 0.0]);
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cc_invocations"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_cached_kernels_do_not_clash_on_the_shared_symbol() {
        // Two *different* kernels share the canonical symbol name; both
        // loaded at once must still dispatch to their own code.
        let mut c1 = Compiler::new();
        let u1 = c1.compile_formula_str("(F 2)").unwrap();
        let mut c2 = Compiler::new();
        let u2 = c2.compile_formula_str("(tensor (I 2) (F 2))").unwrap();
        let cache = KernelCache::in_memory();
        let opts = BuildOptions::default();
        let (k1, _) = NativeKernel::compile_cached(&u1, &opts, &cache).unwrap();
        let (k2, _) = NativeKernel::compile_cached(&u2, &opts, &cache).unwrap();
        let x1 = [1.0, 0.0, 2.0, 0.0];
        let mut y1 = [0.0; 4];
        k1.run(&x1, &mut y1);
        assert_eq!(y1, [3.0, 0.0, -1.0, 0.0]);
        let x2 = [1.0, 0.0, 2.0, 0.0, 5.0, 0.0, 7.0, 0.0];
        let mut y2 = [0.0; 8];
        k2.run(&x2, &mut y2);
        assert_eq!(y2, [3.0, 0.0, -1.0, 0.0, 12.0, 0.0, -2.0, 0.0]);
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("fft16"), "fft16");
        assert_eq!(sanitize("a-b c"), "a_b_c");
        assert_eq!(sanitize("1abc"), "s1abc");
    }
}
