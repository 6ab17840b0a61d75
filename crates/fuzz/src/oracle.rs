//! The differential oracle: dense reference vs. i-code VM vs. (opt-in)
//! sandboxed native kernel.
//!
//! Each formula is pushed through independent implementations of the
//! same semantics and the outcomes are cross-checked:
//!
//! * **dense** — `spl_formula`'s matrix algebra ([`spl_formula::dense`]),
//!   the semantics ground truth;
//! * **vm** — template expansion to i-code plus the interpreter
//!   (`spl_templates` + `spl_icode`), the compiler's front half;
//! * **native** (optional) — the full pipeline down to `cc`-compiled C
//!   executed in a fork sandbox (`spl_native`), classifying crashes and
//!   hangs as their own bug classes;
//! * **vm-engine** (optional) — the full pipeline down to the register
//!   VM (`spl_vm`), cross-checking the resolved execution engine
//!   against the checked reference executor bit-for-bit.
//!
//! Agreement means either *both computed the same vector* (within
//! tolerance) or *both rejected with a typed error*. One side accepting
//! what the other rejects, a numeric mismatch, and any caught panic are
//! distinct [`BugClass`]es. Panics are caught with a quiet hook so a
//! fuzzing run's log is the report, not a panic backtrace firehose.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Duration;

use spl_frontend::sexp::Sexp;
use spl_numeric::Complex;
use spl_templates::{ExpandOptions, TemplateTable};

/// What kind of disagreement (or worse) the oracle found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BugClass {
    /// A panic escaped one of the stages (caught at the oracle boundary).
    Panic,
    /// Dense and VM both computed, with numerically different results.
    Mismatch,
    /// One oracle accepted the formula, the other rejected it.
    AcceptDisagree,
    /// The native kernel's output disagrees with the dense reference.
    NativeMismatch,
    /// The native kernel crashed (signal) in its sandbox.
    NativeCrash,
    /// The native kernel exceeded its time budget.
    NativeHang,
    /// The native pipeline rejected a formula both other oracles ran.
    NativeReject,
    /// The VM's resolved execution engine disagrees with its checked
    /// reference executor (bitwise) or with the dense reference.
    EngineMismatch,
}

impl BugClass {
    /// A stable kebab-case name, used in reproducer filenames and
    /// telemetry counters.
    pub fn name(&self) -> &'static str {
        match self {
            BugClass::Panic => "panic",
            BugClass::Mismatch => "oracle-mismatch",
            BugClass::AcceptDisagree => "accept-disagree",
            BugClass::NativeMismatch => "native-mismatch",
            BugClass::NativeCrash => "native-crash",
            BugClass::NativeHang => "native-hang",
            BugClass::NativeReject => "native-reject",
            BugClass::EngineMismatch => "engine-mismatch",
        }
    }
}

impl std::fmt::Display for BugClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A confirmed disagreement, with enough context to triage.
#[derive(Debug, Clone)]
pub struct Bug {
    /// The bug class (dedup key for reproducer emission).
    pub class: BugClass,
    /// Which stage observed it (`"dense"`, `"vm"`, `"native"`, ...).
    pub stage: String,
    /// Human-readable detail (error strings, the first diverging lane).
    pub detail: String,
}

/// The oracle's verdict on one formula.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All enabled oracles computed the same `n`-point result.
    AgreeOk {
        /// The formula's vector size.
        n: usize,
    },
    /// All enabled oracles rejected the formula with typed errors.
    AgreeReject,
    /// The formula was too large to evaluate numerically.
    Skipped,
    /// A genuine disagreement or an escaped panic.
    Bug(Bug),
}

/// The differential oracle configuration.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Scaled elementwise tolerance for numeric agreement.
    pub tolerance: f64,
    /// Largest vector size evaluated numerically; larger formulas are
    /// [`Verdict::Skipped`] after the shape cross-check.
    pub max_eval: usize,
    /// Whether to run the native (`cc` + fork sandbox) stage.
    pub native: bool,
    /// Sandbox execution timeout for the native stage.
    pub native_timeout: Duration,
    /// Whether to run the VM engine stage: full pipeline to the VM,
    /// resolved engine vs. reference executor (bitwise) vs. dense.
    pub vm_engine: bool,
    /// Inject the deliberately miscompiling test pass into every
    /// compiler the oracle builds (exercises miscompile localization;
    /// only observable through the `native`/`vm_engine` stages, which
    /// run the optimizer).
    pub inject_buggy_pass: bool,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle {
            tolerance: 1e-9,
            max_eval: 4096,
            native: false,
            native_timeout: Duration::from_secs(10),
            vm_engine: false,
            inject_buggy_pass: false,
        }
    }
}

/// The deterministic workload every oracle runs: a sin/cos ramp, no
/// special symmetry that could mask index bugs.
pub fn fuzz_input(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            Complex::new((0.7 * t + 0.3).sin(), (1.3 * t - 0.1).cos())
        })
        .collect()
}

impl Oracle {
    /// Checks one formula S-expression against all enabled oracles.
    pub fn check(&self, sexp: &Sexp) -> Verdict {
        let table = TemplateTable::builtin();
        let max = self.max_eval.min(MAX_EVAL_HARD);
        let dense = quiet_catch(|| dense_result(sexp, max));
        let vm = quiet_catch(|| vm_result(sexp, &table, max));
        let (dense, vm) = match (dense, vm) {
            (Ok(d), Ok(v)) => (d, v),
            (Err(p), _) => {
                return Verdict::Bug(Bug {
                    class: BugClass::Panic,
                    stage: "dense".into(),
                    detail: p,
                })
            }
            (_, Err(p)) => {
                return Verdict::Bug(Bug {
                    class: BugClass::Panic,
                    stage: "vm".into(),
                    detail: p,
                })
            }
        };
        match (dense, vm) {
            (Err(_), Err(_)) => Verdict::AgreeReject,
            (Ok(_), Err(e)) => Verdict::Bug(Bug {
                class: BugClass::AcceptDisagree,
                stage: "vm".into(),
                detail: format!("dense accepts, vm rejects: {e}"),
            }),
            (Err(e), Ok(_)) => Verdict::Bug(Bug {
                class: BugClass::AcceptDisagree,
                stage: "dense".into(),
                detail: format!("vm accepts, dense rejects: {e}"),
            }),
            (Ok(None), Ok(_)) | (Ok(_), Ok(None)) => Verdict::Skipped,
            (Ok(Some(d)), Ok(Some(v))) => {
                if let Some(detail) = self.compare(&d, &v) {
                    return Verdict::Bug(Bug {
                        class: BugClass::Mismatch,
                        stage: "dense-vs-vm".into(),
                        detail,
                    });
                }
                if self.native {
                    if let Some(bug) = self.native_check(sexp, &d) {
                        return Verdict::Bug(bug);
                    }
                }
                if self.vm_engine {
                    if let Some(bug) = self.vm_engine_check(sexp, &d) {
                        return Verdict::Bug(bug);
                    }
                }
                Verdict::AgreeOk { n: d.len() }
            }
        }
    }

    /// A full-pipeline compiler configured like the oracle's `native`
    /// and `vm_engine` stages build it (including the injected buggy
    /// pass when enabled).
    fn compiler(&self) -> spl_compiler::Compiler {
        spl_compiler::Compiler::with_options(spl_compiler::CompilerOptions {
            inject_buggy_pass: self.inject_buggy_pass,
            ..spl_compiler::CompilerOptions::default()
        })
    }

    /// Recompiles one formula under per-pass translation validation
    /// (abort-on-mismatch, no dump files) and returns the name of the
    /// first optimization pass whose output diverged from the probe
    /// reference — the miscompile localization behind
    /// `splfuzz --localize`. `None` when every pass validates (the bug,
    /// if any, is not an optimizer miscompile) or when compilation
    /// fails for an unrelated reason.
    pub fn localize_pass(&self, sexp: &Sexp) -> Option<String> {
        let mut compiler = spl_compiler::Compiler::with_options(spl_compiler::CompilerOptions {
            inject_buggy_pass: self.inject_buggy_pass,
            verify_passes: Some(spl_compiler::passes::Validation {
                dump_dir: None,
                ..spl_compiler::passes::Validation::default()
            }),
            ..spl_compiler::CompilerOptions::default()
        });
        match quiet_catch(|| compiler.compile_formula_str(&sexp.to_string())) {
            Ok(Err(spl_compiler::CompileError::MiscompilingPass { pass, .. })) => Some(pass),
            _ => None,
        }
    }

    /// `None` when equal within tolerance, else the first divergence.
    fn compare(&self, a: &[Complex], b: &[Complex]) -> Option<String> {
        if a.len() != b.len() {
            return Some(format!("output lengths {} vs {}", a.len(), b.len()));
        }
        let scale = 1.0 + a.iter().map(|v| v.norm()).fold(0.0, f64::max);
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if (*x - *y).norm() > self.tolerance * scale {
                return Some(format!("lane {i}: {x} vs {y} (scale {scale:.3e})"));
            }
        }
        None
    }

    /// Runs the full native pipeline and compares against the dense
    /// reference `want`; `None` when it agrees.
    fn native_check(&self, sexp: &Sexp, want: &[Complex]) -> Option<Bug> {
        use spl_native::NativeError;
        let bug = |class: BugClass, detail: String| {
            Some(Bug {
                class,
                stage: "native".into(),
                detail,
            })
        };
        let src = format!("#language c\n#codetype real\n{sexp}\n");
        let mut compiler = self.compiler();
        let unit = match quiet_catch(|| compiler.compile_source(&src).map(|mut units| units.pop()))
        {
            Err(p) => return bug(BugClass::Panic, p),
            Ok(Err(e)) => return bug(BugClass::NativeReject, format!("compile: {e}")),
            Ok(Ok(None)) => return bug(BugClass::NativeReject, "no unit emitted".into()),
            Ok(Ok(Some(u))) => u,
        };
        let kernel = match spl_native::NativeKernel::compile_with(
            &unit,
            &spl_native::BuildOptions::default(),
        ) {
            Ok(k) => k,
            Err(e) => return bug(BugClass::NativeReject, format!("cc: {e}")),
        };
        // Real-typed kernels take interleaved re/im pairs; a width that
        // disagrees with the dense reference is itself a pipeline bug.
        let cols = kernel.n_in / 2;
        if kernel.n_out != 2 * want.len() || kernel.n_in % 2 != 0 {
            return bug(
                BugClass::NativeMismatch,
                format!(
                    "kernel I/O width {}x{} vs dense output {}",
                    kernel.n_in,
                    kernel.n_out,
                    want.len()
                ),
            );
        }
        let x = interleave(&fuzz_input(cols));
        let mut y = vec![0.0; kernel.n_out];
        match kernel.run_sandboxed(&x, &mut y, self.native_timeout) {
            Ok(()) => {}
            Err(NativeError::Crashed(d)) => return bug(BugClass::NativeCrash, d),
            Err(NativeError::Timeout(d)) => return bug(BugClass::NativeHang, d),
            Err(e) => return bug(BugClass::NativeReject, e.to_string()),
        }
        let got = deinterleave(&y);
        self.compare(want, &got)
            .and_then(|d| bug(BugClass::NativeMismatch, d))
    }

    /// Runs the full pipeline down to the VM and cross-checks the
    /// resolved engine against the reference executor bit-for-bit, and
    /// against the dense reference `want` within tolerance. Pipeline
    /// rejects are not this stage's concern (the accept/reject
    /// cross-check belongs to dense-vs-vm) and return `None`.
    fn vm_engine_check(&self, sexp: &Sexp, want: &[Complex]) -> Option<Bug> {
        let bug = |class: BugClass, detail: String| {
            Some(Bug {
                class,
                stage: "vm-engine".into(),
                detail,
            })
        };
        let mut compiler = self.compiler();
        let unit = match quiet_catch(|| compiler.compile_formula_str(&sexp.to_string())) {
            Err(p) => return bug(BugClass::Panic, p),
            Ok(Err(_)) => return None,
            Ok(Ok(u)) => u,
        };
        let prog = match quiet_catch(|| spl_vm::lower(&unit.program)) {
            Err(p) => return bug(BugClass::Panic, p),
            Ok(Err(_)) => return None,
            Ok(Ok(p)) => p,
        };
        if prog.n_out != 2 * want.len() || prog.n_in % 2 != 0 {
            return bug(
                BugClass::EngineMismatch,
                format!(
                    "VM I/O width {}x{} vs dense output {}",
                    prog.n_in,
                    prog.n_out,
                    want.len()
                ),
            );
        }
        let x = interleave(&fuzz_input(prog.n_in / 2));
        let mut y_ref = vec![0.0; prog.n_out];
        let mut y_new = vec![0.0; prog.n_out];
        let mut st = spl_vm::VmState::new(&prog);
        if let Err(p) = quiet_catch(|| prog.run_reference(&x, &mut y_ref, &mut st)) {
            return bug(BugClass::Panic, p);
        }
        if let Err(p) = quiet_catch(|| prog.run(&x, &mut y_new, &mut st)) {
            return bug(BugClass::Panic, p);
        }
        if let Some(i) = (0..y_ref.len()).find(|&i| y_ref[i].to_bits() != y_new[i].to_bits()) {
            return bug(
                BugClass::EngineMismatch,
                format!(
                    "resolved vs reference at lane {i}: {:?} vs {:?} ({})",
                    y_new[i],
                    y_ref[i],
                    match prog.resolve_fallback() {
                        Some(why) => format!("unresolved: {why}"),
                        None => "resolved".into(),
                    }
                ),
            );
        }
        // Third leg: when a vector backend is active, re-run with the
        // scalar fallback forced and demand bit-identity with the
        // vector run — the lane backends promise exactly the scalar
        // IEEE-754 operations, so any drift is an engine bug. (If
        // scalar was already forced — env var or caller — `width()`
        // is 0 and this leg is the same run twice; skip it.)
        if spl_vm::simd::width() != 0 {
            let mut y_scalar = vec![0.0; prog.n_out];
            spl_vm::simd::set_force_scalar(true);
            let r = quiet_catch(|| prog.run(&x, &mut y_scalar, &mut st));
            spl_vm::simd::set_force_scalar(false);
            if let Err(p) = r {
                return bug(BugClass::Panic, p);
            }
            if let Some(i) = (0..y_new.len()).find(|&i| y_scalar[i].to_bits() != y_new[i].to_bits())
            {
                return bug(
                    BugClass::EngineMismatch,
                    format!(
                        "vector vs forced-scalar at lane {i}: {:?} vs {:?} (backend {})",
                        y_new[i],
                        y_scalar[i],
                        spl_vm::simd::backend_name()
                    ),
                );
            }
        }
        self.compare(want, &deinterleave(&y_new))
            .and_then(|d| bug(BugClass::EngineMismatch, format!("vs dense: {d}")))
    }
}

/// Dense-reference evaluation: typed formula, checked dims, structural
/// apply. `Ok(None)` when the formula is too large to evaluate.
#[allow(clippy::type_complexity)]
fn dense_result(sexp: &Sexp, max: usize) -> Result<Option<Vec<Complex>>, String> {
    let f = spl_formula::formula_from_sexp(sexp, &HashMap::new()).map_err(|e| e.to_string())?;
    let (rows, cols) = f.checked_dims().map_err(|e| e.to_string())?;
    if cols > max || rows > max {
        return Ok(None);
    }
    spl_formula::dense::apply(&f, &fuzz_input(cols))
        .map(Some)
        .map_err(|e| e.to_string())
}

/// VM evaluation: template expansion to i-code, then the interpreter.
#[allow(clippy::type_complexity)]
fn vm_result(
    sexp: &Sexp,
    table: &TemplateTable,
    max: usize,
) -> Result<Option<Vec<Complex>>, String> {
    let prog = spl_templates::expand_formula(sexp, table, &ExpandOptions::default())
        .map_err(|e| e.to_string())?;
    if prog.n_in > max || prog.n_out > max {
        return Ok(None);
    }
    spl_icode::interp::run(&prog, &fuzz_input(prog.n_in))
        .map(Some)
        .map_err(|e| e.to_string())
}

/// Hard evaluation-size ceiling, independent of [`Oracle::max_eval`]
/// (kept conservative so a mutated size cannot OOM the fuzzer).
const MAX_EVAL_HARD: usize = 1 << 12;

fn interleave(x: &[Complex]) -> Vec<f64> {
    x.iter().flat_map(|c| [c.re, c.im]).collect()
}

fn deinterleave(y: &[f64]) -> Vec<Complex> {
    y.chunks_exact(2)
        .map(|c| Complex::new(c[0], c[1]))
        .collect()
}

thread_local! {
    static CATCHING: Cell<bool> = const { Cell::new(false) };
}

/// `catch_unwind` with a process-wide hook that stays quiet for panics
/// we are catching on purpose and defers to the previous hook for
/// everything else.
fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CATCHING.with(Cell::get) {
                prev(info);
            }
        }));
    });
    CATCHING.with(|c| c.set(true));
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    CATCHING.with(|c| c.set(false));
    r.map_err(|e| {
        e.downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic (non-string payload)".into())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_frontend::parse_formula;

    fn check(src: &str) -> Verdict {
        Oracle::default().check(&parse_formula(src).unwrap())
    }

    #[test]
    fn paper_factorization_agrees() {
        let v = check("(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))");
        assert!(matches!(v, Verdict::AgreeOk { n: 4 }), "{v:?}");
    }

    #[test]
    fn full_vocabulary_agrees() {
        for src in [
            "(F 5)",
            "(J 4)",
            "(direct-sum (F 2) (I 3))",
            "(diagonal (1 2 3))",
            "(permutation (3 1 2))",
            "(matrix (1 2) (3 4))",
            "(tensor (I 1) (F 3) (I 1))",
        ] {
            let v = check(src);
            assert!(matches!(v, Verdict::AgreeOk { .. }), "{src}: {v:?}");
        }
    }

    #[test]
    fn invalid_formulas_reject_on_both_sides() {
        for src in ["(L 6 4)", "(T 9 2)", "(compose (F 2) (F 3))", "(Q 4)"] {
            let v = check(src);
            assert!(matches!(v, Verdict::AgreeReject), "{src}: {v:?}");
        }
    }

    #[test]
    fn oversized_formulas_are_skipped_not_oom() {
        let v = check("(tensor (I 4096) (I 4096))");
        assert!(matches!(v, Verdict::Skipped), "{v:?}");
    }

    #[test]
    fn quiet_catch_reports_panics() {
        let r = quiet_catch(|| panic!("boom {}", 42));
        assert_eq!(r.unwrap_err(), "boom 42");
        assert_eq!(quiet_catch(|| 7).unwrap(), 7);
    }
}
