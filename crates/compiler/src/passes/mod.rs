//! The composable optimization pass manager.
//!
//! The paper's "default optimizations" (Section 3.4) originally lived in
//! one value-numbering monolith; this module splits them into discrete,
//! registered [`Pass`]es and runs them through a [`Pipeline`] built by a
//! [`PipelineBuilder`] from the `-O` level:
//!
//! * `-O0` — empty pipeline;
//! * `-O1` — [`scalarize`](scalarize::Scalarize) only;
//! * `-O2` — scalarize, then a fixed-point loop over
//!   [`value-number`](value_number::ValueNumber),
//!   [`forward-substitute`](forward_substitute::ForwardSubstitute) and
//!   [`dce`](dce::Dce), then a final [`compact`](compact::Compact)
//!   followed by [`vectorize`](vectorize::Vectorize) over the settled
//!   code.
//!
//! The fixed-point loop repeats until a full sweep reports
//! [`PassResult::Unchanged`] from every pass or the iteration cap is
//! hit, so later passes can expose new work for earlier ones (DCE after
//! forward substitution re-enables value numbering, and so on) without
//! any pass needing to know about the others.
//!
//! # Translation validation
//!
//! What a generic pass manager cannot give you, the paper's dense-matrix
//! semantics makes cheap: every program entering the pipeline denotes a
//! linear operator, so we can capture its behaviour on a handful of
//! probe vectors *once* and then replay the i-code after **every pass**
//! ([`Validation`]). A pass whose output disagrees is a localized
//! miscompile: the pipeline dumps the before/after i-code to
//! `results/passes/`, and either aborts with
//! [`CompileError::MiscompilingPass`] naming the pass, or rolls back to
//! the last-validated program and continues with the pass quarantined
//! for the rest of the compilation ([`OnMiscompile::Quarantine`]).
//!
//! The fuzz oracle ties the pipeline *input* to the dense reference, so
//! per-pass agreement with the input program extends that chain of
//! custody through the whole optimizer.

pub mod compact;
pub mod dce;
pub mod forward_substitute;
pub mod scalarize;
pub mod testing;
pub mod validate;
pub mod value_number;
pub mod vectorize;

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use spl_icode::{IProgram, Instr, Place, Value};

use crate::error::CompileError;
use crate::OptLevel;

// ---------------------------------------------------------------------
// Shared table helpers (value numbering, forward substitution, DCE)
// ---------------------------------------------------------------------

/// Identity of a scalar register in the passes' tables: `(is $f, id)`.
pub(crate) type ScalarId = (bool, u32);

pub(crate) fn scalar_id(p: &Place) -> Option<ScalarId> {
    match p {
        Place::F(k) => Some((true, *k)),
        Place::R(k) => Some((false, *k)),
        Place::Vec(_) => None,
    }
}

/// Visits every place an instruction reads, intrinsic arguments included.
pub(crate) fn for_each_read(ins: &Instr, f: &mut dyn FnMut(&Place)) {
    fn walk(v: &Value, f: &mut dyn FnMut(&Place)) {
        match v {
            Value::Place(p) => f(p),
            Value::Intrinsic(_, args) => args.iter().for_each(|a| walk(a, f)),
            _ => {}
        }
    }
    ins.for_each_value(&mut |v| walk(v, f));
}

// ---------------------------------------------------------------------
// The Pass abstraction
// ---------------------------------------------------------------------

/// Whether a pass did anything to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassResult {
    /// The program was rewritten.
    Changed,
    /// The program is already a fixed point of this pass.
    Unchanged,
}

/// Aggregate work counters across one pipeline run (the union of every
/// pass's contribution), reported through the telemetry layer
/// (`optimize.*` counters in `splc --stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Static instruction count entering the pipeline.
    pub instrs_before: u64,
    /// Static instruction count leaving the pipeline.
    pub instrs_after: u64,
    /// Constant-folded operations (binary folds and negations of
    /// constants) in value numbering.
    pub constants_folded: u64,
    /// Recomputations replaced by a reuse of an existing value number.
    pub cse_hits: u64,
    /// Copies eliminated by sinking a definition into its use
    /// (forward substitution).
    pub copies_propagated: u64,
    /// Instructions removed as dead (including pruned empty loops).
    pub dce_removed: u64,
    /// Temp-vector elements replaced by scalar registers.
    pub temps_scalarized: u64,
    /// Innermost loops marked lane-safe by the vectorize pass.
    pub loops_vectorized: u64,
}

/// One optimization pass over i-code.
///
/// Contract: a pass must preserve program semantics (the interpreter's
/// output on every input vector) and keep [`IProgram::prov`] aligned
/// with the instruction list. Structural problems in the *input* are
/// reported as [`CompileError::MalformedIcode`], never by panicking.
pub trait Pass {
    /// Stable kebab-case pass name (telemetry keys, quarantine lists,
    /// miscompile reports).
    fn name(&self) -> &'static str;
    /// One-line description for `splc --list-passes` and docs.
    fn description(&self) -> &'static str {
        ""
    }
    /// Runs the pass in place, reporting whether anything changed.
    ///
    /// # Errors
    ///
    /// [`CompileError::MalformedIcode`] when the input program violates
    /// the i-code structural contract.
    fn run(&self, prog: &mut IProgram, stats: &mut OptStats) -> Result<PassResult, CompileError>;
}

/// What a pass that only rewrites code produces: the new instruction
/// list and its provenance map. Everything else in an [`IProgram`] —
/// megabytes of constant tables for a large transform — stays where it
/// is, neither cloned nor compared.
pub(crate) type Rewritten = (Vec<Instr>, Vec<u32>);

/// Installs a pass's output in `prog`, reporting whether it differs.
pub(crate) fn install(prog: &mut IProgram, (instrs, prov): Rewritten) -> PassResult {
    if prog.instrs == instrs && prog.prov == prov {
        PassResult::Unchanged
    } else {
        prog.instrs = instrs;
        prog.prov = prov;
        PassResult::Changed
    }
}

/// `prog` with a pass's output in place of its code (the functional
/// form behind [`crate::optimize`]'s one-pass entry points).
pub(crate) fn rewritten(prog: &IProgram, (instrs, prov): Rewritten) -> IProgram {
    IProgram {
        instrs,
        prov,
        ..prog.clone()
    }
}

/// Rejects a program whose provenance map is non-empty but misaligned
/// with the instruction list — every pass assumes the two move in
/// lockstep, and a misaligned map used to surface as a panic deep
/// inside DCE's retain loop.
pub(crate) fn check_prov_alignment(pass: &str, prog: &IProgram) -> Result<(), CompileError> {
    if !prog.prov.is_empty() && prog.prov.len() != prog.instrs.len() {
        return Err(CompileError::MalformedIcode(format!(
            "{pass}: provenance map has {} entries for {} instructions",
            prog.prov.len(),
            prog.instrs.len()
        )));
    }
    Ok(())
}

/// Every standard pass, in canonical pipeline order (for
/// `splc --list-passes` and docs; the `-O` levels pick subsets).
pub fn registered_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(scalarize::Scalarize),
        Box::new(value_number::ValueNumber::constant_fold_only()),
        Box::new(value_number::ValueNumber::default()),
        Box::new(forward_substitute::ForwardSubstitute),
        Box::new(dce::Dce),
        Box::new(compact::Compact),
        Box::new(vectorize::Vectorize),
    ]
}

// ---------------------------------------------------------------------
// Validation configuration
// ---------------------------------------------------------------------

/// What to do when per-pass translation validation catches a pass
/// miscompiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnMiscompile {
    /// Fail the compilation with [`CompileError::MiscompilingPass`]
    /// naming the pass.
    Abort,
    /// Roll back to the last-validated program, quarantine the pass for
    /// the rest of the compilation, and continue.
    Quarantine,
}

/// Per-pass translation-validation configuration
/// (`splc --verify-passes`).
#[derive(Debug, Clone)]
pub struct Validation {
    /// Number of probe vectors captured from the pipeline input.
    pub probes: usize,
    /// Scaled elementwise tolerance for agreement (the same measure the
    /// fuzz oracle uses).
    pub tolerance: f64,
    /// Abort or quarantine on a caught miscompile.
    pub on_miscompile: OnMiscompile,
    /// Where to dump before/after i-code of a miscompiling pass;
    /// `None` disables dumping (tests).
    pub dump_dir: Option<PathBuf>,
}

impl Default for Validation {
    fn default() -> Self {
        Validation {
            probes: 3,
            tolerance: 1e-9,
            on_miscompile: OnMiscompile::Abort,
            dump_dir: Some(PathBuf::from("results/passes")),
        }
    }
}

impl Validation {
    /// The default configuration with quarantine instead of abort.
    pub fn quarantining() -> Self {
        Validation {
            on_miscompile: OnMiscompile::Quarantine,
            ..Validation::default()
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline
// ---------------------------------------------------------------------

/// Default cap on fixed-point sweeps (each sweep runs every fixpoint
/// pass once). High enough that real programs converge first; low
/// enough that a ping-ponging pass pair terminates promptly.
pub const DEFAULT_MAX_ITERATIONS: usize = 8;

/// Builds a [`Pipeline`]: passes are registered into one of three
/// groups — `pre` (run once, first), `fixpoint` (repeated until no pass
/// changes anything or the iteration cap is hit), `post` (run once,
/// last).
pub struct PipelineBuilder {
    pre: Vec<Box<dyn Pass>>,
    fixpoint: Vec<Box<dyn Pass>>,
    post: Vec<Box<dyn Pass>>,
    max_iterations: usize,
    validation: Option<Validation>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineBuilder {
    /// An empty pipeline (the `-O0` shape).
    pub fn new() -> Self {
        PipelineBuilder {
            pre: Vec::new(),
            fixpoint: Vec::new(),
            post: Vec::new(),
            max_iterations: DEFAULT_MAX_ITERATIONS,
            validation: None,
        }
    }

    /// The standard pipeline for an optimization level.
    pub fn for_level(level: OptLevel) -> Self {
        let b = Self::new();
        match level {
            OptLevel::None => b,
            OptLevel::ScalarTemps => b.pre(scalarize::Scalarize),
            OptLevel::Default => b.pre(scalarize::Scalarize).optimizer(),
        }
    }

    /// Registers the default-optimization fixed point (value numbering,
    /// forward substitution, DCE) plus the final compaction — the paper's
    /// Section 3.4 set, minus scalarization — followed by the vector
    /// lowering analysis over the settled code.
    pub fn optimizer(self) -> Self {
        self.fixpoint(value_number::ValueNumber::default())
            .fixpoint(forward_substitute::ForwardSubstitute)
            .fixpoint(dce::Dce)
            .post(compact::Compact)
            .post(vectorize::Vectorize)
    }

    /// Adds a pass to the run-once prologue group.
    pub fn pre(mut self, p: impl Pass + 'static) -> Self {
        self.pre.push(Box::new(p));
        self
    }

    /// Adds a pass to the fixed-point group.
    pub fn fixpoint(mut self, p: impl Pass + 'static) -> Self {
        self.fixpoint.push(Box::new(p));
        self
    }

    /// Adds a pass to the run-once epilogue group.
    pub fn post(mut self, p: impl Pass + 'static) -> Self {
        self.post.push(Box::new(p));
        self
    }

    /// Caps the number of fixed-point sweeps (min 1).
    pub fn max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n.max(1);
        self
    }

    /// Enables per-pass translation validation.
    pub fn validation(mut self, v: Option<Validation>) -> Self {
        self.validation = v;
        self
    }

    /// Finishes the pipeline.
    pub fn build(self) -> Pipeline {
        Pipeline {
            pre: self.pre,
            fixpoint: self.fixpoint,
            post: self.post,
            max_iterations: self.max_iterations,
            validation: self.validation,
        }
    }
}

/// Wall time, work, and validation counters for one pass across a
/// pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// The pass name.
    pub name: String,
    /// Times the pass ran (fixpoint passes run once per sweep).
    pub runs: u64,
    /// Runs that changed the program.
    pub changed: u64,
    /// Total wall time across runs, in nanoseconds.
    pub wall_ns: u128,
    /// Validation probe replays performed on this pass's output.
    pub probes: u64,
}

/// Everything a pipeline run produced.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// The optimized program.
    pub program: IProgram,
    /// Aggregate work counters (the old `OptStats`).
    pub stats: OptStats,
    /// Per-pass counters, in first-run order.
    pub passes: Vec<PassStats>,
    /// Passes quarantined *during this run* (caught miscompiling and
    /// rolled back).
    pub quarantined: Vec<String>,
    /// Fixed-point sweeps executed.
    pub iterations: u64,
    /// Whether the fixed-point loop stopped at the iteration cap rather
    /// than at a fixed point.
    pub hit_iteration_cap: bool,
    /// Whether per-pass validation was actually active (configured and
    /// the reference program was replayable on the probes).
    pub validation_active: bool,
}

/// A built pass pipeline; see [`PipelineBuilder`].
pub struct Pipeline {
    pre: Vec<Box<dyn Pass>>,
    fixpoint: Vec<Box<dyn Pass>>,
    post: Vec<Box<dyn Pass>>,
    max_iterations: usize,
    validation: Option<Validation>,
}

impl Pipeline {
    /// Runs the pipeline over `input`.
    ///
    /// `quarantined` carries pass names excluded from this run; passes
    /// caught miscompiling under [`OnMiscompile::Quarantine`] are added
    /// to it, so a caller compiling many units skips a bad pass for the
    /// rest of the compilation.
    ///
    /// # Errors
    ///
    /// [`CompileError::MiscompilingPass`] when validation is configured
    /// with [`OnMiscompile::Abort`] and a pass fails it;
    /// [`CompileError::MalformedIcode`] from a pass rejecting its input.
    pub fn run(
        &self,
        input: &IProgram,
        quarantined: &mut HashSet<String>,
    ) -> Result<PipelineOutcome, CompileError> {
        let validator = self
            .validation
            .as_ref()
            .and_then(|v| validate::Validator::capture(v, input));
        let mut exec = Exec {
            prog: input.clone(),
            stats: OptStats {
                instrs_before: input.static_instr_count() as u64,
                ..OptStats::default()
            },
            validation: self.validation.as_ref(),
            validator,
            quarantined,
            newly_quarantined: Vec::new(),
            passes: Vec::new(),
        };
        for p in &self.pre {
            exec.run_pass(p.as_ref())?;
        }
        let mut iterations = 0u64;
        let mut hit_cap = false;
        if !self.fixpoint.is_empty() {
            loop {
                if iterations >= self.max_iterations as u64 {
                    hit_cap = true;
                    break;
                }
                iterations += 1;
                let mut changed_any = false;
                for p in &self.fixpoint {
                    if exec.run_pass(p.as_ref())? == PassResult::Changed {
                        changed_any = true;
                    }
                }
                if !changed_any {
                    break;
                }
            }
        }
        for p in &self.post {
            exec.run_pass(p.as_ref())?;
        }
        exec.stats.instrs_after = exec.prog.static_instr_count() as u64;
        Ok(PipelineOutcome {
            validation_active: exec.validator.is_some(),
            program: exec.prog,
            stats: exec.stats,
            passes: exec.passes,
            quarantined: exec.newly_quarantined,
            iterations,
            hit_iteration_cap: hit_cap,
        })
    }
}

/// Mutable state of one pipeline run.
struct Exec<'a> {
    prog: IProgram,
    stats: OptStats,
    validation: Option<&'a Validation>,
    validator: Option<validate::Validator>,
    quarantined: &'a mut HashSet<String>,
    newly_quarantined: Vec<String>,
    passes: Vec<PassStats>,
}

impl Exec<'_> {
    fn entry(&mut self, name: &str) -> &mut PassStats {
        if let Some(k) = self.passes.iter().position(|p| p.name == name) {
            return &mut self.passes[k];
        }
        self.passes.push(PassStats {
            name: name.to_string(),
            ..PassStats::default()
        });
        self.passes.last_mut().expect("just pushed")
    }

    fn run_pass(&mut self, pass: &dyn Pass) -> Result<PassResult, CompileError> {
        let name = pass.name();
        if self.quarantined.contains(name) {
            return Ok(PassResult::Unchanged);
        }
        // Validation needs the pre-pass program both as the rollback
        // point and to detect a pass that changes the program while
        // claiming `Unchanged`.
        let before = self.validator.is_some().then(|| self.prog.clone());
        let t0 = Instant::now();
        let reported = pass.run(&mut self.prog, &mut self.stats)?;
        let wall = t0.elapsed().as_nanos();
        let changed = match &before {
            Some(b) => *b != self.prog,
            None => reported == PassResult::Changed,
        };
        {
            let e = self.entry(name);
            e.runs += 1;
            e.wall_ns += wall;
            if changed {
                e.changed += 1;
            }
        }
        if !changed {
            return Ok(PassResult::Unchanged);
        }
        if let (Some(v), Some(before)) = (self.validator.as_ref(), before) {
            let probes = v.probes() as u64;
            let failure = v.check(&self.prog);
            self.entry(name).probes += probes;
            if let Some(detail) = failure {
                let cfg = self.validation.expect("validator implies config");
                let dumped = validate::dump(cfg.dump_dir.as_deref(), name, &before, &self.prog);
                let detail = match dumped {
                    Some(dir) => {
                        format!("{detail}; before/after i-code dumped to {}", dir.display())
                    }
                    None => detail,
                };
                match cfg.on_miscompile {
                    OnMiscompile::Abort => {
                        return Err(CompileError::MiscompilingPass {
                            pass: name.to_string(),
                            detail,
                        })
                    }
                    OnMiscompile::Quarantine => {
                        self.prog = before;
                        self.quarantined.insert(name.to_string());
                        self.newly_quarantined.push(name.to_string());
                        return Ok(PassResult::Unchanged);
                    }
                }
            }
        }
        Ok(PassResult::Changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_frontend::parser::parse_formula;
    use spl_numeric::Complex;
    use spl_templates::{expand_formula, ExpandOptions, TemplateTable};

    fn lowered(src: &str) -> IProgram {
        let table = TemplateTable::builtin();
        let sexp = parse_formula(src).unwrap();
        let p = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let p = crate::unroll::unroll_all(&p).unwrap();
        crate::intrinsics::eval_intrinsics(&p).unwrap()
    }

    fn test_validation() -> Validation {
        Validation {
            dump_dir: None,
            ..Validation::default()
        }
    }

    fn run_level(level: OptLevel, prog: &IProgram, max_iter: usize) -> PipelineOutcome {
        let mut q = HashSet::new();
        PipelineBuilder::for_level(level)
            .max_iterations(max_iter)
            .build()
            .run(prog, &mut q)
            .unwrap()
    }

    #[test]
    fn levels_build_expected_pipelines() {
        let p = lowered("(F 4)");
        let o0 = run_level(OptLevel::None, &p, 8);
        assert_eq!(o0.program, p);
        assert!(o0.passes.is_empty());
        let o1 = run_level(OptLevel::ScalarTemps, &p, 8);
        assert_eq!(o1.passes.len(), 1);
        assert_eq!(o1.passes[0].name, "scalarize");
        let o2 = run_level(OptLevel::Default, &p, 8);
        let names: Vec<&str> = o2.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "scalarize",
                "value-number",
                "forward-substitute",
                "dce",
                "compact",
                "vectorize"
            ]
        );
        assert!(o2.stats.instrs_after < o2.stats.instrs_before);
        assert!(!o2.hit_iteration_cap);
    }

    #[test]
    fn fixpoint_output_is_cap_invariant() {
        // Once the loop converges, a larger cap must not change the
        // result bit-for-bit.
        for src in ["(F 4)", "(F 8)", "(compose (T 8 4) (tensor (I 4) (F 2)))"] {
            let p = lowered(src);
            let a = run_level(OptLevel::Default, &p, 4);
            let b = run_level(OptLevel::Default, &p, 8);
            let c = run_level(OptLevel::Default, &p, 64);
            assert_eq!(a.program, b.program, "{src}: cap 4 vs 8");
            assert_eq!(b.program, c.program, "{src}: cap 8 vs 64");
            assert!(!c.hit_iteration_cap, "{src} did not converge");
        }
    }

    #[test]
    fn pipeline_is_idempotent_on_its_own_output() {
        for src in ["(F 4)", "(F 8)"] {
            let p = lowered(src);
            let once = run_level(OptLevel::Default, &p, 8).program;
            let twice = run_level(OptLevel::Default, &once, 8).program;
            assert_eq!(once, twice, "{src}");
        }
    }

    #[test]
    fn ping_pong_passes_hit_the_cap_without_hanging() {
        let p = lowered("(F 2)");
        let mut q = HashSet::new();
        let out = PipelineBuilder::new()
            .fixpoint(testing::Ping)
            .fixpoint(testing::Pong)
            .max_iterations(5)
            .build()
            .run(&p, &mut q)
            .unwrap();
        assert!(out.hit_iteration_cap);
        assert_eq!(out.iterations, 5);
        // Ping/pong cancel within each sweep, so the program is intact.
        assert_eq!(out.program, p);
    }

    #[test]
    fn buggy_pass_is_caught_and_named_in_abort_mode() {
        let p = lowered("(F 4)");
        let mut q = HashSet::new();
        let err = PipelineBuilder::for_level(OptLevel::Default)
            .post(testing::DropOp)
            .validation(Some(test_validation()))
            .build()
            .run(&p, &mut q)
            .unwrap_err();
        match err {
            CompileError::MiscompilingPass { pass, .. } => {
                assert_eq!(pass, testing::DROP_OP_NAME)
            }
            other => panic!("expected MiscompilingPass, got {other:?}"),
        }
    }

    #[test]
    fn buggy_pass_is_quarantined_and_output_stays_correct() {
        let p = lowered("(F 4)");
        let x: Vec<Complex> = (0..p.n_in)
            .map(|i| Complex::new((i as f64).sin() + 0.5, (i as f64).cos()))
            .collect();
        let want = spl_icode::interp::run(&p, &x).unwrap();
        let mut q = HashSet::new();
        let out = PipelineBuilder::for_level(OptLevel::Default)
            .post(testing::DropOp)
            .validation(Some(Validation {
                on_miscompile: OnMiscompile::Quarantine,
                dump_dir: None,
                ..Validation::default()
            }))
            .build()
            .run(&p, &mut q)
            .unwrap();
        assert_eq!(out.quarantined, vec![testing::DROP_OP_NAME.to_string()]);
        assert!(q.contains(testing::DROP_OP_NAME));
        assert!(out.validation_active);
        let got = spl_icode::interp::run(&out.program, &x).unwrap();
        for (a, b) in got.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-9), "quarantined run changed semantics");
        }
    }

    #[test]
    fn quarantined_pass_is_skipped_on_later_units() {
        let p = lowered("(F 4)");
        let mut q = HashSet::new();
        q.insert(testing::DROP_OP_NAME.to_string());
        // With the pass pre-quarantined, even abort-mode validation
        // never sees it run.
        let out = PipelineBuilder::for_level(OptLevel::Default)
            .post(testing::DropOp)
            .validation(Some(test_validation()))
            .build()
            .run(&p, &mut q)
            .unwrap();
        assert!(out.passes.iter().all(|ps| ps.name != testing::DROP_OP_NAME));
    }

    #[test]
    fn honest_passes_validate_cleanly() {
        for src in ["(F 4)", "(F 8)", "(compose (T 8 4) (tensor (I 4) (F 2)))"] {
            let p = lowered(src);
            let mut q = HashSet::new();
            let out = PipelineBuilder::for_level(OptLevel::Default)
                .validation(Some(test_validation()))
                .build()
                .run(&p, &mut q)
                .unwrap();
            assert!(out.validation_active, "{src}");
            assert!(out.quarantined.is_empty(), "{src}");
            assert!(
                out.passes.iter().any(|ps| ps.probes > 0),
                "{src}: no probes replayed"
            );
        }
    }

    #[test]
    fn registered_passes_have_unique_names_and_descriptions() {
        let passes = registered_passes();
        let mut names = HashSet::new();
        for p in &passes {
            assert!(names.insert(p.name().to_string()), "dup {}", p.name());
            assert!(!p.description().is_empty(), "{} undocumented", p.name());
        }
    }
}
