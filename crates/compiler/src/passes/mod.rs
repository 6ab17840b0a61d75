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
//!   [`dce`](dce::Dce), then a final [`compact`](compact::Compact).
//!
//! No pass decides which loops run lane-wide: that is the VM's resolver
//! (`spl_vm::resolved`), which proves it for each innermost loop itself.
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

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

use spl_icode::{IProgram, Instr, LoopVar, Place, Value, VecKind};

use crate::error::CompileError;
use crate::mix::MixMap;
use crate::OptLevel;

// ---------------------------------------------------------------------
// Shared tables (value numbering, forward substitution, DCE, compaction)
// ---------------------------------------------------------------------
//
// Every place an instruction names is indexed by dense ids: a register by
// its number, a vector by `vec_slot`, a constant subscript by itself
// within its vector's length, and a subscript's loop-variable terms by
// their id in a `Terms` interner. What is left for a hash table
// (subscripts outside a vector, terms, composite keys) goes through the
// crate's one multiplicative hasher, `MixMap`.

/// No entry in a dense table.
pub(crate) const NONE: u32 = u32::MAX;

/// A dense number for each vector: `$in` 0, `$out` 1, then temporaries
/// and tables interleaved, so that no program is needed to number them.
pub(crate) fn vec_slot(kind: VecKind) -> usize {
    match kind {
        VecKind::In => 0,
        VecKind::Out => 1,
        VecKind::Temp(t) => 2 + 2 * t as usize,
        VecKind::Table(t) => 3 + 2 * t as usize,
    }
}

/// The declared length of every vector of a program, by [`vec_slot`]:
/// the range of constant subscripts a dense table covers.
pub(crate) struct VecLens(Vec<usize>);

impl VecLens {
    pub(crate) fn of(prog: &IProgram) -> VecLens {
        let slots = 2 + 2 * prog.temps.len().max(prog.tables.len());
        let mut lens = vec![0; slots];
        lens[vec_slot(VecKind::In)] = prog.n_in;
        lens[vec_slot(VecKind::Out)] = prog.n_out;
        for (t, &len) in prog.temps.iter().enumerate() {
            lens[vec_slot(VecKind::Temp(t as u32))] = len;
        }
        for (t, table) in prog.tables.iter().enumerate() {
            lens[vec_slot(VecKind::Table(t as u32))] = table.len();
        }
        VecLens(lens)
    }

    /// The length of `kind`, 0 for a vector the program does not declare.
    pub(crate) fn get(&self, kind: VecKind) -> usize {
        self.0.get(vec_slot(kind)).copied().unwrap_or(0)
    }
}

/// The element of `table` at dense id `k`, grown with defaults up to it.
pub(crate) fn slot_mut<T: Default>(table: &mut Vec<T>, k: usize) -> &mut T {
    if k >= table.len() {
        table.resize_with(k + 1, T::default);
    }
    &mut table[k]
}

/// A `u32 -> u32` table over dense keys. It remembers which keys it was
/// given, so that forgetting them all costs what entering them did, not
/// the table's length.
#[derive(Default)]
pub(crate) struct Slots {
    vals: Vec<u32>,
    set: Vec<u32>,
}

impl Slots {
    /// A table whose keys below `len` need no growth.
    pub(crate) fn with_len(len: usize) -> Slots {
        Slots {
            vals: vec![NONE; len],
            set: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.vals.len()
    }

    pub(crate) fn get(&self, k: usize) -> Option<u32> {
        self.vals.get(k).copied().filter(|&v| v != NONE)
    }

    /// Enters `v` at `k`, growing the table when `k` is past its end.
    pub(crate) fn insert(&mut self, k: usize, v: u32) {
        debug_assert_ne!(v, NONE);
        if k >= self.vals.len() {
            self.vals.resize(k + 1, NONE);
        }
        if self.vals[k] == NONE {
            self.set.push(k as u32);
        }
        self.vals[k] = v;
    }

    pub(crate) fn remove(&mut self, k: usize) -> Option<u32> {
        let v = self.get(k)?;
        self.vals[k] = NONE;
        Some(v)
    }

    /// Removes every entry, visiting each.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize, u32)) {
        for k in self.set.drain(..) {
            let v = std::mem::replace(&mut self.vals[k as usize], NONE);
            if v != NONE {
                f(k as usize, v);
            }
        }
    }
}

/// The entries of one vector keyed by constant subscript: dense within
/// the vector's declared length (allocated on the first such entry),
/// hashed outside it (i-code may index past a declaration; the
/// interpreter is what rejects that).
#[derive(Default)]
pub(crate) struct Elems {
    len: usize,
    dense: Slots,
    sparse: MixMap<i64, u32>,
}

impl Elems {
    pub(crate) fn with_len(len: usize) -> Elems {
        Elems {
            len,
            ..Elems::default()
        }
    }

    fn dense_at(&self, c: i64) -> Option<usize> {
        usize::try_from(c).ok().filter(|&k| k < self.len)
    }

    pub(crate) fn get(&self, c: i64) -> Option<u32> {
        match self.dense_at(c) {
            Some(k) => self.dense.get(k),
            None => self.sparse.get(&c).copied(),
        }
    }

    pub(crate) fn insert(&mut self, c: i64, v: u32) {
        match self.dense_at(c) {
            Some(k) => {
                if self.dense.len() == 0 {
                    self.dense = Slots::with_len(self.len);
                }
                self.dense.insert(k, v)
            }
            None => {
                self.sparse.insert(c, v);
            }
        }
    }

    pub(crate) fn remove(&mut self, c: i64) -> Option<u32> {
        match self.dense_at(c) {
            Some(k) => self.dense.remove(k),
            None => self.sparse.remove(&c),
        }
    }

    /// Removes every entry, visiting each.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(i64, u32)) {
        self.dense.drain(|k, v| f(k as i64, v));
        if !self.sparse.is_empty() {
            self.sparse.drain().for_each(|(c, v)| f(c, v));
        }
    }
}

/// The loop-variable terms of symbolic subscripts, interned: a pass run
/// keys its tables by a term list's id, and looks one up by slice, so
/// that only the first sight of a list allocates.
#[derive(Default)]
pub(crate) struct Terms {
    ids: MixMap<Vec<(i64, LoopVar)>, u32>,
    lists: Vec<Vec<(i64, LoopVar)>>,
}

impl Terms {
    /// The id of `terms`, issuing one on first sight.
    pub(crate) fn id(&mut self, terms: &[(i64, LoopVar)]) -> u32 {
        if let Some(&id) = self.ids.get(terms) {
            return id;
        }
        let id = self.lists.len() as u32;
        self.lists.push(terms.to_vec());
        self.ids.insert(terms.to_vec(), id);
        id
    }

    /// The id of `terms`, if it has one.
    pub(crate) fn get(&self, terms: &[(i64, LoopVar)]) -> Option<u32> {
        self.ids.get(terms).copied()
    }

    /// The terms of `id`.
    pub(crate) fn list(&self, id: u32) -> &[(i64, LoopVar)] {
        &self.lists[id as usize]
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
    /// Section 3.4 set, minus scalarization.
    pub fn optimizer(self) -> Self {
        self.fixpoint(value_number::ValueNumber::default())
            .fixpoint(forward_substitute::ForwardSubstitute)
            .fixpoint(dce::Dce)
            .post(compact::Compact)
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
    use crate::optimize::{optimize, optimize_with_stats};
    use crate::passes::testing::fixtures::{lowered, misaligned_prov_program, optimized, ramp};
    use spl_icode::interp;
    use spl_numeric::Complex;

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
                "compact"
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
    fn elems_are_one_table_inside_and_outside_the_declared_length() {
        let mut e = Elems::with_len(4);
        for (c, v) in [(0, 10), (3, 13), (4, 14), (-1, 9), (1 << 40, 7)] {
            assert_eq!(e.get(c), None);
            e.insert(c, v);
            assert_eq!(e.get(c), Some(v));
        }
        assert_eq!(e.remove(3), Some(13));
        assert_eq!(e.remove(-1), Some(9));
        assert_eq!(e.remove(-1), None);
        e.insert(3, 23);
        let mut seen = Vec::new();
        e.drain(|c, v| seen.push((c, v)));
        seen.sort_unstable();
        assert_eq!(seen, [(0, 10), (3, 23), (4, 14), (1 << 40, 7)]);
        assert_eq!(e.get(0), None);
        assert_eq!(e.get(1 << 40), None);
    }

    #[test]
    fn subscripts_past_a_declaration_number_as_declared_ones_do() {
        // The same code with every vector declared empty puts every
        // constant subscript in the hashed half of its table: each pass
        // must print what it prints with the dense half.
        for src in [
            "(F 8)",
            "(compose (T 8 4) (tensor (I 4) (F 2)))",
            "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))",
        ] {
            let p = lowered(src);
            let mut undeclared = p.clone();
            undeclared.n_in = 0;
            undeclared.n_out = 0;
            undeclared.temps.iter_mut().for_each(|t| *t = 0);
            undeclared.tables.iter_mut().for_each(|t| t.clear());
            let passes: [Box<dyn Pass>; 3] = [
                Box::new(value_number::ValueNumber::default()),
                Box::new(forward_substitute::ForwardSubstitute),
                Box::new(dce::Dce),
            ];
            let (mut a, mut b) = (p, undeclared);
            for _ in 0..3 {
                for pass in &passes {
                    let ra = pass.run(&mut a, &mut OptStats::default()).unwrap();
                    let rb = pass.run(&mut b, &mut OptStats::default()).unwrap();
                    assert_eq!(ra, rb, "{src}: {}", pass.name());
                    assert_eq!(a.instrs, b.instrs, "{src}: {}", pass.name());
                }
            }
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

    #[test]
    fn optimization_preserves_semantics() {
        for src in [
            "(F 4)",
            "(F 8)",
            "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))",
            "(compose (F 2) (F 2))",
            "(tensor (F 2) (F 2))",
            "(direct-sum (F 2) (J 3))",
        ] {
            let (p, o) = optimized(src);
            let x = ramp(p.n_in);
            let a = interp::run(&p, &x).unwrap();
            let b = interp::run(&o, &x).unwrap();
            for (u, v) in a.iter().zip(&b) {
                assert!(u.approx_eq(*v, 1e-12), "{src}");
            }
        }
    }

    #[test]
    fn optimization_shrinks_unrolled_dft() {
        // The naive (F 4) unrolled has 4*4 twiddle multiplies; after
        // folding W(4,0)=1 etc. many disappear.
        let (p, o) = optimized("(F 4)");
        assert!(
            o.static_instr_count() < p.static_instr_count(),
            "{} -> {}",
            p.static_instr_count(),
            o.static_instr_count()
        );
    }

    #[test]
    fn optimize_with_stats_counts_work() {
        let p = crate::unroll::scalarize(&lowered("(F 4)"));
        let (o, stats) = optimize_with_stats(&p).unwrap();
        assert_eq!(stats.instrs_before, p.static_instr_count() as u64);
        assert_eq!(stats.instrs_after, o.static_instr_count() as u64);
        assert!(stats.instrs_after < stats.instrs_before);
        // The unrolled F4 is full of W(4,k) constants to fold.
        assert!(stats.constants_folded > 0);
        assert!(stats.dce_removed > 0);
    }

    #[test]
    fn optimize_rejects_misaligned_provenance() {
        let err = optimize(&misaligned_prov_program()).unwrap_err();
        assert!(matches!(err, CompileError::MalformedIcode(_)), "{err:?}");
    }

    #[test]
    fn every_standard_pass_rejects_misaligned_provenance() {
        // Each registered pass must fail typed, not panic, on malformed
        // input (the old monolith's `expect`/`unreachable!` sites).
        let p = misaligned_prov_program();
        for pass in registered_passes() {
            let mut prog = p.clone();
            let err = pass
                .run(&mut prog, &mut OptStats::default())
                .expect_err(pass.name());
            assert!(
                matches!(err, CompileError::MalformedIcode(_)),
                "{}: {err:?}",
                pass.name()
            );
        }
    }

    #[test]
    fn standard_passes_converge_and_report_changed_honestly() {
        // Every standard pass must reach its own fixed point within a few
        // runs, and a run that reports Unchanged must not have mutated
        // the program (the fixed-point loop depends on both).
        let p = lowered("(F 4)");
        for pass in registered_passes() {
            let mut prog = p.clone();
            let mut stats = OptStats::default();
            let mut converged = false;
            for _ in 0..8 {
                let before = prog.clone();
                let result = pass.run(&mut prog, &mut stats).unwrap();
                assert_eq!(
                    result == PassResult::Unchanged,
                    before == prog,
                    "{} lied about Changed/Unchanged",
                    pass.name()
                );
                if result == PassResult::Unchanged {
                    converged = true;
                    break;
                }
            }
            assert!(converged, "{} did not converge in 8 runs", pass.name());
        }
    }
}

// The lane-safety cases the compiler's former `vectorize` pass was
// tested on, now run against the one place that decides lane-wide
// execution: the VM's resolver. Each loop the pass marked is planned
// lane-wide by `spl_vm::lower` on its own, and each loop it rejected
// runs scalar. Every case's output is bitwise equal to the reference
// interpreter and to the forced-scalar engine.
#[cfg(test)]
mod vectorize {
    mod tests {
        use spl_icode::{
            Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef,
        };
        use spl_telemetry::Telemetry;
        use spl_vm::{simd, VmProgram, VmState};

        fn vec_place(kind: VecKind, idx: Affine) -> Place {
            Place::Vec(VecRef { kind, idx })
        }

        fn idx(c: i64, coeff: i64, var: u32) -> Affine {
            let mut a = Affine::constant(c);
            a.add_term(coeff, LoopVar(var));
            a
        }

        fn loop_body(lo: i64, hi: i64, body: Vec<Instr>) -> IProgram {
            let mut instrs = vec![Instr::DoStart {
                var: LoopVar(0),
                lo,
                hi,
                unroll: false,
            }];
            instrs.extend(body);
            instrs.push(Instr::DoEnd);
            IProgram {
                instrs,
                n_in: 64,
                n_out: 64,
                temps: vec![64],
                n_loop: 1,
                n_f: 4,
                complex: false,
                ..IProgram::empty()
            }
        }

        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// Lowers `prog` and returns the loops the resolver planned lane-wide
        /// and the loops it declined, as its telemetry reports them. Before
        /// returning, checks that the engine, forced to scalar or not, agrees
        /// bitwise with the reference interpreter.
        fn plan_of(prog: &IProgram) -> (u64, u64) {
            // Serializes the tests that flip the process-wide scalar override.
            static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let _g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
            let vm = spl_vm::lower(prog).expect("lowers");
            let x: Vec<f64> = (0..vm.n_in).map(|i| (i as f64 * 0.61).cos()).collect();
            let y0: Vec<f64> = (0..vm.n_out).map(|i| i as f64 - 0.5).collect();
            let run = |vm: &VmProgram, forced: bool| {
                simd::set_force_scalar(forced);
                let mut y = y0.clone();
                vm.run(&x, &mut y, &mut VmState::new(vm));
                simd::set_force_scalar(false);
                y
            };
            let mut y_ref = y0.clone();
            vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
            assert_eq!(bits(&run(&vm, false)), bits(&y_ref), "run vs reference");
            assert_eq!(bits(&run(&vm, true)), bits(&y_ref), "forced scalar");
            let mut tel = Telemetry::new();
            vm.resolve_stats().expect("resolved").record(&mut tel);
            let count = |name| tel.counter(name).unwrap_or(0);
            (count("vm.vec.loops"), count("vm.vec.demoted"))
        }

        #[test]
        fn unit_stride_copy_loop_is_marked() {
            let p = loop_body(
                0,
                7,
                vec![Instr::Un {
                    op: UnOp::Copy,
                    dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                    a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
                }],
            );
            assert_eq!(plan_of(&p), (1, 0));
        }

        #[test]
        fn interleaved_stride_two_is_marked() {
            // Post-typetrans shape: out[2i] and out[2i+1] written, in[2i]
            // and in[2i+1] read — s = 2, d = 1 pairs are disjoint.
            let p = loop_body(
                0,
                7,
                vec![
                    Instr::Bin {
                        op: BinOp::Add,
                        dst: vec_place(VecKind::Out, idx(0, 2, 0)),
                        a: Value::Place(vec_place(VecKind::In, idx(0, 2, 0))),
                        b: Value::Place(vec_place(VecKind::In, idx(1, 2, 0))),
                    },
                    Instr::Bin {
                        op: BinOp::Sub,
                        dst: vec_place(VecKind::Out, idx(1, 2, 0)),
                        a: Value::Place(vec_place(VecKind::In, idx(0, 2, 0))),
                        b: Value::Place(vec_place(VecKind::In, idx(1, 2, 0))),
                    },
                ],
            );
            assert_eq!(plan_of(&p), (1, 0));
        }

        #[test]
        fn loop_carried_accumulator_is_rejected() {
            // f0 = f0 + in[i]: read-first then written.
            let p = loop_body(
                0,
                7,
                vec![Instr::Bin {
                    op: BinOp::Add,
                    dst: Place::F(0),
                    a: Value::f(0),
                    b: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
                }],
            );
            assert_eq!(plan_of(&p), (0, 1));
        }

        #[test]
        fn iteration_private_register_is_allowed() {
            // f0 = in[i] * 2; out[i] = f0 + 1: written before read.
            let p = loop_body(
                0,
                7,
                vec![
                    Instr::Bin {
                        op: BinOp::Mul,
                        dst: Place::F(0),
                        a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
                        b: Value::Int(2),
                    },
                    Instr::Bin {
                        op: BinOp::Add,
                        dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                        a: Value::f(0),
                        b: Value::Int(1),
                    },
                ],
            );
            assert_eq!(plan_of(&p), (1, 0));
        }

        #[test]
        fn stationary_write_is_rejected() {
            // out[0] = in[i]: every iteration writes the same cell.
            let p = loop_body(
                0,
                7,
                vec![Instr::Un {
                    op: UnOp::Copy,
                    dst: vec_place(VecKind::Out, Affine::constant(0)),
                    a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
                }],
            );
            assert_eq!(plan_of(&p), (0, 1));
        }

        #[test]
        fn cross_iteration_alias_is_rejected() {
            // out[i + 1] = out[i] + 1: iteration t+1 reads iteration t's
            // write.
            let p = loop_body(
                0,
                7,
                vec![Instr::Bin {
                    op: BinOp::Add,
                    dst: vec_place(VecKind::Out, idx(1, 1, 0)),
                    a: Value::Place(vec_place(VecKind::Out, idx(0, 1, 0))),
                    b: Value::Int(1),
                }],
            );
            assert_eq!(plan_of(&p), (0, 1));
        }

        #[test]
        fn same_iteration_alias_is_allowed() {
            // t[i] = in[i] * 2; out[i] = t[i] + 1: the read sees its own
            // iteration's write.
            let p = loop_body(
                0,
                7,
                vec![
                    Instr::Bin {
                        op: BinOp::Mul,
                        dst: vec_place(VecKind::Temp(0), idx(0, 1, 0)),
                        a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
                        b: Value::Int(2),
                    },
                    Instr::Bin {
                        op: BinOp::Add,
                        dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                        a: Value::Place(vec_place(VecKind::Temp(0), idx(0, 1, 0))),
                        b: Value::Int(1),
                    },
                ],
            );
            assert_eq!(plan_of(&p), (1, 0));
        }

        #[test]
        fn distant_alias_beyond_trip_range_is_allowed() {
            // out[i] = out[i + 32] with 8 trips: distance 32 ≥ trips.
            let p = loop_body(
                0,
                7,
                vec![Instr::Un {
                    op: UnOp::Copy,
                    dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                    a: Value::Place(vec_place(VecKind::Out, idx(32, 1, 0))),
                }],
            );
            assert_eq!(plan_of(&p), (1, 0));
        }

        #[test]
        fn single_trip_and_loop_index_reads_are_rejected() {
            // A one-trip loop is never offered, so it is not demoted either.
            let one_trip = loop_body(
                3,
                3,
                vec![Instr::Un {
                    op: UnOp::Copy,
                    dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                    a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
                }],
            );
            assert_eq!(plan_of(&one_trip), (0, 0));
            let loop_idx = loop_body(
                0,
                7,
                vec![Instr::Un {
                    op: UnOp::Copy,
                    dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                    a: Value::LoopIdx(LoopVar(0)),
                }],
            );
            assert_eq!(plan_of(&loop_idx), (0, 1));
        }

        #[test]
        fn only_innermost_loops_are_marked() {
            let at = |kind| {
                let mut a = idx(0, 1, 1);
                a.add_term(4, LoopVar(0));
                vec_place(kind, a)
            };
            let p = IProgram {
                instrs: vec![
                    Instr::DoStart {
                        var: LoopVar(0),
                        lo: 0,
                        hi: 3,
                        unroll: false,
                    },
                    Instr::DoStart {
                        var: LoopVar(1),
                        lo: 0,
                        hi: 3,
                        unroll: false,
                    },
                    Instr::Un {
                        op: UnOp::Copy,
                        dst: at(VecKind::Out),
                        a: Value::Place(at(VecKind::In)),
                    },
                    Instr::DoEnd,
                    Instr::DoEnd,
                ],
                n_in: 16,
                n_out: 16,
                n_loop: 2,
                complex: false,
                ..IProgram::empty()
            };
            // The inner loop is planned; the outer one is never offered.
            assert_eq!(plan_of(&p), (1, 0));
        }
    }
}
