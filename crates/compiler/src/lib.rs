#![warn(missing_docs)]

//! The SPL compiler (the paper's primary contribution).
//!
//! Translates SPL programs — formulas denoting matrix factorizations —
//! into subroutines computing the matrix–vector product `y = M x`.
//! The compiler proceeds in the paper's five phases:
//!
//! 1. **parsing** (`spl-frontend`),
//! 2. **intermediate code generation** via templates (`spl-templates`),
//! 3. **intermediate code restructuring** — loop [unrolling](unroll),
//!    [intrinsic evaluation](intrinsics), and
//!    [type transformation](typetrans),
//! 4. **optimization** — value numbering with constant folding, copy
//!    propagation, CSE and dead-code elimination ([optimize]),
//! 5. **target code generation** — Fortran or C ([codegen]).
//!
//! # Examples
//!
//! ```
//! use spl_compiler::{Compiler, CompilerOptions};
//!
//! let src = "
//! #datatype complex
//! #codetype real
//! #subname fft4
//! (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))
//! ";
//! let mut compiler = Compiler::with_options(CompilerOptions {
//!     unroll_threshold: Some(32),
//!     ..Default::default()
//! });
//! let units = compiler.compile_source(src).unwrap();
//! assert_eq!(units.len(), 1);
//! let fortran = units[0].emit();
//! assert!(fortran.contains("subroutine fft4(y,x)"));
//! ```

pub mod codegen;
pub mod error;
pub mod intrinsics;
mod mix;
pub mod optimize;
mod pack;
pub mod passes;
pub mod typetrans;
pub mod unroll;

use std::collections::HashSet;

use spl_frontend::ast::{DataType, DirectiveState, Item, Language, Unroll};
use spl_frontend::sexp::Sexp;
use spl_icode::IProgram;
use spl_telemetry::{Stopwatch, Telemetry};
use spl_templates::{expand_formula_with_stats, ExpandOptions, TemplateTable};

pub use codegen::{CodegenOptions, TableMode};
pub use error::CompileError;

/// The optimization levels used in the paper's Figure 2 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// No optimization (Figure 2 version 1).
    None,
    /// Replace temporary vectors with scalar variables only (version 2).
    ScalarTemps,
    /// The default optimizations: scalarization plus value numbering —
    /// constant folding, copy propagation, CSE, DCE (version 3).
    #[default]
    Default,
}

/// Resource limits for one compilation.
///
/// Degenerate (typically machine-generated) formulas can otherwise
/// stack-overflow the parser or expander, or exhaust memory during
/// unrolling. Every limit converts the abort into a typed error:
/// [`ParseErrorKind::LimitExceeded`](spl_frontend::ParseErrorKind),
/// [`ExpandError::LimitExceeded`](spl_templates::ExpandError), or
/// [`CompileError::ResourceLimit`].
#[derive(Debug, Clone)]
pub struct Limits {
    /// Formula nesting depth accepted by the parser
    /// (`splc --max-depth`).
    pub max_depth: usize,
    /// Template-expansion recursion depth cap.
    pub max_expand_depth: usize,
    /// Cap on i-code instructions emitted by expansion.
    pub max_expand_steps: usize,
    /// Cap on i-code instructions produced by loop unrolling
    /// (`splc --max-unrolled-ops`).
    pub max_unrolled_ops: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_depth: spl_frontend::DEFAULT_MAX_DEPTH,
            max_expand_depth: spl_templates::DEFAULT_EXPAND_DEPTH,
            max_expand_steps: spl_templates::DEFAULT_EXPAND_STEPS,
            max_unrolled_ops: DEFAULT_MAX_UNROLLED_OPS,
        }
    }
}

/// Default cap on unrolled i-code size (instructions).
pub const DEFAULT_MAX_UNROLLED_OPS: usize = 4_000_000;

/// Compiler-wide options (the command line of the paper's compiler).
#[derive(Debug, Clone, Default)]
pub struct CompilerOptions {
    /// `-B <n>`: fully unroll loops in sub-formulas whose input vector is
    /// at most `n` long.
    pub unroll_threshold: Option<usize>,
    /// Partially unroll every remaining loop by this factor
    /// (Section 3.3.1: "fully or partially").
    pub partial_unroll: Option<usize>,
    /// Optimization level.
    pub opt_level: OptLevel,
    /// Machine-dependent peepholes (Section 3.4).
    pub peephole: bool,
    /// Generate subroutines with offset/stride parameters (Section 3.5).
    pub io_params: bool,
    /// Vectorize: compile `A ⊗ I_m` instead of `A` (Section 3.5).
    pub vectorize: Option<usize>,
    /// Override the program's `#language` directives.
    pub language_override: Option<Language>,
    /// Resource limits (parser depth, expansion budget, unrolled size).
    pub limits: Limits,
    /// Per-pass translation validation (`splc --verify-passes`): replay
    /// the i-code on probe vectors after every optimization pass, and
    /// abort or quarantine a pass caught miscompiling.
    pub verify_passes: Option<passes::Validation>,
    /// Test/demo hook: append the deliberately-miscompiling
    /// [`passes::testing::DropOp`] pass to the pipeline
    /// (`splc --inject-buggy-pass`), so validation has something to
    /// catch.
    pub inject_buggy_pass: bool,
}

/// A compiled formula: the final i-code plus everything needed to print
/// target code or execute it.
#[derive(Debug, Clone)]
pub struct CompiledUnit {
    /// Subroutine name (from `#subname` or generated).
    pub name: String,
    /// The optimized i-code.
    pub program: IProgram,
    /// Source formula (after `define` resolution and vectorization).
    pub formula: Sexp,
    /// `#datatype` in effect.
    pub datatype: DataType,
    /// Effective code type (complex only for Fortran with
    /// `#codetype complex`).
    pub codetype: DataType,
    /// Target language.
    pub language: Language,
    /// Codegen peephole/io options captured from the compiler.
    pub codegen: CodegenOptions,
}

impl CompiledUnit {
    /// Prints the target-language subroutine.
    pub fn emit(&self) -> String {
        codegen::emit(&self.name, &self.program, &self.codegen)
    }

    /// Like [`emit`](Self::emit), but records the `codegen` phase span
    /// and the `codegen.lines`, `codegen.paired_stmts`,
    /// `codegen.scalar_stmts` and `codegen.packed_loops` counters into
    /// `tel`.
    pub fn emit_traced(&self, tel: &mut Telemetry) -> String {
        let sw = Stopwatch::start();
        let (out, stats) = codegen::emit_counted(&self.name, &self.program, &self.codegen);
        tel.record_span("codegen", sw.elapsed());
        tel.add("codegen.lines", out.lines().count() as u64);
        tel.add("codegen.paired_stmts", stats.paired_stmts);
        tel.add("codegen.scalar_stmts", stats.scalar_stmts);
        tel.add("codegen.packed_loops", stats.packed_loops);
        out
    }

    /// The input vector length in *user* elements (a complex point counts
    /// as one element even when the generated code is real-typed).
    pub fn logical_input_len(&self) -> usize {
        if self.datatype == DataType::Complex && self.codetype == DataType::Real {
            self.program.n_in / 2
        } else {
            self.program.n_in
        }
    }
}

/// The SPL compiler: a template table plus options.
///
/// The table is stateful: `template` items in compiled sources are added
/// and affect subsequent formulas, exactly as in the paper.
#[derive(Debug, Clone)]
pub struct Compiler {
    table: TemplateTable,
    opts: CompilerOptions,
    defines: Vec<(String, Sexp, bool)>,
    current_unroll: bool,
    counter: usize,
    telemetry: Telemetry,
    /// Passes caught miscompiling under quarantine-mode validation;
    /// skipped for the rest of this compiler's lifetime (all units).
    quarantined: HashSet<String>,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Compiler {
    /// A compiler with the built-in startup templates and default options.
    pub fn new() -> Self {
        Self::with_options(CompilerOptions::default())
    }

    /// A compiler with explicit options.
    pub fn with_options(opts: CompilerOptions) -> Self {
        Compiler {
            table: TemplateTable::builtin(),
            opts,
            defines: Vec::new(),
            current_unroll: false,
            counter: 0,
            telemetry: Telemetry::new(),
            quarantined: HashSet::new(),
        }
    }

    /// Pass names quarantined by per-pass validation so far (empty
    /// unless [`CompilerOptions::verify_passes`] uses
    /// [`passes::OnMiscompile::Quarantine`] and a pass was caught).
    pub fn quarantined_passes(&self) -> &HashSet<String> {
        &self.quarantined
    }

    /// Access to the template table (e.g. to register search-produced
    /// templates).
    pub fn table_mut(&mut self) -> &mut TemplateTable {
        &mut self.table
    }

    /// Telemetry accumulated over all compilations so far: one span per
    /// paper phase (`parse`, `expand`, `unroll`, `intrinsics`,
    /// `typetrans`, `optimize`), aggregate work counters
    /// (`optimize.cse_hits`, `unroll.loops_fully_unrolled`, …), and
    /// per-pass pipeline counters (`pass.<name>.runs`,
    /// `pass.<name>.changed`, `pass.<name>.probes`,
    /// `pass.<name>.quarantined`, `pass.fixpoint.iterations`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Takes the accumulated telemetry, leaving an empty accumulator.
    pub fn take_telemetry(&mut self) -> Telemetry {
        std::mem::take(&mut self.telemetry)
    }

    /// Compiles a complete SPL program, returning one unit per formula.
    ///
    /// # Errors
    ///
    /// Returns the first parse, expansion, or lowering error.
    pub fn compile_source(&mut self, src: &str) -> Result<Vec<CompiledUnit>, CompileError> {
        let sw = Stopwatch::start();
        let program = spl_frontend::parse_program_with_depth(src, self.opts.limits.max_depth)?;
        self.telemetry.record_span("parse", sw.elapsed());
        let mut units = Vec::new();
        for item in program.items {
            match item {
                Item::Template(t) => self.table.add(t),
                Item::Define { name, body } => {
                    // The unroll state *at the define* governs its
                    // expansion (the paper's I64F2 example).
                    let unroll = self.current_unroll;
                    self.defines.push((name, body, unroll));
                }
                Item::Directive(d) => {
                    if let spl_frontend::Directive::Unroll(u) = d {
                        self.current_unroll = u == Unroll::On;
                    }
                }
                Item::Formula { sexp, directives } => {
                    units.push(self.compile_sexp(&sexp, &directives)?);
                }
            }
        }
        Ok(units)
    }

    /// Compiles a single formula under explicit directives.
    ///
    /// # Errors
    ///
    /// Returns expansion or lowering errors.
    pub fn compile_sexp(
        &mut self,
        sexp: &Sexp,
        directives: &DirectiveState,
    ) -> Result<CompiledUnit, CompileError> {
        let language = self.opts.language_override.unwrap_or(directives.language);
        // Effective code type: C forces real (paper Section 3.3.3).
        let codetype = if language == Language::C || directives.datatype == DataType::Real {
            DataType::Real
        } else {
            directives.codetype
        };
        let sexp = match self.opts.vectorize {
            Some(m) if m > 1 => Sexp::List(vec![
                Sexp::sym("tensor"),
                sexp.clone(),
                Sexp::List(vec![Sexp::sym("I"), Sexp::Int(m as i64)]),
            ]),
            _ => sexp.clone(),
        };
        let expand_opts = ExpandOptions {
            unroll: directives.unroll == Unroll::On,
            unroll_threshold: self.opts.unroll_threshold,
            defines: self.defines.clone(),
            max_depth: self.opts.limits.max_expand_depth,
            max_steps: self.opts.limits.max_expand_steps,
        };
        let sw = Stopwatch::start();
        let (mut prog, xstats) = expand_formula_with_stats(&sexp, &self.table, &expand_opts)?;
        self.telemetry.record_span("expand", sw.elapsed());
        self.telemetry.add("templates.fold.perm", xstats.fold_perm);
        self.telemetry.add("templates.fold.diag", xstats.fold_diag);
        self.telemetry.add(
            "templates.compose.materialized",
            xstats.compose_materialized,
        );
        // Phase 3: restructuring.
        let sw = Stopwatch::start();
        let (unrolled, ustats) =
            unroll::unroll_with_stats_capped(&prog, self.opts.limits.max_unrolled_ops)?;
        prog = unrolled;
        self.telemetry.record_span("unroll", sw.elapsed());
        self.telemetry
            .add("unroll.loops_fully_unrolled", ustats.loops_fully_unrolled);
        let sw = Stopwatch::start();
        let (evaled, istats) = intrinsics::eval_intrinsics_with_stats(&prog)?;
        prog = evaled;
        self.telemetry.record_span("intrinsics", sw.elapsed());
        self.telemetry
            .add("intrinsics.constants_folded", istats.constants_folded);
        self.telemetry
            .add("intrinsics.tables_hoisted", istats.tables_hoisted);
        self.telemetry
            .add("intrinsics.table_entries", istats.table_entries);
        self.telemetry
            .add("intrinsics.table_cache_hits", istats.table_cache_hits);
        if let Some(factor) = self.opts.partial_unroll {
            let sw = Stopwatch::start();
            let (partial, pstats) = unroll::unroll_partial_with_stats(&prog, factor.max(1))?;
            prog = partial;
            // Partial unrolling belongs to the same paper phase; the
            // span accumulates.
            self.telemetry.record_span("unroll", sw.elapsed());
            self.telemetry.add(
                "unroll.loops_partially_unrolled",
                pstats.loops_partially_unrolled,
            );
        }
        let sw = Stopwatch::start();
        prog = match (directives.datatype, codetype) {
            (DataType::Real, _) => typetrans::mark_real(&prog)?,
            (DataType::Complex, DataType::Real) => typetrans::complex_to_real(&prog)?,
            (DataType::Complex, DataType::Complex) => prog,
        };
        self.telemetry.record_span("typetrans", sw.elapsed());
        // Phase 4: optimization, as a composable pass pipeline built
        // from the `-O` level (with optional per-pass translation
        // validation and pass quarantine).
        let sw = Stopwatch::start();
        let mut builder = passes::PipelineBuilder::for_level(self.opts.opt_level);
        if self.opts.inject_buggy_pass {
            builder = builder.post(passes::testing::DropOp);
        }
        let pipeline = builder.validation(self.opts.verify_passes.clone()).build();
        let outcome = pipeline.run(&prog, &mut self.quarantined)?;
        prog = outcome.program;
        self.telemetry.record_span("optimize", sw.elapsed());
        if self.opts.opt_level != OptLevel::None {
            self.telemetry
                .add("unroll.temps_scalarized", outcome.stats.temps_scalarized);
        }
        if self.opts.opt_level == OptLevel::Default {
            let ostats = &outcome.stats;
            self.telemetry
                .add("optimize.instrs_before", ostats.instrs_before);
            self.telemetry
                .add("optimize.instrs_after", ostats.instrs_after);
            self.telemetry
                .add("optimize.constants_folded", ostats.constants_folded);
            self.telemetry
                .add("optimize.copies_propagated", ostats.copies_propagated);
            self.telemetry.add("optimize.cse_hits", ostats.cse_hits);
            self.telemetry
                .add("optimize.dce_removed", ostats.dce_removed);
            self.telemetry
                .add("optimize.loops_vectorized", ostats.loops_vectorized);
        }
        for ps in &outcome.passes {
            self.telemetry.record_span(
                &format!("pass.{}", ps.name),
                std::time::Duration::from_nanos(ps.wall_ns.min(u64::MAX as u128) as u64),
            );
            self.telemetry
                .add(&format!("pass.{}.runs", ps.name), ps.runs);
            self.telemetry
                .add(&format!("pass.{}.changed", ps.name), ps.changed);
            if ps.probes > 0 {
                self.telemetry
                    .add(&format!("pass.{}.probes", ps.name), ps.probes);
            }
        }
        if !outcome.passes.is_empty() {
            self.telemetry
                .add("pass.fixpoint.iterations", outcome.iterations);
            if outcome.hit_iteration_cap {
                self.telemetry.add("pass.fixpoint.capped", 1);
            }
        }
        if outcome.validation_active {
            self.telemetry.add("pass.validation.active", 1);
        }
        for name in &outcome.quarantined {
            self.telemetry.add(&format!("pass.{name}.quarantined"), 1);
        }
        prog.validate()
            .map_err(|e| CompileError::Internal(e.to_string()))?;
        self.telemetry.add("program.units", 1);
        self.telemetry
            .add("program.instrs", prog.static_instr_count() as u64);
        let name = directives.subname.clone().unwrap_or_else(|| {
            self.counter += 1;
            format!("sub{}", self.counter)
        });
        Ok(CompiledUnit {
            name,
            program: prog,
            formula: sexp,
            datatype: directives.datatype,
            codetype,
            language,
            codegen: CodegenOptions {
                language,
                codetype,
                peephole: self.opts.peephole,
                io_params: self.opts.io_params,
                tables: TableMode::Inline,
            },
        })
    }

    /// Compiles a single formula given as source text with the paper's
    /// experimental configuration (complex data, real code, Fortran).
    ///
    /// # Errors
    ///
    /// Returns parse, expansion, or lowering errors.
    pub fn compile_formula_str(&mut self, src: &str) -> Result<CompiledUnit, CompileError> {
        let sw = Stopwatch::start();
        let sexp = spl_frontend::parse_formula_with_depth(src, self.opts.limits.max_depth)?;
        self.telemetry.record_span("parse", sw.elapsed());
        let directives = DirectiveState {
            datatype: DataType::Complex,
            codetype: DataType::Real,
            ..Default::default()
        };
        self.compile_sexp(&sexp, &directives)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_numeric::Complex;

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).cos(), (i as f64) * 0.25))
            .collect()
    }

    fn run_unit(unit: &CompiledUnit, x: &[Complex]) -> Vec<Complex> {
        use crate::typetrans::testutil::{deinterleave, interleave};
        match (unit.datatype, unit.codetype) {
            (DataType::Complex, DataType::Real) => {
                let flat = spl_icode::interp::run(&unit.program, &interleave(x)).unwrap();
                deinterleave(&flat)
            }
            _ => spl_icode::interp::run(&unit.program, x).unwrap(),
        }
    }

    #[test]
    fn end_to_end_fft_sizes() {
        for (src, n) in [
            ("(F 2)", 2usize),
            ("(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))", 4),
            ("(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))) (L 8 2))", 8),
        ] {
            let mut c = Compiler::new();
            let unit = c.compile_formula_str(src).unwrap();
            let x = ramp(n);
            let y = run_unit(&unit, &x);
            let want = spl_numeric::reference::dft(&x);
            for (a, b) in y.iter().zip(&want) {
                assert!(a.approx_eq(*b, 1e-11), "{src}");
            }
        }
    }

    #[test]
    fn all_opt_levels_agree() {
        let src = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
        let x = ramp(4);
        let mut results = Vec::new();
        for level in [OptLevel::None, OptLevel::ScalarTemps, OptLevel::Default] {
            let mut c = Compiler::with_options(CompilerOptions {
                opt_level: level,
                unroll_threshold: Some(32),
                ..Default::default()
            });
            let unit = c.compile_formula_str(src).unwrap();
            results.push(run_unit(&unit, &x));
        }
        for r in &results[1..] {
            for (a, b) in r.iter().zip(&results[0]) {
                assert!(a.approx_eq(*b, 1e-12));
            }
        }
    }

    #[test]
    fn default_level_shrinks_code() {
        let src = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
        let sizes: Vec<usize> = [OptLevel::None, OptLevel::ScalarTemps, OptLevel::Default]
            .into_iter()
            .map(|level| {
                let mut c = Compiler::with_options(CompilerOptions {
                    opt_level: level,
                    unroll_threshold: Some(32),
                    ..Default::default()
                });
                c.compile_formula_str(src)
                    .unwrap()
                    .program
                    .static_instr_count()
            })
            .collect();
        assert!(sizes[2] < sizes[1], "{sizes:?}");
        assert!(sizes[2] < sizes[0], "{sizes:?}");
    }

    #[test]
    fn paper_i64f2_fortran_output() {
        // The exact program from Section 3.3.1 of the paper.
        let src = "\
#datatype real
#unroll on
(define I2F2 (tensor (I 2) (F 2)))
#unroll off
#subname I64F2
(tensor (I 32) I2F2)
";
        let mut c = Compiler::new();
        let units = c.compile_source(src).unwrap();
        assert_eq!(units.len(), 1);
        let f = units[0].emit();
        assert!(f.contains("subroutine I64F2(y,x)"), "{f}");
        assert!(f.contains("real*8 y(128),x(128)"), "{f}");
        assert!(f.contains("do i0 = 0, 31"), "{f}");
        // The unrolled butterflies at offsets 4*i0 + 1..4 (1-based).
        assert!(f.contains("y(4*i0+1) = x(4*i0+1) + x(4*i0+2)"), "{f}");
        assert!(f.contains("y(4*i0+2) = x(4*i0+1) - x(4*i0+2)"), "{f}");
        assert!(f.contains("y(4*i0+3) = x(4*i0+3) + x(4*i0+4)"), "{f}");
        assert!(f.contains("y(4*i0+4) = x(4*i0+3) - x(4*i0+4)"), "{f}");
        assert!(f.contains("end do"), "{f}");
    }

    #[test]
    fn templates_in_source_extend_compiler() {
        // A user template defining a scaling operator.
        let src = "\
(template (double n_) [n_>=1]
  (do $i0 = 0,n_-1
        $out($i0) = 2 * $in($i0)
   end))
#datatype real
#subname twice
(double 4)
";
        let mut c = Compiler::new();
        let units = c.compile_source(src).unwrap();
        let x: Vec<Complex> = (0..4).map(|i| Complex::real(i as f64 + 1.0)).collect();
        let y = spl_icode::interp::run(&units[0].program, &x).unwrap();
        for (a, b) in y.iter().zip(&x) {
            assert!(a.approx_eq(*b * Complex::real(2.0), 1e-14));
        }
    }

    #[test]
    fn c_output_compiles_formula() {
        let mut c = Compiler::with_options(CompilerOptions {
            language_override: Some(Language::C),
            unroll_threshold: Some(8),
            ..Default::default()
        });
        let unit = c.compile_formula_str("(F 4)").unwrap();
        let src = unit.emit();
        assert!(src.contains("void sub1(double *restrict y, const double *restrict x)"));
    }

    #[test]
    fn vectorize_option_wraps_formula() {
        let mut c = Compiler::with_options(CompilerOptions {
            vectorize: Some(4),
            ..Default::default()
        });
        let unit = c.compile_formula_str("(F 2)").unwrap();
        // 2 complex points × vector length 4 × 2 reals = 16.
        assert_eq!(unit.program.n_in, 16);
        assert_eq!(unit.logical_input_len(), 8);
    }

    #[test]
    fn partial_unroll_option_preserves_semantics() {
        let src = "(compose (tensor (F 2) (I 8)) (T 16 8) (tensor (I 2) (F 8)) (L 16 2))";
        let x = ramp(16);
        let mut plain = Compiler::new();
        let base = run_unit(&plain.compile_formula_str(src).unwrap(), &x);
        let mut partial = Compiler::with_options(CompilerOptions {
            partial_unroll: Some(4),
            ..Default::default()
        });
        let unit = partial.compile_formula_str(src).unwrap();
        let got = run_unit(&unit, &x);
        for (a, b) in got.iter().zip(&base) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn subname_directive_names_unit() {
        let mut c = Compiler::new();
        let units = c.compile_source("#subname myfft\n(F 2)\n(F 4)").unwrap();
        assert_eq!(units[0].name, "myfft");
        assert_eq!(units[1].name, "sub1");
    }

    #[test]
    fn datatype_complex_codetype_complex_keeps_complex_ir() {
        let mut c = Compiler::new();
        let units = c
            .compile_source("#datatype complex\n#codetype complex\n(F 2)")
            .unwrap();
        assert!(units[0].program.complex);
        let f = units[0].emit();
        assert!(f.contains("complex*16 y(2),x(2)"), "{f}");
    }

    #[test]
    fn telemetry_records_phases_and_counters() {
        let src = "#codetype real\n#subname fft4\n\
            (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
        let mut c = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(32),
            ..Default::default()
        });
        let units = c.compile_source(src).unwrap();
        let mut tel = c.take_telemetry();
        let _ = units[0].emit_traced(&mut tel);
        for phase in [
            "parse",
            "expand",
            "unroll",
            "intrinsics",
            "typetrans",
            "optimize",
            "codegen",
        ] {
            assert!(tel.span_ns(phase).is_some(), "missing phase {phase}");
        }
        assert_eq!(tel.counter("program.units"), Some(1));
        assert!(tel.counter("optimize.instrs_before").unwrap() > 0);
        assert!(
            tel.counter("optimize.instrs_after").unwrap()
                < tel.counter("optimize.instrs_before").unwrap()
        );
        assert!(tel.counter("codegen.lines").unwrap() > 0);
        // The accumulator is now empty again.
        assert!(c.telemetry().is_empty());
    }

    fn test_validation(on_miscompile: passes::OnMiscompile) -> passes::Validation {
        passes::Validation {
            on_miscompile,
            dump_dir: None,
            ..passes::Validation::default()
        }
    }

    #[test]
    fn injected_buggy_pass_aborts_with_its_name() {
        let mut c = Compiler::with_options(CompilerOptions {
            inject_buggy_pass: true,
            verify_passes: Some(test_validation(passes::OnMiscompile::Abort)),
            unroll_threshold: Some(32),
            ..Default::default()
        });
        let err = c.compile_formula_str("(F 4)").unwrap_err();
        match err {
            CompileError::MiscompilingPass { pass, .. } => {
                assert_eq!(pass, passes::testing::DROP_OP_NAME)
            }
            other => panic!("expected MiscompilingPass, got {other:?}"),
        }
    }

    #[test]
    fn injected_buggy_pass_is_quarantined_and_result_stays_correct() {
        let mut c = Compiler::with_options(CompilerOptions {
            inject_buggy_pass: true,
            verify_passes: Some(test_validation(passes::OnMiscompile::Quarantine)),
            unroll_threshold: Some(32),
            ..Default::default()
        });
        let unit = c.compile_formula_str("(F 4)").unwrap();
        assert!(c
            .quarantined_passes()
            .contains(passes::testing::DROP_OP_NAME));
        let x = ramp(4);
        let y = run_unit(&unit, &x);
        let want = spl_numeric::reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-11), "quarantined compile wrong");
        }
        // A second unit skips the quarantined pass without re-tripping
        // validation, and the telemetry records the quarantine.
        let unit2 = c.compile_formula_str("(F 2)").unwrap();
        let x2 = ramp(2);
        let y2 = run_unit(&unit2, &x2);
        let want2 = spl_numeric::reference::dft(&x2);
        for (a, b) in y2.iter().zip(&want2) {
            assert!(a.approx_eq(*b, 1e-11));
        }
        let tel = c.take_telemetry();
        let key = format!("pass.{}.quarantined", passes::testing::DROP_OP_NAME);
        assert_eq!(tel.counter(&key), Some(1));
        assert_eq!(tel.counter("pass.validation.active"), Some(2));
    }

    #[test]
    fn verify_passes_clean_compile_records_probes() {
        let mut c = Compiler::with_options(CompilerOptions {
            verify_passes: Some(test_validation(passes::OnMiscompile::Abort)),
            unroll_threshold: Some(32),
            ..Default::default()
        });
        let unit = c.compile_formula_str("(F 4)").unwrap();
        let x = ramp(4);
        let y = run_unit(&unit, &x);
        let want = spl_numeric::reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-11));
        }
        let tel = c.take_telemetry();
        assert_eq!(tel.counter("pass.validation.active"), Some(1));
        assert!(tel.counter("pass.value-number.probes").unwrap_or(0) > 0);
        assert!(tel.counter("pass.value-number.runs").unwrap_or(0) > 0);
        assert!(tel.counter("pass.fixpoint.iterations").unwrap_or(0) > 0);
    }

    #[test]
    fn paper_f8_two_formulas_compute_same_result() {
        // Section 4.1's two different F8 factorizations.
        let f4 = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
        let formula1 =
            format!("(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) {f4}) (L 8 2))");
        let formula2 =
            format!("(compose (tensor {f4} (I 2)) (T 8 2) (tensor (I 4) (F 2)) (L 8 4))");
        let x = ramp(8);
        let mut c = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(32),
            ..Default::default()
        });
        let u1 = c.compile_formula_str(&formula1).unwrap();
        let u2 = c.compile_formula_str(&formula2).unwrap();
        let y1 = run_unit(&u1, &x);
        let y2 = run_unit(&u2, &x);
        let want = spl_numeric::reference::dft(&x);
        for ((a, b), w) in y1.iter().zip(&y2).zip(&want) {
            assert!(a.approx_eq(*w, 1e-11));
            assert!(b.approx_eq(*w, 1e-11));
        }
        // Different factorizations produce different instruction orders.
        assert_ne!(u1.program.instrs, u2.program.instrs);
    }
}
