//! Target code generation (paper Section 3.5): Fortran and C emitters.
//!
//! Both emitters print the *optimized i-code*; they share the affine
//! subscript printer and differ in declarations, array base (Fortran is
//! 1-based), loop syntax, and constant formatting. Two machine-dependent
//! peepholes from Section 3.4 are applied here because they are purely
//! syntactic: rewriting unary minus as `0 - x` / negative constants, and
//! declaring temporaries `automatic` (Fortran).
//!
//! Plain C (no peepholes, no offset/stride parameters) prints each run
//! of arithmetic outside any loop on complex pairs, 2-lane GNU C vectors
//! (the `pack` module), and under `#if defined(__AVX__)` also two pairs
//! per 32-byte vector where that takes fewer statements; and so, on
//! pairs, each innermost loop body that loads with a stride in its loop
//! variable. An innermost loop of an even trip count
//! whose every subscript steps by one complex value per iteration (a
//! load may also not step) prints wide, two iterations per 32-byte
//! vector, under `#if defined(__AVX__)`, and as scalar statements under
//! `#else`: the C compiler would vectorise it that way itself, at a
//! price in compile time, and without AVX it lowers 32-byte vectors
//! element by element. One level out, a *lane nest* ([`lane_nests`])
//! takes the loop over independent sub-transforms around such a leaf
//! body two iterations per vector in the same way. Other loop bodies
//! stay scalar statements, which the C compiler vectorises across
//! iterations itself.

use std::fmt::Write as _;
use std::ops::Range;

use spl_frontend::ast::{DataType, Language};
use spl_icode::{BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
use spl_numeric::Complex;

use crate::mix::MixMap;
use crate::pack::{self, PackedRun, Wide};

/// Where the C emitter puts a program's constant tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableMode {
    /// Initialised in the text, as decimal literals: the subroutine is
    /// the whole program (`splc`'s output, and all there is in Fortran).
    #[default]
    Inline,
    /// Declared in the text, filled by the loader: written file-scope
    /// statics plus one more entry point,
    /// `void <name>_tables(const double *src)`, which copies consecutive
    /// slices of `src` — [`table_values`] — into them, and which must
    /// run once before the subroutine does. For a host that has the
    /// values in memory anyway and pays a C compiler per byte of text.
    Loaded,
}

/// Every table value of `prog` in [`IProgram::tables`] order, as the
/// real-typed C emitter prints them: what a [`TableMode::Loaded`]
/// subroutine's `<name>_tables` entry point expects.
pub fn table_values(prog: &IProgram) -> Vec<f64> {
    prog.tables.iter().flatten().map(|c| c.re).collect()
}

/// Code generation options.
#[derive(Debug, Clone)]
pub struct CodegenOptions {
    /// Target language.
    pub language: Language,
    /// Scalar type of the generated code (complex only valid for
    /// Fortran).
    pub codetype: DataType,
    /// Apply the SPARC peepholes: no unary minus, parenthesized negative
    /// constants, `automatic` temporaries.
    pub peephole: bool,
    /// Add input/output offset and stride parameters to the subroutine
    /// signature.
    pub io_params: bool,
    /// Where constant tables go (C only).
    pub tables: TableMode,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions {
            language: Language::Fortran,
            codetype: DataType::Real,
            peephole: false,
            io_params: false,
            tables: TableMode::Inline,
        }
    }
}

/// What one emit printed, by statement kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmitStats {
    /// Statements on complex pairs: 2-lane vector ops, loads, stores,
    /// shuffles and literals.
    pub paired_stmts: u64,
    /// Statements on one double: every arithmetic statement of code left
    /// scalar (most loop bodies), plus a packed run's fallbacks (scalar
    /// ops and stores, `(v2d){a, b}` builds, live-out `$f`s).
    pub scalar_stmts: u64,
    /// Loop bodies printed on complex pairs.
    pub packed_loops: u64,
    /// Loop bodies printed two iterations per 32-byte vector, beside
    /// their scalar form.
    pub wide_loops: u64,
    /// Loops whose iterations print two per 32-byte vector around one
    /// leaf body, the rest of the body once per lane, beside their
    /// form without lanes.
    pub lane_nests: u64,
    /// Statements on two complex pairs per 32-byte vector in the AVX
    /// form of runs outside any loop: loads, stores, arithmetic, shuffles,
    /// sign masks and builds of four lanes.
    pub quad_stmts: u64,
    /// The 128-bit half moves beside them: joins of two halves into one
    /// 32-byte vector, and halves taken out of one.
    pub quad_joins: u64,
}

impl EmitStats {
    /// Counts one statement: on one double, or on a pair.
    pub(crate) fn count(&mut self, scalar: bool) {
        self.scalar_stmts += u64::from(scalar);
        self.paired_stmts += u64::from(!scalar);
    }
}

/// Emits a complete subroutine for the program.
///
/// # Panics
///
/// Panics if asked for complex-typed C (the driver prevents this
/// combination, mirroring the paper: "of the popular imperative languages
/// only Fortran supports complex").
pub fn emit(name: &str, prog: &IProgram, opts: &CodegenOptions) -> String {
    emit_counted(name, prog, opts).0
}

/// [`emit`], and how many statements of each kind it printed.
///
/// # Panics
///
/// As [`emit`].
pub fn emit_counted(name: &str, prog: &IProgram, opts: &CodegenOptions) -> (String, EmitStats) {
    match opts.language {
        Language::Fortran => emit_fortran(name, prog, opts),
        Language::C => {
            assert!(
                opts.codetype == DataType::Real,
                "C output requires real codetype"
            );
            emit_c(name, prog, opts)
        }
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Appends the literal for `v` to `buf`.
fn write_f64(buf: &mut String, v: f64, fortran: bool) {
    let start = buf.len();
    let _ = write!(buf, "{v:?}"); // shortest round-trip
    if fortran {
        match buf[start..].find(['e', 'E']) {
            Some(pos) => buf.replace_range(start + pos..=start + pos, "d"),
            None => buf.push_str("d0"),
        }
    }
}

/// Table literals printed so far, by the bits of their magnitude: a
/// large transform's tables repeat most of their values and the values'
/// negations, and formatting a double is most of what printing one
/// costs. What [`Literals::write`] appends is what [`write_f64`] does.
#[derive(Default)]
struct Literals {
    text: String,
    at: MixMap<u64, (u32, u32)>,
}

impl Literals {
    /// Appends the literal for `v` to `buf`: its sign, then its
    /// magnitude's digits, formatted on first sight only.
    fn write(&mut self, buf: &mut String, v: f64, fortran: bool) {
        if v.is_nan() {
            return write_f64(buf, v, fortran);
        }
        if v.is_sign_negative() {
            buf.push('-');
        }
        let Literals { text, at } = self;
        let (start, end) = *at.entry(v.abs().to_bits()).or_insert_with(|| {
            let start = text.len();
            write_f64(text, v.abs(), fortran);
            (start as u32, text.len() as u32)
        });
        buf.push_str(&text[start as usize..end as usize]);
    }
}

/// Appends the literal for `c` to `buf`.
fn write_const(buf: &mut String, c: Complex, complex_code: bool, fortran: bool, peephole: bool) {
    if complex_code {
        buf.push('(');
        write_f64(buf, c.re, fortran);
        buf.push(',');
        write_f64(buf, c.im, fortran);
        buf.push(')');
    } else {
        debug_assert!(c.is_real());
        let parens = c.re < 0.0 && peephole;
        if parens {
            buf.push('(');
        }
        write_f64(buf, c.re, fortran);
        if parens {
            buf.push(')');
        }
    }
}

/// Calls `f` with every `$f` register `v` reads.
pub(crate) fn each_f(v: &Value, f: &mut dyn FnMut(u32)) {
    match v {
        Value::Place(Place::F(k)) => f(*k),
        Value::Intrinsic(_, args) => args.iter().for_each(|a| each_f(a, f)),
        _ => {}
    }
}

/// Appends the name of `kind`'s array.
pub(crate) fn write_array(buf: &mut String, kind: VecKind) {
    let _ = match kind {
        VecKind::In => write!(buf, "x"),
        VecKind::Out => write!(buf, "y"),
        VecKind::Temp(t) => write!(buf, "t{t}"),
        VecKind::Table(t) => write!(buf, "d{t}"),
    };
}

/// The operator as both languages spell it.
pub(crate) fn bin_sym(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
    }
}

/// Appends the affine subscript `terms` + `c`.
pub(crate) fn write_affine(buf: &mut String, terms: &[(i64, LoopVar)], c: i64) {
    for (k, &(c, v)) in terms.iter().enumerate() {
        let _ = if c == 1 {
            if k > 0 {
                buf.push('+');
            }
            write!(buf, "i{}", v.0)
        } else if c == -1 {
            write!(buf, "-i{}", v.0)
        } else if c < 0 {
            write!(buf, "-{}*i{}", -c, v.0)
        } else {
            if k > 0 {
                buf.push('+');
            }
            write!(buf, "{c}*i{}", v.0)
        };
    }
    if terms.is_empty() || c < 0 {
        let _ = write!(buf, "{c}");
    } else if c > 0 {
        let _ = write!(buf, "+{c}");
    }
}

struct Emit<'a> {
    prog: &'a IProgram,
    opts: &'a CodegenOptions,
    fortran: bool,
    buf: String,
    indent: usize,
    stats: EmitStats,
    literals: Literals,
    /// Printing a lane nest's AVX form (`Some(true)`) or its form without
    /// lanes (`Some(false)`), where a wide loop prints that form alone.
    guarded: Option<bool>,
}

impl<'a> Emit<'a> {
    fn new(prog: &'a IProgram, opts: &'a CodegenOptions) -> Self {
        Emit {
            prog,
            opts,
            fortran: opts.language == Language::Fortran,
            buf: String::new(),
            indent: 0,
            stats: EmitStats::default(),
            literals: Literals::default(),
            guarded: None,
        }
    }

    fn line(&mut self, s: &str) {
        self.open_line();
        self.buf.push_str(s);
        self.buf.push('\n');
    }

    /// Starts a line: the margin (Fortran's six columns) and the indent.
    fn open_line(&mut self) {
        let pad = if self.fortran { 6 } else { 0 };
        let width = pad + self.indent * 2;
        self.buf.extend(std::iter::repeat_n(' ', width));
    }

    /// One line of a table initializer: `lead`, then the literals of
    /// `chunk` separated by `sep`, then `tail` — streamed into the
    /// buffer, since tables are most of the text of a large transform.
    fn table_line(&mut self, lead: &str, chunk: &[Complex], sep: &str, tail: &str) {
        let complex_code = self.fortran && self.opts.codetype == DataType::Complex;
        self.open_line();
        self.buf.push_str(lead);
        for (k, c) in chunk.iter().enumerate() {
            if k > 0 {
                self.buf.push_str(sep);
            }
            if complex_code {
                self.buf.push('(');
                self.literals.write(&mut self.buf, c.re, true);
                self.buf.push(',');
                self.literals.write(&mut self.buf, c.im, true);
                self.buf.push(')');
            } else {
                debug_assert!(!self.fortran || c.is_real());
                self.literals.write(&mut self.buf, c.re, self.fortran);
            }
        }
        self.buf.push_str(tail);
        self.buf.push('\n');
    }

    fn vec_access(&mut self, v: &VecRef) {
        let buf = &mut self.buf;
        write_array(buf, v.kind);
        buf.push(if self.fortran { '(' } else { '[' });
        let io = matches!(v.kind, VecKind::In | VecKind::Out);
        if io && self.opts.io_params {
            buf.push_str(if v.kind == VecKind::In {
                "xofs+xstr*("
            } else {
                "yofs+ystr*("
            });
            write_affine(buf, &v.idx.terms, v.idx.c);
            buf.push_str(if self.fortran { ")+1" } else { ")" });
        } else {
            // Fortran arrays are 1-based.
            write_affine(buf, &v.idx.terms, v.idx.c + i64::from(self.fortran));
        }
        buf.push(if self.fortran { ')' } else { ']' });
    }

    fn place(&mut self, p: &Place) {
        let _ = match p {
            Place::F(k) => write!(self.buf, "f{k}"),
            Place::R(k) => write!(self.buf, "r{k}"),
            Place::Vec(v) => {
                self.vec_access(v);
                Ok(())
            }
        };
    }

    fn value(&mut self, v: &Value) {
        let complex_fortran = self.opts.codetype == DataType::Complex && self.fortran;
        let _ = match v {
            Value::Place(p) => {
                self.place(p);
                Ok(())
            }
            Value::Const(c) => {
                let complex_code = self.opts.codetype == DataType::Complex;
                write_const(
                    &mut self.buf,
                    *c,
                    complex_code,
                    self.fortran,
                    self.opts.peephole,
                );
                Ok(())
            }
            Value::Int(i) if complex_fortran => write!(self.buf, "({i}.0d0,0.0d0)"),
            Value::Int(i) => write!(self.buf, "{i}"),
            Value::LoopIdx(lv) => write!(self.buf, "i{}", lv.0),
            Value::Intrinsic(name, args) => {
                // Should not survive intrinsic evaluation; print anyway
                // for debuggability.
                let _ = write!(self.buf, "{name}(");
                for (k, a) in args.iter().enumerate() {
                    if k > 0 {
                        self.buf.push_str(", ");
                    }
                    self.value(a);
                }
                write!(self.buf, ")")
            }
        };
    }

    /// The statements of `range`; each of `runs` replaces the scalar
    /// statements of its instructions.
    fn body<'r>(&mut self, range: Range<usize>, runs: impl IntoIterator<Item = &'r PackedRun>) {
        let prog = self.prog;
        let mut runs = runs.into_iter().peekable();
        let mut i = range.start;
        while i < range.end {
            if let Some(run) = runs.next_if(|r| r.range.start == i) {
                if let Some(nest) = &run.nest {
                    self.lane_nest(run, nest);
                } else if run.stats.wide_loops > 0 {
                    self.wide_loop(run);
                } else {
                    self.buf.push_str(&run.text);
                }
                self.stats.paired_stmts += run.stats.paired_stmts;
                self.stats.scalar_stmts += run.stats.scalar_stmts;
                self.stats.packed_loops += run.stats.packed_loops;
                self.stats.wide_loops += run.stats.wide_loops;
                self.stats.lane_nests += run.stats.lane_nests;
                self.stats.quad_stmts += run.stats.quad_stmts;
                self.stats.quad_joins += run.stats.quad_joins;
                i = run.range.end;
                continue;
            }
            self.instr(&prog.instrs[i]);
            i += 1;
        }
    }

    /// Declares the `$f` registers `which` marks, ten a line.
    fn declare_f(&mut self, which: &[bool]) {
        let declared: Vec<usize> = (0..which.len()).filter(|&k| which[k]).collect();
        for chunk in declared.chunks(10) {
            self.open_line();
            self.buf.push_str("double ");
            for (i, k) in chunk.iter().enumerate() {
                let _ = write!(self.buf, "{}f{k}", if i > 0 { ", " } else { "" });
            }
            self.buf.push_str(";\n");
        }
    }

    /// The loop `run` spans, `do` to `end`: stepping by 2 around the
    /// run's two-iteration body where AVX compiles it, as scalar
    /// statements elsewhere.
    fn wide_loop(&mut self, run: &PackedRun) {
        let Instr::DoStart { var, lo, hi, .. } = self.prog.instrs[run.range.start] else {
            unreachable!("a wide run spans its loop")
        };
        let v = var.0;
        let guard = self.guarded.is_none();
        if guard {
            self.buf.push_str("#if defined(__AVX__)\n");
        }
        if self.guarded != Some(false) {
            self.open_line();
            let _ = writeln!(self.buf, "for (i{v} = {lo}; i{v} <= {hi}; i{v} += 2) {{");
            self.buf.push_str(&run.text);
            self.line("}");
        }
        if guard {
            self.buf.push_str("#else\n");
        }
        if self.guarded != Some(true) {
            for ins in &self.prog.instrs[run.range.clone()] {
                self.instr(ins);
            }
        }
        if guard {
            self.buf.push_str("#endif\n");
        }
    }

    /// The loop `run` spans as its lane nest where AVX compiles it, and
    /// elsewhere as such a build compiles it without one.
    fn lane_nest(&mut self, run: &PackedRun, nest: &LaneNest) {
        self.buf.push_str("#if defined(__AVX__)\n");
        self.buf.push_str(&run.text);
        self.buf.push_str("#else\n");
        self.guarded = Some(false);
        self.body(run.range.clone(), &nest.inner);
        self.guarded = None;
        self.buf.push_str("#endif\n");
    }

    fn instr(&mut self, ins: &Instr) {
        match ins {
            Instr::DoStart { var, lo, hi, .. } => {
                self.open_line();
                let v = var.0;
                let _ = if self.fortran {
                    writeln!(self.buf, "do i{v} = {lo}, {hi}")
                } else {
                    writeln!(self.buf, "for (i{v} = {lo}; i{v} <= {hi}; i{v}++) {{")
                };
                self.indent += 1;
            }
            Instr::DoEnd => {
                self.indent -= 1;
                self.line(if self.fortran { "end do" } else { "}" });
            }
            Instr::Bin { op, dst, a, b } => {
                self.open_line();
                self.place(dst);
                self.buf.push_str(" = ");
                self.value(a);
                self.buf.push(' ');
                self.buf.push_str(bin_sym(*op));
                self.buf.push(' ');
                self.value(b);
                self.end_stmt();
            }
            Instr::Un { op, dst, a } => {
                self.open_line();
                self.place(dst);
                self.buf.push_str(match op {
                    UnOp::Copy => " = ",
                    // SPARC peephole: arithmetic negation is a
                    // single-precision instruction; emit a subtraction
                    // instead (paper Section 3.4).
                    UnOp::Neg if self.opts.peephole => " = 0 - ",
                    UnOp::Neg => " = -",
                });
                self.value(a);
                self.end_stmt();
            }
        }
    }

    /// Ends an arithmetic statement.
    fn end_stmt(&mut self) {
        self.buf.push_str(if self.fortran { "\n" } else { ";\n" });
        self.stats.scalar_stmts += 1;
    }
}

// ---------------------------------------------------------------------
// Fortran
// ---------------------------------------------------------------------

fn emit_fortran(name: &str, prog: &IProgram, opts: &CodegenOptions) -> (String, EmitStats) {
    let mut e = Emit::new(prog, opts);
    let complex_code = opts.codetype == DataType::Complex;
    let scalar_ty = if complex_code { "complex*16" } else { "real*8" };
    let args = if opts.io_params {
        "(y,x,yofs,xofs,ystr,xstr)"
    } else {
        "(y,x)"
    };
    e.line(&format!("subroutine {name}{args}"));
    e.line("implicit real*8 (f)");
    e.line("implicit integer (r)");
    if complex_code && prog.n_f > 0 {
        // Override the implicit for complex code.
        let decls: Vec<String> = (0..prog.n_f).map(|k| format!("f{k}")).collect();
        for chunk in decls.chunks(8) {
            e.line(&format!("complex*16 {}", chunk.join(",")));
        }
    }
    e.line(&format!(
        "{scalar_ty} y({ny}),x({nx})",
        ny = prog.n_out,
        nx = prog.n_in
    ));
    if opts.io_params {
        e.line("integer yofs,xofs,ystr,xstr");
    }
    for (t, &len) in prog.temps.iter().enumerate() {
        if len > 0 {
            e.line(&format!("{scalar_ty} t{t}({len})"));
            if opts.peephole {
                // Stack allocation of temporaries (paper Section 3.4).
                e.line(&format!("automatic t{t}"));
            }
        }
    }
    for (t, table) in prog.tables.iter().enumerate() {
        e.line(&format!("{scalar_ty} d{t}({})", table.len()));
        for (k, chunk) in table.chunks(4).enumerate() {
            if k == 0 {
                e.table_line(&format!("data d{t} /"), chunk, ",", "");
            } else {
                e.table_line("     . ,", chunk, ",", "");
            }
        }
        e.line("     . /");
    }
    e.body(0..prog.instrs.len(), &[]);
    e.line("end");
    (e.buf, e.stats)
}

// ---------------------------------------------------------------------
// C
// ---------------------------------------------------------------------

/// The vector types of a unit with packed runs, guarded because one file
/// may hold several units (`spl-minifft`'s `codelets.c` holds six).
const PAIR_TYPES: &str = "\
#ifndef SPL_V2D
#define SPL_V2D
typedef double spl_v2d __attribute__((vector_size(16)));
typedef double spl_v2du __attribute__((vector_size(16), aligned(8), may_alias));
typedef long long spl_v2l __attribute__((vector_size(16)));
#define SPL_SIGN (-0x7fffffffffffffffLL - 1)
#endif

";

/// The 32-byte types of a unit with wide loop bodies or quads, which
/// only an AVX build compiles.
const WIDE_TYPES: &str = "\
#if defined(__AVX__) && !defined(SPL_V4D)
#define SPL_V4D
typedef double spl_v4d __attribute__((vector_size(32)));
typedef double spl_v4du __attribute__((vector_size(32), aligned(8), may_alias));
typedef long long spl_v4l __attribute__((vector_size(32)));
#endif

";

/// The C subroutine. `y` and `x` are `restrict`: a caller must pass
/// buffers that do not overlap, as the VM and the dense oracle already
/// require (generated code writes outputs long before its last read of
/// an input), and the C compiler may then keep the loads and stores of a
/// loop body in registers across each other.
///
/// Runs of arithmetic outside any loop, and the innermost loop bodies
/// [`packed_runs`] picks, are printed on complex pairs or wide unless the
/// options ask for the paper's peepholes or for offset/stride parameters;
/// a unit with a packed run starts with the vector types. A wide loop, a
/// lane nest or a run on quads is printed twice, under
/// `#if defined(__AVX__)` and under `#else`, so that one text builds at
/// every ISA level: without AVX, gcc
/// lowers 32-byte vectors element by element. The `$f` registers only one
/// side names are declared under its condition, and so are a lane nest's
/// lane loop variable and its temporaries' lane-1 copies (each behind
/// lane 0's, in one array of twice the length).
fn emit_c(name: &str, prog: &IProgram, opts: &CodegenOptions) -> (String, EmitStats) {
    let runs = if opts.peephole || opts.io_params {
        Vec::new()
    } else {
        packed_runs(prog, opts)
    };
    emit_c_runs(name, prog, opts, &runs)
}

/// [`emit_c`] with `runs` printed in place of their instructions.
fn emit_c_runs(
    name: &str,
    prog: &IProgram,
    opts: &CodegenOptions,
    runs: &[PackedRun],
) -> (String, EmitStats) {
    let mut e = Emit::new(prog, opts);
    // The packed runs' text is most of the unit's: room for it up front.
    e.buf
        .reserve(runs.iter().map(|r| r.text.len()).sum::<usize>() + 1024);
    if !runs.is_empty() {
        e.buf.push_str(PAIR_TYPES);
    }
    if runs
        .iter()
        .any(|r| r.stats.wide_loops + r.stats.lane_nests + r.stats.quad_stmts > 0)
    {
        e.buf.push_str(WIDE_TYPES);
    }
    let args = if opts.io_params {
        "(double *restrict y, const double *restrict x, long yofs, long xofs, long ystr, long xstr)"
    } else {
        "(double *restrict y, const double *restrict x)"
    };
    let loaded = opts.tables == TableMode::Loaded && !prog.tables.is_empty();
    if loaded {
        // Written (by `_tables`, below), so the C compiler can neither
        // fold them to zero nor has a literal of them to parse; 32-byte
        // aligned for the vector loads of the lane-wide loops.
        for (t, table) in prog.tables.iter().enumerate() {
            e.line(&format!(
                "static double d{t}[{}] __attribute__((aligned(32)));",
                table.len()
            ));
        }
        e.line(&format!("void {name}_tables(const double *src)"));
        e.line("{");
        e.indent = 1;
        e.line("long i;");
        let mut at = 0;
        for (t, table) in prog.tables.iter().enumerate() {
            let len = table.len();
            e.line(&format!(
                "for (i = 0; i < {len}; i++) d{t}[i] = src[{at}+i];"
            ));
            at += len;
        }
        e.indent = 0;
        e.line("}");
    }
    e.line(&format!("void {name}{args}"));
    e.line("{");
    e.indent = 1;
    if !loaded {
        for (t, table) in prog.tables.iter().enumerate() {
            e.line(&format!("static const double d{t}[{}] = {{", table.len()));
            for chunk in table.chunks(4) {
                e.table_line("  ", chunk, ", ", ",");
            }
            e.line("};");
        }
    }
    let nests: Vec<&LaneNest> = runs.iter().filter_map(|r| r.nest.as_deref()).collect();
    for (t, &len) in prog.temps.iter().enumerate() {
        if len == 0 {
            continue;
        }
        // Static storage, like Fortran's default: large transforms
        // would overflow the stack with automatic arrays.
        if nests.iter().any(|n| n.private.contains(&(t as u32))) {
            e.buf.push_str("#if defined(__AVX__)\n");
            e.line(&format!("static double t{t}[{}];", 2 * len));
            e.buf.push_str("#else\n");
            e.line(&format!("static double t{t}[{len}];"));
            e.buf.push_str("#endif\n");
        } else {
            e.line(&format!("static double t{t}[{len}];"));
        }
    }
    let [used, scalar_only, avx_only] = f_used(prog, runs);
    e.declare_f(&used);
    for (guard, which) in [("#if !", &scalar_only), ("#if ", &avx_only)] {
        if which.contains(&true) {
            e.buf.push_str(guard);
            e.buf.push_str("defined(__AVX__)\n");
            e.declare_f(which);
            e.buf.push_str("#endif\n");
        }
    }
    if prog.n_r > 0 {
        let decls: Vec<String> = (0..prog.n_r).map(|k| format!("r{k}")).collect();
        e.line(&format!("long {};", decls.join(", ")));
    }
    let loop_vars: Vec<String> = collect_loop_vars(prog);
    if !loop_vars.is_empty() {
        e.line(&format!("long {};", loop_vars.join(", ")));
    }
    if let Some(lane) = nests.iter().find_map(|n| n.lane) {
        e.buf.push_str("#if defined(__AVX__)\n");
        e.line(&format!("long i{};", lane.0));
        e.buf.push_str("#endif\n");
    }
    e.body(0..prog.instrs.len(), runs);
    e.indent = 0;
    e.line("}");
    (e.buf, e.stats)
}

/// The runs of arithmetic that print on complex pairs: those outside any
/// loop (and on quads beside), and the innermost loop bodies that load with a stride in their
/// loop variable (a coefficient other than 0 or 2: more than one complex
/// value per iteration). And the loops whose bodies print wide: innermost
/// loops of an even trip count whose every subscript steps by one complex
/// value per iteration (a load may also not step), which the packer takes
/// whole. A wide run spans its loop, `do` to `end`. Then the lane nests
/// ([`lane_nests`]), which take the runs inside them along. The C
/// compiler is left to vectorise the other loops itself.
fn packed_runs(prog: &IProgram, opts: &CodegenOptions) -> Vec<PackedRun> {
    let read_until = read_until(prog);
    let mut names = 0;
    let runs = pair_and_wide_runs(prog, &read_until, &mut names);
    lane_nests(prog, opts, runs, &read_until, &mut names)
}

/// One past the last read of each `$f`: a register a run assigns is live
/// out when that lies beyond the run. A read in a loop of a value from
/// before its loop's body counts until the outermost loop ends, since a
/// later iteration may read what a later body assigns.
fn read_until(prog: &IProgram) -> Vec<usize> {
    let mut read_until = vec![0; prog.n_f as usize];
    let (mut set_at, mut starts, mut exposed) = (vec![0; prog.n_f as usize], vec![], vec![]);
    for (i, ins) in prog.instrs.iter().enumerate() {
        ins.for_each_value(&mut |v| {
            each_f(v, &mut |k| {
                read_until[k as usize] = i + 1;
                if starts.last().is_some_and(|&s| set_at[k as usize] <= s) {
                    exposed.push(k as usize);
                }
            })
        });
        match ins {
            Instr::DoStart { .. } => starts.push(i),
            Instr::DoEnd => {
                starts.pop();
                if starts.is_empty() {
                    exposed.drain(..).for_each(|k: usize| read_until[k] = i + 1);
                }
            }
            _ => {
                if let Some(Place::F(k)) = ins.dst() {
                    set_at[*k as usize] = i + 1;
                }
            }
        }
    }
    read_until
}

/// The runs of [`packed_runs`] on pairs and wide.
fn pair_and_wide_runs(prog: &IProgram, read_until: &[usize], names: &mut u32) -> Vec<PackedRun> {
    let (mut out, mut open, mut i) = (Vec::new(), Vec::new(), 0);
    while i < prog.instrs.len() {
        let start = i;
        while prog.instrs.get(i).is_some_and(|ins| ins.dst().is_some()) {
            i += 1;
        }
        if i > start {
            // `Some(wide)`: the packer is offered the run, two iterations
            // of `wide`'s loop per vector or, `None`, on pairs.
            let offered = match open.last() {
                None => Some(None),
                // A whole innermost body: `do` before it, `end` after it.
                Some(&(var, trips))
                    if matches!(prog.instrs[start - 1], Instr::DoStart { .. })
                        && matches!(prog.instrs.get(i), Some(Instr::DoEnd)) =>
                {
                    match stride(&prog.instrs[start..i], var) {
                        Stride::Strided => Some(None),
                        Stride::Unit if trips % 2 == 0 => Some(Some(Wide { var, copy: &[] })),
                        _ => None,
                    }
                }
                Some(_) => None,
            };
            if let Some(wide) = offered {
                let pad = "  ".repeat(open.len() + 1);
                let quads = open.is_empty();
                let run = pack::pack(prog, start..i, read_until, names, &pad, wide, quads);
                out.extend(run.map(|mut r| {
                    if wide.is_some() {
                        r.range = start - 1..i + 1;
                        r.stats.wide_loops = 1;
                    } else {
                        r.stats.packed_loops = u64::from(!open.is_empty());
                    }
                    r
                }));
            }
            continue;
        }
        match prog.instrs[i] {
            Instr::DoStart { var, lo, hi, .. } => open.push((var, hi - lo + 1)),
            _ => drop(open.pop()),
        }
        i += 1;
    }
    out
}

/// What a lane nest's run holds beside the text of its AVX form.
pub(crate) struct LaneNest {
    /// The runs inside the loop, which its form without lanes prints.
    inner: Vec<PackedRun>,
    /// The `$f` registers the AVX form names.
    f: Vec<u32>,
    /// The temporaries kept per lane: twice their length under AVX.
    private: Vec<u32>,
    /// The lane loop's variable, when the AVX form has a lane loop.
    lane: Option<LoopVar>,
}

/// A loop of a program: its `do` and `end` instructions, its variable
/// and bounds, and the loop around it.
struct Loop {
    start: usize,
    end: usize,
    var: LoopVar,
    lo: i64,
    hi: i64,
    parent: Option<usize>,
}

impl Loop {
    fn trips(&self) -> i64 {
        self.hi - self.lo + 1
    }
}

/// The loops of `prog`, in the order they start.
fn loops(prog: &IProgram) -> Vec<Loop> {
    let (mut out, mut open) = (Vec::<Loop>::new(), Vec::new());
    for (i, ins) in prog.instrs.iter().enumerate() {
        match *ins {
            Instr::DoStart { var, lo, hi, .. } => {
                let parent = open.last().copied();
                open.push(out.len());
                out.push(Loop {
                    start: i,
                    end: i,
                    var,
                    lo,
                    hi,
                    parent,
                });
            }
            Instr::DoEnd => {
                if let Some(k) = open.pop() {
                    out[k].end = i;
                }
            }
            _ => {}
        }
    }
    out
}

/// The lane nests (the paper's `A ⊗ I_2` on a loop over independent
/// sub-transforms): for each *leaf*, an innermost loop body not printed
/// wide, the innermost loop `v` around it, or its own, in whose variable
/// every load of the leaf steps by 0 or 2 doubles and one by 2. Where `v`
/// has an even trip count and [`lanes_legal`] holds, `v` takes its trips
/// two at a time under `#if defined(__AVX__)`: the leaf prints wide,
/// iterations `v` and `v+1` in one vector, and the rest of `v`'s body, at
/// each level between `v` and the leaf, prints once per lane, its arrays
/// shadowed by pointers to the lane's elements ([`lane_nest`]). Each lane
/// runs its iteration's IEEE operations, as the VM does, in another order
/// of independent ones.
///
/// A nest's run spans `v`, and `runs` inside it move into the nest: its
/// form without lanes, under `#else`, is the text `v` prints without it.
fn lane_nests(
    prog: &IProgram,
    opts: &CodegenOptions,
    runs: Vec<PackedRun>,
    read_until: &[usize],
    names: &mut u32,
) -> Vec<PackedRun> {
    let loops = loops(prog);
    // The lane loop's variable: one no loop of the program has.
    let lane = LoopVar(loops.iter().map(|l| l.var.0 + 1).max().unwrap_or(0));
    let mut nests: Vec<PackedRun> = Vec::new();
    for (k, leaf) in loops.iter().enumerate() {
        let body = &prog.instrs[leaf.start + 1..leaf.end];
        let wide = matches!(stride(body, leaf.var), Stride::Unit) && leaf.trips() % 2 == 0;
        if body.is_empty() || wide || body.iter().any(|ins| ins.dst().is_none()) {
            continue;
        }
        let mut around = std::iter::successors(Some(k), |&a| loops[a].parent);
        let Some(v) = around.find(|&a| loads_pair_by_pair(body, loops[a].var)) else {
            continue;
        };
        // A leaf loop of its own whose stores all step by two pairs: the
        // two lanes store one line, as gcc's own vectorised loop does, and
        // that loop ran faster (2⁷'s first loop, EXPERIMENTS.md).
        let mut stores = body.iter().filter_map(|ins| match ins.dst() {
            Some(Place::Vec(r)) => Some(step(r, leaf.var)),
            _ => None,
        });
        if v == k && stores.all(|s| s == 4) {
            continue;
        }
        if nests.last().is_some_and(|n| n.range.end > loops[v].start) {
            continue;
        }
        let at = (v, k);
        nests.extend(lane_nest(
            prog,
            opts,
            &loops,
            at,
            lane,
            (read_until, names),
            &runs,
        ));
    }
    if nests.is_empty() {
        return runs;
    }
    let (mut out, mut nests) = (Vec::new(), nests.into_iter().peekable());
    for run in runs {
        out.extend(std::iter::from_fn(|| {
            nests.next_if(|n| n.range.end <= run.range.start)
        }));
        match nests.peek_mut() {
            Some(n) if n.range.start <= run.range.start => {
                n.nest.as_mut().expect("a lane nest").inner.push(run);
            }
            _ => out.push(run),
        }
    }
    out.extend(nests);
    out
}

/// Whether every load of `body` steps by 0 or 2 doubles in `var`, and
/// one of them by 2.
fn loads_pair_by_pair(body: &[Instr], var: LoopVar) -> bool {
    let (mut all, mut one) = (true, false);
    for ins in body {
        ins.for_each_value(&mut |v| {
            if let Value::Place(Place::Vec(r)) = v {
                all &= matches!(step(r, var), 0 | 2);
                one |= step(r, var) == 2;
            }
        });
    }
    all && one
}

/// The lane nest of `loops[v]` around the leaf body of `loops[leaf]`
/// (which may be `v`): a run spanning `v` whose text is the AVX form.
/// `None` when the iterations may not run side by side, the leaf does
/// not print wide, or an array the rest reads or writes is not one
/// distance from lane 0 to lane 1 ([`lane_shadows`]).
///
/// Where the rest of `v`'s body all follows the loops down to the leaf,
/// `v` keeps its step of 1 and the levels down to the leaf run on even
/// trips only (`v - lo` even), for two iterations: the rest at `v`'s own
/// level then runs in every trip as that trip's lane. A lane loop around
/// `cc`'s biggest loop costs it 6–25 % more time per plan. The rest
/// prints as `runs` print it in an AVX build, each lane in a block that
/// shadows the arrays it steps with pointers one lane on.
fn lane_nest(
    prog: &IProgram,
    opts: &CodegenOptions,
    loops: &[Loop],
    (v, leaf): (usize, usize),
    lane: LoopVar,
    (read_until, names): (&[usize], &mut u32),
    runs: &[PackedRun],
) -> Option<PackedRun> {
    let lp = &loops[v];
    if lp.trips() % 2 != 0 {
        return None;
    }
    let copy = lanes_legal(prog, loops, v, read_until)?;
    // The loops from `v` in to the leaf's, and the rest at each level:
    // (range, whether it runs in a lane loop).
    let mut path: Vec<usize> =
        std::iter::successors(Some(leaf), |&a| loops[a].parent.filter(|_| a != v)).collect();
    path.reverse();
    let (before, after) = match path.get(1).map(|&p| &loops[p]) {
        Some(first) => (lp.start + 1..first.start, first.end + 1..lp.end),
        None => (lp.end..lp.end, lp.end..lp.end),
    };
    let parity = before.is_empty() && !after.is_empty();
    let mut parts = Vec::new();
    for w in 1..path.len() {
        let (outer, inner) = (&loops[path[w - 1]], &loops[path[w]]);
        let own = w == 1 && parity;
        parts.push((outer.start + 1..inner.start, !own));
        parts.push((inner.end + 1..outer.end, !own));
    }
    let shadows: Vec<Vec<(VecKind, i64)>> = (parts.iter())
        .map(|(range, stepped)| lane_shadows(prog, range.clone(), lp, &copy, *stepped))
        .collect::<Option<_>>()?;
    let depth = std::iter::successors(lp.parent, |&a| loops[a].parent).count();
    let (lf, wide) = (
        &loops[leaf],
        Wide {
            var: lp.var,
            copy: &copy,
        },
    );
    let pad = "  ".repeat(depth + path.len() + 1 + usize::from(parity));
    let leaf_run = pack::pack(
        prog,
        lf.start + 1..lf.end,
        read_until,
        names,
        &pad,
        Some(wide),
        false,
    )?;
    let mut e = Emit::new(prog, opts);
    (e.guarded, e.indent) = (Some(true), depth + 1);
    let mut nest = LaneNest {
        inner: Vec::new(),
        f: Vec::new(),
        private: (0..copy.len() as u32)
            .filter(|&t| copy[t as usize] > 0)
            .collect(),
        lane: None,
    };
    let (x, lo, hi) = (lp.var.0, lp.lo, lp.hi);
    e.open_line();
    let _ = match parity {
        true => writeln!(e.buf, "for (i{x} = {lo}; i{x} <= {hi}; i{x}++) {{"),
        false => writeln!(e.buf, "for (i{x} = {lo}; i{x} <= {hi}; i{x} += 2) {{"),
    };
    e.indent += 1;
    let trip = match lo {
        0 => format!("(i{x} & 1)"),
        _ => format!("((i{x} - {lo}) & 1)"),
    };
    if parity {
        e.line(&format!("if ({trip} == 0) {{"));
        e.indent += 1;
    }
    // Prints a part of the rest for each lane: in a lane loop, or as this
    // trip's lane.
    let mut part = |e: &mut Emit, k: usize| {
        let ((range, in_loop), shadows) = (&parts[k], &shadows[k]);
        if range.is_empty() {
            return;
        }
        let which = if *in_loop {
            let l = lane.0;
            e.open_line();
            let _ = writeln!(e.buf, "for (i{l} = 0; i{l} <= 1; i{l}++) {{");
            e.indent += 1;
            nest.lane = Some(lane);
            format!("i{l}")
        } else {
            trip.clone()
        };
        for &(kind, off) in shadows {
            let mut a = String::new();
            write_array(&mut a, kind);
            let (ty, ptr) = match kind {
                VecKind::In => ("const double", "*restrict "),
                VecKind::Out => ("double", "*restrict "),
                VecKind::Table(_) => ("const double", "*"),
                VecKind::Temp(_) => ("double", "*"),
            };
            e.line(&format!(
                "{ty} {ptr}lane_{a} = {a} + {off}*{which}, {ptr}{a} = lane_{a};"
            ));
        }
        let inside: Vec<&PackedRun> = (runs.iter())
            .filter(|r| range.contains(&r.range.start))
            .collect();
        let mut at = range.start;
        let mut name = |k| nest.f.push(k);
        for run in &inside {
            each_f_named(&prog.instrs[at..run.range.start], &mut name);
            run.live_out.iter().for_each(|&k| name(k));
            at = run.range.end;
        }
        each_f_named(&prog.instrs[at..range.end], &mut name);
        // Levels deeper than they were packed for: the lane loop, and the
        // `if` around the levels down to the leaf.
        let deeper = usize::from(*in_loop) + usize::from(parity && k >= 2);
        if deeper > 0 {
            let inside: Vec<PackedRun> = inside.into_iter().map(|r| r.indented(deeper)).collect();
            e.body(range.clone(), &inside);
        } else {
            e.body(range.clone(), inside);
        }
        if *in_loop {
            e.indent -= 1;
            e.line("}");
        }
    };
    for w in 1..path.len() {
        part(&mut e, 2 * (w - 1));
        e.instr(&prog.instrs[loops[path[w]].start]);
    }
    e.buf.push_str(&leaf_run.text);
    for w in (1..path.len()).rev() {
        e.instr(&Instr::DoEnd);
        if w == 1 && parity {
            e.indent -= 1;
            e.line("}");
        }
        part(&mut e, 2 * (w - 1) + 1);
    }
    e.indent -= 1;
    e.line("}");
    let stats = EmitStats {
        paired_stmts: leaf_run.stats.paired_stmts + e.stats.paired_stmts,
        scalar_stmts: leaf_run.stats.scalar_stmts + e.stats.scalar_stmts,
        lane_nests: 1,
        ..EmitStats::default()
    };
    Some(PackedRun {
        range: lp.start..lp.end + 1,
        text: e.buf,
        stats,
        live_out: Vec::new(),
        nest: Some(Box::new(nest)),
    })
}

/// The arrays `prog.instrs[range]`, a part of the rest of loop `lp`'s
/// body, reaches one lane on, and how far: lane 1's copy of a temporary
/// kept per lane (`copy`), plus, where `stepped` (a lane loop over the
/// lane from an even trip of `lp`), what the subscript steps by in
/// `lp`'s variable. `None` when two accesses of one array differ.
fn lane_shadows(
    prog: &IProgram,
    range: Range<usize>,
    lp: &Loop,
    copy: &[i64],
    stepped: bool,
) -> Option<Vec<(VecKind, i64)>> {
    let mut out: Vec<(VecKind, i64)> = Vec::new();
    for (r, _) in prog.instrs[range].iter().flat_map(vec_refs) {
        let off = copy_at(copy, r.kind) + if stepped { step(r, lp.var) } else { 0 };
        match out.iter().find(|s| s.0 == r.kind) {
            Some(s) if s.1 != off => return None,
            Some(_) => {}
            None => out.push((r.kind, off)),
        }
    }
    out.retain(|s| s.1 != 0);
    Some(out)
}

/// How far on lane 1's copy of `kind` starts (`copy`, per temporary); 0
/// for an array both lanes share.
pub(crate) fn copy_at(copy: &[i64], kind: VecKind) -> i64 {
    match kind {
        VecKind::Temp(t) => copy.get(t as usize).copied().unwrap_or(0),
        _ => 0,
    }
}

/// The array elements `ins` reads, then the one it writes (`true`).
fn vec_refs(ins: &Instr) -> impl Iterator<Item = (&VecRef, bool)> {
    let (dst, a, b) = match ins {
        Instr::Bin { dst, a, b, .. } => (Some(dst), Some(a), Some(b)),
        Instr::Un { dst, a, .. } => (Some(dst), Some(a), None),
        _ => (None, None, None),
    };
    let read = [a, b].into_iter().flatten().filter_map(|v| match v {
        Value::Place(Place::Vec(r)) => Some((r, false)),
        _ => None,
    });
    read.chain(dst.and_then(|p| match p {
        Place::Vec(r) => Some((r, true)),
        _ => None,
    }))
}

/// Whether iterations `v` and `v+1` of `loops[v]` may run side by side,
/// and the rest of its body one lane after the other; if so, per
/// temporary, how far on lane 1's copy starts (0: both lanes share it).
///
/// * No `$f` crosses from one block of the body (a run between two loop
///   bounds) to another or out of the loop, and nothing reads or writes
///   a `$r` or reads a loop index.
/// * An array the body both writes and reads is a temporary kept per
///   lane: accessed nowhere else in the program, under no term in `v` or
///   in a loop around it, and every element the body reads written
///   earlier in the same iteration ([`reads_follow_writes`]).
/// * Every other array the body writes it writes under one nonzero step
///   in `v` and one set of terms in the loops around `v`, over a span of
///   elements narrower than that step: iterations `v` and `v+1` store to
///   disjoint elements.
fn lanes_legal(
    prog: &IProgram,
    loops: &[Loop],
    v: usize,
    read_until: &[usize],
) -> Option<Vec<i64>> {
    let lp = &loops[v];
    let body = lp.start + 1..lp.end;
    // The bounds of the loops inside the body, by variable.
    let n_var = loops
        .iter()
        .map(|l| l.var.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut bounds = vec![None; n_var];
    for l in loops.iter().filter(|l| body.contains(&l.start)) {
        bounds[l.var.0 as usize] = Some((l.lo, l.hi));
    }
    let inner = |var: LoopVar| bounds.get(var.0 as usize).copied().flatten();
    let (mut block, mut set, mut ok) = (0, vec![usize::MAX; read_until.len()], true);
    let mut refs: Vec<(&VecRef, bool)> = Vec::new();
    for ins in &prog.instrs[body.clone()] {
        let Some(dst) = ins.dst() else {
            block += 1;
            continue;
        };
        ins.for_each_value(&mut |val| {
            ok &= match val {
                Value::Place(Place::F(k)) => set[*k as usize] == block,
                Value::Place(Place::R(_)) | Value::LoopIdx(_) | Value::Intrinsic(..) => false,
                _ => true,
            }
        });
        match dst {
            Place::F(k) => {
                set[*k as usize] = block;
                ok &= read_until[*k as usize] <= lp.end;
            }
            Place::R(_) => ok = false,
            Place::Vec(_) => {}
        }
        refs.extend(vec_refs(ins));
    }
    if !ok {
        return None;
    }
    let mut copy = vec![0; prog.temps.len()];
    let mut written: Vec<VecKind> = Vec::new();
    for &(r, _) in refs.iter().filter(|r| r.1) {
        if !written.contains(&r.kind) {
            written.push(r.kind);
        }
    }
    for kind in written {
        let of = |write: bool| {
            refs.iter()
                .filter(move |r| r.0.kind == kind && r.1 == write)
        };
        if of(false).next().is_some() {
            let VecKind::Temp(t) = kind else {
                return None;
            };
            let elsewhere = (prog.instrs[..=lp.start]
                .iter()
                .chain(&prog.instrs[lp.end..]))
            .any(|ins| vec_refs(ins).any(|r| r.0.kind == kind));
            let local = |r: &&(&VecRef, bool)| r.0.idx.vars().all(|var| inner(var).is_some());
            if elsewhere || !refs.iter().filter(|r| r.0.kind == kind).all(|r| local(&r)) {
                return None;
            }
            copy[t as usize] = prog.temps[t as usize] as i64;
            continue;
        }
        // The terms outside the body, and the span of the elements under
        // the loops inside it.
        let outer = |r: &VecRef| -> Vec<(i64, LoopVar)> {
            let out = r
                .idx
                .terms
                .iter()
                .filter(|t| t.1 != lp.var && inner(t.1).is_none());
            out.copied().collect()
        };
        let span = |r: &VecRef| {
            r.idx
                .terms
                .iter()
                .fold((r.idx.c, r.idx.c), |(a, b), &(k, var)| match inner(var) {
                    Some((lo, hi)) => (a + (k * lo).min(k * hi), b + (k * lo).max(k * hi)),
                    None => (a, b),
                })
        };
        let first = of(true).next().expect("a written array").0;
        let (s, terms) = (step(first, lp.var), outer(first));
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for &(r, _) in of(true) {
            if step(r, lp.var) != s || outer(r) != terms {
                return None;
            }
            let (a, b) = span(r);
            (lo, hi) = (lo.min(a), hi.max(b));
        }
        if s == 0 || hi - lo >= s.abs() {
            return None;
        }
    }
    reads_follow_writes(prog, body, &copy, n_var).then_some(copy)
}

/// Runs one iteration of `prog.instrs[body]` over the elements of the
/// temporaries kept per lane (`copy[t] > 0`): whether every element it
/// reads was written earlier in it, and every subscript lies inside its
/// array. Only their accesses and the loops around them run, up to a
/// budget of accesses past which the answer is no.
fn reads_follow_writes(prog: &IProgram, body: Range<usize>, copy: &[i64], n_var: usize) -> bool {
    /// A loop's `do` (variable, bounds) or `end` (where its `do` is), or
    /// an element of a temporary kept per lane, written or read.
    enum Event<'a> {
        Do(usize, i64, i64),
        End(usize),
        Access(usize, &'a VecRef, bool),
    }
    let (mut events, mut open) = (Vec::new(), Vec::new());
    for ins in &prog.instrs[body] {
        match *ins {
            Instr::DoStart { var, lo, hi, .. } if lo <= hi => {
                open.push(events.len());
                events.push(Event::Do(var.0 as usize, lo, hi));
            }
            Instr::DoStart { .. } => return false,
            Instr::DoEnd => match open.pop() {
                // A loop without such an access is left out.
                Some(s) if s + 1 == events.len() => drop(events.pop()),
                Some(s) => events.push(Event::End(s)),
                None => return false,
            },
            _ => events.extend(vec_refs(ins).filter_map(|(r, write)| match r.kind {
                VecKind::Temp(t) if copy_at(copy, r.kind) > 0 => {
                    Some(Event::Access(t as usize, r, write))
                }
                _ => None,
            })),
        }
    }
    let mut written: Vec<Vec<bool>> = copy.iter().map(|&c| vec![false; c as usize]).collect();
    let (mut at, mut p, mut budget) = (vec![0; n_var], 0, 1u32 << 22);
    while p < events.len() {
        match events[p] {
            Event::Do(var, lo, _) => at[var] = lo,
            Event::End(s) => {
                let Event::Do(var, _, hi) = events[s] else {
                    unreachable!("an `end` names its `do`")
                };
                if at[var] < hi {
                    at[var] += 1;
                    p = s + 1;
                    continue;
                }
            }
            Event::Access(t, r, write) => {
                budget -= 1;
                let terms = r.idx.terms.iter();
                let e = terms.fold(r.idx.c, |e, &(k, v)| e + k * at[v.0 as usize]);
                let cells = &mut written[t];
                match usize::try_from(e).ok().filter(|&e| e < cells.len()) {
                    Some(e) if write => cells[e] = true,
                    Some(e) if cells[e] && budget > 0 => {}
                    _ => return false,
                }
            }
        }
        p += 1;
    }
    true
}

/// What the subscript of `r` steps by per iteration of `var`.
fn step(r: &VecRef, var: LoopVar) -> i64 {
    r.idx.terms.iter().find(|t| t.1 == var).map_or(0, |t| t.0)
}

/// How an innermost loop body steps through memory per iteration.
enum Stride {
    /// A load steps by other than 0 or 2 doubles.
    Strided,
    /// Every store steps by 2 doubles, every load by 2 or 0.
    Unit,
    /// Neither: a store steps by other than 2 doubles.
    Other,
}

/// How `body` steps per iteration of `var`.
fn stride(body: &[Instr], var: LoopVar) -> Stride {
    let (mut strided, mut unit) = (false, true);
    for ins in body {
        ins.for_each_value(&mut |v| {
            if let Value::Place(Place::Vec(r)) = v {
                strided |= !matches!(step(r, var), 0 | 2);
            }
        });
        if let Some(Place::Vec(r)) = ins.dst() {
            unit &= step(r, var) == 2;
        }
    }
    match (strided, unit) {
        (true, _) => Stride::Strided,
        (false, true) => Stride::Unit,
        (false, false) => Stride::Other,
    }
}

/// Calls `f` with every `$f` register `instrs` name.
fn each_f_named(instrs: &[Instr], f: &mut dyn FnMut(u32)) {
    for ins in instrs {
        if let Some(Place::F(k)) = ins.dst() {
            f(*k);
        }
        ins.for_each_value(&mut |v| each_f(v, f));
    }
}

/// Which `$f` registers the C text names: in every build, only in a
/// build without AVX (the scalar forms of wide loops, lane nests' forms
/// without lanes) and only in an AVX build (lane nests' AVX forms). All
/// of them, in every build, when nothing is packed; else those of the
/// instructions printed as scalar statements and those the packed runs
/// leave for them.
fn f_used(prog: &IProgram, runs: &[PackedRun]) -> [Vec<bool>; 3] {
    let n = prog.n_f as usize;
    if runs.is_empty() {
        return [vec![true; n], vec![false; n], vec![false; n]];
    }
    let (mut plain, mut avx) = (vec![false; n], vec![false; n]);
    mark_f(prog, 0..prog.instrs.len(), runs, true, &mut plain, &mut avx);
    let only = |a: &[bool], b: &[bool], not_b: bool| -> Vec<bool> {
        a.iter().zip(b).map(|(&a, &b)| a && b != not_b).collect()
    };
    [
        only(&plain, &avx, false),
        only(&plain, &avx, true),
        only(&avx, &plain, true),
    ]
}

/// Marks the `$f` registers the text of `range` names: in `plain`, what
/// a build without AVX compiles, and where `both`, in `avx` too.
fn mark_f(
    prog: &IProgram,
    range: Range<usize>,
    runs: &[PackedRun],
    both: bool,
    plain: &mut [bool],
    avx: &mut [bool],
) {
    let mark = |k: u32, plain: &mut [bool], avx: &mut [bool]| {
        plain[k as usize] = true;
        avx[k as usize] |= both;
    };
    let mut at = range.start;
    for run in runs {
        each_f_named(&prog.instrs[at..run.range.start], &mut |k| {
            mark(k, plain, avx)
        });
        if let Some(nest) = &run.nest {
            mark_f(prog, run.range.clone(), &nest.inner, false, plain, avx);
            nest.f.iter().for_each(|&k| avx[k as usize] = true);
        } else if run.stats.wide_loops > 0 {
            each_f_named(&prog.instrs[run.range.clone()], &mut |k| {
                plain[k as usize] = true
            });
        }
        run.live_out.iter().for_each(|&k| mark(k, plain, avx));
        at = run.range.end;
    }
    each_f_named(&prog.instrs[at..range.end], &mut |k| mark(k, plain, avx));
}

fn collect_loop_vars(prog: &IProgram) -> Vec<String> {
    prog.instrs
        .iter()
        .filter_map(|i| match i {
            Instr::DoStart { var, .. } => Some(format!("i{}", var.0)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_icode::{Affine, LoopVar};

    fn fmt_f64(v: f64, fortran: bool) -> String {
        let mut s = String::new();
        write_f64(&mut s, v, fortran);
        s
    }

    fn butterfly_prog() -> IProgram {
        let at = |kind, i| {
            Place::Vec(VecRef {
                kind,
                idx: Affine::constant(i),
            })
        };
        IProgram {
            instrs: vec![
                Instr::Bin {
                    op: BinOp::Add,
                    dst: at(VecKind::Out, 0),
                    a: Value::vec(VecKind::In, 0),
                    b: Value::vec(VecKind::In, 1),
                },
                Instr::Bin {
                    op: BinOp::Sub,
                    dst: at(VecKind::Out, 1),
                    a: Value::vec(VecKind::In, 0),
                    b: Value::vec(VecKind::In, 1),
                },
            ],
            n_in: 2,
            n_out: 2,
            ..IProgram::empty()
        }
    }

    #[test]
    fn fortran_is_one_based() {
        let src = emit("f2", &butterfly_prog(), &CodegenOptions::default());
        assert!(src.contains("subroutine f2(y,x)"));
        assert!(src.contains("y(1) = x(1) + x(2)"));
        assert!(src.contains("y(2) = x(1) - x(2)"));
        assert!(src.contains("implicit real*8 (f)"));
    }

    #[test]
    fn c_is_zero_based() {
        let opts = CodegenOptions {
            language: Language::C,
            ..Default::default()
        };
        let src = emit("f2", &butterfly_prog(), &opts);
        assert!(src.contains("void f2(double *restrict y, const double *restrict x)"));
        // On a pair: one load of (x0, x1), lane-swapped for the `+`.
        assert!(
            src.contains("spl_v2d v0 = *(const spl_v2du *)&x[0];"),
            "{src}"
        );
        assert!(src.contains("*(spl_v2du *)&y[0] = v"), "{src}");
        // Scalar statements where the peepholes are asked for.
        let scalar = emit(
            "f2",
            &butterfly_prog(),
            &CodegenOptions {
                peephole: true,
                ..opts
            },
        );
        assert!(scalar.contains("y[0] = x[0] + x[1];"), "{scalar}");
        assert!(scalar.contains("y[1] = x[0] - x[1];"), "{scalar}");
    }

    #[test]
    fn a_sub_beside_an_add_is_one_shuffle_of_both() {
        let opts = CodegenOptions {
            language: Language::C,
            ..Default::default()
        };
        let (src, stats) = emit_counted("f2", &butterfly_prog(), &opts);
        assert!(
            src.contains("__builtin_shufflevector(v1 + v0, v1 - v0, 0, 3)"),
            "{src}"
        );
        assert_eq!(
            stats,
            EmitStats {
                paired_stmts: 4,
                scalar_stmts: 0,
                packed_loops: 0,
                wide_loops: 0,
                lane_nests: 0,
                quad_stmts: 0,
                quad_joins: 0,
            }
        );
    }

    #[test]
    fn loops_print_in_both_languages() {
        let i = LoopVar(0);
        let prog = IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: i,
                    lo: 0,
                    hi: 31,
                    unroll: false,
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine::var(i),
                    }),
                    a: Value::Place(Place::Vec(VecRef {
                        kind: VecKind::In,
                        idx: Affine::var(i),
                    })),
                },
                Instr::DoEnd,
            ],
            n_in: 32,
            n_out: 32,
            n_loop: 1,
            ..IProgram::empty()
        };
        let f = emit("copy", &prog, &CodegenOptions::default());
        assert!(f.contains("do i0 = 0, 31"));
        assert!(f.contains("y(i0+1) = x(i0+1)"));
        assert!(f.contains("end do"));
        let c = emit(
            "copy",
            &prog,
            &CodegenOptions {
                language: Language::C,
                ..Default::default()
            },
        );
        assert!(c.contains("for (i0 = 0; i0 <= 31; i0++) {"));
        assert!(c.contains("y[i0] = x[i0];"));
    }

    #[test]
    fn peephole_rewrites_unary_minus() {
        let prog = IProgram {
            instrs: vec![Instr::Un {
                op: UnOp::Neg,
                dst: Place::F(0),
                a: Value::f(1),
            }],
            n_f: 2,
            n_in: 1,
            n_out: 1,
            ..IProgram::empty()
        };
        let plain = emit("neg", &prog, &CodegenOptions::default());
        assert!(plain.contains("f0 = -f1"));
        let pep = emit(
            "neg",
            &prog,
            &CodegenOptions {
                peephole: true,
                ..Default::default()
            },
        );
        assert!(pep.contains("f0 = 0 - f1"));
    }

    #[test]
    fn peephole_parenthesizes_negative_constants() {
        let prog = IProgram {
            instrs: vec![Instr::Bin {
                op: BinOp::Mul,
                dst: Place::F(0),
                a: Value::Const(Complex::real(-7.0)),
                b: Value::f(1),
            }],
            n_f: 2,
            n_in: 1,
            n_out: 1,
            ..IProgram::empty()
        };
        let pep = emit(
            "m",
            &prog,
            &CodegenOptions {
                peephole: true,
                ..Default::default()
            },
        );
        assert!(pep.contains("f0 = (-7.0d0) * f1"));
    }

    #[test]
    fn fortran_constants_get_d_exponents() {
        assert_eq!(fmt_f64(0.5, true), "0.5d0");
        assert_eq!(fmt_f64(1e-8, true), "1d-8");
        assert_eq!(fmt_f64(0.5, false), "0.5");
    }

    #[test]
    fn tables_emit_data_statements() {
        let prog = IProgram {
            tables: vec![vec![Complex::real(1.0), Complex::real(0.5)]],
            instrs: vec![Instr::Un {
                op: UnOp::Copy,
                dst: Place::F(0),
                a: Value::Place(Place::Vec(VecRef {
                    kind: VecKind::Table(0),
                    idx: Affine::constant(0),
                })),
            }],
            n_f: 1,
            n_in: 1,
            n_out: 1,
            ..IProgram::empty()
        };
        let f = emit("t", &prog, &CodegenOptions::default());
        assert!(f.contains("real*8 d0(2)"));
        assert!(f.contains("data d0 /1.0d0,0.5d0"));
        let c = emit(
            "t",
            &prog,
            &CodegenOptions {
                language: Language::C,
                ..Default::default()
            },
        );
        assert!(c.contains("static const double d0[2]"));
        assert!(c.contains("f0 = d0[0];"));
    }

    /// Table values whose literals the memo must print as
    /// [`write_f64`] does: both zeros, subnormals, extremes, values with
    /// 17 significant digits, repeats and negations.
    fn awkward_values() -> Vec<f64> {
        let base = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -2.2250738585072e-309,
            1e300,
            -1e300,
            0.30000000000000004,
            -1.2345678901234567,
            std::f64::consts::FRAC_1_SQRT_2,
            1e-5,
            1e16,
            0.5,
        ];
        base.iter()
            .chain(&base)
            .chain(base.iter().rev())
            .flat_map(|&v| [v, -v])
            .collect()
    }

    /// The program whose one table is `values`, read once.
    fn table_prog(values: Vec<Complex>, complex: bool) -> IProgram {
        IProgram {
            instrs: vec![Instr::Un {
                op: UnOp::Copy,
                dst: Place::F(0),
                a: Value::Place(Place::Vec(VecRef {
                    kind: VecKind::Table(0),
                    idx: Affine::constant(0),
                })),
            }],
            tables: vec![values],
            n_f: 1,
            n_in: 1,
            n_out: 1,
            complex,
            ..IProgram::empty()
        }
    }

    /// The table lines a memo-free emitter prints: `lead` (`rest` after
    /// the first line), the chunk's literals from `lit`, `tail`.
    fn memo_free_lines(
        table: &[Complex],
        lit: &dyn Fn(&mut String, Complex),
        (pad, lead, rest, sep, tail): (&str, &str, &str, &str, &str),
    ) -> String {
        let mut out = String::new();
        for (k, chunk) in table.chunks(4).enumerate() {
            out.push_str(pad);
            out.push_str(if k == 0 { lead } else { rest });
            for (i, &c) in chunk.iter().enumerate() {
                if i > 0 {
                    out.push_str(sep);
                }
                lit(&mut out, c);
            }
            out.push_str(tail);
            out.push('\n');
        }
        out
    }

    #[test]
    fn table_literals_print_as_write_f64_prints_them() {
        let values = awkward_values();
        let real: Vec<Complex> = values.iter().map(|&v| Complex::real(v)).collect();
        let prog = table_prog(real.clone(), false);
        let c_opts = |tables| CodegenOptions {
            language: Language::C,
            tables,
            ..Default::default()
        };
        // C, inline: the initializer, line by line.
        let c = emit("t", &prog, &c_opts(TableMode::Inline));
        let want = memo_free_lines(
            &real,
            &|out, c| write_f64(out, c.re, false),
            ("  ", "  ", "  ", ", ", ","),
        );
        let head = format!("static const double d0[{}] = {{\n", real.len());
        assert!(c.contains(&format!("{head}{want}  }};\n")), "{c}");
        // C, loaded: no literal in the text, every value's bits handed
        // to the loader.
        let loaded = emit("t", &prog, &c_opts(TableMode::Loaded));
        let zeros = table_prog(vec![Complex::ZERO; real.len()], false);
        assert_eq!(loaded, emit("t", &zeros, &c_opts(TableMode::Loaded)));
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&table_values(&prog)), bits(&values));
        // Fortran, real and complex code.
        let f = emit("t", &prog, &CodegenOptions::default());
        let want = memo_free_lines(
            &real,
            &|out, c| write_f64(out, c.re, true),
            ("      ", "data d0 /", "     . ,", ",", ""),
        );
        assert!(f.contains(&want), "{f}");
        let cplx: Vec<Complex> = values
            .chunks(2)
            .map(|p| Complex::new(p[0], p[p.len() - 1]))
            .collect();
        let prog = table_prog(cplx.clone(), true);
        let f = emit(
            "t",
            &prog,
            &CodegenOptions {
                codetype: DataType::Complex,
                ..Default::default()
            },
        );
        let want = memo_free_lines(
            &cplx,
            &|out, c| write_const(out, c, true, true, false),
            ("      ", "data d0 /", "     . ,", ",", ""),
        );
        assert!(f.contains(&want), "{f}");
    }

    #[test]
    fn io_params_wrap_accesses() {
        let opts = CodegenOptions {
            language: Language::C,
            io_params: true,
            ..Default::default()
        };
        let src = emit("f2", &butterfly_prog(), &opts);
        assert!(src.contains("y[yofs+ystr*(0)] = x[xofs+xstr*(0)] + x[xofs+xstr*(1)];"));
    }

    /// The lines of C a build without AVX compiles.
    fn without_avx(c: &str) -> String {
        let mut keep = vec![true];
        let mut out = String::new();
        for line in c.lines() {
            match line {
                "#if defined(__AVX__)" => keep.push(false),
                "#if !defined(__AVX__)" => keep.push(true),
                "#else" => *keep.last_mut().expect("an open #if") ^= true,
                "#endif" => drop(keep.pop()),
                _ if line.starts_with('#') => keep.push(true),
                _ if keep.iter().all(|&k| k) => {
                    out.push_str(line);
                    out.push('\n');
                }
                _ => {}
            }
        }
        out
    }

    /// The benchmark's 2^10 plan: a strided leaf under `i0`, a wide loop
    /// beside it that reads the temporary the leaf writes.
    const PLAN_1024: &str = "(compose (tensor (compose (tensor (F 2) (I 4)) (T 8 4) \
        (tensor (I 2) (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))) \
        (L 8 2)) (I 128)) (T 1024 128) (tensor (I 8) (compose (tensor (compose (tensor (F 2) \
        (I 4)) (T 8 4) (tensor (I 2) (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) \
        (L 4 2))) (L 8 2)) (I 16)) (T 128 16) (tensor (I 8) (compose (tensor (compose (tensor \
        (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2)) (I 4)) (T 16 4) (tensor (I 4) \
        (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))) (L 16 4))) \
        (L 128 8))) (L 1024 8))";

    #[test]
    fn a_lane_nests_else_is_its_loop_as_a_build_without_avx_compiled_it() {
        let unit = crate::Compiler::with_options(crate::CompilerOptions {
            unroll_threshold: Some(64),
            language_override: Some(Language::C),
            ..Default::default()
        })
        .compile_formula_str(PLAN_1024)
        .unwrap();
        let (prog, opts) = (&unit.program, &unit.codegen);
        let runs = packed_runs(prog, opts);
        let nest = runs.iter().find(|r| r.nest.is_some()).expect("a lane nest");
        assert_eq!(nest.range.start, 0, "the first loop, i0");
        // Without nests: every run the nests took along, in their place.
        let flat: Vec<PackedRun> = runs
            .into_iter()
            .flat_map(|r| match r.nest {
                Some(n) => n.inner,
                None => vec![r],
            })
            .collect();
        let (today, _) = emit_c_runs("f", prog, opts, &flat);
        let (c, stats) = emit_c("f", prog, opts);
        assert_eq!(stats.lane_nests, 1);
        // The nest's `#else` block, to its `#endif`.
        let at = c.find("    if ((i0 & 1) == 0) {\n").expect("the nest");
        let from = at + c[at..].find("#else\n").unwrap() + "#else\n".len();
        let (mut depth, mut to) = (0, from);
        for line in c[from..].split_inclusive('\n') {
            depth += i32::from(line.starts_with("#if"));
            if line == "#endif\n" {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            to += line.len();
        }
        let block = &c[from..to];
        assert!(
            block.starts_with("  for (i0 = 0; i0 <= 7; i0++) {\n"),
            "{block}"
        );
        assert!(
            !block.contains('#') && !block.contains("spl_v4d"),
            "{block}"
        );
        assert!(without_avx(&today).contains(block), "{block}");
        // And the whole text a build without AVX compiles is today's but
        // for where its declarations moved.
        let body = |c: &str| without_avx(c).split_once("  long i").unwrap().1.to_string();
        assert_eq!(body(&c), body(&today));
    }

    /// A program of `instrs` over temporaries of `temps` elements, with
    /// `n_f` registers.
    fn looped(instrs: Vec<Instr>, temps: Vec<usize>, n_f: u32) -> IProgram {
        IProgram {
            instrs,
            temps,
            n_f,
            n_in: 64,
            n_out: 64,
            n_loop: 3,
            ..IProgram::empty()
        }
    }

    fn elem(kind: VecKind, terms: &[(i64, u32)], c: i64) -> Place {
        let terms = terms.iter().map(|&(k, v)| (k, LoopVar(v))).collect();
        Place::Vec(VecRef {
            kind,
            idx: Affine { c, terms },
        })
    }

    fn copy(dst: Place, a: Place) -> Instr {
        Instr::Un {
            op: UnOp::Copy,
            dst,
            a: Value::Place(a),
        }
    }

    fn do_(var: u32, hi: i64) -> Instr {
        Instr::DoStart {
            var: LoopVar(var),
            lo: 0,
            hi,
            unroll: false,
        }
    }

    /// `do i0 = 0, 3 { do i1 = 0, 1 { t0[2*i1+k] = x[2*i0+8*i1+k] }; do
    /// i2 = 0, 1 { <rest> } }`: the rest as given, after a leaf that writes
    /// the temporary's four elements.
    fn nest_with(rest: Vec<Instr>, t0: usize, n_f: u32) -> IProgram {
        use VecKind::{In, Temp};
        let leaf =
            (0..2).map(|k| copy(elem(Temp(0), &[(2, 1)], k), elem(In, &[(2, 0), (8, 1)], k)));
        let instrs = [do_(0, 3), do_(1, 1)]
            .into_iter()
            .chain(leaf)
            .chain([Instr::DoEnd, do_(2, 1)])
            .chain(rest)
            .chain([Instr::DoEnd, Instr::DoEnd])
            .collect();
        looped(instrs, vec![t0], n_f)
    }

    fn legal(prog: &IProgram) -> Option<Vec<i64>> {
        lanes_legal(prog, &loops(prog), 0, &read_until(prog))
    }

    #[test]
    fn lane_legality_holds_each_rule() {
        use VecKind::{Out, Temp};
        let y = |s: i64, c| elem(Out, &[(s, 0), (2, 2)], c);
        let t = |c| elem(Temp(0), &[(2, 2)], c);
        // Reads what the leaf wrote; stores 4 doubles a trip apart over a
        // span of 4 (2*i2 + 0..1): iterations side by side never meet.
        let fine = nest_with(vec![copy(y(4, 0), t(0)), copy(y(4, 1), t(1))], 4, 0);
        assert_eq!(legal(&fine), Some(vec![4]));
        // A span wider than the step: iteration v+1 stores over v's.
        let overlap = nest_with(vec![copy(y(2, 0), t(0)), copy(y(2, 1), t(1))], 4, 0);
        assert_eq!(legal(&overlap), None);
        // An element the iteration never wrote: the previous iteration's.
        let stale = nest_with(vec![copy(y(4, 0), t(2)), copy(y(4, 1), t(3))], 6, 0);
        assert_eq!(legal(&stale), None);
        // A register assigned in one block (the `i2` loop) and read in
        // another (`i0`'s body after it): in a lane loop, lane 0 would read
        // lane 1's.
        let f = nest_with(
            vec![
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::F(0),
                    a: Value::Place(t(0)),
                },
                Instr::DoEnd,
                Instr::Un {
                    op: UnOp::Copy,
                    dst: elem(Out, &[(4, 0)], 0),
                    a: Value::f(0),
                },
                do_(3, 0),
            ],
            4,
            1,
        );
        assert_eq!(legal(&f), None);
        // The temporary read after the loop: no lane may keep its own.
        let mut after = fine.clone();
        after
            .instrs
            .push(copy(elem(Out, &[], 0), elem(Temp(0), &[], 0)));
        assert_eq!(legal(&after), None);
        // Stored under a term in v: shared, and the two lanes' elements
        // overlap the leaf's.
        let shared = nest_with(vec![copy(y(4, 0), elem(Temp(0), &[(2, 0)], 0))], 4, 0);
        assert_eq!(legal(&shared), None);
    }

    #[test]
    #[should_panic(expected = "real codetype")]
    fn complex_c_rejected() {
        let opts = CodegenOptions {
            language: Language::C,
            codetype: DataType::Complex,
            ..Default::default()
        };
        emit("f2", &butterfly_prog(), &opts);
    }
}
