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
//! (the `pack` module), and so each innermost loop body that loads with a
//! stride in its loop variable; other loop bodies stay scalar statements,
//! which the C compiler vectorises across iterations itself.

use std::fmt::Write as _;

use spl_frontend::ast::{DataType, Language};
use spl_icode::{BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
use spl_numeric::Complex;

use crate::mix::MixMap;
use crate::pack::{self, PackedRun};

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
}

impl Emit<'_> {
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

    /// The subroutine's statements; each of `runs` replaces the scalar
    /// statements of its instructions.
    fn body(&mut self, runs: &[PackedRun]) {
        let prog = self.prog;
        let mut runs = runs.iter().peekable();
        let mut i = 0;
        while i < prog.instrs.len() {
            if let Some(run) = runs.next_if(|r| r.range.start == i) {
                self.buf.push_str(&run.text);
                self.stats.paired_stmts += run.stats.paired_stmts;
                self.stats.scalar_stmts += run.stats.scalar_stmts;
                self.stats.packed_loops += run.stats.packed_loops;
                i = run.range.end;
                continue;
            }
            self.instr(&prog.instrs[i]);
            i += 1;
        }
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
    let mut e = Emit {
        prog,
        opts,
        fortran: true,
        buf: String::new(),
        indent: 0,
        stats: EmitStats::default(),
        literals: Literals::default(),
    };
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
    e.body(&[]);
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

/// The C subroutine. `y` and `x` are `restrict`: a caller must pass
/// buffers that do not overlap, as the VM and the dense oracle already
/// require (generated code writes outputs long before its last read of
/// an input), and the C compiler may then keep the loads and stores of a
/// loop body in registers across each other.
///
/// Runs of arithmetic outside any loop, and the innermost loop bodies
/// [`packed_runs`] picks, are printed on complex pairs unless the options
/// ask for the paper's peepholes or for offset/stride parameters; a unit
/// with a packed run starts with the vector types.
fn emit_c(name: &str, prog: &IProgram, opts: &CodegenOptions) -> (String, EmitStats) {
    let mut e = Emit {
        prog,
        opts,
        fortran: false,
        buf: String::new(),
        indent: 0,
        stats: EmitStats::default(),
        literals: Literals::default(),
    };
    let runs = if opts.peephole || opts.io_params {
        Vec::new()
    } else {
        packed_runs(prog)
    };
    if !runs.is_empty() {
        e.buf.push_str(PAIR_TYPES);
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
    for (t, &len) in prog.temps.iter().enumerate() {
        if len > 0 {
            // Static storage, like Fortran's default: large transforms
            // would overflow the stack with automatic arrays.
            e.line(&format!("static double t{t}[{len}];"));
        }
    }
    let used = f_used(prog, &runs);
    let declared: Vec<u32> = (0..prog.n_f).filter(|&k| used[k as usize]).collect();
    for chunk in declared.chunks(10) {
        e.open_line();
        e.buf.push_str("double ");
        for (i, k) in chunk.iter().enumerate() {
            let _ = write!(e.buf, "{}f{k}", if i > 0 { ", " } else { "" });
        }
        e.buf.push_str(";\n");
    }
    if prog.n_r > 0 {
        let decls: Vec<String> = (0..prog.n_r).map(|k| format!("r{k}")).collect();
        e.line(&format!("long {};", decls.join(", ")));
    }
    let loop_vars: Vec<String> = collect_loop_vars(prog);
    if !loop_vars.is_empty() {
        e.line(&format!("long {};", loop_vars.join(", ")));
    }
    e.body(&runs);
    e.indent = 0;
    e.line("}");
    (e.buf, e.stats)
}

/// The runs of arithmetic that print on complex pairs: those outside any
/// loop, and the innermost loop bodies that load with a stride in their
/// loop variable (a coefficient other than 0 or 2: more than one complex
/// value per iteration). The C compiler vectorises the other bodies across
/// iterations itself, with wider vectors than a pair, and not those.
fn packed_runs(prog: &IProgram) -> Vec<PackedRun> {
    // One past the last read of each `$f`: a register a run assigns is
    // live out when that lies beyond the run. A read in a loop of a value
    // from before its loop's body counts until the outermost loop ends,
    // since a later iteration may read what a later body assigns.
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
    let (mut out, mut names, mut open, mut i) = (Vec::new(), 0, Vec::new(), 0);
    while i < prog.instrs.len() {
        let start = i;
        while prog.instrs.get(i).is_some_and(|ins| ins.dst().is_some()) {
            i += 1;
        }
        if i > start {
            let offered = match open.last() {
                None => true,
                // A whole innermost body: `do` before it, `end` after it.
                Some(&var) => {
                    matches!(prog.instrs[start - 1], Instr::DoStart { .. })
                        && matches!(prog.instrs.get(i), Some(Instr::DoEnd))
                        && strided_loads(&prog.instrs[start..i], var)
                }
            };
            if offered {
                let pad = "  ".repeat(open.len() + 1);
                let run = pack::pack(prog, start..i, &read_until, &mut names, &pad);
                out.extend(run.map(|mut r| {
                    r.stats.packed_loops = u64::from(!open.is_empty());
                    r
                }));
            }
            continue;
        }
        match prog.instrs[i] {
            Instr::DoStart { var, .. } => open.push(var),
            _ => drop(open.pop()),
        }
        i += 1;
    }
    out
}

/// Whether a load of `body` steps by other than 0 or 2 doubles per
/// iteration of `var`.
fn strided_loads(body: &[Instr], var: LoopVar) -> bool {
    let mut strided = false;
    for ins in body {
        ins.for_each_value(&mut |v| {
            if let Value::Place(Place::Vec(r)) = v {
                let c = r.idx.terms.iter().find(|t| t.1 == var).map_or(0, |t| t.0);
                strided |= c != 0 && c != 2;
            }
        });
    }
    strided
}

/// Which `$f` registers the C text names: all of them when nothing is
/// packed, else those of the instructions printed as scalar statements
/// and those the packed runs leave for them.
fn f_used(prog: &IProgram, runs: &[PackedRun]) -> Vec<bool> {
    let mut used = vec![runs.is_empty(); prog.n_f as usize];
    if runs.is_empty() {
        return used;
    }
    let mut mark = |k: u32| used[k as usize] = true;
    let end = prog.instrs.len();
    let gaps = runs
        .iter()
        .map(|r| (r.range.clone(), &r.live_out[..]))
        .chain([(end..end, &[][..])]);
    let mut at = 0;
    for (run, live_out) in gaps {
        for ins in &prog.instrs[at..run.start] {
            if let Some(Place::F(k)) = ins.dst() {
                mark(*k);
            }
            ins.for_each_value(&mut |v| each_f(v, &mut mark));
        }
        live_out.iter().for_each(|&k| mark(k));
        at = run.end;
    }
    used
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
                packed_loops: 0
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
