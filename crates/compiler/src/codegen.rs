//! Target code generation (paper Section 3.5): Fortran and C emitters.
//!
//! Both emitters print the *optimized i-code*; they share the affine
//! subscript printer and differ in declarations, array base (Fortran is
//! 1-based), loop syntax, and constant formatting. Two machine-dependent
//! peepholes from Section 3.4 are applied here because they are purely
//! syntactic: rewriting unary minus as `0 - x` / negative constants, and
//! declaring temporaries `automatic` (Fortran).

use std::fmt::Write as _;

use spl_frontend::ast::{DataType, Language};
use spl_icode::{Affine, BinOp, IProgram, Instr, Place, UnOp, Value, VecKind, VecRef};
use spl_numeric::Complex;

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

/// Emits a complete subroutine for the program.
///
/// # Panics
///
/// Panics if asked for complex-typed C (the driver prevents this
/// combination, mirroring the paper: "of the popular imperative languages
/// only Fortran supports complex").
pub fn emit(name: &str, prog: &IProgram, opts: &CodegenOptions) -> String {
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

fn fmt_const(c: Complex, complex_code: bool, fortran: bool, peephole: bool) -> String {
    let mut s = String::new();
    write_const(&mut s, c, complex_code, fortran, peephole);
    s
}

struct Emit<'a> {
    prog: &'a IProgram,
    opts: &'a CodegenOptions,
    fortran: bool,
    buf: String,
    indent: usize,
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
        let _ = write!(self.buf, "{:w$}", "", w = pad + self.indent * 2);
    }

    /// One line of a table initializer: `lead`, then the literals of
    /// `chunk` separated by `sep`, then `tail` — streamed into the
    /// buffer, since tables are most of the text of a large transform.
    fn table_line(&mut self, lead: &str, chunk: &[Complex], sep: &str, tail: &str) {
        let complex_code = self.opts.codetype == DataType::Complex;
        self.open_line();
        self.buf.push_str(lead);
        for (k, c) in chunk.iter().enumerate() {
            if k > 0 {
                self.buf.push_str(sep);
            }
            if self.fortran {
                write_const(&mut self.buf, *c, complex_code, true, false);
            } else {
                write_f64(&mut self.buf, c.re, false);
            }
        }
        self.buf.push_str(tail);
        self.buf.push('\n');
    }

    fn affine(&self, a: &Affine, base_one: bool) -> String {
        let mut s = String::new();
        for (k, &(c, v)) in a.terms.iter().enumerate() {
            if c == 1 {
                if k > 0 {
                    s.push('+');
                }
                let _ = write!(s, "i{}", v.0);
            } else if c == -1 {
                let _ = write!(s, "-i{}", v.0);
            } else if c < 0 {
                let _ = write!(s, "-{}*i{}", -c, v.0);
            } else {
                if k > 0 {
                    s.push('+');
                }
                let _ = write!(s, "{c}*i{}", v.0);
            }
        }
        let c = a.c + i64::from(base_one);
        if s.is_empty() {
            let _ = write!(s, "{c}");
        } else if c > 0 {
            let _ = write!(s, "+{c}");
        } else if c < 0 {
            let _ = write!(s, "{c}");
        }
        s
    }

    fn vec_access(&self, v: &VecRef) -> String {
        let base_one = self.fortran;
        let (arr, io): (String, bool) = match v.kind {
            VecKind::In => ("x".into(), true),
            VecKind::Out => ("y".into(), true),
            VecKind::Temp(t) => (format!("t{t}"), false),
            VecKind::Table(t) => (format!("d{t}"), false),
        };
        let idx = if io && self.opts.io_params {
            let (ofs, str_) = if v.kind == VecKind::In {
                ("xofs", "xstr")
            } else {
                ("yofs", "ystr")
            };
            format!("{ofs}+{str_}*({})", self.affine(&v.idx, false))
                + if base_one { "+1" } else { "" }
        } else {
            self.affine(&v.idx, base_one)
        };
        if self.fortran {
            format!("{arr}({idx})")
        } else {
            format!("{arr}[{idx}]")
        }
    }

    fn place(&self, p: &Place) -> String {
        match p {
            Place::F(k) => format!("f{k}"),
            Place::R(k) => format!("r{k}"),
            Place::Vec(v) => self.vec_access(v),
        }
    }

    fn value(&self, v: &Value) -> String {
        match v {
            Value::Place(p) => self.place(p),
            Value::Const(c) => fmt_const(
                *c,
                self.opts.codetype == DataType::Complex,
                self.fortran,
                self.opts.peephole,
            ),
            Value::Int(i) => {
                if self.opts.codetype == DataType::Complex && self.fortran {
                    format!("({}.0d0,0.0d0)", i)
                } else {
                    format!("{i}")
                }
            }
            Value::LoopIdx(lv) => format!("i{}", lv.0),
            Value::Intrinsic(name, args) => {
                // Should not survive intrinsic evaluation; print anyway
                // for debuggability.
                let args: Vec<String> = args.iter().map(|a| self.value(a)).collect();
                format!("{name}({})", args.join(", "))
            }
        }
    }

    fn body(&mut self) {
        let prog = self.prog;
        for ins in &prog.instrs {
            match ins {
                Instr::DoStart { var, lo, hi, .. } => {
                    if self.fortran {
                        self.line(&format!("do i{} = {lo}, {hi}", var.0));
                    } else {
                        self.line(&format!(
                            "for (i{v} = {lo}; i{v} <= {hi}; i{v}++) {{",
                            v = var.0
                        ));
                    }
                    self.indent += 1;
                }
                Instr::DoEnd => {
                    self.indent -= 1;
                    self.line(if self.fortran { "end do" } else { "}" });
                }
                Instr::Bin { op, dst, a, b } => {
                    let sym = match op {
                        BinOp::Add => "+",
                        BinOp::Sub => "-",
                        BinOp::Mul => "*",
                        BinOp::Div => "/",
                    };
                    let stmt = format!(
                        "{} = {} {sym} {}{}",
                        self.place(dst),
                        self.value(a),
                        self.value(b),
                        if self.fortran { "" } else { ";" }
                    );
                    self.line(&stmt);
                }
                Instr::Un { op, dst, a } => {
                    let stmt = match op {
                        UnOp::Copy => format!("{} = {}", self.place(dst), self.value(a)),
                        UnOp::Neg => {
                            if self.opts.peephole {
                                // SPARC peephole: arithmetic negation is a
                                // single-precision instruction; emit a
                                // subtraction instead (paper Section 3.4).
                                format!("{} = 0 - {}", self.place(dst), self.value(a))
                            } else {
                                format!("{} = -{}", self.place(dst), self.value(a))
                            }
                        }
                    };
                    let stmt = if self.fortran {
                        stmt
                    } else {
                        format!("{stmt};")
                    };
                    self.line(&stmt);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fortran
// ---------------------------------------------------------------------

fn emit_fortran(name: &str, prog: &IProgram, opts: &CodegenOptions) -> String {
    let mut e = Emit {
        prog,
        opts,
        fortran: true,
        buf: String::new(),
        indent: 0,
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
    e.body();
    e.line("end");
    e.buf
}

// ---------------------------------------------------------------------
// C
// ---------------------------------------------------------------------

/// The C subroutine. `y` and `x` are `restrict`: a caller must pass
/// buffers that do not overlap, as the VM and the dense oracle already
/// require (generated code writes outputs long before its last read of
/// an input), and the C compiler may then keep the loads and stores of a
/// loop body in registers across each other.
fn emit_c(name: &str, prog: &IProgram, opts: &CodegenOptions) -> String {
    let mut e = Emit {
        prog,
        opts,
        fortran: false,
        buf: String::new(),
        indent: 0,
    };
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
    if prog.n_f > 0 {
        let decls: Vec<String> = (0..prog.n_f).map(|k| format!("f{k}")).collect();
        for chunk in decls.chunks(10) {
            e.line(&format!("double {};", chunk.join(", ")));
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
    e.body();
    e.indent = 0;
    e.line("}");
    e.buf
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
        assert!(src.contains("y[0] = x[0] + x[1];"));
        assert!(src.contains("y[1] = x[0] - x[1];"));
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
