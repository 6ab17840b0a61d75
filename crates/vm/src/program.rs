//! Lowering real-typed i-code to a flat VM program, and its executor.

use std::error::Error;
use std::fmt;

use spl_icode::{Affine, BinOp, IProgram, Instr, Place, ProvNode, UnOp, Value, VecKind, VecRef};

use crate::profile::VmProfile;
use crate::resolved::{resolve, LaneSlot, ResolveStats, ResolvedProgram, Unsupported};

/// A lowering error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// The program is complex-typed; run the type transformation first.
    ComplexProgram,
    /// A float op writes to an input or table vector.
    WriteToReadOnly,
    /// A float op targets an `$r` register.
    IntDstInFloatOp,
    /// A complex constant survived into a real-typed program.
    ComplexConstant,
    /// An intrinsic survived to lowering.
    Intrinsic,
    /// An operand of an integer op is not an integer (debug rendering
    /// of the offending value).
    NonIntegerOperand(String),
    /// A `do`-end without a matching `do`.
    UnmatchedLoopEnd,
    /// A `do` without a matching end.
    UnclosedLoop,
    /// An affine subscript can reach a negative address at runtime
    /// (which the release-mode executor would silently wrap).
    NegativeAddress(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm: ")?;
        match self {
            VmError::ComplexProgram => write!(
                f,
                "the VM executes real-typed programs; run the type transformation first"
            ),
            VmError::WriteToReadOnly => write!(f, "write to read-only vector"),
            VmError::IntDstInFloatOp => write!(f, "integer destination in float op"),
            VmError::ComplexConstant => write!(f, "complex constant in real program"),
            VmError::Intrinsic => write!(f, "intrinsics must be evaluated before lowering"),
            VmError::NonIntegerOperand(v) => write!(f, "operand {v} is not an integer"),
            VmError::UnmatchedLoopEnd => write!(f, "unmatched end"),
            VmError::UnclosedLoop => write!(f, "unclosed loop at end of program"),
            VmError::NegativeAddress(d) => write!(f, "negative-reachable subscript: {d}"),
        }
    }
}

impl Error for VmError {}

/// A runtime address: `base + Σ coeff·loop[slot]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Addr {
    pub(crate) base: i64,
    pub(crate) terms: Vec<(i64, u32)>,
}

impl Addr {
    fn from_affine(a: &Affine) -> Addr {
        Addr {
            base: a.c,
            terms: a.terms.iter().map(|&(c, lv)| (c, lv.0)).collect(),
        }
    }

    #[inline]
    fn eval(&self, loops: &[i64]) -> usize {
        let mut v = self.base;
        for &(c, slot) in &self.terms {
            v += c * loops[slot as usize];
        }
        debug_assert!(v >= 0);
        v as usize
    }
}

/// A floating-point source operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Src {
    /// Input vector element.
    In(Addr),
    /// Output vector element (accumulations read back the output).
    Out(Addr),
    /// Temporary arena element (address already includes the temp's
    /// arena offset).
    Temp(Addr),
    /// Constant-table element (address includes the table's offset).
    Table(Addr),
    /// An `$f` register.
    F(u32),
    /// An immediate.
    Const(f64),
    /// An `$r` register read as a float (unoptimized code only).
    RF(u32),
    /// A loop variable read as a float (unoptimized code only).
    LoopF(u32),
}

/// A floating-point destination.
#[derive(Debug, Clone, PartialEq)]
pub enum Dst {
    /// Output vector element.
    Out(Addr),
    /// Temporary arena element.
    Temp(Addr),
    /// An `$f` register.
    F(u32),
}

/// An integer source operand (for `$r` arithmetic in unoptimized code).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ISrc {
    /// Immediate.
    Const(i64),
    /// `$r` register.
    R(u32),
    /// Loop variable.
    Loop(u32),
}

/// A VM operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `dst = a op b` over `f64`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination.
        dst: Dst,
        /// Left operand.
        a: Src,
        /// Right operand.
        b: Src,
    },
    /// `dst = a` or `dst = -a`.
    Un {
        /// `true` negates.
        neg: bool,
        /// Destination.
        dst: Dst,
        /// Operand.
        a: Src,
    },
    /// `r[dst] = a op b` over `i64`.
    IntBin {
        /// Operator.
        op: BinOp,
        /// Destination register index.
        dst: u32,
        /// Left operand.
        a: ISrc,
        /// Right operand.
        b: ISrc,
    },
    /// `r[dst] = ±a`.
    IntUn {
        /// `true` negates.
        neg: bool,
        /// Destination register index.
        dst: u32,
        /// Operand.
        a: ISrc,
    },
    /// Loop header: initializes `loop[var] = lo`; `end_pc` indexes the
    /// matching [`Op::LoopEnd`].
    LoopStart {
        /// Loop variable slot.
        var: u32,
        /// Initial value.
        lo: i64,
        /// Index of the matching end.
        end_pc: usize,
        /// Advisory lane-safety mark from the compiler's vectorize
        /// pass. The reference executor ignores it; the resolver
        /// re-verifies it before building a vector plan.
        vec: bool,
    },
    /// Loop latch: increments and jumps back while `loop[var] < hi`.
    LoopEnd {
        /// Loop variable slot.
        var: u32,
        /// Final value (inclusive).
        hi: i64,
        /// Index of the matching start.
        start_pc: usize,
    },
}

/// A lowered, executable program.
///
/// [`lower`] additionally tries to *resolve* the program into the
/// fused, strength-reduced engine (see [`crate::resolved`]); when that
/// succeeds, [`VmProgram::run`] executes through it, otherwise through
/// the checked reference executor ([`VmProgram::run_reference`]).
#[derive(Debug, Clone, PartialEq)]
pub struct VmProgram {
    code: Vec<Op>,
    /// Per-op formula-node provenance (parallel to `code`; empty when
    /// the source program carried none).
    prov: Vec<u32>,
    /// The formula-node table the provenance ids index.
    prov_nodes: Vec<ProvNode>,
    /// The resolved engine, or why resolution was declined.
    resolved: Result<ResolvedProgram, Unsupported>,
    /// Input vector length (in `f64` words).
    pub n_in: usize,
    /// Output vector length (in `f64` words).
    pub n_out: usize,
    /// Total temporary arena length.
    pub temp_len: usize,
    /// Flattened constant tables.
    pub tables: Vec<f64>,
    /// `$f` register count.
    pub n_f: usize,
    /// `$r` register count.
    pub n_r: usize,
    /// Loop-variable count.
    pub n_loop: usize,
}

impl VmProgram {
    /// The operations (read-only view, for inspection in tests/benches).
    pub fn code(&self) -> &[Op] {
        &self.code
    }

    /// Per-op formula-node provenance, parallel to [`VmProgram::code`]
    /// (empty when the source i-code carried none).
    pub fn prov(&self) -> &[u32] {
        &self.prov
    }

    /// The formula-node table the provenance ids index.
    pub fn prov_nodes(&self) -> &[ProvNode] {
        &self.prov_nodes
    }

    /// Bytes of state the program needs beyond input and output: the
    /// temporary arena, constant tables, and registers. This is the
    /// "memory required to run the code" of the paper's Figure 5.
    pub fn memory_bytes(&self) -> usize {
        (self.temp_len + self.tables.len() + self.n_f) * std::mem::size_of::<f64>()
            + self.n_r * std::mem::size_of::<i64>()
            + self.n_loop * std::mem::size_of::<i64>()
    }

    /// Static float-arithmetic operation count (loop bodies counted
    /// once): the adds, subs, muls, divs, copies, and negations.
    pub fn float_ops(&self) -> usize {
        self.code
            .iter()
            .filter(|op| matches!(op, Op::Bin { .. } | Op::Un { .. }))
            .count()
    }

    /// Static integer bookkeeping operation count (`$r` arithmetic in
    /// unoptimized code; loop bodies counted once).
    pub fn int_ops(&self) -> usize {
        self.code
            .iter()
            .filter(|op| matches!(op, Op::IntBin { .. } | Op::IntUn { .. }))
            .count()
    }

    /// `true` when [`VmProgram::run`] executes through the resolved
    /// engine rather than the reference executor.
    pub fn is_resolved(&self) -> bool {
        self.resolved.is_ok()
    }

    /// Fusion and strength-reduction counters, when resolution
    /// succeeded.
    pub fn resolve_stats(&self) -> Option<&ResolveStats> {
        self.resolved.as_ref().ok().map(|r| r.stats())
    }

    /// Why the program fell back to the reference executor, if it did.
    pub fn resolve_fallback(&self) -> Option<&'static str> {
        self.resolved.as_ref().err().map(|u| u.0)
    }

    /// Executes the program through the resolved engine when
    /// available, else through the reference executor.
    ///
    /// Like the Fortran the code generator emits, temporary storage is
    /// *static*: a reused [`VmState`] keeps temp contents across calls
    /// (well-formed generated code writes every temp element before
    /// reading it, so this is unobservable there). Reuse a state with
    /// one engine only: the resolved engine keeps temps in its arena,
    /// the reference executor in its own vector.
    ///
    /// # Panics
    ///
    /// Panics if `x`/`y` lengths do not match `n_in`/`n_out`, on
    /// out-of-bounds subscripts (slice bounds), or on integer division
    /// by zero — the VM trusts programs that passed `IProgram::validate`
    /// and has no error channel on the hot path; use the i-code
    /// interpreter when you need checked execution.
    pub fn run(&self, x: &[f64], y: &mut [f64], st: &mut VmState) {
        if let Ok(rp) = &self.resolved {
            assert_eq!(x.len(), self.n_in, "input length mismatch");
            assert_eq!(y.len(), self.n_out, "output length mismatch");
            rp.run(x, y, st);
        } else {
            self.run_reference(x, y, st);
        }
    }

    /// Executes the program through the resolved engine while
    /// collecting a [`VmProfile`]: dynamic per-op-class counts, flop
    /// counts, per-loop iteration and wall-time figures, and — when
    /// the program carries formula-node provenance — per-node self
    /// time and flops.
    ///
    /// This is the executor [`VmProgram::run`] uses, compiled with its
    /// probe hooks filled in instead of empty — the same ops through
    /// the same SIMD lanes — so output and state are updated exactly
    /// as by `run`, bit for bit. Returns `None` when the program fell
    /// back to the reference executor.
    pub fn run_profiled(&self, x: &[f64], y: &mut [f64], st: &mut VmState) -> Option<VmProfile> {
        let rp = self.resolved.as_ref().ok()?;
        assert_eq!(x.len(), self.n_in, "input length mismatch");
        assert_eq!(y.len(), self.n_out, "output length mismatch");
        Some(rp.run_profiled(x, y, st, &self.prov_nodes))
    }

    /// Executes the program through the original op-at-a-time
    /// reference executor (the checked baseline the resolved engine
    /// is differentially tested against).
    pub fn run_reference(&self, x: &[f64], y: &mut [f64], st: &mut VmState) {
        assert_eq!(x.len(), self.n_in, "input length mismatch");
        assert_eq!(y.len(), self.n_out, "output length mismatch");
        // Only this executor keeps `$f` and the temporaries outside
        // the arena, so only here are they given their size.
        if st.f.len() < self.n_f {
            st.f.resize(self.n_f, 0.0);
        }
        if st.temps.len() < self.temp_len {
            st.temps.resize(self.temp_len, 0.0);
        }
        let code = &self.code[..];
        let loops = &mut st.loops[..];
        let f = &mut st.f[..];
        let r = &mut st.r[..];
        let temps = &mut st.temps[..];
        let tables = &self.tables[..];

        macro_rules! src {
            ($s:expr) => {
                match $s {
                    Src::In(a) => x[a.eval(loops)],
                    Src::Out(a) => y[a.eval(loops)],
                    Src::Temp(a) => temps[a.eval(loops)],
                    Src::Table(a) => tables[a.eval(loops)],
                    Src::F(k) => f[*k as usize],
                    Src::Const(c) => *c,
                    Src::RF(k) => r[*k as usize] as f64,
                    Src::LoopF(k) => loops[*k as usize] as f64,
                }
            };
        }
        macro_rules! isrc {
            ($s:expr) => {
                match $s {
                    ISrc::Const(c) => *c,
                    ISrc::R(k) => r[*k as usize],
                    ISrc::Loop(k) => loops[*k as usize],
                }
            };
        }

        let mut pc = 0usize;
        while pc < code.len() {
            match &code[pc] {
                Op::Bin { op, dst, a, b } => {
                    let av = src!(a);
                    let bv = src!(b);
                    let v = match op {
                        BinOp::Add => av + bv,
                        BinOp::Sub => av - bv,
                        BinOp::Mul => av * bv,
                        BinOp::Div => av / bv,
                    };
                    match dst {
                        Dst::Out(a) => y[a.eval(loops)] = v,
                        Dst::Temp(a) => temps[a.eval(loops)] = v,
                        Dst::F(k) => f[*k as usize] = v,
                    }
                    pc += 1;
                }
                Op::Un { neg, dst, a } => {
                    let av = src!(a);
                    let v = if *neg { -av } else { av };
                    match dst {
                        Dst::Out(a) => y[a.eval(loops)] = v,
                        Dst::Temp(a) => temps[a.eval(loops)] = v,
                        Dst::F(k) => f[*k as usize] = v,
                    }
                    pc += 1;
                }
                Op::IntBin { op, dst, a, b } => {
                    let av = isrc!(a);
                    let bv = isrc!(b);
                    r[*dst as usize] = match op {
                        BinOp::Add => av + bv,
                        BinOp::Sub => av - bv,
                        BinOp::Mul => av * bv,
                        BinOp::Div => av / bv,
                    };
                    pc += 1;
                }
                Op::IntUn { neg, dst, a } => {
                    let av = isrc!(a);
                    r[*dst as usize] = if *neg { -av } else { av };
                    pc += 1;
                }
                Op::LoopStart {
                    var, lo, end_pc, ..
                } => {
                    // Zero-trip loops (possible only in hand-built
                    // programs; the compiler never emits them) skip to
                    // the matching end, exactly like the interpreter.
                    let hi = match &code[*end_pc] {
                        Op::LoopEnd { hi, .. } => *hi,
                        _ => unreachable!("end_pc points at the LoopEnd"),
                    };
                    if *lo > hi {
                        pc = *end_pc + 1;
                    } else {
                        loops[*var as usize] = *lo;
                        pc += 1;
                    }
                }
                Op::LoopEnd { var, hi, start_pc } => {
                    let v = loops[*var as usize] + 1;
                    if v <= *hi {
                        loops[*var as usize] = v;
                        pc = start_pc + 1;
                    } else {
                        pc += 1;
                    }
                }
            }
        }
    }
}

/// Reusable mutable execution state (registers, loop counters, temporary
/// arena).
#[derive(Debug, Clone)]
pub struct VmState {
    /// `$f` registers and temporaries of the reference executor, sized
    /// by its first run (the resolved engine keeps both in `arena`).
    pub(crate) f: Vec<f64>,
    pub(crate) temps: Vec<f64>,
    pub(crate) r: Vec<i64>,
    pub(crate) loops: Vec<i64>,
    /// Unified arena of the resolved engine (empty when the program
    /// is unresolved).
    pub(crate) arena: Vec<f64>,
    /// Cursor file of the resolved engine (empty when no loop of the
    /// program steps an operand).
    pub(crate) cur: Vec<i64>,
    /// [`ResolvedProgram::tag`] of the program the arena was built
    /// for.
    pub(crate) tag: u64,
    /// Lane registers for the program's largest vector plan.
    pub(crate) lanes: Vec<LaneSlot>,
}

impl VmState {
    /// Allocates state sized for a program.
    pub fn new(prog: &VmProgram) -> VmState {
        let (arena, cur, tag, lanes) = match &prog.resolved {
            Ok(rp) => (
                rp.fresh_arena(),
                rp.init_cursors().to_vec(),
                rp.tag(),
                vec![LaneSlot::ZERO; rp.max_lane_cells()],
            ),
            Err(_) => (Vec::new(), Vec::new(), 0, Vec::new()),
        };
        VmState {
            f: Vec::new(),
            temps: Vec::new(),
            r: vec![0; prog.n_r],
            loops: vec![0; prog.n_loop],
            arena,
            cur,
            tag,
            lanes,
        }
    }
}

/// Rejects programs where an affine subscript can reach a negative
/// address: `Addr::eval` only `debug_assert`s non-negativity, so in
/// release builds a negative address would wrap to a huge `usize` and
/// panic far away at slice indexing (or, in the unified-arena engine,
/// silently read a neighboring region). All loop bounds are
/// compile-time constants and every bound combination is reached, so
/// the interval box over the enclosing ranges is exact; subscripts
/// under a zero-trip loop are skipped (the access never executes), and
/// out-of-scope variables are widened to every value their slot can
/// hold (including the initial 0).
fn check_negative_reachable(
    prog: &IProgram,
    temp_offsets: &[usize],
    table_offsets: &[usize],
) -> Result<(), VmError> {
    use std::collections::HashMap;
    let mut union: HashMap<u32, (i64, i64)> = HashMap::new();
    for ins in &prog.instrs {
        if let Instr::DoStart { var, lo, hi, .. } = ins {
            if lo <= hi {
                let e = union.entry(var.0).or_insert((0, 0));
                e.0 = e.0.min(*lo);
                e.1 = e.1.max(*hi);
            }
        }
    }
    let check_vec = |stack: &[(u32, i64, i64)], vr: &VecRef| -> Result<(), VmError> {
        let off = match vr.kind {
            VecKind::Temp(t) => temp_offsets.get(t as usize).copied().unwrap_or(0) as i128,
            VecKind::Table(t) => table_offsets.get(t as usize).copied().unwrap_or(0) as i128,
            _ => 0,
        };
        let mut min = vr.idx.c as i128 + off;
        for &(c, lv) in &vr.idx.terms {
            let (lo, hi) = stack
                .iter()
                .rev()
                .find(|&&(v, _, _)| v == lv.0)
                .map(|&(_, lo, hi)| (lo, hi))
                .or_else(|| union.get(&lv.0).copied())
                .unwrap_or((0, 0));
            min += (c as i128 * lo as i128).min(c as i128 * hi as i128);
        }
        if min < 0 {
            return Err(VmError::NegativeAddress(format!(
                "{:?}[{:?}] reaches address {min}",
                vr.kind, vr.idx
            )));
        }
        Ok(())
    };
    let mut stack: Vec<(u32, i64, i64)> = Vec::new();
    for ins in &prog.instrs {
        match ins {
            Instr::DoStart { var, lo, hi, .. } => stack.push((var.0, *lo, *hi)),
            Instr::DoEnd => {
                stack.pop();
            }
            Instr::Bin { dst, a, b, .. } => {
                if stack.iter().all(|&(_, lo, hi)| lo <= hi) {
                    if let Place::Vec(vr) = dst {
                        check_vec(&stack, vr)?;
                    }
                    for v in [a, b] {
                        if let Value::Place(Place::Vec(vr)) = v {
                            check_vec(&stack, vr)?;
                        }
                    }
                }
            }
            Instr::Un { dst, a, .. } => {
                if stack.iter().all(|&(_, lo, hi)| lo <= hi) {
                    if let Place::Vec(vr) = dst {
                        check_vec(&stack, vr)?;
                    }
                    if let Value::Place(Place::Vec(vr)) = a {
                        check_vec(&stack, vr)?;
                    }
                }
            }
        }
    }
    Ok(())
}

/// Lowers a *real-typed* i-code program (after type transformation) to a
/// VM program.
///
/// # Errors
///
/// Fails on complex programs, surviving intrinsics, operands the VM
/// cannot encode, or subscripts that can reach a negative address.
pub fn lower(prog: &IProgram) -> Result<VmProgram, VmError> {
    if prog.complex {
        return Err(VmError::ComplexProgram);
    }
    // Flatten temps and tables into single arenas.
    let mut temp_offsets = Vec::with_capacity(prog.temps.len());
    let mut temp_len = 0usize;
    for &t in &prog.temps {
        temp_offsets.push(temp_len);
        temp_len += t;
    }
    let mut table_offsets = Vec::with_capacity(prog.tables.len());
    let mut tables = Vec::new();
    for t in &prog.tables {
        table_offsets.push(tables.len());
        tables.extend(t.iter().map(|c| c.re));
    }
    check_negative_reachable(prog, &temp_offsets, &table_offsets)?;

    let addr_of = |v: &VecRef| -> Addr {
        let mut a = Addr::from_affine(&v.idx);
        match v.kind {
            VecKind::Temp(t) => a.base += temp_offsets[t as usize] as i64,
            VecKind::Table(t) => a.base += table_offsets[t as usize] as i64,
            _ => {}
        }
        a
    };
    let dst_of = |p: &Place| -> Result<Dst, VmError> {
        match p {
            Place::F(k) => Ok(Dst::F(*k)),
            Place::Vec(v) => match v.kind {
                VecKind::Out => Ok(Dst::Out(addr_of(v))),
                VecKind::Temp(_) => Ok(Dst::Temp(addr_of(v))),
                VecKind::In | VecKind::Table(_) => Err(VmError::WriteToReadOnly),
            },
            Place::R(_) => Err(VmError::IntDstInFloatOp),
        }
    };
    let src_of = |v: &Value| -> Result<Src, VmError> {
        match v {
            Value::Const(c) => {
                if c.is_real() {
                    Ok(Src::Const(c.re))
                } else {
                    Err(VmError::ComplexConstant)
                }
            }
            Value::Int(i) => Ok(Src::Const(*i as f64)),
            Value::LoopIdx(lv) => Ok(Src::LoopF(lv.0)),
            Value::Place(Place::F(k)) => Ok(Src::F(*k)),
            Value::Place(Place::R(k)) => Ok(Src::RF(*k)),
            Value::Place(Place::Vec(vr)) => Ok(match vr.kind {
                VecKind::In => Src::In(addr_of(vr)),
                VecKind::Out => Src::Out(addr_of(vr)),
                VecKind::Temp(_) => Src::Temp(addr_of(vr)),
                VecKind::Table(_) => Src::Table(addr_of(vr)),
            }),
            Value::Intrinsic(_, _) => Err(VmError::Intrinsic),
        }
    };
    let isrc_of = |v: &Value| -> Result<ISrc, VmError> {
        match v {
            Value::Int(i) => Ok(ISrc::Const(*i)),
            Value::Const(c) if c.is_real() && c.re.fract() == 0.0 => Ok(ISrc::Const(c.re as i64)),
            Value::LoopIdx(lv) => Ok(ISrc::Loop(lv.0)),
            Value::Place(Place::R(k)) => Ok(ISrc::R(*k)),
            other => Err(VmError::NonIntegerOperand(format!("{other:?}"))),
        }
    };

    let mut code = Vec::with_capacity(prog.instrs.len());
    let mut loop_stack: Vec<(usize, u32, i64)> = Vec::new(); // (start_pc, var, hi)
    for ins in &prog.instrs {
        match ins {
            Instr::DoStart { var, lo, hi, .. } => {
                loop_stack.push((code.len(), var.0, *hi));
                code.push(Op::LoopStart {
                    var: var.0,
                    lo: *lo,
                    end_pc: usize::MAX, // patched at DoEnd
                    vec: prog.vec_loops.contains(&var.0),
                });
            }
            Instr::DoEnd => {
                let (start_pc, var, hi) = loop_stack.pop().ok_or(VmError::UnmatchedLoopEnd)?;
                let end_pc = code.len();
                code.push(Op::LoopEnd { var, hi, start_pc });
                if let Op::LoopStart { end_pc: e, .. } = &mut code[start_pc] {
                    *e = end_pc;
                }
            }
            Instr::Bin { op, dst, a, b } => {
                if let Place::R(k) = dst {
                    code.push(Op::IntBin {
                        op: *op,
                        dst: *k,
                        a: isrc_of(a)?,
                        b: isrc_of(b)?,
                    });
                } else {
                    code.push(Op::Bin {
                        op: *op,
                        dst: dst_of(dst)?,
                        a: src_of(a)?,
                        b: src_of(b)?,
                    });
                }
            }
            Instr::Un { op, dst, a } => {
                let neg = matches!(op, UnOp::Neg);
                if let Place::R(k) = dst {
                    code.push(Op::IntUn {
                        neg,
                        dst: *k,
                        a: isrc_of(a)?,
                    });
                } else {
                    code.push(Op::Un {
                        neg,
                        dst: dst_of(dst)?,
                        a: src_of(a)?,
                    });
                }
            }
        }
    }
    if !loop_stack.is_empty() {
        return Err(VmError::UnclosedLoop);
    }
    // Lowering emits exactly one op per instruction, so the i-code
    // provenance carries over index-for-index.
    let prov = prog.prov_slice().to_vec();
    debug_assert!(prov.is_empty() || prov.len() == prog.instrs.len());
    let mut vm = VmProgram {
        code,
        prov,
        prov_nodes: prog.prov_nodes.clone(),
        resolved: Err(Unsupported("unresolved")),
        n_in: prog.n_in,
        n_out: prog.n_out,
        temp_len,
        tables,
        n_f: prog.n_f as usize,
        n_r: prog.n_r as usize,
        n_loop: prog.n_loop as usize,
    };
    vm.resolved = resolve(&vm);
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_compiler::{Compiler, CompilerOptions, OptLevel};
    use spl_numeric::{reference, Complex};

    fn compile(src: &str, opts: CompilerOptions) -> VmProgram {
        let mut c = Compiler::with_options(opts);
        let unit = c.compile_formula_str(src).unwrap();
        lower(&unit.program).unwrap()
    }

    fn run_complex(vm: &VmProgram, x: &[Complex]) -> Vec<Complex> {
        let flat = crate::convert::interleave(x);
        let mut y = vec![0.0; vm.n_out];
        let mut st = VmState::new(vm);
        vm.run(&flat, &mut y, &mut st);
        crate::convert::deinterleave(&y)
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 + 0.3).cos()))
            .collect()
    }

    #[test]
    fn butterfly_runs() {
        let vm = compile("(F 2)", CompilerOptions::default());
        let x = ramp(2);
        let y = run_complex(&vm, &x);
        let want = reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-13));
        }
    }

    #[test]
    fn looped_fft_runs() {
        let src = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))) (L 8 2))";
        let vm = compile(src, CompilerOptions::default());
        let x = ramp(8);
        let y = run_complex(&vm, &x);
        let want = reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn unrolled_fft_runs() {
        let src = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
        let vm = compile(
            src,
            CompilerOptions {
                unroll_threshold: Some(64),
                ..Default::default()
            },
        );
        let x = ramp(4);
        let y = run_complex(&vm, &x);
        let want = reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-13));
        }
    }

    #[test]
    fn unoptimized_code_executes_integer_ops() {
        // OptLevel::None keeps $r computations and table reads.
        let vm = compile(
            "(F 4)",
            CompilerOptions {
                opt_level: OptLevel::None,
                ..Default::default()
            },
        );
        let x = ramp(4);
        let y = run_complex(&vm, &x);
        let want = reference::dft(&x);
        for (a, b) in y.iter().zip(&want) {
            assert!(a.approx_eq(*b, 1e-12));
        }
    }

    #[test]
    fn all_opt_levels_agree_on_vm() {
        let src = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))";
        let x = ramp(8);
        let mut outs = Vec::new();
        for level in [OptLevel::None, OptLevel::ScalarTemps, OptLevel::Default] {
            let vm = compile(
                src,
                CompilerOptions {
                    opt_level: level,
                    ..Default::default()
                },
            );
            outs.push(run_complex(&vm, &x));
        }
        for o in &outs[1..] {
            for (a, b) in o.iter().zip(&outs[0]) {
                assert!(a.approx_eq(*b, 1e-12));
            }
        }
    }

    #[test]
    fn complex_ir_rejected() {
        let mut c = Compiler::new();
        let units = c
            .compile_source("#datatype complex\n#codetype complex\n(F 2)")
            .unwrap();
        assert!(lower(&units[0].program).is_err());
    }

    #[test]
    fn memory_accounting() {
        let vm = compile("(compose (F 4) (F 4))", CompilerOptions::default());
        // compose temp: 4 complex = 8 f64; plus a twiddle table.
        assert!(vm.memory_bytes() >= 8 * 8);
    }

    #[test]
    fn zero_trip_loops_execute_nothing() {
        use spl_icode::{Affine, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
        // Hand-built program with an (invalid-by-validate) empty loop;
        // lower it manually to check the executor's guard.
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: LoopVar(0),
                    lo: 5,
                    hi: 2,
                    unroll: false,
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine::constant(0),
                    }),
                    a: Value::Const(spl_numeric::Complex::real(9.0)),
                },
                Instr::DoEnd,
            ],
            n_in: 1,
            n_out: 1,
            n_loop: 1,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        let vm = lower(&prog).unwrap();
        let mut y = [0.0];
        vm.run(&[0.0], &mut y, &mut VmState::new(&vm));
        assert_eq!(y[0], 0.0, "zero-trip body must not execute");
    }

    #[test]
    fn unclosed_loop_rejected_by_lower() {
        use spl_icode::{Instr, LoopVar};
        let prog = spl_icode::IProgram {
            instrs: vec![Instr::DoStart {
                var: LoopVar(0),
                lo: 0,
                hi: 1,
                unroll: false,
            }],
            n_in: 1,
            n_out: 1,
            n_loop: 1,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        assert!(lower(&prog).is_err());
    }

    #[test]
    fn negative_reachable_address_rejected_by_lower() {
        use spl_icode::{Affine, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
        // out[i - 2] with i in 0..=3 reaches address -2: in release the
        // old executor would wrap this to a huge usize and panic at
        // slice indexing; lowering must reject it with a typed error.
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: LoopVar(0),
                    lo: 0,
                    hi: 3,
                    unroll: false,
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine {
                            c: -2,
                            terms: vec![(1, LoopVar(0))],
                        },
                    }),
                    a: Value::Const(spl_numeric::Complex::real(1.0)),
                },
                Instr::DoEnd,
            ],
            n_in: 4,
            n_out: 4,
            n_loop: 1,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        match lower(&prog) {
            Err(VmError::NegativeAddress(_)) => {}
            other => panic!("expected NegativeAddress, got {other:?}"),
        }
        // The same subscript shifted into range is accepted.
        let mut ok = prog;
        if let Instr::Un {
            dst: Place::Vec(vr),
            ..
        } = &mut ok.instrs[1]
        {
            vr.idx.c = 0;
        }
        assert!(lower(&ok).is_ok());
    }

    #[test]
    fn negative_address_under_zero_trip_loop_is_allowed() {
        use spl_icode::{Affine, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
        // The body never executes, so the hazard is unreachable — this
        // mirrors the executor's zero-trip guard.
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: LoopVar(0),
                    lo: 5,
                    hi: 2,
                    unroll: false,
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine::constant(-7),
                    }),
                    a: Value::Const(spl_numeric::Complex::real(1.0)),
                },
                Instr::DoEnd,
            ],
            n_in: 1,
            n_out: 1,
            n_loop: 1,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        let vm = lower(&prog).unwrap();
        let mut y = [0.0];
        vm.run(&[0.0], &mut y, &mut VmState::new(&vm));
        assert_eq!(y[0], 0.0);
    }

    #[test]
    fn resolved_engine_bit_identical_to_reference() {
        let sources = [
            "(F 2)",
            "(F 8)",
            "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))) (L 8 2))",
            "(compose (F 4) (F 4))",
        ];
        for src in sources {
            for level in [OptLevel::None, OptLevel::ScalarTemps, OptLevel::Default] {
                let vm = compile(
                    src,
                    CompilerOptions {
                        opt_level: level,
                        ..Default::default()
                    },
                );
                assert!(
                    vm.is_resolved(),
                    "{src} at {level:?} fell back: {:?}",
                    vm.resolve_fallback()
                );
                let x: Vec<f64> = (0..vm.n_in).map(|i| ((i as f64) * 0.7311).sin()).collect();
                let mut y_new = vec![0.0; vm.n_out];
                let mut y_ref = vec![0.0; vm.n_out];
                vm.run(&x, &mut y_new, &mut VmState::new(&vm));
                vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
                for (a, b) in y_new.iter().zip(&y_ref) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{src} at {level:?}: engines disagree"
                    );
                }
            }
        }
    }

    #[test]
    fn fusion_and_hoist_counters_are_reported() {
        // An 8-point FFT has butterflies and twiddle multiplications
        // feeding adds, and its looped form has strided subscripts —
        // all three fusion classes and the LSR counters should fire.
        let src = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))";
        let vm = compile(src, CompilerOptions::default());
        let stats = *vm.resolve_stats().expect("resolved");
        assert!(stats.fused_butterfly > 0, "{stats:?}");
        assert!(stats.fused_muladd > 0, "{stats:?}");
        assert!(stats.cursors > 0, "{stats:?}");
        assert!(stats.hoisted_terms > 0, "{stats:?}");
        let mut tel = spl_telemetry::Telemetry::new();
        stats.record(&mut tel);
        assert_eq!(
            tel.counter("vm.fuse.butterfly"),
            Some(stats.fused_butterfly)
        );
        assert_eq!(tel.counter("vm.lsr.cursors"), Some(stats.cursors));
    }

    #[test]
    fn aliased_butterfly_pattern_is_not_misfused() {
        use spl_icode::{Affine, BinOp, Instr, LoopVar, Place, Value, VecKind, VecRef};
        // t[0] = t[0] + t[1]; out[0] = t[0] - t[1]: the second op must
        // read the UPDATED t[0], so butterfly fusion (which reads each
        // operand once) would be wrong here. Both engines must agree.
        let t = |i: i64| {
            Place::Vec(VecRef {
                kind: VecKind::Temp(0),
                idx: Affine::constant(i),
            })
        };
        let out = |i: i64| {
            Place::Vec(VecRef {
                kind: VecKind::Out,
                idx: Affine::constant(i),
            })
        };
        let input = |i: i64| {
            Value::Place(Place::Vec(VecRef {
                kind: VecKind::In,
                idx: Affine::constant(i),
            }))
        };
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::Un {
                    op: spl_icode::UnOp::Copy,
                    dst: t(0),
                    a: input(0),
                },
                Instr::Un {
                    op: spl_icode::UnOp::Copy,
                    dst: t(1),
                    a: input(1),
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: t(0),
                    a: Value::Place(t(0)),
                    b: Value::Place(t(1)),
                },
                Instr::Bin {
                    op: BinOp::Sub,
                    dst: out(0),
                    a: Value::Place(t(0)),
                    b: Value::Place(t(1)),
                },
                Instr::Bin {
                    op: BinOp::Sub,
                    dst: out(1),
                    a: Value::Place(t(0)),
                    b: Value::Place(t(1)),
                },
            ],
            n_in: 2,
            n_out: 2,
            temps: vec![2],
            n_loop: 0,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        let _ = LoopVar(0);
        let vm = lower(&prog).unwrap();
        assert!(vm.is_resolved());
        let x = [3.0, 5.0];
        let mut y_new = [0.0; 2];
        let mut y_ref = [0.0; 2];
        vm.run(&x, &mut y_new, &mut VmState::new(&vm));
        vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
        assert_eq!(y_new, y_ref);
        assert_eq!(y_new, [3.0, 3.0]); // (3+5) - 5, twice
    }

    #[test]
    fn deep_nested_loops_stride_correctly() {
        use spl_icode::{Affine, Instr, LoopVar, Place, Value, VecKind, VecRef};
        // out[8i + 4j + k + 3 - (i + j + k)] over a 2x2x4 nest: mixed
        // strides, a shared subscript between two loops, and a negative
        // coefficient component. Compare engines bit-for-bit.
        let idx = Affine {
            c: 3,
            terms: vec![(7, LoopVar(0)), (3, LoopVar(1)), (0, LoopVar(2))],
        };
        let src_idx = Affine {
            c: 0,
            terms: vec![(8, LoopVar(0)), (4, LoopVar(1)), (1, LoopVar(2))],
        };
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: LoopVar(0),
                    lo: 0,
                    hi: 1,
                    unroll: false,
                },
                Instr::DoStart {
                    var: LoopVar(1),
                    lo: 0,
                    hi: 1,
                    unroll: false,
                },
                Instr::DoStart {
                    var: LoopVar(2),
                    lo: 0,
                    hi: 3,
                    unroll: false,
                },
                Instr::Bin {
                    op: spl_icode::BinOp::Add,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx,
                    }),
                    a: Value::Place(Place::Vec(VecRef {
                        kind: VecKind::In,
                        idx: src_idx,
                    })),
                    b: Value::Const(spl_numeric::Complex::real(0.5)),
                },
                Instr::DoEnd,
                Instr::DoEnd,
                Instr::DoEnd,
            ],
            n_in: 16,
            n_out: 16,
            n_loop: 3,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        let vm = lower(&prog).unwrap();
        assert!(vm.is_resolved(), "{:?}", vm.resolve_fallback());
        let x: Vec<f64> = (0..16).map(|i| (i as f64) * 1.5 - 3.0).collect();
        let mut y_new = vec![0.0; 16];
        let mut y_ref = vec![0.0; 16];
        vm.run(&x, &mut y_new, &mut VmState::new(&vm));
        vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
        assert_eq!(y_new, y_ref);
    }

    #[test]
    fn float_and_int_op_counts_are_split() {
        // Unoptimized code keeps $r bookkeeping; the split counters
        // must not blend it into the float arithmetic count.
        let vm = compile(
            "(F 4)",
            CompilerOptions {
                opt_level: OptLevel::None,
                ..Default::default()
            },
        );
        assert!(vm.float_ops() > 0);
        assert!(vm.int_ops() > 0);
        let opt = compile("(F 4)", CompilerOptions::default());
        assert_eq!(opt.int_ops(), 0, "optimized code has no $r arithmetic");
        assert!(opt.float_ops() > 0);
    }

    #[test]
    fn profiled_run_is_bit_identical_and_telescopes() {
        let src = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))";
        let vm = compile(src, CompilerOptions::default());
        assert!(vm.is_resolved(), "{:?}", vm.resolve_fallback());
        let x: Vec<f64> = (0..vm.n_in).map(|i| ((i as f64) * 0.7311).sin()).collect();
        let mut y_prof = vec![0.0; vm.n_out];
        let mut y_ref = vec![0.0; vm.n_out];
        let prof = vm
            .run_profiled(&x, &mut y_prof, &mut VmState::new(&vm))
            .expect("resolved");
        vm.run(&x, &mut y_ref, &mut VmState::new(&vm));
        for (a, b) in y_prof.iter().zip(&y_ref) {
            assert_eq!(a.to_bits(), b.to_bits(), "profiled run changed results");
        }
        // Telescoping attribution: self times sum *exactly* to the
        // total, with nothing lost between clock reads.
        let sum: u128 = prof.nodes.iter().map(|n| n.self_ns).sum::<u128>() + prof.unattributed_ns;
        assert_eq!(sum, prof.total_ns);
        // Provenance survived the whole pipeline down to the VM.
        assert!(!prof.nodes.is_empty());
        assert!(prof.nodes.iter().any(|n| n.ops > 0));
        assert!(prof.flops() > 0);
        assert!(prof.fused_ops() > 0, "fused macro-ops executed");
        assert!(prof.fused_utilization() > 0.0);
        // The root subtree contains every attributed nanosecond.
        let incl = prof.inclusive_ns();
        assert_eq!(incl[0], prof.attributed_ns());
        // Loop blocks ran.
        assert!(!prof.loops.is_empty());
        assert!(prof.loops.iter().map(|l| l.iterations).sum::<u64>() > 0);
        // The JSON report round-trips through the parser.
        let js = prof.to_json().to_string();
        assert!(spl_telemetry::json::parse(&js).is_ok());
    }

    #[test]
    fn profiled_run_without_provenance_is_unattributed() {
        use spl_icode::{Affine, Instr, Place, UnOp, Value, VecKind, VecRef};
        let prog = spl_icode::IProgram {
            instrs: vec![Instr::Un {
                op: UnOp::Copy,
                dst: Place::Vec(VecRef {
                    kind: VecKind::Out,
                    idx: Affine::constant(0),
                }),
                a: Value::Const(spl_numeric::Complex::real(4.0)),
            }],
            n_in: 1,
            n_out: 1,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        let vm = lower(&prog).unwrap();
        let mut y = [0.0];
        let prof = vm
            .run_profiled(&[0.0], &mut y, &mut VmState::new(&vm))
            .expect("resolved");
        assert_eq!(y[0], 4.0);
        assert!(prof.nodes.is_empty());
        assert_eq!(prof.unattributed_ns, prof.total_ns);
        assert_eq!(prof.op_counts[4], 1, "one copy executed");
    }

    #[test]
    fn state_reuse_is_clean() {
        let vm = compile("(F 2)", CompilerOptions::default());
        let mut st = VmState::new(&vm);
        let x1 = crate::convert::interleave(&ramp(2));
        let mut y1 = vec![0.0; vm.n_out];
        vm.run(&x1, &mut y1, &mut st);
        let mut y2 = vec![0.0; vm.n_out];
        vm.run(&x1, &mut y2, &mut st);
        assert_eq!(y1, y2);
    }

    /// Serializes tests that flip the process-wide forced-scalar
    /// switch so they cannot race each other.
    fn force_scalar_lock() -> std::sync::MutexGuard<'static, ()> {
        crate::simd::override_lock()
    }

    /// A looped formula whose inner `⊗ I_m` loops the vectorize pass
    /// marks and the resolver plans.
    const VEC_SRC: &str = "(compose (tensor (F 2) (I 8)) (T 16 8) (tensor (I 2) (F 8)) (L 16 2))";

    #[test]
    fn vector_plans_engage_on_looped_tensor_code() {
        let vm = compile(VEC_SRC, CompilerOptions::default());
        let stats = *vm.resolve_stats().expect("resolved");
        assert!(stats.vec_loops > 0, "no loop was planned: {stats:?}");
        assert!(stats.vec_ops > 0, "{stats:?}");
        let mut tel = spl_telemetry::Telemetry::new();
        stats.record(&mut tel);
        assert_eq!(tel.counter("vm.vec.loops"), Some(stats.vec_loops));
        assert_eq!(tel.counter("vm.vec.demoted"), Some(stats.vec_demoted));
        assert_eq!(tel.counter("vm.vec.ops"), Some(stats.vec_ops));
    }

    #[test]
    fn forced_scalar_and_vector_execution_bit_identical() {
        let _g = force_scalar_lock();
        // Odd sizes exercise remainder lanes: trip counts that are not
        // multiples of any lane width (2 or 4) leave 1–3 scalar
        // iterations after the chunks.
        let sources = [
            VEC_SRC,
            "(tensor (F 2) (I 3))",
            "(tensor (F 2) (I 5))",
            "(tensor (F 2) (I 7))",
            "(compose (F 4) (F 4))",
        ];
        for src in sources {
            let vm = compile(src, CompilerOptions::default());
            assert!(vm.is_resolved(), "{src}: {:?}", vm.resolve_fallback());
            let x: Vec<f64> = (0..vm.n_in).map(|i| ((i as f64) * 1.37).cos()).collect();
            let mut y_vec = vec![0.0; vm.n_out];
            let mut y_sca = vec![0.0; vm.n_out];
            let mut y_ref = vec![0.0; vm.n_out];
            crate::simd::set_force_scalar(false);
            vm.run(&x, &mut y_vec, &mut VmState::new(&vm));
            crate::simd::set_force_scalar(true);
            vm.run(&x, &mut y_sca, &mut VmState::new(&vm));
            crate::simd::set_force_scalar(false);
            vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
            for i in 0..vm.n_out {
                assert_eq!(
                    y_vec[i].to_bits(),
                    y_sca[i].to_bits(),
                    "{src}: vector vs forced-scalar at {i}"
                );
                assert_eq!(
                    y_vec[i].to_bits(),
                    y_ref[i].to_bits(),
                    "{src}: vector vs reference at {i}"
                );
            }
        }
    }

    #[test]
    fn zero_trip_vec_hinted_loop_is_demoted_and_skipped() {
        use spl_icode::{Affine, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
        // A (bogus) lane-safety mark on a zero-trip loop: the resolver
        // must demote it, and the body must still never execute.
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: LoopVar(0),
                    lo: 5,
                    hi: 2,
                    unroll: false,
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine {
                            c: 0,
                            terms: vec![(1, LoopVar(0))],
                        },
                    }),
                    a: Value::Const(spl_numeric::Complex::real(9.0)),
                },
                Instr::DoEnd,
            ],
            n_in: 1,
            n_out: 1,
            n_loop: 1,
            complex: false,
            vec_loops: vec![0],
            ..spl_icode::IProgram::empty()
        };
        let vm = lower(&prog).unwrap();
        let stats = *vm.resolve_stats().expect("resolved");
        assert_eq!(stats.vec_loops, 0, "{stats:?}");
        assert_eq!(stats.vec_demoted, 1, "{stats:?}");
        let mut y = [0.0];
        vm.run(&[0.0], &mut y, &mut VmState::new(&vm));
        assert_eq!(y[0], 0.0, "zero-trip body must not execute");
    }

    #[test]
    fn cross_iteration_alias_hint_is_demoted_not_trusted() {
        use spl_icode::{Affine, BinOp, Instr, LoopVar, Place, Value, VecKind, VecRef};
        // out[i+1] = out[i] + in[i]: a loop-carried recurrence behind
        // aliased subscripts, wrongly marked lane-safe. The resolver
        // must demote the hint and both engines must agree.
        let vec = |kind: VecKind, c: i64| {
            Place::Vec(VecRef {
                kind,
                idx: Affine {
                    c,
                    terms: vec![(1, LoopVar(0))],
                },
            })
        };
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: LoopVar(0),
                    lo: 0,
                    hi: 5,
                    unroll: false,
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: vec(VecKind::Out, 1),
                    a: Value::Place(vec(VecKind::Out, 0)),
                    b: Value::Place(vec(VecKind::In, 0)),
                },
                Instr::DoEnd,
            ],
            n_in: 7,
            n_out: 7,
            n_loop: 1,
            complex: false,
            vec_loops: vec![0],
            ..spl_icode::IProgram::empty()
        };
        let vm = lower(&prog).unwrap();
        let stats = *vm.resolve_stats().expect("resolved");
        assert_eq!(stats.vec_loops, 0, "recurrence must not be planned");
        assert_eq!(stats.vec_demoted, 1, "{stats:?}");
        let x: Vec<f64> = (0..7).map(|i| i as f64 + 1.0).collect();
        let mut y_new = vec![0.0; 7];
        let mut y_ref = vec![0.0; 7];
        vm.run(&x, &mut y_new, &mut VmState::new(&vm));
        vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
        assert_eq!(y_new, y_ref);
    }

    /// Body executions of every loop in one call, in program order: a
    /// loop's own trip count times those of the loops around it.
    fn static_loop_iterations(vm: &VmProgram) -> Vec<u64> {
        let mut around = vec![1u64];
        let mut per_loop = Vec::new();
        for op in vm.code() {
            match op {
                Op::LoopStart { lo, end_pc, .. } => {
                    let Op::LoopEnd { hi, .. } = &vm.code()[*end_pc] else {
                        unreachable!("end_pc points at the LoopEnd");
                    };
                    let n = around.last().unwrap() * (hi - lo + 1).max(0) as u64;
                    per_loop.push(n);
                    around.push(n);
                }
                Op::LoopEnd { .. } => {
                    around.pop();
                }
                _ => {}
            }
        }
        per_loop
    }

    #[test]
    fn profiled_run_counts_vector_lane_ops() {
        let _g = force_scalar_lock();
        crate::simd::set_force_scalar(false);
        if crate::simd::width() == 0 {
            return; // no vector backend on this target
        }
        let vm = compile(VEC_SRC, CompilerOptions::default());
        assert!(vm.resolve_stats().unwrap().vec_loops > 0);
        let x: Vec<f64> = (0..vm.n_in).map(|i| (i as f64 * 0.11).sin()).collect();
        let mut y = vec![0.0; vm.n_out];
        let mut y_run = vec![0.0; vm.n_out];
        let mut y_ref = vec![0.0; vm.n_out];
        // One state for the profiled and the plain run: they are the
        // same executor, so neither leaves anything the other trips on.
        let mut st = VmState::new(&vm);
        let prof = vm.run_profiled(&x, &mut y, &mut st).expect("resolved");
        vm.run(&x, &mut y_run, &mut st);
        vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
        for i in 0..vm.n_out {
            assert_eq!(y[i].to_bits(), y_run[i].to_bits(), "profiled vs run");
            assert_eq!(y[i].to_bits(), y_ref[i].to_bits(), "profiled vs reference");
        }
        assert!(
            prof.vector_lane_ops() > 0,
            "vector classes did not count: {:?}",
            prof.op_counts
        );
        // Lane-op counting keeps totals width-independent: the same
        // program forced scalar reports identical float-op and flop
        // totals, just binned into the scalar classes.
        crate::simd::set_force_scalar(true);
        let mut y2 = vec![0.0; vm.n_out];
        let prof_scalar = vm.run_profiled(&x, &mut y2, &mut st).expect("resolved");
        crate::simd::set_force_scalar(false);
        assert_eq!(prof_scalar.vector_lane_ops(), 0);
        assert_eq!(prof.float_ops(), prof_scalar.float_ops());
        assert_eq!(prof.flops(), prof_scalar.flops());
        // Chunked or not, a loop is charged its whole trip count.
        let want = static_loop_iterations(&vm);
        for (p, how) in [(&prof, "vector"), (&prof_scalar, "forced scalar")] {
            let got: Vec<u64> = p.loops.iter().map(|l| l.iterations).collect();
            assert_eq!(got, want, "{how}");
        }
    }

    #[test]
    #[should_panic(expected = "arena state mismatch")]
    fn state_of_a_smaller_program_is_refused() {
        let small = compile("(F 2)", CompilerOptions::default());
        let big = compile("(F 8)", CompilerOptions::default());
        let mut y = vec![0.0; big.n_out];
        big.run(&vec![1.0; big.n_in], &mut y, &mut VmState::new(&small));
    }

    /// `out[i] = in[i] + in[from(i)]` over `i = 0..=3`: same arena for
    /// every `from`, one cursor more when `from` is not the identity.
    fn sweep(second: (i64, i64)) -> VmProgram {
        use spl_icode::{Affine, BinOp, Instr, LoopVar, Place, Value, VecKind, VecRef};
        let at = |kind, c, k| {
            Place::Vec(VecRef {
                kind,
                idx: Affine {
                    c,
                    terms: vec![(k, LoopVar(0))],
                },
            })
        };
        let prog = spl_icode::IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: LoopVar(0),
                    lo: 0,
                    hi: 3,
                    unroll: false,
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: at(VecKind::Out, 0, 1),
                    a: Value::Place(at(VecKind::In, 0, 1)),
                    b: Value::Place(at(VecKind::In, second.0, second.1)),
                },
                Instr::DoEnd,
            ],
            n_in: 4,
            n_out: 4,
            n_loop: 1,
            complex: false,
            ..spl_icode::IProgram::empty()
        };
        lower(&prog).unwrap()
    }

    /// Runs `prog` on a state built for `other` and returns the refusal,
    /// having checked that not even the input was copied in.
    fn refusal(prog: &VmProgram, other: &VmProgram) -> String {
        let mut st = VmState::new(other);
        let before = st.arena.clone();
        let mut y = vec![0.0; prog.n_out];
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            prog.run(&vec![1.0; prog.n_in], &mut y, &mut st)
        }))
        .expect_err("mismatched state must not run");
        assert_eq!(st.arena, before, "not even the input was copied in");
        panic.downcast_ref::<String>().expect("message").clone()
    }

    #[test]
    fn state_with_another_cursor_count_is_refused_before_any_op_runs() {
        let (two, three) = (sweep((0, 1)), sweep((3, -1)));
        // The same arena and integer state, so only the cursor file can
        // give it away.
        let (a, b) = (VmState::new(&two), VmState::new(&three));
        assert_eq!(a.arena.len(), b.arena.len());
        assert_eq!((a.cur.len(), b.cur.len()), (2, 3));
        let msg = refusal(&two, &three);
        assert!(msg.contains("cursor state mismatch"), "{msg}");
    }

    #[test]
    fn state_of_another_loop_free_program_is_refused_before_any_cell_is_written() {
        use spl_icode::{Affine, BinOp, Instr, Place, Value, VecKind, VecRef};
        // `out[0] = in[0] * c`: two programs of one shape, no cursor in
        // either, told apart by nothing but the constant their arenas
        // hold — which the wrong state would silently multiply by.
        let scale = |c: f64| {
            let at = |kind| {
                Place::Vec(VecRef {
                    kind,
                    idx: Affine::constant(0),
                })
            };
            let prog = spl_icode::IProgram {
                instrs: vec![Instr::Bin {
                    op: BinOp::Mul,
                    dst: at(VecKind::Out),
                    a: Value::Place(at(VecKind::In)),
                    b: Value::Const(spl_numeric::Complex::real(c)),
                }],
                n_in: 1,
                n_out: 1,
                complex: false,
                ..spl_icode::IProgram::empty()
            };
            lower(&prog).unwrap()
        };
        let (double, triple) = (scale(2.0), scale(3.0));
        let (a, b) = (VmState::new(&double), VmState::new(&triple));
        assert_eq!(a.arena.len(), b.arena.len());
        assert!(a.cur.is_empty() && b.cur.is_empty());
        let msg = refusal(&double, &triple);
        assert!(msg.contains("built for another program"), "{msg}");
        // Its own state, and that of an equal program, are accepted.
        let mut y = [0.0];
        double.run(&[4.0], &mut y, &mut VmState::new(&scale(2.0)));
        assert_eq!(y, [8.0]);
    }
}
