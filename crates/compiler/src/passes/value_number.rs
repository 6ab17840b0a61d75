//! Value numbering (paper Section 3.4): constant folding, algebraic
//! simplification, copy propagation, and CSE "in a single pass using a
//! value numbering algorithm. Both scalar variables and array elements
//! are handled."
//!
//! Value numbers are tracked through straight-line regions; state is
//! reset at loop boundaries (conservative but simple — exactly what
//! generated SPL code needs, since loop bodies are self-contained).

use spl_icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
use spl_numeric::Complex;

use super::{slot_mut, vec_slot, Elems, OptStats, Pass, PassResult, Slots, Terms, VecLens, NONE};
use crate::error::CompileError;
use crate::mix::MixMap;

/// The value-numbering pass. With `cse` disabled it degrades to pure
/// constant folding / algebraic simplification (registered separately as
/// `constant-fold` so the cheap subset can be scheduled on its own).
#[derive(Debug, Clone, Copy)]
pub struct ValueNumber {
    cse: bool,
}

impl Default for ValueNumber {
    fn default() -> Self {
        ValueNumber { cse: true }
    }
}

impl ValueNumber {
    /// The constant-folding subset: no cross-instruction reuse of
    /// computed values, so no copies are introduced.
    pub fn constant_fold_only() -> Self {
        ValueNumber { cse: false }
    }
}

impl Pass for ValueNumber {
    fn name(&self) -> &'static str {
        if self.cse {
            "value-number"
        } else {
            "constant-fold"
        }
    }

    fn description(&self) -> &'static str {
        if self.cse {
            "constant folding, algebraic simplification, copy propagation and CSE \
             via value numbering over straight-line regions"
        } else {
            "constant folding and algebraic simplification only (value numbering \
             with reuse disabled)"
        }
    }

    fn run(&self, prog: &mut IProgram, stats: &mut OptStats) -> Result<PassResult, CompileError> {
        super::check_prov_alignment(self.name(), prog)?;
        Ok(value_number_in_place(prog, stats, self.cse))
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(u64, u64),
    Loop(LoopVar),
    /// The bool separates integer-destination arithmetic from
    /// floating-point arithmetic: `$r = a / b` truncates where
    /// `$f = a / b` does not, so the two must never share a value number.
    Bin(BinOp, bool, u32, u32),
    Neg(u32),
}

/// What is known about one value number.
#[derive(Default)]
struct VnInfo {
    /// The constant it denotes, if any.
    konst: Option<Complex>,
    /// A place currently holding it. Invariant: `home == Some(P)` implies
    /// `places.get(P) == Some(this vn)`, so the home a write clobbers is
    /// found through the written place's own entry, never by a scan.
    home: Option<Home>,
    /// The operand of the negation that produced it, so `-(-x)` folds
    /// to `x`.
    neg_src: Option<u32>,
}

/// A place by its dense ids: what a value's home is recorded as, so that
/// recording one copies no subscript.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Home {
    F(u32),
    R(u32),
    /// An element of `kind`: a constant subscript (terms id [`NONE`]), or
    /// interned terms plus a constant.
    Elem(VecKind, u32, i64),
}

impl Home {
    fn is_scalar(self) -> bool {
        matches!(self, Home::F(_) | Home::R(_))
    }

    /// An element of the read-only input or of a constant table.
    fn is_read_only(self) -> bool {
        matches!(self, Home::Elem(VecKind::In | VecKind::Table(_), ..))
    }
}

/// Value numbers of the elements of one vector.
#[derive(Default)]
struct VecVns {
    /// Constant subscripts.
    consts: Elems,
    /// Symbolic subscripts (non-empty terms), by (terms id, constant).
    symbolic: MixMap<(u32, i64), u32>,
}

/// place -> value number, split the way a write invalidates it: a
/// scalar write kills one entry; a constant-subscript vector write kills
/// that element and every symbolic entry of the vector; a symbolic write
/// kills the whole vector.
struct PlaceVns {
    f: Slots,
    r: Slots,
    /// By [`vec_slot`]; created on first use.
    vecs: Vec<Option<VecVns>>,
    lens: VecLens,
    terms: Terms,
}

impl PlaceVns {
    fn new(prog: &IProgram) -> PlaceVns {
        PlaceVns {
            f: Slots::with_len(prog.n_f as usize),
            r: Slots::with_len(prog.n_r as usize),
            vecs: Vec::new(),
            lens: VecLens::of(prog),
            terms: Terms::default(),
        }
    }

    fn vec(&self, kind: VecKind) -> Option<&VecVns> {
        self.vecs.get(vec_slot(kind))?.as_ref()
    }

    fn get(&self, p: &Place) -> Option<u32> {
        match p {
            Place::F(k) => self.f.get(*k as usize),
            Place::R(k) => self.r.get(*k as usize),
            Place::Vec(v) => {
                let vec = self.vec(v.kind)?;
                match v.idx.as_const() {
                    Some(c) => vec.consts.get(c),
                    None => {
                        let t = self.terms.get(&v.idx.terms)?;
                        vec.symbolic.get(&(t, v.idx.c)).copied()
                    }
                }
            }
        }
    }

    /// Enters `p` with `vn`; returns `p` as a [`Home`].
    fn insert(&mut self, p: &Place, vn: u32) -> Home {
        match p {
            Place::F(k) => {
                self.f.insert(*k as usize, vn);
                Home::F(*k)
            }
            Place::R(k) => {
                self.r.insert(*k as usize, vn);
                Home::R(*k)
            }
            Place::Vec(v) => {
                let len = self.lens.get(v.kind);
                let vec =
                    slot_mut(&mut self.vecs, vec_slot(v.kind)).get_or_insert_with(|| VecVns {
                        consts: Elems::with_len(len),
                        symbolic: MixMap::default(),
                    });
                match v.idx.as_const() {
                    Some(c) => {
                        vec.consts.insert(c, vn);
                        Home::Elem(v.kind, NONE, c)
                    }
                    None => {
                        let t = self.terms.id(&v.idx.terms);
                        vec.symbolic.insert((t, v.idx.c), vn);
                        Home::Elem(v.kind, t, v.idx.c)
                    }
                }
            }
        }
    }

    /// The place `h` stands for.
    fn place(&self, h: Home) -> Place {
        match h {
            Home::F(k) => Place::F(k),
            Home::R(k) => Place::R(k),
            Home::Elem(kind, t, c) => {
                let mut idx = Affine::constant(c);
                if t != NONE {
                    idx.terms = self.terms.list(t).to_vec();
                }
                Place::Vec(VecRef { kind, idx })
            }
        }
    }

    /// Forgets every entry; the tables keep their storage.
    fn clear(&mut self) {
        self.f.drain(|_, _| {});
        self.r.drain(|_, _| {});
        for vec in self.vecs.iter_mut().flatten() {
            vec.consts.drain(|_, _| {});
            if !vec.symbolic.is_empty() {
                vec.symbolic.clear();
            }
        }
    }
}

struct Vn {
    /// Value numbers are dense: `base + k` is described by `info[k]`.
    /// A reset forgets every number issued so far by moving `base` past
    /// them, which keeps numbering identical to never reusing one.
    base: u32,
    info: Vec<VnInfo>,
    keys: MixMap<Key, u32>,
    places: PlaceVns,
}

impl Vn {
    fn new(prog: &IProgram) -> Vn {
        Vn {
            base: 0,
            info: Vec::new(),
            keys: MixMap::default(),
            places: PlaceVns::new(prog),
        }
    }

    fn fresh(&mut self) -> u32 {
        self.info.push(VnInfo::default());
        self.base + (self.info.len() - 1) as u32
    }

    fn info(&self, vn: u32) -> &VnInfo {
        &self.info[(vn - self.base) as usize]
    }

    fn info_mut(&mut self, vn: u32) -> &mut VnInfo {
        &mut self.info[(vn - self.base) as usize]
    }

    fn konst(&self, vn: u32) -> Option<Complex> {
        self.info(vn).konst
    }

    fn reset(&mut self) {
        self.base += self.info.len() as u32;
        self.info.clear();
        if !self.keys.is_empty() {
            self.keys.clear();
        }
        self.places.clear();
    }

    fn const_vn(&mut self, c: Complex) -> u32 {
        let key = Key::Const(c.re.to_bits(), c.im.to_bits());
        if let Some(&vn) = self.keys.get(&key) {
            return vn;
        }
        let vn = self.fresh();
        self.keys.insert(key, vn);
        self.info_mut(vn).konst = Some(c);
        vn
    }

    fn value_vn(&mut self, v: &Value) -> u32 {
        match v {
            Value::Const(c) => self.const_vn(*c),
            Value::Int(i) => self.const_vn(Complex::real(*i as f64)),
            Value::LoopIdx(lv) => {
                let key = Key::Loop(*lv);
                if let Some(&vn) = self.keys.get(&key) {
                    return vn;
                }
                let vn = self.fresh();
                self.keys.insert(key, vn);
                vn
            }
            Value::Place(p) => {
                if let Some(vn) = self.places.get(p) {
                    return vn;
                }
                let vn = self.fresh();
                let home = self.places.insert(p, vn);
                self.info_mut(vn).home = Some(home);
                vn
            }
            Value::Intrinsic(_, _) => self.fresh(),
        }
    }

    /// The best operand for a value number: a constant if known, the
    /// value's current home if one is tracked, otherwise the original
    /// operand (which is always valid for operand positions, since it was
    /// just read). Reads of the read-only input and tables are kept as-is:
    /// renaming them through a register adds a copy for no benefit.
    fn best_operand(&self, vn: u32, original: &Value) -> Value {
        self.better_operand(vn, original)
            .unwrap_or_else(|| original.clone())
    }

    /// [`Vn::best_operand`] when it is not `original` itself.
    fn better_operand(&self, vn: u32, original: &Value) -> Option<Value> {
        let info = self.info(vn);
        if let Some(c) = info.konst {
            return Some(Value::Const(c));
        }
        if let Value::Place(Place::Vec(v)) = original {
            if matches!(v.kind, VecKind::In | VecKind::Table(_)) {
                return None;
            }
        }
        match info.home {
            Some(home) if home.is_scalar() || home.is_read_only() => {
                Some(Value::Place(self.places.place(home)))
            }
            _ => None,
        }
    }

    /// An operand that *re-materializes* a value number without reference
    /// to any original operand: a constant or a live home. `None` when the
    /// value is no longer available anywhere.
    fn materialize(&self, vn: u32) -> Option<Value> {
        let info = self.info(vn);
        if let Some(c) = info.konst {
            return Some(Value::Const(c));
        }
        info.home.map(|h| Value::Place(self.places.place(h)))
    }

    /// Invalidates state for a write to `dst`: the entries of every place
    /// the write may alias, and with each the home that lived there.
    fn invalidate(&mut self, dst: &Place) {
        let Vn {
            base, info, places, ..
        } = self;
        let mut unhome = |vn: u32, killed: Home| {
            let home = &mut info[(vn - *base) as usize].home;
            if *home == Some(killed) {
                *home = None;
            }
        };
        let Place::Vec(v) = dst else {
            let killed = match dst {
                Place::F(k) => places.f.remove(*k as usize).map(|vn| (vn, Home::F(*k))),
                Place::R(k) => places.r.remove(*k as usize).map(|vn| (vn, Home::R(*k))),
                Place::Vec(_) => None,
            };
            if let Some((vn, home)) = killed {
                unhome(vn, home);
            }
            return;
        };
        let kind = v.kind;
        let Some(Some(vec)) = places.vecs.get_mut(vec_slot(kind)) else {
            return;
        };
        // The tables are emptied, not scanned: what a kill costs is then
        // paid for by the inserts that filled them.
        match v.idx.as_const() {
            Some(c) => {
                if let Some(vn) = vec.consts.remove(c) {
                    unhome(vn, Home::Elem(kind, NONE, c));
                }
            }
            None => vec
                .consts
                .drain(|c, vn| unhome(vn, Home::Elem(kind, NONE, c))),
        }
        if !vec.symbolic.is_empty() {
            for ((t, c), vn) in vec.symbolic.drain() {
                unhome(vn, Home::Elem(kind, t, c));
            }
        }
    }

    fn record_write(&mut self, dst: &Place, vn: u32) {
        self.invalidate(dst);
        let at = self.places.insert(dst, vn);
        let home = &mut self.info_mut(vn).home;
        match home {
            // Scalar homes are good; reads of the read-only input or a
            // constant table are even better (they can never be
            // invalidated) — keep either.
            Some(h) if h.is_scalar() || h.is_read_only() => {}
            _ => *home = Some(at),
        }
    }
}

fn is_int_dst(dst: &Place) -> bool {
    matches!(dst, Place::R(_))
}

fn fold_bin(op: BinOp, a: Complex, b: Complex, int: bool) -> Option<Complex> {
    if int {
        // The interpreter rejects fractional or complex operands in
        // integer positions; folding must not paper over that.
        if !a.is_real() || !b.is_real() || a.re.fract() != 0.0 || b.re.fract() != 0.0 {
            return None;
        }
        let (x, y) = (a.re as i64, b.re as i64);
        let r = match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => {
                if y == 0 {
                    return None;
                }
                x / y
            }
        };
        return Some(Complex::real(r as f64));
    }
    Some(match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => {
            if b == Complex::ZERO {
                return None;
            }
            a / b
        }
    })
}

/// What value numbering does with one instruction.
enum Out {
    /// Leaves it in place; `true` when an operand was replaced.
    Keep(bool),
    /// Deletes it: the destination already holds the value.
    Drop,
    /// Replaces it.
    Put(Instr),
}

/// Value numbering over `prog`, in place: an instruction is kept (its
/// operands improved where they differ), replaced by a cheaper one, or
/// dropped, so that only what changes is written.
pub(crate) fn value_number_in_place(
    prog: &mut IProgram,
    stats: &mut OptStats,
    cse: bool,
) -> PassResult {
    let mut st = Vn::new(prog);
    let mut keep = Vec::with_capacity(prog.instrs.len());
    let mut changed = false;
    for ins in &mut prog.instrs {
        let kept = match number(&mut st, stats, cse, ins) {
            Out::Keep(touched) => {
                changed |= touched;
                true
            }
            Out::Drop => false,
            Out::Put(new) => {
                if *ins != new {
                    *ins = new;
                    changed = true;
                }
                true
            }
        };
        keep.push(kept);
    }
    if keep.contains(&false) {
        changed = true;
        // Provenance stays with the instructions that survive.
        let mut k = keep.iter();
        prog.instrs
            .retain(|_| *k.next().expect("one mark per instruction"));
        if !prog.prov.is_empty() {
            let mut k = keep.iter();
            prog.prov.retain(|_| *k.next().expect("one mark per entry"));
        }
    }
    if changed {
        PassResult::Changed
    } else {
        PassResult::Unchanged
    }
}

/// Replaces `v` by `new` when they differ; reports whether it did.
fn replace(v: &mut Value, new: Value) -> bool {
    let differs = *v != new;
    if differs {
        *v = new;
    }
    differs
}

/// Numbers one instruction and says what becomes of it.
fn number(st: &mut Vn, stats: &mut OptStats, cse: bool, ins: &mut Instr) -> Out {
    match ins {
        Instr::DoStart { .. } | Instr::DoEnd => {
            st.reset();
            Out::Keep(false)
        }
        Instr::Un { op, dst, a } => {
            let a_vn = st.value_vn(a);
            match op {
                UnOp::Copy => {
                    // What `emit_result` does for a copy, on the copy
                    // itself: it prints the value's constant if known,
                    // else its own operand.
                    if st.places.get(dst) == Some(a_vn) {
                        return Out::Drop;
                    }
                    let konst = st.konst(a_vn);
                    if konst.is_none() && matches!(a, Value::Place(p) if p == dst) {
                        st.record_write(dst, a_vn);
                        return Out::Drop;
                    }
                    st.record_write(dst, a_vn);
                    Out::Keep(konst.is_some_and(|c| replace(a, Value::Const(c))))
                }
                UnOp::Neg => {
                    if let Some(c) = st.konst(a_vn) {
                        stats.constants_folded += 1;
                        let vn = st.const_vn(-c);
                        return emit_result(st, dst, vn, None, &Value::Const(-c));
                    }
                    // -(-x) = x: if the operand is itself a negation,
                    // reuse its source (when still available).
                    if let Some(src) = st.info(a_vn).neg_src {
                        if let Some(val) = st.materialize(src) {
                            return reuse(st, dst, src, val);
                        }
                    }
                    let key = Key::Neg(a_vn);
                    let reused = cse
                        .then(|| {
                            st.keys
                                .get(&key)
                                .copied()
                                .and_then(|vn| st.materialize(vn).map(|val| (vn, val)))
                        })
                        .flatten();
                    if let Some((vn, val)) = reused {
                        stats.cse_hits += 1;
                        return reuse(st, dst, vn, val);
                    }
                    let vn = match st.keys.get(&key) {
                        Some(&vn) => vn,
                        None => {
                            let vn = st.fresh();
                            st.keys.insert(key, vn);
                            vn
                        }
                    };
                    st.info_mut(vn).neg_src = Some(a_vn);
                    let better = st.better_operand(a_vn, a);
                    st.record_write(dst, vn);
                    Out::Keep(better.is_some_and(|v| replace(a, v)))
                }
            }
        }
        Instr::Bin { op, dst, a, b } => {
            let op = *op;
            let a_vn = st.value_vn(a);
            let b_vn = st.value_vn(b);
            let int = is_int_dst(dst);
            let ca = st.konst(a_vn);
            let cb = st.konst(b_vn);
            // Constant folding.
            if let (Some(x), Some(y)) = (ca, cb) {
                if let Some(r) = fold_bin(op, x, y, int) {
                    stats.constants_folded += 1;
                    let vn = st.const_vn(r);
                    return emit_result(st, dst, vn, None, a);
                }
            }
            // Algebraic simplifications. Each case carries the operand
            // (value number + original) that the result reduces to.
            let one = Complex::ONE;
            let zero = Complex::ZERO;
            let neg_one = Complex::real(-1.0);
            // Produces the value number for -oval, together with an
            // instruction computing it into dst: a copy when the
            // negation is still live somewhere, a recomputation
            // otherwise, nothing when it is a known constant (the
            // const branch of emit_result covers it).
            let neg_of = |st: &mut Vn, ovn: u32, oval: &Value, dst: &Place| {
                // -(-x) = x when the operand is itself a negation.
                if let Some(src) = st.info(ovn).neg_src {
                    if let Some(val) = st.materialize(src) {
                        return (
                            src,
                            Some(Instr::Un {
                                op: UnOp::Copy,
                                dst: dst.clone(),
                                a: val,
                            }),
                        );
                    }
                }
                let key = Key::Neg(ovn);
                if let Some(&vn) = st.keys.get(&key) {
                    if st.konst(vn).is_some() {
                        return (vn, None);
                    }
                    let ins = match st.materialize(vn) {
                        Some(val) => Instr::Un {
                            op: UnOp::Copy,
                            dst: dst.clone(),
                            a: val,
                        },
                        None => Instr::Un {
                            op: UnOp::Neg,
                            dst: dst.clone(),
                            a: st.best_operand(ovn, oval),
                        },
                    };
                    return (vn, Some(ins));
                }
                let vn = st.fresh();
                st.keys.insert(key, vn);
                st.info_mut(vn).neg_src = Some(ovn);
                (
                    vn,
                    Some(Instr::Un {
                        op: UnOp::Neg,
                        dst: dst.clone(),
                        a: st.best_operand(ovn, oval),
                    }),
                )
            };
            // (result vn, prebuilt instr, original operand for the vn)
            let simplified: Option<(u32, Option<Instr>, &Value)> = match op {
                BinOp::Add => {
                    if ca == Some(zero) {
                        Some((b_vn, None, b))
                    } else if cb == Some(zero) {
                        Some((a_vn, None, a))
                    } else {
                        None
                    }
                }
                BinOp::Sub => {
                    if cb == Some(zero) {
                        Some((a_vn, None, a))
                    } else if a_vn == b_vn {
                        let vn = st.const_vn(zero);
                        Some((vn, None, &Value::Const(Complex::ZERO)))
                    } else if ca == Some(zero) {
                        let (vn, pre) = neg_of(st, b_vn, b, dst);
                        Some((vn, pre, b))
                    } else {
                        None
                    }
                }
                BinOp::Mul => {
                    if ca == Some(one) {
                        Some((b_vn, None, b))
                    } else if cb == Some(one) {
                        Some((a_vn, None, a))
                    } else if ca == Some(zero) || cb == Some(zero) {
                        let vn = st.const_vn(zero);
                        Some((vn, None, &Value::Const(Complex::ZERO)))
                    } else if ca == Some(neg_one) {
                        let (vn, pre) = neg_of(st, b_vn, b, dst);
                        Some((vn, pre, b))
                    } else if cb == Some(neg_one) {
                        let (vn, pre) = neg_of(st, a_vn, a, dst);
                        Some((vn, pre, a))
                    } else {
                        None
                    }
                }
                BinOp::Div => {
                    if cb == Some(one) {
                        Some((a_vn, None, a))
                    } else {
                        None
                    }
                }
            };
            if let Some((vn, emit, orig)) = simplified {
                return emit_result(st, dst, vn, emit, orig);
            }
            // CSE: canonicalize commutative operand order.
            let (ka, kb) = match op {
                BinOp::Add | BinOp::Mul if a_vn > b_vn => (b_vn, a_vn),
                _ => (a_vn, b_vn),
            };
            let key = Key::Bin(op, int, ka, kb);
            let reused = cse
                .then(|| {
                    st.keys
                        .get(&key)
                        .copied()
                        .and_then(|vn| st.materialize(vn).map(|val| (vn, val)))
                })
                .flatten();
            if let Some((vn, val)) = reused {
                // The value is still available somewhere: reuse it.
                stats.cse_hits += 1;
                return reuse(st, dst, vn, val);
            }
            let vn = match st.keys.get(&key) {
                Some(&vn) => vn, // known but unavailable: recompute
                None => {
                    let vn = st.fresh();
                    st.keys.insert(key, vn);
                    vn
                }
            };
            let (better_a, better_b) = (st.better_operand(a_vn, a), st.better_operand(b_vn, b));
            st.record_write(dst, vn);
            let touched_a = better_a.is_some_and(|v| replace(a, v));
            let touched_b = better_b.is_some_and(|v| replace(b, v));
            Out::Keep(touched_a || touched_b)
        }
    }
}

/// `dst` gets value `vn`, which `val` holds: a copy, or nothing when
/// `dst` holds it already.
fn reuse(st: &mut Vn, dst: &Place, vn: u32, val: Value) -> Out {
    if st.places.get(dst) == Some(vn) {
        return Out::Drop;
    }
    st.record_write(dst, vn);
    if matches!(&val, Value::Place(p) if p == dst) {
        return Out::Drop;
    }
    Out::Put(Instr::Un {
        op: UnOp::Copy,
        dst: dst.clone(),
        a: val,
    })
}

/// The result of an instruction whose value number is already known:
/// the provided replacement instruction, a copy from the value's home,
/// or nothing when the destination already holds the value.
fn emit_result(
    st: &mut Vn,
    dst: &Place,
    vn: u32,
    prebuilt: Option<Instr>,
    original: &Value,
) -> Out {
    // Destination already holds this value: the store is redundant.
    if st.places.get(dst) == Some(vn) {
        return Out::Drop;
    }
    if let Some(ins) = prebuilt {
        st.record_write(dst, vn);
        return Out::Put(ins);
    }
    // `original` is contractually value-equal to `vn` here; prefer a known
    // constant, then the original operand.
    let a = match st.konst(vn) {
        Some(c) => Value::Const(c),
        None => original.clone(),
    };
    st.record_write(dst, vn);
    // A copy of a place onto itself is a no-op.
    if matches!(&a, Value::Place(p) if p == dst) {
        return Out::Drop;
    }
    Out::Put(Instr::Un {
        op: UnOp::Copy,
        dst: dst.clone(),
        a,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::eval_intrinsics;
    use crate::optimize::optimize;
    use crate::passes::testing::fixtures::{optimized, out_at, ramp};
    use spl_frontend::parser::parse_formula;
    use spl_icode::interp;
    use spl_templates::{expand_formula, ExpandOptions, TemplateTable};

    /// Pass state for a program with two 4-element temporaries: the
    /// subscripts below are dense, those past 3 hashed.
    fn state() -> Vn {
        Vn::new(&IProgram {
            temps: vec![4, 4],
            n_f: 1,
            ..IProgram::empty()
        })
    }

    fn elem(kind: VecKind, c: i64) -> Place {
        Place::Vec(VecRef {
            kind,
            idx: Affine::constant(c),
        })
    }

    fn sym(kind: VecKind, c: i64) -> Place {
        let mut idx = Affine::constant(c);
        idx.add_term(2, LoopVar(0));
        Place::Vec(VecRef { kind, idx })
    }

    const T0: VecKind = VecKind::Temp(0);
    const T1: VecKind = VecKind::Temp(1);

    /// Three values, each living only in the place it was written to.
    fn three_homes(places: [&Place; 3]) -> (Vn, [u32; 3]) {
        let mut st = state();
        let vns = [st.fresh(), st.fresh(), st.fresh()];
        for (p, vn) in places.into_iter().zip(vns) {
            st.record_write(p, vn);
            assert_eq!(st.materialize(vn), Some(Value::Place(p.clone())));
        }
        (st, vns)
    }

    #[test]
    fn symbolic_write_kills_its_whole_vector_and_nothing_else() {
        let (mut st, [a, b, c]) = three_homes([&elem(T0, 1), &sym(T0, 3), &elem(T1, 1)]);
        let x = st.fresh();
        st.record_write(&sym(T0, 0), x);
        for (p, vn) in [(elem(T0, 1), a), (sym(T0, 3), b)] {
            assert_eq!(st.places.get(&p), None, "{p}");
            assert_eq!(st.materialize(vn), None, "home in {p} survived");
        }
        assert_eq!(st.places.get(&elem(T1, 1)), Some(c));
        assert_eq!(st.materialize(c), Some(Value::Place(elem(T1, 1))));
        assert_eq!(st.places.get(&sym(T0, 0)), Some(x));
    }

    #[test]
    fn constant_write_kills_that_element_and_the_symbolic_entries() {
        let (mut st, [a, b, c]) = three_homes([&elem(T0, 1), &sym(T0, 3), &elem(T0, 2)]);
        let x = st.fresh();
        st.record_write(&elem(T0, 1), x);
        assert_eq!(st.places.get(&elem(T0, 1)), Some(x));
        assert_eq!(st.materialize(a), None);
        assert_eq!(st.places.get(&sym(T0, 3)), None);
        assert_eq!(st.materialize(b), None);
        assert_eq!(st.places.get(&elem(T0, 2)), Some(c));
        assert_eq!(st.materialize(c), Some(Value::Place(elem(T0, 2))));
    }

    #[test]
    fn a_home_that_moved_is_not_dropped_with_its_old_place() {
        let mut st = state();
        let (a, b) = (st.fresh(), st.fresh());
        st.record_write(&elem(T0, 1), a);
        // A vector home gives way to any later holder ...
        st.record_write(&elem(T0, 2), a);
        assert_eq!(st.materialize(a), Some(Value::Place(elem(T0, 2))));
        // ... so overwriting the first holder finds `a` through its own
        // entry, sees the home is elsewhere, and leaves it.
        st.record_write(&elem(T0, 1), b);
        assert_eq!(st.materialize(a), Some(Value::Place(elem(T0, 2))));
        // A scalar home stays put when the value is stored again.
        st.record_write(&Place::F(0), a);
        st.record_write(&elem(T0, 3), a);
        assert_eq!(st.materialize(a), Some(Value::Place(Place::F(0))));
        st.record_write(&elem(T0, 2), b);
        assert_eq!(st.materialize(a), Some(Value::Place(Place::F(0))));
        // Overwriting the scalar drops the home although t0(3) still
        // holds the value: a value has one home, as it always had.
        st.record_write(&Place::F(0), b);
        assert_eq!(st.materialize(a), None);
        assert_eq!(st.places.get(&elem(T0, 3)), Some(a));
    }

    #[test]
    fn reset_forgets_every_value_but_keeps_numbering_dense() {
        let mut st = state();
        let a = st.fresh();
        st.record_write(&Place::F(0), a);
        let one = st.const_vn(Complex::ONE);
        st.reset();
        assert_eq!(st.places.get(&Place::F(0)), None);
        let again = st.const_vn(Complex::ONE);
        assert_eq!(again, one + 1, "numbers continue past the reset");
        assert_eq!(st.konst(again), Some(Complex::ONE));
    }

    #[test]
    fn cse_across_a_symbolic_store_recomputes_only_what_it_clobbered() {
        let i0 = LoopVar(0);
        let sum = |dst: Place| Instr::Bin {
            op: BinOp::Add,
            dst,
            a: Value::vec(VecKind::In, 0),
            b: Value::vec(VecKind::In, 1),
        };
        let at_i0 = |kind| {
            Place::Vec(VecRef {
                kind,
                idx: Affine::var(i0),
            })
        };
        let body = |first: Place| IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: i0,
                    lo: 0,
                    hi: 3,
                    unroll: false,
                },
                sum(first),
                Instr::Un {
                    op: UnOp::Copy,
                    dst: at_i0(T0),
                    a: Value::vec(VecKind::In, 2),
                },
                sum(at_i0(VecKind::Out)),
                Instr::DoEnd,
            ],
            n_in: 4,
            n_out: 4,
            temps: vec![4, 4],
            n_loop: 1,
            complex: false,
            ..IProgram::empty()
        };
        let mut stats = OptStats::default();
        // The sum's only home, t0(0), is clobbered by the store to
        // t0(i0): it is computed again.
        let p = body(elem(T0, 0));
        let mut out = p.clone();
        value_number_in_place(&mut out, &mut stats, true);
        assert_eq!(out.instrs[3], p.instrs[3]);
        // Held in another vector, it is copied from there.
        let mut out = body(elem(T1, 0));
        value_number_in_place(&mut out, &mut stats, true);
        assert_eq!(
            out.instrs[3],
            Instr::Un {
                op: UnOp::Copy,
                dst: at_i0(VecKind::Out),
                a: Value::Place(elem(T1, 0)),
            }
        );
    }

    /// One run of the pass, with reuse.
    fn vn(p: &IProgram) -> IProgram {
        let mut q = p.clone();
        ValueNumber::default()
            .run(&mut q, &mut OptStats::default())
            .unwrap();
        q
    }

    #[test]
    fn mul_by_one_and_zero_fold() {
        // diagonal (1 0 -1 2): y0 = x0, y1 = 0, y2 = -x2, y3 = 2*x3.
        let (_, o) = optimized("(diagonal (1 0 -1 2))");
        let x = ramp(4);
        let y = interp::run(&o, &x).unwrap();
        assert!(y[0].approx_eq(x[0], 0.0));
        assert!(y[1].approx_eq(Complex::ZERO, 0.0));
        assert!(y[2].approx_eq(-x[2], 0.0));
        assert!(y[3].approx_eq(x[3] * Complex::real(2.0), 1e-15));
        // And the code contains no multiplies for rows 0 and 2.
        let muls = o
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Bin { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(muls, 1);
    }

    #[test]
    fn cse_removes_duplicate_expressions() {
        // (compose (F 2) (I 2)): identity copy then butterfly; VN should
        // forward the copies so the temp vanishes after DCE+scalarize.
        let (_, o) = optimized("(compose (F 2) (I 2))");
        // Optimal form: two instructions (add and sub).
        assert_eq!(o.static_instr_count(), 2);
    }

    #[test]
    fn loop_code_still_correct_after_vn() {
        // Loops (no unrolling): VN must reset across iterations.
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(compose (T 8 4) (tensor (I 4) (F 2)))").unwrap();
        let p = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let p = eval_intrinsics(&p).unwrap();
        let o = optimize(&p).unwrap();
        o.validate().unwrap();
        let x = ramp(8);
        let a = interp::run(&p, &x).unwrap();
        let b = interp::run(&o, &x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!(u.approx_eq(*v, 1e-12));
        }
    }

    #[test]
    fn cse_keeps_integer_and_float_division_apart() {
        // r0 = in-ish 7 / 2 (integer, = 3) followed by f0 = 7 / 2
        // (float, = 3.5) with identical operand value numbers: CSE must
        // not merge them. Use register operands so neither folds.
        let p = IProgram {
            instrs: vec![
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::R(1),
                    a: Value::Int(7),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::R(2),
                    a: Value::Int(2),
                },
                Instr::Bin {
                    op: BinOp::Div,
                    dst: Place::R(0),
                    a: Value::Place(Place::R(1)),
                    b: Value::Place(Place::R(2)),
                },
                Instr::Bin {
                    op: BinOp::Div,
                    dst: Place::F(0),
                    a: Value::Place(Place::R(1)),
                    b: Value::Place(Place::R(2)),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: out_at(0),
                    a: Value::Place(Place::R(0)),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: out_at(1),
                    a: Value::f(0),
                },
            ],
            n_in: 1,
            n_out: 2,
            n_f: 1,
            n_r: 3,
            ..IProgram::empty()
        };
        let q = vn(&p);
        q.validate().unwrap();
        let x = [Complex::ZERO];
        let y = spl_icode::interp::run(&q, &x).unwrap();
        assert_eq!(y[0].re, 3.0, "{q}");
        assert_eq!(y[1].re, 3.5, "{q}");
    }

    #[test]
    fn double_negation_folds() {
        // f0 = -in(0); f1 = -f0; out(0) = f1  ==>  out(0) = in(0) copy.
        use spl_icode::Affine;
        let p = IProgram {
            instrs: vec![
                Instr::Un {
                    op: UnOp::Neg,
                    dst: Place::F(0),
                    a: Value::vec(VecKind::In, 0),
                },
                Instr::Un {
                    op: UnOp::Neg,
                    dst: Place::F(1),
                    a: Value::f(0),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine::constant(0),
                    }),
                    a: Value::f(1),
                },
            ],
            n_in: 1,
            n_out: 1,
            n_f: 2,
            ..IProgram::empty()
        };
        let o = optimize(&p).unwrap();
        // All negations vanish.
        assert!(
            o.instrs
                .iter()
                .all(|i| !matches!(i, Instr::Un { op: UnOp::Neg, .. })),
            "{o}"
        );
        let x = [Complex::real(3.5)];
        let y = spl_icode::interp::run(&o, &x).unwrap();
        assert_eq!(y[0].re, 3.5);
    }

    #[test]
    fn redundant_store_elided() {
        // out(0) = in(0); out(0) = in(0)  →  single copy.
        use spl_icode::Affine;
        let mk = || Instr::Un {
            op: UnOp::Copy,
            dst: Place::Vec(VecRef {
                kind: VecKind::Out,
                idx: Affine::constant(0),
            }),
            a: Value::vec(VecKind::In, 0),
        };
        let p = IProgram {
            instrs: vec![mk(), mk()],
            n_in: 1,
            n_out: 1,
            ..IProgram::empty()
        };
        let o = vn(&p);
        assert_eq!(o.instrs.len(), 1);
    }
}
