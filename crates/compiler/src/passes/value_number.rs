//! Value numbering (paper Section 3.4): constant folding, algebraic
//! simplification, copy propagation, and CSE "in a single pass using a
//! value numbering algorithm. Both scalar variables and array elements
//! are handled."
//!
//! Value numbers are tracked through straight-line regions; state is
//! reset at loop boundaries (conservative but simple — exactly what
//! generated SPL code needs, since loop bodies are self-contained).

use std::collections::HashMap;

use spl_icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
use spl_numeric::Complex;

use super::{install, scalar_id, OptStats, Pass, PassResult, Rewritten, ScalarId};
use crate::error::CompileError;

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
        let new = value_number_counted(prog, stats, self.cse);
        Ok(install(prog, new))
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
    home: Option<Place>,
    /// The operand of the negation that produced it, so `-(-x)` folds
    /// to `x`.
    neg_src: Option<u32>,
}

/// Value numbers of the elements of one vector.
#[derive(Default)]
struct VecVns {
    /// Constant subscripts.
    consts: HashMap<i64, u32>,
    /// Symbolic subscripts (non-empty `terms`).
    symbolic: HashMap<Affine, u32>,
}

/// place -> value number, split the way a write invalidates it: a
/// scalar write kills one entry; a constant-subscript vector write kills
/// that element and every symbolic entry of the vector; a symbolic write
/// kills the whole vector.
#[derive(Default)]
struct PlaceVns {
    scalars: HashMap<ScalarId, u32>,
    vecs: HashMap<VecKind, VecVns>,
}

impl PlaceVns {
    fn get(&self, p: &Place) -> Option<u32> {
        match p {
            Place::Vec(v) => {
                let vec = self.vecs.get(&v.kind)?;
                match v.idx.as_const() {
                    Some(c) => vec.consts.get(&c).copied(),
                    None => vec.symbolic.get(&v.idx).copied(),
                }
            }
            scalar => self.scalars.get(&scalar_id(scalar)?).copied(),
        }
    }

    fn insert(&mut self, p: &Place, vn: u32) {
        match p {
            Place::Vec(v) => {
                let vec = self.vecs.entry(v.kind).or_default();
                match v.idx.as_const() {
                    Some(c) => vec.consts.insert(c, vn),
                    None => vec.symbolic.insert(v.idx.clone(), vn),
                };
            }
            scalar => {
                if let Some(id) = scalar_id(scalar) {
                    self.scalars.insert(id, vn);
                }
            }
        }
    }
}

#[derive(Default)]
struct Vn {
    /// Value numbers are dense: `base + k` is described by `info[k]`.
    /// A reset forgets every number issued so far by moving `base` past
    /// them, which keeps numbering identical to never reusing one.
    base: u32,
    info: Vec<VnInfo>,
    keys: HashMap<Key, u32>,
    places: PlaceVns,
}

impl Vn {
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
        self.keys.clear();
        self.places = PlaceVns::default();
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
                self.places.insert(p, vn);
                self.info_mut(vn).home = Some(p.clone());
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
        let info = self.info(vn);
        if let Some(c) = info.konst {
            return Value::Const(c);
        }
        if let Value::Place(Place::Vec(v)) = original {
            if matches!(v.kind, VecKind::In | VecKind::Table(_)) {
                return original.clone();
            }
        }
        match &info.home {
            Some(home @ (Place::F(_) | Place::R(_))) => Value::Place(home.clone()),
            Some(home @ Place::Vec(v)) if matches!(v.kind, VecKind::In | VecKind::Table(_)) => {
                Value::Place(home.clone())
            }
            _ => original.clone(),
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
        info.home.as_ref().map(|h| Value::Place(h.clone()))
    }

    /// Invalidates state for a write to `dst`: the entries of every place
    /// the write may alias, and with each the home that lived there.
    fn invalidate(&mut self, dst: &Place) {
        let Vn {
            base, info, places, ..
        } = self;
        let mut unhome = |vn: u32, killed: &Place| {
            let home = &mut info[(vn - *base) as usize].home;
            if home.as_ref() == Some(killed) {
                *home = None;
            }
        };
        let Place::Vec(v) = dst else {
            if let Some(vn) = scalar_id(dst).and_then(|id| places.scalars.remove(&id)) {
                unhome(vn, dst);
            }
            return;
        };
        let Some(vec) = places.vecs.get_mut(&v.kind) else {
            return;
        };
        let at = |idx: Affine| Place::Vec(VecRef { kind: v.kind, idx });
        // The tables are taken, not drained: what a kill costs is then
        // paid for by the inserts that filled them.
        match v.idx.as_const() {
            Some(c) => {
                if let Some(vn) = vec.consts.remove(&c) {
                    unhome(vn, dst);
                }
            }
            None => {
                for (c, vn) in std::mem::take(&mut vec.consts) {
                    unhome(vn, &at(Affine::constant(c)));
                }
            }
        }
        if !vec.symbolic.is_empty() {
            for (idx, vn) in std::mem::take(&mut vec.symbolic) {
                unhome(vn, &at(idx));
            }
        }
    }

    fn record_write(&mut self, dst: &Place, vn: u32) {
        self.invalidate(dst);
        self.places.insert(dst, vn);
        let home = &mut self.info_mut(vn).home;
        match home {
            // Scalar homes are good; reads of the read-only input or a
            // constant table are even better (they can never be
            // invalidated) — keep either.
            Some(Place::F(_)) | Some(Place::R(_)) => {}
            Some(Place::Vec(v)) if matches!(v.kind, VecKind::In | VecKind::Table(_)) => {}
            _ => *home = Some(dst.clone()),
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

pub(crate) fn value_number_counted(prog: &IProgram, stats: &mut OptStats, cse: bool) -> Rewritten {
    let mut st = Vn::default();
    let mut instrs = Vec::with_capacity(prog.instrs.len());
    // Provenance is re-attached lazily: at each iteration's start, any
    // output emitted by the *previous* source instruction (each emits 0
    // or 1) inherits that instruction's formula-node id. The arms below
    // `continue` freely, so the top of the loop is the one safe place.
    let prov_in = prog.prov_slice();
    let has_prov = !prov_in.is_empty();
    let mut prov_out: Vec<u32> = Vec::with_capacity(if has_prov { prog.instrs.len() } else { 0 });
    let mut cur_prov = 0u32;
    for (src_idx, ins) in prog.instrs.iter().enumerate() {
        if has_prov {
            prov_out.resize(instrs.len(), cur_prov);
            cur_prov = prov_in[src_idx];
        }
        match ins {
            Instr::DoStart { .. } | Instr::DoEnd => {
                st.reset();
                instrs.push(ins.clone());
            }
            Instr::Un { op, dst, a } => {
                let a_vn = st.value_vn(a);
                match op {
                    UnOp::Copy => {
                        emit_result(&mut st, &mut instrs, dst, a_vn, None, a);
                    }
                    UnOp::Neg => {
                        if let Some(c) = st.konst(a_vn) {
                            stats.constants_folded += 1;
                            let vn = st.const_vn(-c);
                            emit_result(&mut st, &mut instrs, dst, vn, None, &Value::Const(-c));
                            continue;
                        }
                        // -(-x) = x: if the operand is itself a negation,
                        // reuse its source (when still available).
                        if let Some(src) = st.info(a_vn).neg_src {
                            if let Some(val) = st.materialize(src) {
                                if st.places.get(dst) == Some(src) {
                                    continue;
                                }
                                st.record_write(dst, src);
                                if let Value::Place(p) = &val {
                                    if p == dst {
                                        continue;
                                    }
                                }
                                instrs.push(Instr::Un {
                                    op: UnOp::Copy,
                                    dst: dst.clone(),
                                    a: val,
                                });
                                continue;
                            }
                        }
                        let key = Key::Neg(a_vn);
                        let reuse = cse
                            .then(|| {
                                st.keys
                                    .get(&key)
                                    .copied()
                                    .and_then(|vn| st.materialize(vn).map(|val| (vn, val)))
                            })
                            .flatten();
                        match reuse {
                            Some((vn, val)) => {
                                stats.cse_hits += 1;
                                if st.places.get(dst) == Some(vn) {
                                    continue;
                                }
                                st.record_write(dst, vn);
                                if let Value::Place(p) = &val {
                                    if p == dst {
                                        continue;
                                    }
                                }
                                instrs.push(Instr::Un {
                                    op: UnOp::Copy,
                                    dst: dst.clone(),
                                    a: val,
                                });
                            }
                            None => {
                                let vn = match st.keys.get(&key) {
                                    Some(&vn) => vn,
                                    None => {
                                        let vn = st.fresh();
                                        st.keys.insert(key, vn);
                                        vn
                                    }
                                };
                                st.info_mut(vn).neg_src = Some(a_vn);
                                let new = Instr::Un {
                                    op: UnOp::Neg,
                                    dst: dst.clone(),
                                    a: st.best_operand(a_vn, a),
                                };
                                st.record_write(dst, vn);
                                instrs.push(new);
                            }
                        }
                    }
                }
            }
            Instr::Bin { op, dst, a, b } => {
                let a_vn = st.value_vn(a);
                let b_vn = st.value_vn(b);
                let int = is_int_dst(dst);
                let ca = st.konst(a_vn);
                let cb = st.konst(b_vn);
                // Constant folding.
                if let (Some(x), Some(y)) = (ca, cb) {
                    if let Some(r) = fold_bin(*op, x, y, int) {
                        stats.constants_folded += 1;
                        let vn = st.const_vn(r);
                        emit_result(&mut st, &mut instrs, dst, vn, None, a);
                        continue;
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
                let simplified: Option<(u32, Option<Instr>, Value)> = match op {
                    BinOp::Add => {
                        if ca == Some(zero) {
                            Some((b_vn, None, b.clone()))
                        } else if cb == Some(zero) {
                            Some((a_vn, None, a.clone()))
                        } else {
                            None
                        }
                    }
                    BinOp::Sub => {
                        if cb == Some(zero) {
                            Some((a_vn, None, a.clone()))
                        } else if a_vn == b_vn {
                            let vn = st.const_vn(zero);
                            Some((vn, None, Value::Const(zero)))
                        } else if ca == Some(zero) {
                            let (vn, pre) = neg_of(&mut st, b_vn, b, dst);
                            Some((vn, pre, b.clone()))
                        } else {
                            None
                        }
                    }
                    BinOp::Mul => {
                        if ca == Some(one) {
                            Some((b_vn, None, b.clone()))
                        } else if cb == Some(one) {
                            Some((a_vn, None, a.clone()))
                        } else if ca == Some(zero) || cb == Some(zero) {
                            let vn = st.const_vn(zero);
                            Some((vn, None, Value::Const(zero)))
                        } else if ca == Some(neg_one) {
                            let (vn, pre) = neg_of(&mut st, b_vn, b, dst);
                            Some((vn, pre, b.clone()))
                        } else if cb == Some(neg_one) {
                            let (vn, pre) = neg_of(&mut st, a_vn, a, dst);
                            Some((vn, pre, a.clone()))
                        } else {
                            None
                        }
                    }
                    BinOp::Div => {
                        if cb == Some(one) {
                            Some((a_vn, None, a.clone()))
                        } else {
                            None
                        }
                    }
                };
                if let Some((vn, emit, orig)) = simplified {
                    emit_result(&mut st, &mut instrs, dst, vn, emit, &orig);
                    continue;
                }
                // CSE: canonicalize commutative operand order.
                let (ka, kb) = match op {
                    BinOp::Add | BinOp::Mul if a_vn > b_vn => (b_vn, a_vn),
                    _ => (a_vn, b_vn),
                };
                let key = Key::Bin(*op, int, ka, kb);
                let reuse = cse
                    .then(|| {
                        st.keys
                            .get(&key)
                            .copied()
                            .and_then(|vn| st.materialize(vn).map(|val| (vn, val)))
                    })
                    .flatten();
                if let Some((vn, val)) = reuse {
                    // The value is still available somewhere: reuse it.
                    stats.cse_hits += 1;
                    if st.places.get(dst) == Some(vn) {
                        continue; // already there
                    }
                    st.record_write(dst, vn);
                    if let Value::Place(p) = &val {
                        if p == dst {
                            continue;
                        }
                    }
                    instrs.push(Instr::Un {
                        op: UnOp::Copy,
                        dst: dst.clone(),
                        a: val,
                    });
                } else {
                    let vn = match st.keys.get(&key) {
                        Some(&vn) => vn, // known but unavailable: recompute
                        None => {
                            let vn = st.fresh();
                            st.keys.insert(key, vn);
                            vn
                        }
                    };
                    let new = Instr::Bin {
                        op: *op,
                        dst: dst.clone(),
                        a: st.best_operand(a_vn, a),
                        b: st.best_operand(b_vn, b),
                    };
                    st.record_write(dst, vn);
                    instrs.push(new);
                }
            }
        }
    }
    if has_prov {
        prov_out.resize(instrs.len(), cur_prov);
    }
    (instrs, prov_out)
}

/// Emits the result of an instruction whose value number is already known:
/// either the provided replacement instruction, a copy from the value's
/// home, or nothing when the destination already holds the value.
fn emit_result(
    st: &mut Vn,
    instrs: &mut Vec<Instr>,
    dst: &Place,
    vn: u32,
    prebuilt: Option<Instr>,
    original: &Value,
) {
    // Destination already holds this value: the store is redundant.
    if st.places.get(dst) == Some(vn) {
        return;
    }
    if let Some(ins) = prebuilt {
        st.record_write(dst, vn);
        instrs.push(ins);
        return;
    }
    // `original` is contractually value-equal to `vn` here; prefer a known
    // constant, then the original operand.
    let a = match st.konst(vn) {
        Some(c) => Value::Const(c),
        None => original.clone(),
    };
    // A copy of a place onto itself is a no-op.
    if let Value::Place(p) = &a {
        if p == dst {
            st.record_write(dst, vn);
            return;
        }
    }
    st.record_write(dst, vn);
    instrs.push(Instr::Un {
        op: UnOp::Copy,
        dst: dst.clone(),
        a,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut st = Vn::default();
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
        let mut st = Vn::default();
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
        let mut st = Vn::default();
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
        let (out, _) = value_number_counted(&p, &mut stats, true);
        assert_eq!(out[3], p.instrs[3]);
        // Held in another vector, it is copied from there.
        let (out, _) = value_number_counted(&body(elem(T1, 0)), &mut stats, true);
        assert_eq!(
            out[3],
            Instr::Un {
                op: UnOp::Copy,
                dst: at_i0(VecKind::Out),
                a: Value::Place(elem(T1, 0)),
            }
        );
    }
}
