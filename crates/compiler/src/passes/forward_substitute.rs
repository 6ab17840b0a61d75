//! Forward substitution: sinks the definition of a scalar register into
//! a later copy of it, producing the paper-style direct stores visible
//! in its generated-code listings.

use spl_icode::{IProgram, Instr, Place, UnOp, Value};

use super::{
    for_each_read, slot_mut, vec_slot, Elems, OptStats, Pass, PassResult, Terms, VecLens, NONE,
};
use crate::error::CompileError;
use crate::mix::MixMap;

/// The forward-substitution pass; see [`forward_substitute_in_place`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ForwardSubstitute;

impl Pass for ForwardSubstitute {
    fn name(&self) -> &'static str {
        "forward-substitute"
    }

    fn description(&self) -> &'static str {
        "sinks single-use scalar definitions into the copies that consume them \
         (loop-back-edge aware)"
    }

    fn run(&self, prog: &mut IProgram, stats: &mut OptStats) -> Result<PassResult, CompileError> {
        super::check_prov_alignment(self.name(), prog)?;
        forward_substitute_in_place(prog, stats)
    }
}

/// The *outermost* enclosing loop region of each instruction (the whole
/// program when not inside any loop). A value written inside nested
/// loops can flow to a positionally-earlier read anywhere within this
/// window via a back-edge, so the forward-substitution safety check uses
/// it rather than the innermost region.
fn outermost_regions(instrs: &[Instr]) -> Vec<(usize, usize)> {
    let mut regions = vec![(0usize, instrs.len()); instrs.len()];
    let mut depth = 0usize;
    let mut top_start = 0usize; // body start of the depth-1 loop
    let mut members: Vec<usize> = Vec::new();
    for (k, ins) in instrs.iter().enumerate() {
        match ins {
            Instr::DoStart { .. } => {
                if depth == 0 {
                    top_start = k + 1;
                    members.clear();
                } else {
                    members.push(k);
                }
                depth += 1;
            }
            Instr::DoEnd => {
                depth -= 1;
                if depth == 0 {
                    for &m in &members {
                        regions[m] = (top_start, k);
                    }
                    members.clear();
                } else {
                    members.push(k);
                }
            }
            _ => {
                if depth > 0 {
                    members.push(k);
                }
            }
        }
    }
    regions
}

/// Which accesses a window query looks at.
#[derive(Clone, Copy, PartialEq)]
enum Access {
    Writes,
    Any,
}

/// Entries of `list` strictly between `lo` and `hi`.
fn count_between(list: &[usize], lo: usize, hi: usize) -> usize {
    let from = list.partition_point(|&p| p <= lo);
    list[from..].partition_point(|&p| p < hi)
}

/// First position in `list` strictly greater than `after` and below
/// `before`.
fn first_in(list: &[usize], after: usize, before: usize) -> Option<usize> {
    let k = list.partition_point(|&p| p <= after);
    list.get(k).copied().filter(|&p| p < before)
}

/// Last position in `list` within `[from, to)`.
fn last_in(list: &[usize], from: usize, to: usize) -> Option<usize> {
    let k = list.partition_point(|&p| p < to);
    k.checked_sub(1).map(|k| list[k]).filter(|&p| p >= from)
}

/// A sorted list of instruction positions: `len` entries at `start` of
/// [`PlaceIndex::buf`], with room there for `cap`.
#[derive(Clone, Copy, Default)]
struct List {
    start: usize,
    len: usize,
    cap: usize,
}

/// Where the places of one class are read and written. An instruction
/// that reads a place twice is listed twice.
#[derive(Clone, Copy, Default)]
struct Class {
    reads: List,
    writes: List,
}

/// The classes of one vector's accesses, the ones the alias rule
/// distinguishes: two constant subscripts alias when equal; two symbolic
/// ones unless they have the same terms and different constants; a
/// constant and a symbolic one always.
struct VecIndex {
    /// Every constant-subscript access ...
    consts: u32,
    /// ... and by subscript.
    elems: Elems,
    /// Every symbolic access ...
    symbolic: u32,
    /// ... by interned terms ...
    by_terms: MixMap<u32, u32>,
    /// ... and by terms and constant.
    by_terms_c: MixMap<(u32, i64), u32>,
}

/// Where every place is read and written, so that the pass's questions
/// about the instructions between a definition and a copy are binary
/// searches instead of walks. Positions are stable (a removed copy is
/// tombstoned, not spliced out) and the lists are updated on every
/// rewrite: they always describe exactly the live instructions.
///
/// A place belongs to one class (a register) or to two or three (a
/// vector element: see [`VecIndex`]); a class is a number, and every
/// class's lists share one buffer, sized by a counting pass, so that
/// building the index allocates a handful of times, not per register.
struct PlaceIndex {
    classes: Vec<Class>,
    buf: Vec<usize>,
    /// Class of each `$f` / `$r` register, or [`NONE`].
    f: Vec<u32>,
    r: Vec<u32>,
    /// By [`vec_slot`]; created on first use.
    vecs: Vec<Option<VecIndex>>,
    lens: VecLens,
    terms: Terms,
}

/// The classes a place belongs to: up to three.
type Classes = ([u32; 3], usize);

impl PlaceIndex {
    fn build(prog: &IProgram) -> PlaceIndex {
        let mut idx = PlaceIndex {
            classes: Vec::new(),
            buf: Vec::new(),
            f: vec![NONE; prog.n_f as usize],
            r: vec![NONE; prog.n_r as usize],
            vecs: Vec::new(),
            lens: VecLens::of(prog),
            terms: Terms::default(),
        };
        // Every access in position order, counted per class ...
        let mut accesses: Vec<(u32, bool, usize)> = Vec::with_capacity(3 * prog.instrs.len());
        let mut note = |idx: &mut PlaceIndex, p: &Place, write: bool, k: usize| {
            let (cs, n) = idx.classes_of(p);
            for &c in &cs[..n] {
                let class = &mut idx.classes[c as usize];
                let list = if write {
                    &mut class.writes
                } else {
                    &mut class.reads
                };
                list.cap += 1;
                accesses.push((c, write, k));
            }
        };
        for (k, ins) in prog.instrs.iter().enumerate() {
            if let Some(dst) = ins.dst() {
                note(&mut idx, dst, true, k);
            }
            for_each_read(ins, &mut |q| note(&mut idx, q, false, k));
        }
        // ... then laid out in one buffer.
        let mut at = 0;
        for class in &mut idx.classes {
            for list in [&mut class.reads, &mut class.writes] {
                list.start = at;
                at += list.cap;
            }
        }
        idx.buf = vec![0; at];
        for (c, write, k) in accesses {
            let class = &mut idx.classes[c as usize];
            let list = if write {
                &mut class.writes
            } else {
                &mut class.reads
            };
            idx.buf[list.start + list.len] = k;
            list.len += 1;
        }
        idx
    }

    fn new_class(classes: &mut Vec<Class>) -> u32 {
        classes.push(Class::default());
        (classes.len() - 1) as u32
    }

    /// The classes of `p`, made on first sight.
    fn classes_of(&mut self, p: &Place) -> Classes {
        let PlaceIndex {
            classes,
            f,
            r,
            vecs,
            lens,
            terms,
            ..
        } = self;
        let v = match p {
            Place::F(k) | Place::R(k) => {
                let table = if matches!(p, Place::F(_)) { f } else { r };
                let k = *k as usize;
                if k >= table.len() {
                    table.resize(k + 1, NONE);
                }
                if table[k] == NONE {
                    table[k] = Self::new_class(classes);
                }
                return ([table[k], 0, 0], 1);
            }
            Place::Vec(v) => v,
        };
        let vec = slot_mut(vecs, vec_slot(v.kind)).get_or_insert_with(|| VecIndex {
            consts: Self::new_class(classes),
            elems: Elems::with_len(lens.get(v.kind)),
            symbolic: Self::new_class(classes),
            by_terms: MixMap::default(),
            by_terms_c: MixMap::default(),
        });
        match v.idx.as_const() {
            Some(c) => {
                let elem = match vec.elems.get(c) {
                    Some(e) => e,
                    None => {
                        let e = Self::new_class(classes);
                        vec.elems.insert(c, e);
                        e
                    }
                };
                ([vec.consts, elem, 0], 2)
            }
            None => {
                let t = terms.id(&v.idx.terms);
                let all = *vec
                    .by_terms
                    .entry(t)
                    .or_insert_with(|| Self::new_class(classes));
                let at_c = *vec
                    .by_terms_c
                    .entry((t, v.idx.c))
                    .or_insert_with(|| Self::new_class(classes));
                ([vec.symbolic, all, at_c], 3)
            }
        }
    }

    fn reads(&self, c: u32) -> &[usize] {
        let l = self.classes[c as usize].reads;
        &self.buf[l.start..l.start + l.len]
    }

    fn writes(&self, c: u32) -> &[usize] {
        let l = self.classes[c as usize].writes;
        &self.buf[l.start..l.start + l.len]
    }

    fn count(&self, c: u32, lo: usize, hi: usize, access: Access) -> usize {
        let reads = match access {
            Access::Any => count_between(self.reads(c), lo, hi),
            Access::Writes => 0,
        };
        reads + count_between(self.writes(c), lo, hi)
    }

    fn any(&self, c: u32, lo: usize, hi: usize, access: Access) -> bool {
        first_in(self.writes(c), lo, hi).is_some()
            || (access == Access::Any && first_in(self.reads(c), lo, hi).is_some())
    }

    /// Removes `pos` from class `c`'s reads or writes.
    fn remove(&mut self, c: u32, write: bool, pos: usize) {
        let class = &mut self.classes[c as usize];
        let l = if write {
            &mut class.writes
        } else {
            &mut class.reads
        };
        let list = &mut self.buf[l.start..l.start + l.len];
        if let Ok(k) = list.binary_search(&pos) {
            list[k..].rotate_left(1);
            l.len -= 1;
        }
    }

    /// Replaces the write `from` of class `c` by the smaller position
    /// `to`, moving only the entries in between (the big per-vector lists
    /// see one such move per rewrite, almost always to the slot next
    /// door).
    fn move_down(&mut self, c: u32, from: usize, to: usize) {
        let l = &mut self.classes[c as usize].writes;
        let list = &mut self.buf[l.start..l.start + l.len];
        let lo = list.partition_point(|&p| p < to);
        if let Ok(k) = list[lo..].binary_search(&from) {
            list[lo..=lo + k].rotate_right(1);
            list[lo] = to;
            return;
        }
        // Not listed: insert, moving the list to the end of the buffer
        // when it is full.
        if l.len == l.cap {
            let moved = self.buf.len();
            self.buf.extend_from_within(l.start..l.start + l.len);
            l.cap = 2 * l.cap + 1;
            self.buf.resize(moved + l.cap, 0);
            l.start = moved;
        }
        l.len += 1;
        let list = &mut self.buf[l.start..l.start + l.len];
        list[lo..].rotate_right(1);
        list[lo] = to;
    }

    /// The class of register `p`; `None` for a vector element or a
    /// register no instruction names.
    fn scalar(&self, p: &Place) -> Option<u32> {
        let c = match p {
            Place::F(k) => self.f.get(*k as usize),
            Place::R(k) => self.r.get(*k as usize),
            Place::Vec(_) => None,
        };
        c.copied().filter(|&c| c != NONE)
    }

    /// Does any live instruction strictly between `lo` and `hi` access
    /// (or, with [`Access::Writes`], write) a place that may alias `q`?
    fn conflict_between(&self, q: &Place, lo: usize, hi: usize, access: Access) -> bool {
        let hit = |c: Option<u32>| c.is_some_and(|c| self.any(c, lo, hi, access));
        let Place::Vec(v) = q else {
            return hit(self.scalar(q));
        };
        let Some(Some(vec)) = self.vecs.get(vec_slot(v.kind)) else {
            return false;
        };
        match v.idx.as_const() {
            Some(c) => hit(vec.elems.get(c)) || self.any(vec.symbolic, lo, hi, access),
            None => {
                let t = self.terms.get(&v.idx.terms);
                let all = t.and_then(|t| vec.by_terms.get(&t).copied());
                let at_c = t.and_then(|t| vec.by_terms_c.get(&(t, v.idx.c)).copied());
                // Symbolic accesses with other terms are the
                // symbolic ones minus those with these terms.
                self.any(vec.consts, lo, hi, access)
                    || hit(at_c)
                    || self.count(vec.symbolic, lo, hi, access)
                        > all.map_or(0, |c| self.count(c, lo, hi, access))
            }
        }
    }
}

/// For each instruction, where its straight-line run starts: the
/// position after the nearest loop marker before it.
fn run_starts(instrs: &[Instr]) -> Vec<usize> {
    let mut start = 0;
    instrs
        .iter()
        .enumerate()
        .map(|(k, ins)| {
            let s = start;
            if matches!(ins, Instr::DoStart { .. } | Instr::DoEnd) {
                start = k + 1;
            }
            s
        })
        .collect()
}

/// Sinks the definition of a scalar register into a later copy of it:
/// `f0 = a ⊕ b; ...; y = f0` becomes `y = a ⊕ b`.
///
/// A rewrite is applied only when, within the copy's straight-line
/// neighbourhood and innermost loop region, the register's value flowing
/// from that definition is consumed *only* by the copy — including across
/// the loop back-edge.
///
/// Every condition is answered from [`PlaceIndex`]: a sweep costs
/// `O(n log n)` for `n` instructions, and sweeps repeat until one applies
/// nothing (a chain of copies sinks within one sweep, so this is two or
/// three). It works on `prog` in place: an error leaves the program
/// part-rewritten, and the pipeline that ran the pass fails with it.
pub(crate) fn forward_substitute_in_place(
    prog: &mut IProgram,
    stats: &mut OptStats,
) -> Result<PassResult, CompileError> {
    let mut idx = PlaceIndex::build(prog);
    let instrs = &mut prog.instrs;
    let outer = outermost_regions(instrs);
    let run_start = run_starts(instrs);
    let mut alive = vec![true; instrs.len()];
    let end = instrs.len();
    let mut applied = false;
    loop {
        let mut changed = false;
        for i in 0..end {
            if !alive[i] {
                continue;
            }
            let Instr::Un {
                op: UnOp::Copy,
                dst,
                a: Value::Place(p @ (Place::F(_) | Place::R(_))),
            } = &instrs[i]
            else {
                continue;
            };
            // Never move a definition across register classes: an `$r`
            // definition executes integer arithmetic, and retargeting it
            // to an `$f`/vector destination (or vice versa) would change
            // its semantics.
            if matches!(p, Place::R(_)) != matches!(dst, Place::R(_)) {
                continue;
            }
            let Some(pc) = idx.scalar(p) else {
                continue;
            };
            let (p_reads, p_writes) = (idx.reads(pc), idx.writes(pc));
            // The defining instruction: the last write of p within this
            // straight-line run.
            let Some(j) = last_in(p_writes, run_start[i], i) else {
                continue;
            };
            // (a) No other read of p between the definition and the copy,
            // (b) the copy destination is untouched in between,
            // (c) the definition's operands are not clobbered in between.
            let mut blocked =
                first_in(p_reads, j, i).is_some() || idx.conflict_between(dst, j, i, Access::Any);
            if !blocked {
                for_each_read(&instrs[j], &mut |q| {
                    blocked = blocked || idx.conflict_between(q, j, i, Access::Writes);
                });
            }
            if blocked {
                continue;
            }
            // (d) After the copy, the next access to p anywhere in the
            // remaining program must be a write (its current value dies
            // before being read again). An instruction that reads *and*
            // writes p (a recurrence) appears in both tables at the same
            // position: the read matters first, hence `<=`.
            if let Some(r) = first_in(p_reads, i, end) {
                if first_in(p_writes, i, end).is_none_or(|w| r <= w) {
                    continue;
                }
            }
            // (e) Across a loop back-edge: a read of p positionally before
            // the definition — anywhere inside the *outermost* loop
            // enclosing it — observes the previous iteration's last write
            // of p. Unsafe if such a read exists and the definition being
            // retargeted is that last write.
            let (ostart, oend) = outer[j];
            if oend != end {
                // The window includes j itself: a definition that also
                // READS p (a recurrence like `f0 = in - f0`) is its own
                // back-edge consumer.
                let head_read = first_in(p_reads, ostart.wrapping_sub(1), j + 1).is_some();
                if head_read && last_in(p_writes, ostart, oend) == Some(j) {
                    continue;
                }
            }
            // Apply: retarget the definition, tombstone the copy, and
            // update the position tables — p loses the write at j and
            // the read at i; the write of dst moves from i to j.
            let (dst, p) = (dst.clone(), p.clone());
            idx.remove(pc, true, j);
            idx.remove(pc, false, i);
            let (classes, n) = idx.classes_of(&dst);
            for &c in &classes[..n] {
                idx.move_down(c, i, j);
            }
            match &mut instrs[j] {
                Instr::Bin { dst: d, .. } | Instr::Un { dst: d, .. } => *d = dst,
                other => {
                    return Err(CompileError::MalformedIcode(format!(
                        "forward-substitute: definition of {p:?} at {j} is not \
                         arithmetic: {other:?}"
                    )))
                }
            }
            alive[i] = false;
            stats.copies_propagated += 1;
            changed = true;
        }
        if !changed {
            break;
        }
        applied = true;
    }
    if !applied {
        return Ok(PassResult::Unchanged);
    }
    // Tombstoned copies vanish; retargeted definitions stay in place,
    // so the survivor mask keeps provenance aligned.
    let mut keep = alive.iter();
    instrs.retain(|_| *keep.next().expect("one mark per instruction"));
    if !prog.prov.is_empty() {
        let mut keep = alive.iter();
        prog.prov
            .retain(|_| *keep.next().expect("one mark per entry"));
    }
    Ok(PassResult::Changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize;
    use crate::passes::testing::fixtures::{assert_optimize_preserves, out_at};
    use spl_numeric::Complex;

    use spl_icode::{Affine, BinOp, LoopVar, VecKind, VecRef};

    const I0: LoopVar = LoopVar(0);

    fn vec_at(kind: VecKind, coeff: i64, c: i64) -> Place {
        let mut idx = Affine::constant(c);
        idx.add_term(coeff, I0);
        Place::Vec(VecRef { kind, idx })
    }

    fn read(p: Place) -> Value {
        Value::Place(p)
    }

    fn copy(dst: Place, a: Value) -> Instr {
        Instr::Un {
            op: UnOp::Copy,
            dst,
            a,
        }
    }

    fn bin(op: BinOp, dst: Place, a: Value, b: Value) -> Instr {
        Instr::Bin { op, dst, a, b }
    }

    fn program(instrs: Vec<Instr>) -> IProgram {
        IProgram {
            instrs,
            n_in: 8,
            n_out: 8,
            temps: vec![8],
            n_f: 4,
            n_loop: 1,
            complex: false,
            ..IProgram::empty()
        }
    }

    fn in_loop(body: Vec<Instr>) -> IProgram {
        let mut instrs = vec![Instr::DoStart {
            var: I0,
            lo: 0,
            hi: 3,
            unroll: false,
        }];
        instrs.extend(body);
        instrs.push(Instr::DoEnd);
        program(instrs)
    }

    fn run(p: &IProgram) -> (IProgram, u64) {
        let mut stats = OptStats::default();
        let mut out = p.clone();
        let result = forward_substitute_in_place(&mut out, &mut stats).unwrap();
        assert_eq!(result == PassResult::Changed, out != *p);
        (out, stats.copies_propagated)
    }

    #[test]
    fn a_chain_sinks_across_its_own_tombstoned_copies() {
        let sum = |dst| {
            bin(
                BinOp::Add,
                dst,
                Value::vec(VecKind::In, 0),
                Value::vec(VecKind::In, 1),
            )
        };
        let out0 = vec_at(VecKind::Out, 0, 0);
        let p = program(vec![
            sum(Place::F(0)),
            copy(Place::F(1), Value::f(0)),
            copy(Place::F(2), Value::f(1)),
            copy(out0.clone(), Value::f(2)),
        ]);
        // Each later copy must find the retargeted definition at 0, not
        // the dead copy that used to define its source.
        let (out, n) = run(&p);
        assert_eq!(out.instrs, vec![sum(out0)]);
        assert_eq!(n, 3);
    }

    #[test]
    fn symbolic_destination_follows_the_alias_rule() {
        let def = || {
            bin(
                BinOp::Add,
                Place::F(0),
                read(vec_at(VecKind::In, 1, 0)),
                read(vec_at(VecKind::In, 1, 4)),
            )
        };
        let dst = || vec_at(VecKind::Out, 1, 0);
        let between = |ins: Instr| in_loop(vec![def(), ins, copy(dst(), Value::f(0))]);
        // Same terms, other constant: provably another element.
        let disjoint = copy(Place::F(1), read(vec_at(VecKind::Out, 1, 1)));
        let (out, n) = run(&between(disjoint.clone()));
        assert_eq!(n, 1);
        assert_eq!(out.instrs[1].dst(), Some(&dst()));
        assert_eq!(out.instrs[2], disjoint);
        // The same element, other terms, or a constant subscript may all
        // be the destination: the store stays behind them.
        for touching in [
            copy(Place::F(1), read(vec_at(VecKind::Out, 1, 0))),
            copy(Place::F(1), read(vec_at(VecKind::Out, 2, 1))),
            copy(vec_at(VecKind::Out, 0, 5), Value::f(2)),
        ] {
            let p = between(touching.clone());
            let (out, n) = run(&p);
            assert_eq!((n, &out), (0, &p), "moved across {touching}");
        }
        // Another vector never matters.
        let other = copy(vec_at(VecKind::Temp(0), 2, 0), Value::f(2));
        assert_eq!(run(&between(other)).1, 1);
    }

    #[test]
    fn clobbered_operands_block_the_move() {
        let def = bin(
            BinOp::Mul,
            Place::F(0),
            read(vec_at(VecKind::Temp(0), 0, 2)),
            Value::f(3),
        );
        let store = copy(vec_at(VecKind::Out, 0, 0), Value::f(0));
        for (clobber, moves) in [
            (copy(vec_at(VecKind::Temp(0), 0, 2), Value::f(2)), false),
            (copy(vec_at(VecKind::Temp(0), 1, 0), Value::f(2)), false),
            (copy(Place::F(3), Value::f(2)), false),
            (copy(vec_at(VecKind::Temp(0), 0, 3), Value::f(2)), true),
            // Reading an operand is no clobber.
            (copy(Place::F(1), Value::f(3)), true),
        ] {
            let p = program(vec![def.clone(), clobber.clone(), store.clone()]);
            assert_eq!(run(&p).1, moves as u64, "across {clobber}");
        }
    }

    #[test]
    fn recurrence_is_its_own_back_edge_reader() {
        // f0 = in(i) - f0; out(i) = f0: the next iteration reads the f0
        // this one wrote, so the definition must keep writing f0.
        let p = in_loop(vec![
            bin(
                BinOp::Sub,
                Place::F(0),
                read(vec_at(VecKind::In, 1, 0)),
                Value::f(0),
            ),
            copy(vec_at(VecKind::Out, 1, 0), Value::f(0)),
        ]);
        let (out, n) = run(&p);
        assert_eq!((n, &out), (0, &p));
        // Without the self-read, the register dies with the iteration.
        let mut q = p.clone();
        q.instrs[1] = bin(
            BinOp::Sub,
            Place::F(0),
            read(vec_at(VecKind::In, 1, 0)),
            Value::f(1),
        );
        assert_eq!(run(&q).1, 1);
    }

    #[test]
    fn index_tracks_every_rewrite() {
        // After the pass, an index built afresh from the survivors must
        // answer like the one the pass maintained; checked here through
        // idempotence on a block where every rewrite shifts positions.
        let mut instrs = Vec::new();
        for k in 0..6 {
            instrs.push(bin(
                BinOp::Add,
                Place::F(k % 2),
                Value::vec(VecKind::In, k as i64),
                Value::vec(VecKind::In, k as i64 + 1),
            ));
            instrs.push(copy(vec_at(VecKind::Out, 0, k as i64), Value::f(k % 2)));
        }
        let (once, n) = run(&program(instrs));
        assert_eq!(n, 6);
        assert_eq!(once.instrs.len(), 6);
        assert_eq!(run(&once), (once.clone(), 0));
    }

    #[test]
    fn move_down_keeps_lists_sorted() {
        // Two classes side by side in the buffer: the first one's writes
        // are [1, 4, 6, 9, 12], the second one's [20].
        let mut idx = PlaceIndex::build(&IProgram::empty());
        let list = |start, len| List {
            start,
            len,
            cap: len,
        };
        idx.classes = vec![
            Class {
                reads: list(0, 0),
                writes: list(0, 5),
            },
            Class {
                reads: list(5, 0),
                writes: list(5, 1),
            },
        ];
        idx.buf = vec![1, 4, 6, 9, 12, 20];
        idx.move_down(0, 9, 5);
        assert_eq!(idx.writes(0), [1, 4, 5, 6, 12]);
        idx.move_down(0, 12, 11);
        assert_eq!(idx.writes(0), [1, 4, 5, 6, 11]);
        idx.move_down(0, 1, 0);
        assert_eq!(idx.writes(0), [0, 4, 5, 6, 11]);
        let list = idx.writes(0);
        assert_eq!(count_between(list, 0, 6), 2);
        assert_eq!(first_in(list, 6, 11), None);
        assert_eq!(last_in(list, 4, 6), Some(5));
        // A position that is not listed is inserted: the full list moves
        // to the end of the buffer, and its neighbour stays as it was.
        idx.move_down(0, 7, 2);
        assert_eq!(idx.writes(0), [0, 2, 4, 5, 6, 11]);
        assert_eq!(idx.writes(1), [20]);
        idx.remove(0, true, 4);
        assert_eq!(idx.writes(0), [0, 2, 5, 6, 11]);
    }

    #[test]
    fn forward_sub_respects_reads_after_loop() {
        // f0 defined and copied inside a loop, then read after the loop:
        // retargeting the definition would leave the post-loop read with
        // a stale value.
        use spl_icode::{Affine, LoopVar};
        let i0 = LoopVar(0);
        let p = IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: i0,
                    lo: 0,
                    hi: 3,
                    unroll: false,
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: Place::F(0),
                    a: Value::Place(Place::Vec(VecRef {
                        kind: VecKind::In,
                        idx: Affine::var(i0),
                    })),
                    b: Value::Const(Complex::real(1.0)),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine::var(i0),
                    }),
                    a: Value::f(0),
                },
                Instr::DoEnd,
                Instr::Un {
                    op: UnOp::Copy,
                    dst: out_at(4),
                    a: Value::f(0),
                },
            ],
            n_in: 5,
            n_out: 5,
            n_f: 1,
            n_loop: 1,
            ..IProgram::empty()
        };
        assert_optimize_preserves(&p);
    }

    #[test]
    fn forward_sub_never_crosses_register_classes() {
        // r0 = 7 / 2 is integer division (3); retargeting the definition
        // to the float destination would compute 3.5.
        let p = IProgram {
            instrs: vec![
                Instr::Bin {
                    op: BinOp::Div,
                    dst: Place::R(0),
                    a: Value::Int(7),
                    b: Value::Int(2),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: out_at(0),
                    a: Value::Place(Place::R(0)),
                },
            ],
            n_in: 1,
            n_out: 1,
            n_r: 1,
            ..IProgram::empty()
        };
        let q = optimize(&p).unwrap();
        let x = [Complex::ZERO];
        let y = spl_icode::interp::run(&q, &x).unwrap();
        assert_eq!(y[0].re, 3.0, "integer semantics lost:\n{q}");
    }

    #[test]
    fn forward_sub_respects_recurrence_definitions() {
        // The SIV pattern: f0 = in(i) - f0 feeds itself across
        // iterations; sinking the definition into the copy would break
        // every iteration after the first.
        use spl_icode::{Affine, LoopVar};
        let i0 = LoopVar(0);
        let p = IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: i0,
                    lo: 0,
                    hi: 3,
                    unroll: false,
                },
                Instr::Bin {
                    op: BinOp::Sub,
                    dst: Place::F(0),
                    a: Value::Place(Place::Vec(VecRef {
                        kind: VecKind::In,
                        idx: Affine::var(i0),
                    })),
                    b: Value::f(0),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine::var(i0),
                    }),
                    a: Value::f(0),
                },
                Instr::DoEnd,
            ],
            n_in: 4,
            n_out: 4,
            n_f: 1,
            n_loop: 1,
            ..IProgram::empty()
        };
        assert_optimize_preserves(&p);
    }

    #[test]
    fn forward_sub_respects_outer_loop_back_edge() {
        // Outer body reads f0 at its head; an inner loop defines f0 and
        // copies it out. The head read of the NEXT outer iteration must
        // still see the inner definition.
        use spl_icode::{Affine, LoopVar};
        let i0 = LoopVar(0);
        let i1 = LoopVar(1);
        let p = IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: i0,
                    lo: 0,
                    hi: 2,
                    unroll: false,
                },
                // head read of f0 (stale on iteration 0: reads 0.0)
                Instr::Bin {
                    op: BinOp::Add,
                    dst: Place::Vec(VecRef {
                        kind: VecKind::Out,
                        idx: Affine::var(i0),
                    }),
                    a: Value::f(0),
                    b: Value::Const(Complex::real(10.0)),
                },
                Instr::DoStart {
                    var: i1,
                    lo: 0,
                    hi: 0,
                    unroll: false,
                },
                Instr::Bin {
                    op: BinOp::Add,
                    dst: Place::F(0),
                    a: Value::Place(Place::Vec(VecRef {
                        kind: VecKind::In,
                        idx: Affine::var(i0),
                    })),
                    b: Value::Const(Complex::real(1.0)),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: out_at(3),
                    a: Value::f(0),
                },
                Instr::DoEnd,
                Instr::DoEnd,
            ],
            n_in: 3,
            n_out: 4,
            n_f: 1,
            n_loop: 2,
            ..IProgram::empty()
        };
        assert_optimize_preserves(&p);
    }

    #[test]
    fn forward_substitute_handles_malformed_copy_chain() {
        // A copy whose source was never defined in its region is left
        // alone rather than rejected — the typed-error paths are reserved
        // for structural violations.
        let p = IProgram {
            instrs: vec![Instr::Un {
                op: UnOp::Copy,
                dst: out_at(0),
                a: Value::f(7),
            }],
            n_in: 1,
            n_out: 1,
            n_f: 8,
            ..IProgram::empty()
        };
        let (q, _) = run(&p);
        assert_eq!(q.instrs.len(), 1);
    }
}
