//! Forward substitution: sinks the definition of a scalar register into
//! a later copy of it, producing the paper-style direct stores visible
//! in its generated-code listings.

use std::collections::HashMap;

use spl_icode::{IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind};

use super::{for_each_read, scalar_id, OptStats, Pass, PassResult, Rewritten, ScalarId};
use crate::error::CompileError;

/// The forward-substitution pass; see [`forward_substitute_counted`].
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
        let new = forward_substitute_counted(prog, stats)?;
        Ok(super::install(prog, new))
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

/// Sorted positions of the instructions that read, and that write, the
/// places of one class. An instruction that reads a place twice is
/// listed twice.
#[derive(Default)]
struct Positions {
    reads: Vec<usize>,
    writes: Vec<usize>,
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

fn remove(list: &mut Vec<usize>, pos: usize) {
    if let Ok(k) = list.binary_search(&pos) {
        list.remove(k);
    }
}

/// Replaces the entry `from` by the smaller position `to`, moving only
/// the entries in between (the big per-vector lists see one such move
/// per rewrite, almost always to the slot next door).
fn move_down(list: &mut Vec<usize>, from: usize, to: usize) {
    let lo = list.partition_point(|&p| p < to);
    match list[lo..].binary_search(&from) {
        Ok(k) => {
            list[lo..=lo + k].rotate_right(1);
            list[lo] = to;
        }
        Err(_) => list.insert(lo, to),
    }
}

impl Positions {
    fn count(&self, lo: usize, hi: usize, access: Access) -> usize {
        let reads = match access {
            Access::Any => count_between(&self.reads, lo, hi),
            Access::Writes => 0,
        };
        reads + count_between(&self.writes, lo, hi)
    }

    fn any(&self, lo: usize, hi: usize, access: Access) -> bool {
        first_in(&self.writes, lo, hi).is_some()
            || (access == Access::Any && first_in(&self.reads, lo, hi).is_some())
    }
}

/// Accesses with one symbolic part (`terms`) of the subscript.
#[derive(Default)]
struct TermsIndex {
    all: Positions,
    /// By the subscript's constant part.
    by_c: HashMap<i64, Positions>,
}

/// Accesses to one vector, in the classes the alias rule distinguishes:
/// two constant subscripts alias when equal; two symbolic ones unless
/// they have the same terms and different constants; a constant and a
/// symbolic one always.
#[derive(Default)]
struct VecIndex {
    /// Every constant-subscript access ...
    consts: Positions,
    /// ... and by subscript.
    elems: HashMap<i64, Positions>,
    /// Every symbolic access ...
    symbolic: Positions,
    /// ... and by terms.
    by_terms: HashMap<Vec<(i64, LoopVar)>, TermsIndex>,
}

/// Where every place is read and written, so that the pass's questions
/// about the instructions between a definition and a copy are binary
/// searches instead of walks. Positions are stable (a removed copy is
/// tombstoned, not spliced out) and the tables are updated on every
/// rewrite: they always describe exactly the live instructions.
#[derive(Default)]
struct PlaceIndex {
    scalars: HashMap<ScalarId, Positions>,
    vecs: HashMap<VecKind, VecIndex>,
}

impl PlaceIndex {
    fn build(instrs: &[Instr]) -> PlaceIndex {
        let mut idx = PlaceIndex::default();
        for (k, ins) in instrs.iter().enumerate() {
            if let Some(dst) = ins.dst() {
                idx.for_each_list(dst, &mut |p| p.writes.push(k));
            }
            for_each_read(ins, &mut |q| idx.for_each_list(q, &mut |p| p.reads.push(k)));
        }
        idx
    }

    /// Visits the position lists of every class `p` belongs to.
    fn for_each_list(&mut self, p: &Place, f: &mut dyn FnMut(&mut Positions)) {
        match p {
            Place::Vec(v) => {
                let vec = self.vecs.entry(v.kind).or_default();
                match v.idx.as_const() {
                    Some(c) => {
                        f(&mut vec.consts);
                        f(vec.elems.entry(c).or_default());
                    }
                    None => {
                        f(&mut vec.symbolic);
                        if !vec.by_terms.contains_key(&v.idx.terms) {
                            vec.by_terms
                                .insert(v.idx.terms.clone(), TermsIndex::default());
                        }
                        let terms = vec.by_terms.get_mut(&v.idx.terms).expect("just inserted");
                        f(&mut terms.all);
                        f(terms.by_c.entry(v.idx.c).or_default());
                    }
                }
            }
            scalar => {
                if let Some(id) = scalar_id(scalar) {
                    f(self.scalars.entry(id).or_default());
                }
            }
        }
    }

    fn scalar(&self, id: ScalarId) -> Option<&Positions> {
        self.scalars.get(&id)
    }

    /// Does any live instruction strictly between `lo` and `hi` access
    /// (or, with [`Access::Writes`], write) a place that may alias `q`?
    fn conflict_between(&self, q: &Place, lo: usize, hi: usize, access: Access) -> bool {
        let hit = |p: Option<&Positions>| p.is_some_and(|p| p.any(lo, hi, access));
        match q {
            Place::Vec(v) => {
                let Some(vec) = self.vecs.get(&v.kind) else {
                    return false;
                };
                match v.idx.as_const() {
                    Some(c) => hit(vec.elems.get(&c)) || vec.symbolic.any(lo, hi, access),
                    None => {
                        let terms = vec.by_terms.get(&v.idx.terms);
                        // Symbolic accesses with other terms are the
                        // symbolic ones minus those with these terms.
                        vec.consts.any(lo, hi, access)
                            || hit(terms.and_then(|t| t.by_c.get(&v.idx.c)))
                            || vec.symbolic.count(lo, hi, access)
                                > terms.map_or(0, |t| t.all.count(lo, hi, access))
                    }
                }
            }
            scalar => hit(scalar_id(scalar).and_then(|id| self.scalar(id))),
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
/// three).
pub(crate) fn forward_substitute_counted(
    prog: &IProgram,
    stats: &mut OptStats,
) -> Result<Rewritten, CompileError> {
    let mut instrs = prog.instrs.clone();
    let outer = outermost_regions(&instrs);
    let run_start = run_starts(&instrs);
    let mut alive = vec![true; instrs.len()];
    let mut idx = PlaceIndex::build(&instrs);
    let end = instrs.len();
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
            let Some((pid, p_at)) = scalar_id(p).and_then(|id| Some((id, idx.scalar(id)?))) else {
                continue;
            };
            // The defining instruction: the last write of p within this
            // straight-line run.
            let Some(j) = last_in(&p_at.writes, run_start[i], i) else {
                continue;
            };
            // (a) No other read of p between the definition and the copy,
            // (b) the copy destination is untouched in between,
            // (c) the definition's operands are not clobbered in between.
            let mut blocked = first_in(&p_at.reads, j, i).is_some()
                || idx.conflict_between(dst, j, i, Access::Any);
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
            if let Some(r) = first_in(&p_at.reads, i, end) {
                if first_in(&p_at.writes, i, end).is_none_or(|w| r <= w) {
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
                let head_read = first_in(&p_at.reads, ostart.wrapping_sub(1), j + 1).is_some();
                if head_read && last_in(&p_at.writes, ostart, oend) == Some(j) {
                    continue;
                }
            }
            // Apply: retarget the definition, tombstone the copy, and
            // update the position tables — p loses the write at j and
            // the read at i; the write of dst moves from i to j.
            let (dst, p) = (dst.clone(), p.clone());
            if let Some(at) = idx.scalars.get_mut(&pid) {
                remove(&mut at.writes, j);
                remove(&mut at.reads, i);
            }
            idx.for_each_list(&dst, &mut |at| move_down(&mut at.writes, i, j));
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
    }
    // Tombstoned copies vanish; retargeted definitions stay in place,
    // so the survivor mask keeps provenance aligned.
    let prov = prog
        .prov_slice()
        .iter()
        .zip(&alive)
        .filter_map(|(&p, &a)| a.then_some(p))
        .collect();
    let instrs = instrs
        .into_iter()
        .zip(alive)
        .filter_map(|(ins, a)| a.then_some(ins))
        .collect();
    Ok((instrs, prov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_icode::{Affine, BinOp, VecRef};

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
        let out = forward_substitute_counted(p, &mut stats).unwrap();
        (super::super::rewritten(p, out), stats.copies_propagated)
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
        let mut list = vec![1, 4, 6, 9, 12];
        move_down(&mut list, 9, 5);
        assert_eq!(list, [1, 4, 5, 6, 12]);
        move_down(&mut list, 12, 11);
        assert_eq!(list, [1, 4, 5, 6, 11]);
        move_down(&mut list, 1, 0);
        assert_eq!(list, [0, 4, 5, 6, 11]);
        assert_eq!(count_between(&list, 0, 6), 2);
        assert_eq!(first_in(&list, 6, 11), None);
        assert_eq!(last_in(&list, 4, 6), Some(5));
    }
}
