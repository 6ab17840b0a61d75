//! The vector lowering pass: marking `⊗ I_m`-style inner loops for
//! lane-wide execution.
//!
//! The paper's vectorization story (Section 5) rewrites a formula `A`
//! into `A ⊗ I_m`, which expands into loops whose iterations are
//! independent copies of `A`'s computation at a constant stride. This
//! pass recognizes that shape *after* optimization, directly on i-code:
//! an innermost loop whose iterations provably never communicate — no
//! loop-carried scalar register, no cross-iteration vector aliasing —
//! is marked lane-safe in [`IProgram::vec_loops`].
//!
//! The mark is purely advisory. The resolved VM re-verifies the loop at
//! its own representation level and silently demotes marks it cannot
//! prove (see `spl_vm::resolved`), so a wrong mark can cost performance
//! but never correctness; the i-code interpreter ignores the marks
//! entirely, which also makes per-pass translation validation of this
//! pass trivially sound.
//!
//! # Lane-safety conditions
//!
//! For a loop `do var = lo, hi` the pass requires:
//!
//! * the loop is innermost and runs at least 2 trips;
//! * the body is straight-line float arithmetic: no `$r` operands or
//!   destinations, no `LoopIdx` reads, no surviving intrinsics;
//! * every `$f` register is either read-only across the body
//!   (a broadcast invariant) or written before it is read
//!   (iteration-private) — a register read first and written later is
//!   loop-carried and disqualifies the loop;
//! * every vector *write* subscript moves with the loop: the
//!   coefficient of `var` is ≥ 1;
//! * for every (write `w`, access `x`) pair on the same vector, the
//!   two subscripts have the same `var` coefficient `s`, their
//!   `var`-independent parts differ by a compile-time constant `d`,
//!   and `d` is not a multiple of `s` landing within the trip range
//!   (`1 ≤ |d/s| ≤ trips−1`), i.e. no iteration's write lands on
//!   another iteration's read or write.
//!
//! Strides are general: after the complex→real type transformation the
//! interleaved code addresses `out[2i]`/`out[2i+1]`, and `s = 2` with
//! `d = 1` is proven disjoint by the residue test above.

use std::collections::HashSet;

use spl_icode::{Affine, IProgram, Instr, LoopVar, Place, Value, VecRef};

use super::{check_prov_alignment, OptStats, Pass, PassResult};
use crate::error::CompileError;

/// The vector lowering pass; see the module docs.
pub struct Vectorize;

impl Pass for Vectorize {
    fn name(&self) -> &'static str {
        "vectorize"
    }

    fn description(&self) -> &'static str {
        "mark lane-safe innermost loops for lane-wide (SIMD) execution in the resolved VM"
    }

    fn run(&self, prog: &mut IProgram, stats: &mut OptStats) -> Result<PassResult, CompileError> {
        check_prov_alignment("vectorize", prog)?;
        // Recomputed from scratch every run: stale marks from earlier
        // pipeline shapes are dropped, and a second run over the same
        // program reproduces the same set (idempotence).
        let marks = analyze(prog);
        let fresh = marks.iter().filter(|m| !prog.vec_loops.contains(m)).count() as u64;
        if prog.vec_loops == marks {
            return Ok(PassResult::Unchanged);
        }
        prog.vec_loops = marks;
        stats.loops_vectorized += fresh;
        Ok(PassResult::Changed)
    }
}

/// Computes the lane-safe loop set (sorted slot ids) for a program.
fn analyze(prog: &IProgram) -> Vec<u32> {
    struct Frame {
        var: LoopVar,
        lo: i64,
        hi: i64,
        body_start: usize,
        has_nested: bool,
    }
    let mut marks = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    for (i, ins) in prog.instrs.iter().enumerate() {
        match ins {
            Instr::DoStart { var, lo, hi, .. } => {
                if let Some(parent) = stack.last_mut() {
                    parent.has_nested = true;
                }
                stack.push(Frame {
                    var: *var,
                    lo: *lo,
                    hi: *hi,
                    body_start: i + 1,
                    has_nested: false,
                });
            }
            Instr::DoEnd => {
                if let Some(f) = stack.pop() {
                    if !f.has_nested && lane_safe(&prog.instrs[f.body_start..i], f.var, f.lo, f.hi)
                    {
                        // `validate()` rejects loop-variable reuse, so
                        // the slot id is a unique key for this loop.
                        marks.push(f.var.0);
                    }
                }
            }
            _ => {}
        }
    }
    marks.sort_unstable();
    marks.dedup();
    marks
}

/// The coefficient of `var` in a subscript (0 when absent).
fn coeff_of(idx: &Affine, var: LoopVar) -> i64 {
    idx.terms
        .iter()
        .find(|&&(_, v)| v == var)
        .map(|&(c, _)| c)
        .unwrap_or(0)
}

/// Whether the straight-line body of `do var = lo, hi` is safe to run
/// in lane-wide chunks (see the module docs for the conditions).
fn lane_safe(body: &[Instr], var: LoopVar, lo: i64, hi: i64) -> bool {
    let trips = match hi.checked_sub(lo).and_then(|d| d.checked_add(1)) {
        Some(t) if t >= 2 => t,
        _ => return false,
    };
    let mut seen_f: HashSet<u32> = HashSet::new();
    let mut read_first: HashSet<u32> = HashSet::new();
    let mut written_f: HashSet<u32> = HashSet::new();
    let mut writes: Vec<&VecRef> = Vec::new();
    let mut accesses: Vec<&VecRef> = Vec::new();
    for ins in body {
        let (dst, a, b) = match ins {
            Instr::Bin { dst, a, b, .. } => (dst, a, Some(b)),
            Instr::Un { dst, a, .. } => (dst, a, None),
            // Nested control flow: the caller only analyzes innermost
            // loops, so this is unreachable, but stay conservative.
            _ => return false,
        };
        for v in std::iter::once(a).chain(b) {
            match v {
                Value::Const(_) | Value::Int(_) => {}
                Value::Place(Place::F(k)) => {
                    if seen_f.insert(*k) {
                        read_first.insert(*k);
                    }
                }
                Value::Place(Place::Vec(vr)) => accesses.push(vr),
                // `$r` reads, loop-index reads, and intrinsics have no
                // lane form.
                Value::Place(Place::R(_)) | Value::LoopIdx(_) | Value::Intrinsic(..) => {
                    return false
                }
            }
        }
        match dst {
            Place::F(k) => {
                seen_f.insert(*k);
                written_f.insert(*k);
            }
            Place::Vec(vr) => {
                // A write whose address does not move with the loop
                // would be a cross-iteration write-write conflict.
                if coeff_of(&vr.idx, var) < 1 {
                    return false;
                }
                writes.push(vr);
                accesses.push(vr);
            }
            Place::R(_) => return false,
        }
    }
    // An `$f` register read before any write carries a value across
    // iterations if it is also written (e.g. an accumulator).
    if read_first.iter().any(|k| written_f.contains(k)) {
        return false;
    }
    // Cross-iteration vector aliasing: every write must be disjoint
    // from every other iteration's accesses of the same vector.
    for w in &writes {
        let s = coeff_of(&w.idx, var); // ≥ 1, checked above
        for x in &accesses {
            if x.kind != w.kind {
                continue;
            }
            if coeff_of(&x.idx, var) != s {
                return false;
            }
            let d = match w
                .idx
                .substitute(var, 0)
                .add(&x.idx.substitute(var, 0).scale(-1))
                .as_const()
            {
                Some(d) => d,
                // Offset depends on an outer loop variable in only one
                // of the two subscripts: not provably disjoint.
                None => return false,
            };
            if d % s == 0 {
                let q = (d / s).abs();
                if (1..=trips - 1).contains(&q) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_icode::{BinOp, UnOp, VecKind};

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

    fn marks_of(prog: &mut IProgram) -> Vec<u32> {
        let mut stats = OptStats::default();
        Vectorize.run(prog, &mut stats).unwrap();
        prog.vec_loops.clone()
    }

    #[test]
    fn unit_stride_copy_loop_is_marked() {
        let mut p = loop_body(
            0,
            7,
            vec![Instr::Un {
                op: UnOp::Copy,
                dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
            }],
        );
        assert_eq!(marks_of(&mut p), vec![0]);
    }

    #[test]
    fn interleaved_stride_two_is_marked() {
        // Post-typetrans shape: out[2i] and out[2i+1] written, in[2i]
        // and in[2i+1] read — s = 2, d = 1 pairs are disjoint.
        let mut p = loop_body(
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
        assert_eq!(marks_of(&mut p), vec![0]);
    }

    #[test]
    fn loop_carried_accumulator_is_rejected() {
        // f0 = f0 + in[i]: read-first then written.
        let mut p = loop_body(
            0,
            7,
            vec![Instr::Bin {
                op: BinOp::Add,
                dst: Place::F(0),
                a: Value::f(0),
                b: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
            }],
        );
        assert!(marks_of(&mut p).is_empty());
    }

    #[test]
    fn iteration_private_register_is_allowed() {
        // f0 = in[i] * 2; out[i] = f0 + 1: written before read.
        let mut p = loop_body(
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
        assert_eq!(marks_of(&mut p), vec![0]);
    }

    #[test]
    fn stationary_write_is_rejected() {
        // out[0] = in[i]: every iteration writes the same cell.
        let mut p = loop_body(
            0,
            7,
            vec![Instr::Un {
                op: UnOp::Copy,
                dst: vec_place(VecKind::Out, Affine::constant(0)),
                a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
            }],
        );
        assert!(marks_of(&mut p).is_empty());
    }

    #[test]
    fn cross_iteration_alias_is_rejected() {
        // out[i + 1] = out[i] + 1: iteration t+1 reads iteration t's
        // write.
        let mut p = loop_body(
            0,
            7,
            vec![Instr::Bin {
                op: BinOp::Add,
                dst: vec_place(VecKind::Out, idx(1, 1, 0)),
                a: Value::Place(vec_place(VecKind::Out, idx(0, 1, 0))),
                b: Value::Int(1),
            }],
        );
        assert!(marks_of(&mut p).is_empty());
    }

    #[test]
    fn same_iteration_alias_is_allowed() {
        // t[i] = in[i] * 2; out[i] = t[i] + 1: the read sees its own
        // iteration's write.
        let mut p = loop_body(
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
        assert_eq!(marks_of(&mut p), vec![0]);
    }

    #[test]
    fn distant_alias_beyond_trip_range_is_allowed() {
        // out[i] = out[i + 32] with 8 trips: distance 32 ≥ trips.
        let mut p = loop_body(
            0,
            7,
            vec![Instr::Un {
                op: UnOp::Copy,
                dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                a: Value::Place(vec_place(VecKind::Out, idx(32, 1, 0))),
            }],
        );
        assert_eq!(marks_of(&mut p), vec![0]);
    }

    #[test]
    fn single_trip_and_loop_index_reads_are_rejected() {
        let mut one_trip = loop_body(
            3,
            3,
            vec![Instr::Un {
                op: UnOp::Copy,
                dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
            }],
        );
        assert!(marks_of(&mut one_trip).is_empty());
        let mut loop_idx = loop_body(
            0,
            7,
            vec![Instr::Un {
                op: UnOp::Copy,
                dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                a: Value::LoopIdx(LoopVar(0)),
            }],
        );
        assert!(marks_of(&mut loop_idx).is_empty());
    }

    #[test]
    fn only_innermost_loops_are_marked() {
        let mut p = IProgram {
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
                    dst: vec_place(VecKind::Out, {
                        let mut a = idx(0, 1, 1);
                        a.add_term(4, LoopVar(0));
                        a
                    }),
                    a: Value::Place(vec_place(VecKind::In, {
                        let mut a = idx(0, 1, 1);
                        a.add_term(4, LoopVar(0));
                        a
                    })),
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
        assert_eq!(marks_of(&mut p), vec![1]);
    }

    #[test]
    fn pass_is_idempotent_and_counts_fresh_marks_once() {
        let mut p = loop_body(
            0,
            7,
            vec![Instr::Un {
                op: UnOp::Copy,
                dst: vec_place(VecKind::Out, idx(0, 1, 0)),
                a: Value::Place(vec_place(VecKind::In, idx(0, 1, 0))),
            }],
        );
        let mut stats = OptStats::default();
        assert_eq!(
            Vectorize.run(&mut p, &mut stats).unwrap(),
            PassResult::Changed
        );
        assert_eq!(stats.loops_vectorized, 1);
        assert_eq!(
            Vectorize.run(&mut p, &mut stats).unwrap(),
            PassResult::Unchanged
        );
        assert_eq!(stats.loops_vectorized, 1);
    }
}
