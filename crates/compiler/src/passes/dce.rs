//! Dead code elimination: iteratively removes arithmetic instructions
//! whose destination is never read (output-vector writes are always
//! live), then prunes empty loops. The read sets are whole-program and
//! position-insensitive, which is sound in the presence of loops. A
//! scalar's read by an instruction that writes the same scalar does not
//! count: `$r0 = 2 * $r0` keeps nothing alive but itself, and a chain
//! that only feeds itself goes with it.

use std::collections::HashSet;

use spl_icode::{IProgram, Instr, Place, VecKind, VecRef};

use super::{for_each_read, scalar_id, OptStats, Pass, PassResult, Rewritten, ScalarId};
use crate::error::CompileError;

/// The dead-code-elimination pass; see [`dce_counted`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn description(&self) -> &'static str {
        "removes arithmetic whose destination is never read, then prunes \
         empty loops (whole-program fixpoint)"
    }

    fn run(&self, prog: &mut IProgram, stats: &mut OptStats) -> Result<PassResult, CompileError> {
        super::check_prov_alignment(self.name(), prog)?;
        let new = dce_counted(prog, stats)?;
        Ok(super::install(prog, new))
    }
}

pub(crate) fn dce_counted(
    prog: &IProgram,
    stats: &mut OptStats,
) -> Result<Rewritten, CompileError> {
    let initial = prog.instrs.len();
    let mut instrs = prog.instrs.clone();
    // The provenance mask below walks `prov` and `instrs` in lockstep, so
    // a misaligned map is rejected up front rather than panicking
    // mid-retain.
    if !prog.prov.is_empty() && prog.prov.len() != prog.instrs.len() {
        return Err(CompileError::MalformedIcode(format!(
            "dce: provenance map has {} entries for {} instructions",
            prog.prov.len(),
            prog.instrs.len()
        )));
    }
    let has_prov = !prog.prov_slice().is_empty();
    let mut prov = prog.prov_slice().to_vec();
    loop {
        // Whole-program read sets (position-insensitive: sound for loops).
        let mut scalar_reads: HashSet<ScalarId> = HashSet::new();
        let mut elem_reads: HashSet<(VecKind, i64)> = HashSet::new();
        // Vectors read at some constant / some symbolic subscript.
        let mut const_reads: HashSet<VecKind> = HashSet::new();
        let mut sym_reads: HashSet<VecKind> = HashSet::new();
        for ins in &instrs {
            let own = ins.dst().and_then(scalar_id);
            for_each_read(ins, &mut |p| match p {
                Place::Vec(vr) => match vr.idx.as_const() {
                    Some(c) => {
                        elem_reads.insert((vr.kind, c));
                        const_reads.insert(vr.kind);
                    }
                    None => {
                        sym_reads.insert(vr.kind);
                    }
                },
                scalar => scalar_reads.extend(scalar_id(scalar).filter(|&id| Some(id) != own)),
            });
        }
        let live = |dst: &Place| -> bool {
            match dst {
                Place::Vec(VecRef {
                    kind: VecKind::Out, ..
                }) => true,
                Place::F(_) | Place::R(_) => {
                    scalar_id(dst).is_some_and(|id| scalar_reads.contains(&id))
                }
                Place::Vec(v) => {
                    if sym_reads.contains(&v.kind) {
                        return true;
                    }
                    match v.idx.as_const() {
                        Some(c) => elem_reads.contains(&(v.kind, c)),
                        None => {
                            // Symbolic write: live if any element of the
                            // vector is read.
                            const_reads.contains(&v.kind)
                        }
                    }
                }
            }
        };
        let before = instrs.len();
        let mut kept = Vec::with_capacity(instrs.len());
        instrs.retain(|ins| {
            let keep = match ins {
                Instr::Bin { dst, .. } | Instr::Un { dst, .. } => live(dst),
                _ => true,
            };
            kept.push(keep);
            keep
        });
        if has_prov {
            let mut it = kept.iter();
            prov.retain(|_| {
                it.next().copied().unwrap_or_else(|| {
                    // Alignment was checked above and is preserved by every
                    // mutation in this loop; running dry means the two went
                    // out of sync anyway, and keeping the entry is the
                    // conservative recovery.
                    debug_assert!(false, "kept mask shorter than prov");
                    true
                })
            });
        }
        // Remove empty loops.
        loop {
            let mut removed = false;
            let mut k = 0;
            while k + 1 < instrs.len() {
                if matches!(instrs[k], Instr::DoStart { .. })
                    && matches!(instrs[k + 1], Instr::DoEnd)
                {
                    instrs.drain(k..=k + 1);
                    if has_prov {
                        prov.drain(k..=k + 1);
                    }
                    removed = true;
                } else {
                    k += 1;
                }
            }
            if !removed {
                break;
            }
        }
        if instrs.len() == before {
            break;
        }
    }
    stats.dce_removed += (initial - instrs.len()) as u64;
    Ok((instrs, prov))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_icode::{Affine, BinOp, LoopVar, UnOp, Value};

    /// What unrolling a twiddle loop around a live outer loop leaves once
    /// the intrinsic is a table reference and value numbering has reused
    /// the register: an integer chain read by nothing but itself.
    #[test]
    fn self_feeding_integer_chain_is_removed() {
        let i = LoopVar(0);
        let at = |kind| {
            Place::Vec(VecRef {
                kind,
                idx: Affine::var(i),
            })
        };
        let prog = IProgram {
            instrs: vec![
                Instr::DoStart {
                    var: i,
                    lo: 0,
                    hi: 7,
                    unroll: false,
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: Place::R(0),
                    a: Value::LoopIdx(i),
                },
                Instr::Bin {
                    op: BinOp::Mul,
                    dst: Place::R(0),
                    a: Value::Int(2),
                    b: Value::Place(Place::R(0)),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: at(VecKind::Out),
                    a: Value::Place(at(VecKind::In)),
                },
                Instr::DoEnd,
            ],
            n_in: 8,
            n_out: 8,
            n_r: 1,
            n_loop: 1,
            ..IProgram::empty()
        };
        let mut stats = OptStats::default();
        let (instrs, _) = dce_counted(&prog, &mut stats).unwrap();
        assert_eq!(stats.dce_removed, 2);
        assert_eq!(instrs.len(), 3, "{instrs:?}");
        assert!(instrs.iter().all(|ins| ins.dst() != Some(&Place::R(0))));

        // A second reader keeps the chain.
        let mut live = prog.clone();
        live.instrs.insert(
            3,
            Instr::Un {
                op: UnOp::Copy,
                dst: Place::R(1),
                a: Value::Place(Place::R(0)),
            },
        );
        live.instrs.insert(
            4,
            Instr::Un {
                op: UnOp::Copy,
                dst: at(VecKind::Temp(0)),
                a: Value::Place(Place::R(1)),
            },
        );
        live.instrs.insert(
            5,
            Instr::Un {
                op: UnOp::Copy,
                dst: at(VecKind::Out),
                a: Value::Place(at(VecKind::Temp(0))),
            },
        );
        live.n_r = 2;
        live.temps = vec![8];
        let (instrs, _) = dce_counted(&live, &mut OptStats::default()).unwrap();
        assert_eq!(instrs.len(), live.instrs.len());
    }
}
