//! Dead code elimination: iteratively removes arithmetic instructions
//! whose destination is never read (output-vector writes are always
//! live), then prunes empty loops. The read sets are whole-program and
//! position-insensitive, which is sound in the presence of loops.

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
                scalar => scalar_reads.extend(scalar_id(scalar)),
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
