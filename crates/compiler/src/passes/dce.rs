//! Dead code elimination: iteratively removes arithmetic instructions
//! whose destination is never read (output-vector writes are always
//! live), then prunes empty loops. The read sets are whole-program and
//! position-insensitive, which is sound in the presence of loops. A
//! scalar's read by an instruction that writes the same scalar does not
//! count: `$r0 = 2 * $r0` keeps nothing alive but itself, and a chain
//! that only feeds itself goes with it.

use spl_icode::{IProgram, Instr, Place, VecKind};

use super::{for_each_read, slot_mut, vec_slot, Elems, OptStats, Pass, PassResult, VecLens};
use crate::error::CompileError;

/// The dead-code-elimination pass; see [`dce_in_place`].
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
        dce_in_place(prog, stats)
    }
}

/// What one vector is read at.
#[derive(Default)]
struct VecReads {
    /// Some constant subscript ...
    consts: bool,
    /// ... and which ones.
    elems: Elems,
    /// Some symbolic subscript.
    symbolic: bool,
}

/// Whole-program read sets, by dense id.
struct Reads<'a> {
    f: Vec<bool>,
    r: Vec<bool>,
    /// By [`vec_slot`]; created on first read.
    vecs: Vec<Option<VecReads>>,
    lens: &'a VecLens,
}

impl<'a> Reads<'a> {
    fn new(n_f: usize, n_r: usize, lens: &'a VecLens) -> Reads<'a> {
        Reads {
            f: vec![false; n_f],
            r: vec![false; n_r],
            vecs: Vec::new(),
            lens,
        }
    }

    /// Notes a read of `p` by an instruction that writes `own`: a
    /// scalar's read by its own writer keeps nothing alive.
    fn note(&mut self, p: &Place, own: Option<&Place>) {
        match p {
            Place::Vec(v) => {
                let len = self.lens.get(v.kind);
                let vec =
                    slot_mut(&mut self.vecs, vec_slot(v.kind)).get_or_insert_with(|| VecReads {
                        elems: Elems::with_len(len),
                        ..VecReads::default()
                    });
                match v.idx.as_const() {
                    Some(c) => {
                        vec.elems.insert(c, 0);
                        vec.consts = true;
                    }
                    None => vec.symbolic = true,
                }
            }
            _ if own == Some(p) => {}
            Place::F(k) => *slot_mut(&mut self.f, *k as usize) = true,
            Place::R(k) => *slot_mut(&mut self.r, *k as usize) = true,
        }
    }

    /// Whether a write to `dst` may be read.
    fn keep(&self, dst: &Place) -> bool {
        let v = match dst {
            Place::F(k) => return self.f.get(*k as usize) == Some(&true),
            Place::R(k) => return self.r.get(*k as usize) == Some(&true),
            Place::Vec(v) if v.kind == VecKind::Out => return true,
            Place::Vec(v) => v,
        };
        let Some(Some(vec)) = self.vecs.get(vec_slot(v.kind)) else {
            return false;
        };
        if vec.symbolic {
            return true;
        }
        match v.idx.as_const() {
            Some(c) => vec.elems.get(c).is_some(),
            // Symbolic write: live if any element of the vector is read.
            None => vec.consts,
        }
    }
}

pub(crate) fn dce_in_place(
    prog: &mut IProgram,
    stats: &mut OptStats,
) -> Result<PassResult, CompileError> {
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
    let lens = VecLens::of(prog);
    let (n_f, n_r) = (prog.n_f as usize, prog.n_r as usize);
    let IProgram { instrs, prov, .. } = prog;
    let initial = instrs.len();
    let has_prov = !prov.is_empty();
    loop {
        // Whole-program read sets (position-insensitive: sound for loops).
        let mut reads = Reads::new(n_f, n_r, &lens);
        for ins in instrs.iter() {
            let own = ins.dst();
            for_each_read(ins, &mut |p| reads.note(p, own));
        }
        let before = instrs.len();
        let mut kept = Vec::with_capacity(instrs.len());
        instrs.retain(|ins| {
            let keep = match ins {
                Instr::Bin { dst, .. } | Instr::Un { dst, .. } => reads.keep(dst),
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
    let removed = initial - instrs.len();
    stats.dce_removed += removed as u64;
    Ok(if removed > 0 {
        PassResult::Changed
    } else {
        PassResult::Unchanged
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimize::optimize;
    use crate::passes::testing::fixtures::{misaligned_prov_program, ramp};
    use spl_frontend::parser::parse_formula;
    use spl_icode::interp;
    use spl_templates::{expand_formula, ExpandOptions, TemplateTable};

    use spl_icode::{Affine, BinOp, LoopVar, UnOp, Value, VecRef};

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
        let mut out = prog.clone();
        dce_in_place(&mut out, &mut stats).unwrap();
        let instrs = out.instrs;
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
        let mut out = live.clone();
        let result = dce_in_place(&mut out, &mut OptStats::default()).unwrap();
        assert_eq!((result, out), (PassResult::Unchanged, live));
    }

    #[test]
    fn dce_drops_unused_registers() {
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(F 2)").unwrap();
        let mut p = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        // Inject a dead computation.
        p.instrs.push(Instr::Bin {
            op: BinOp::Add,
            dst: Place::F(90),
            a: Value::Int(1),
            b: Value::Int(2),
        });
        if !p.prov.is_empty() {
            // Keep the provenance map aligned with the injected instr.
            let last = *p.prov.last().unwrap();
            p.prov.push(last);
        }
        p.n_f = 91;
        let o = optimize(&p).unwrap();
        assert!(o.n_f <= 2);
        let x = ramp(2);
        let y = interp::run(&o, &x).unwrap();
        assert!(y[0].approx_eq(x[0] + x[1], 1e-15));
    }

    #[test]
    fn dce_rejects_misaligned_provenance() {
        // Regression: this used to die on `expect("kept mask covers
        // prov")` deep inside the retain loop.
        let mut p = misaligned_prov_program();
        let err = dce_in_place(&mut p, &mut OptStats::default()).unwrap_err();
        assert!(
            matches!(err, CompileError::MalformedIcode(ref m) if m.contains("provenance")),
            "{err:?}"
        );
    }
}
