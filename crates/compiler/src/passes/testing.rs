//! Deliberately-misbehaving passes for exercising the pipeline's
//! validation, quarantine, and termination machinery. Never registered
//! in any `-O` pipeline; `splc --inject-buggy-pass` and the tests add
//! them explicitly.

use spl_icode::{BinOp, IProgram, Instr};

use super::{OptStats, Pass, PassResult};
use crate::error::CompileError;

/// Name under which [`DropOp`] reports itself (what validation must
/// localize).
pub const DROP_OP_NAME: &str = "test-drop-op";

/// A miscompiling pass: silently drops one arithmetic instruction (the
/// last one, so the choice is deterministic) together with its
/// provenance entry. Exists to prove that per-pass validation catches,
/// names, and quarantines a bad pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropOp;

impl Pass for DropOp {
    fn name(&self) -> &'static str {
        DROP_OP_NAME
    }

    fn description(&self) -> &'static str {
        "test-only miscompiler: drops the last arithmetic instruction"
    }

    fn run(&self, prog: &mut IProgram, _stats: &mut OptStats) -> Result<PassResult, CompileError> {
        let victim = prog
            .instrs
            .iter()
            .rposition(|ins| matches!(ins, Instr::Bin { .. } | Instr::Un { .. }));
        match victim {
            Some(k) => {
                prog.instrs.remove(k);
                if k < prog.prov.len() {
                    prog.prov.remove(k);
                }
                Ok(PassResult::Changed)
            }
            None => Ok(PassResult::Unchanged),
        }
    }
}

/// Half of an adversarial non-converging pair: swaps the operands of the
/// first commutative binary instruction. [`Pong`] swaps them back, so a
/// fixed-point group containing both never reaches a fixed point and
/// must stop at the iteration cap.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ping;

/// The other half of the [`Ping`]/`Pong` pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pong;

fn swap_first_commutative(prog: &mut IProgram) -> PassResult {
    for ins in &mut prog.instrs {
        if let Instr::Bin {
            op: BinOp::Add | BinOp::Mul,
            a,
            b,
            ..
        } = ins
        {
            if a != b {
                std::mem::swap(a, b);
                return PassResult::Changed;
            }
        }
    }
    PassResult::Unchanged
}

impl Pass for Ping {
    fn name(&self) -> &'static str {
        "test-ping"
    }

    fn description(&self) -> &'static str {
        "test-only: swaps the first commutative instruction's operands"
    }

    fn run(&self, prog: &mut IProgram, _stats: &mut OptStats) -> Result<PassResult, CompileError> {
        Ok(swap_first_commutative(prog))
    }
}

impl Pass for Pong {
    fn name(&self) -> &'static str {
        "test-pong"
    }

    fn description(&self) -> &'static str {
        "test-only: swaps them back, so ping/pong never converges"
    }

    fn run(&self, prog: &mut IProgram, _stats: &mut OptStats) -> Result<PassResult, CompileError> {
        Ok(swap_first_commutative(prog))
    }
}

/// Fixtures shared by the passes' unit tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use spl_frontend::parser::parse_formula;
    use spl_icode::{interp, Affine, BinOp, IProgram, Instr, Place, UnOp, Value, VecKind, VecRef};
    use spl_numeric::Complex;
    use spl_templates::{expand_formula, ExpandOptions, TemplateTable};

    use crate::optimize::optimize;

    /// `src` expanded, unrolled and with its intrinsics evaluated: what
    /// the pipeline is handed.
    pub(crate) fn lowered(src: &str) -> IProgram {
        let table = TemplateTable::builtin();
        let sexp = parse_formula(src).unwrap();
        let p = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let p = crate::unroll::unroll_all(&p).unwrap();
        crate::intrinsics::eval_intrinsics(&p).unwrap()
    }

    /// `src` lowered and scalarized, and that optimized: `(input,
    /// output)` of the default optimizations.
    pub(crate) fn optimized(src: &str) -> (IProgram, IProgram) {
        let p = crate::unroll::scalarize(&lowered(src));
        let o = optimize(&p).unwrap();
        o.validate().unwrap();
        (p, o)
    }

    pub(crate) fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).sin() + 1.0, (i as f64).cos()))
            .collect()
    }

    pub(crate) fn out_at(i: i64) -> Place {
        Place::Vec(VecRef {
            kind: VecKind::Out,
            idx: Affine::constant(i),
        })
    }

    /// Holds [`optimize`] to the interpreter's answer on `p`.
    pub(crate) fn assert_optimize_preserves(p: &IProgram) {
        let q = optimize(p).unwrap();
        q.validate().unwrap();
        let x: Vec<Complex> = (0..p.n_in)
            .map(|i| Complex::real((i as f64) + 1.5))
            .collect();
        let a = interp::run(p, &x).unwrap();
        let b = interp::run(&q, &x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!(
                u.approx_eq(*v, 1e-12),
                "optimize changed semantics: {u} vs {v}\n{p}\n=>\n{q}"
            );
        }
    }

    /// A structurally valid program except for a provenance map that is
    /// non-empty but shorter than the instruction list.
    pub(crate) fn misaligned_prov_program() -> IProgram {
        IProgram {
            instrs: vec![
                Instr::Bin {
                    op: BinOp::Add,
                    dst: Place::F(0),
                    a: Value::vec(VecKind::In, 0),
                    b: Value::Int(1),
                },
                Instr::Un {
                    op: UnOp::Copy,
                    dst: out_at(0),
                    a: Value::f(0),
                },
            ],
            prov: vec![0], // one entry for two instructions
            n_in: 1,
            n_out: 1,
            n_f: 1,
            ..IProgram::empty()
        }
    }
}
