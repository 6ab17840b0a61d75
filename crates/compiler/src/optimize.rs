//! The default optimizations (paper Section 3.4): constant folding, copy
//! propagation, common subexpression elimination, and dead code
//! elimination.
//!
//! This module is the stable entry point; the passes themselves live in
//! [`crate::passes`] as registered [`Pass`](crate::passes::Pass)
//! implementations, composed by a
//! [`PipelineBuilder`](crate::passes::PipelineBuilder). [`optimize`]
//! runs the standard optimizing fixed point (value numbering, forward
//! substitution, DCE, then a final compaction) without scalarization or
//! per-pass validation — callers wanting either build a pipeline.
//!
//! # Complexity
//!
//! Every pass is (near-)linear in the block: value numbering
//! invalidates through its own place tables, forward substitution
//! answers its safety conditions from a position index by binary
//! search, and no pass clones or compares the constant tables. DCE is
//! still a whole-program fixpoint (one round per link of the longest
//! dead chain). `docs/PASSES.md` states the invariants;
//! `tests/pass_scaling.rs` holds the passes to them.

use std::collections::HashSet;

use spl_icode::IProgram;

use crate::error::CompileError;
use crate::passes;

pub use crate::passes::OptStats;

/// Runs the default-optimization fixed point: value numbering, forward
/// substitution of single-use registers, dead-code elimination, and a
/// final register compaction.
///
/// # Errors
///
/// [`CompileError::MalformedIcode`] when the input violates the i-code
/// structural contract (e.g. a misaligned provenance map).
pub fn optimize(prog: &IProgram) -> Result<IProgram, CompileError> {
    Ok(optimize_with_stats(prog)?.0)
}

/// [`optimize`], also reporting what each pass did.
///
/// # Errors
///
/// [`CompileError::MalformedIcode`] when the input violates the i-code
/// structural contract.
pub fn optimize_with_stats(prog: &IProgram) -> Result<(IProgram, OptStats), CompileError> {
    let mut quarantined = HashSet::new();
    let out = passes::PipelineBuilder::new()
        .optimizer()
        .build()
        .run(prog, &mut quarantined)?;
    Ok((out.program, out.stats))
}

/// Single-pass value numbering: constant folding, algebraic
/// simplification, copy propagation, and CSE.
pub fn value_number(prog: &IProgram) -> IProgram {
    let new = passes::value_number::value_number_counted(prog, &mut OptStats::default(), true);
    passes::rewritten(prog, new)
}

/// Sinks the definition of a scalar register into a later copy of it:
/// `f0 = a ⊕ b; ...; y = f0` becomes `y = a ⊕ b` (the paper-style direct
/// stores visible in its generated-code listings).
///
/// # Errors
///
/// [`CompileError::MalformedIcode`] when the input violates the i-code
/// structural contract.
pub fn forward_substitute(prog: &IProgram) -> Result<IProgram, CompileError> {
    let new =
        passes::forward_substitute::forward_substitute_counted(prog, &mut OptStats::default())?;
    Ok(passes::rewritten(prog, new))
}

/// Iteratively removes arithmetic instructions whose destination is never
/// read (output-vector writes are always live), then prunes empty loops.
///
/// # Errors
///
/// [`CompileError::MalformedIcode`] when the provenance map is non-empty
/// but misaligned with the instruction list.
pub fn dce(prog: &IProgram) -> Result<IProgram, CompileError> {
    let new = passes::dce::dce_counted(prog, &mut OptStats::default())?;
    Ok(passes::rewritten(prog, new))
}

/// Renumbers `$f`/`$r` registers densely and drops unused temps and
/// tables, so declarations in the generated code stay tidy.
pub fn compact(prog: &IProgram) -> IProgram {
    passes::compact::compact(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intrinsics::eval_intrinsics;
    use crate::passes::PassResult;
    use crate::unroll::{scalarize, unroll_all};
    use spl_frontend::parser::parse_formula;
    use spl_icode::interp::run;
    use spl_icode::{BinOp, Instr, Place, UnOp, Value, VecKind, VecRef};
    use spl_numeric::Complex;
    use spl_templates::{expand_formula, ExpandOptions, TemplateTable};

    fn pipeline(src: &str) -> (IProgram, IProgram) {
        let table = TemplateTable::builtin();
        let sexp = parse_formula(src).unwrap();
        let p = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let p = eval_intrinsics(&unroll_all(&p).unwrap()).unwrap();
        let p = scalarize(&p);
        let o = optimize(&p).unwrap();
        o.validate().unwrap();
        (p, o)
    }

    fn ramp(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64).sin() + 1.0, (i as f64).cos()))
            .collect()
    }

    #[test]
    fn optimization_preserves_semantics() {
        for src in [
            "(F 4)",
            "(F 8)",
            "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))",
            "(compose (F 2) (F 2))",
            "(tensor (F 2) (F 2))",
            "(direct-sum (F 2) (J 3))",
        ] {
            let (p, o) = pipeline(src);
            let x = ramp(p.n_in);
            let a = run(&p, &x).unwrap();
            let b = run(&o, &x).unwrap();
            for (u, v) in a.iter().zip(&b) {
                assert!(u.approx_eq(*v, 1e-12), "{src}");
            }
        }
    }

    #[test]
    fn optimization_shrinks_unrolled_dft() {
        // The naive (F 4) unrolled has 4*4 twiddle multiplies; after
        // folding W(4,0)=1 etc. many disappear.
        let (p, o) = pipeline("(F 4)");
        assert!(
            o.static_instr_count() < p.static_instr_count(),
            "{} -> {}",
            p.static_instr_count(),
            o.static_instr_count()
        );
    }

    #[test]
    fn mul_by_one_and_zero_fold() {
        // diagonal (1 0 -1 2): y0 = x0, y1 = 0, y2 = -x2, y3 = 2*x3.
        let (_, o) = pipeline("(diagonal (1 0 -1 2))");
        let x = ramp(4);
        let y = run(&o, &x).unwrap();
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
        let (_, o) = pipeline("(compose (F 2) (I 2))");
        // Optimal form: two instructions (add and sub).
        assert_eq!(o.static_instr_count(), 2);
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
        let y = run(&o, &x).unwrap();
        assert!(y[0].approx_eq(x[0] + x[1], 1e-15));
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
        let a = run(&p, &x).unwrap();
        let b = run(&o, &x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!(u.approx_eq(*v, 1e-12));
        }
    }

    #[test]
    fn compaction_renumbers_densely() {
        let (_, o) = pipeline("(F 8)");
        // All register ids below the counts.
        for ins in &o.instrs {
            if let Some(Place::F(k)) = ins.dst() {
                assert!(*k < o.n_f);
            }
        }
        assert_eq!(o.tables.len(), 0);
    }

    fn out_at(i: i64) -> Place {
        Place::Vec(VecRef {
            kind: VecKind::Out,
            idx: spl_icode::Affine::constant(i),
        })
    }

    fn run_both(p: &IProgram) {
        let q = optimize(p).unwrap();
        q.validate().unwrap();
        let x: Vec<Complex> = (0..p.n_in)
            .map(|i| Complex::real((i as f64) + 1.5))
            .collect();
        let a = spl_icode::interp::run(p, &x).unwrap();
        let b = spl_icode::interp::run(&q, &x).unwrap();
        for (u, v) in a.iter().zip(&b) {
            assert!(
                u.approx_eq(*v, 1e-12),
                "optimize changed semantics: {u} vs {v}\n{p}\n=>\n{q}"
            );
        }
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
        run_both(&p);
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
        run_both(&p);
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
        run_both(&p);
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
        let q = value_number(&p);
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
    fn optimize_with_stats_counts_work() {
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(F 4)").unwrap();
        let p = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let p = eval_intrinsics(&unroll_all(&p).unwrap()).unwrap();
        let p = scalarize(&p);
        let (o, stats) = optimize_with_stats(&p).unwrap();
        assert_eq!(stats.instrs_before, p.static_instr_count() as u64);
        assert_eq!(stats.instrs_after, o.static_instr_count() as u64);
        assert!(stats.instrs_after < stats.instrs_before);
        // The unrolled F4 is full of W(4,k) constants to fold.
        assert!(stats.constants_folded > 0);
        assert!(stats.dce_removed > 0);
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
        let o = value_number(&p);
        assert_eq!(o.instrs.len(), 1);
    }

    /// A structurally valid program except for a provenance map that is
    /// non-empty but shorter than the instruction list.
    fn misaligned_prov_program() -> IProgram {
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

    #[test]
    fn dce_rejects_misaligned_provenance() {
        // Regression: this used to die on `expect("kept mask covers
        // prov")` deep inside the retain loop.
        let err = dce(&misaligned_prov_program()).unwrap_err();
        assert!(
            matches!(err, CompileError::MalformedIcode(ref m) if m.contains("provenance")),
            "{err:?}"
        );
    }

    #[test]
    fn optimize_rejects_misaligned_provenance() {
        let err = optimize(&misaligned_prov_program()).unwrap_err();
        assert!(matches!(err, CompileError::MalformedIcode(_)), "{err:?}");
    }

    #[test]
    fn every_standard_pass_rejects_misaligned_provenance() {
        // Each registered pass must fail typed, not panic, on malformed
        // input (the old monolith's `expect`/`unreachable!` sites).
        let p = misaligned_prov_program();
        for pass in crate::passes::registered_passes() {
            let mut prog = p.clone();
            let err = pass
                .run(&mut prog, &mut OptStats::default())
                .expect_err(pass.name());
            assert!(
                matches!(err, CompileError::MalformedIcode(_)),
                "{}: {err:?}",
                pass.name()
            );
        }
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
        let q = forward_substitute(&p).unwrap();
        assert_eq!(q.instrs.len(), 1);
    }

    #[test]
    fn standard_passes_converge_and_report_changed_honestly() {
        // Every standard pass must reach its own fixed point within a few
        // runs, and a run that reports Unchanged must not have mutated
        // the program (the fixed-point loop depends on both).
        let table = TemplateTable::builtin();
        let sexp = parse_formula("(F 4)").unwrap();
        let p = expand_formula(&sexp, &table, &ExpandOptions::default()).unwrap();
        let p = eval_intrinsics(&unroll_all(&p).unwrap()).unwrap();
        for pass in crate::passes::registered_passes() {
            let mut prog = p.clone();
            let mut stats = OptStats::default();
            let mut converged = false;
            for _ in 0..8 {
                let before = prog.clone();
                let result = pass.run(&mut prog, &mut stats).unwrap();
                assert_eq!(
                    result == PassResult::Unchanged,
                    before == prog,
                    "{} lied about Changed/Unchanged",
                    pass.name()
                );
                if result == PassResult::Unchanged {
                    converged = true;
                    break;
                }
            }
            assert!(converged, "{} did not converge in 8 runs", pass.name());
        }
    }
}
