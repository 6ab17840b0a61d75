//! Property-style tests of the optimizer over *random i-code* (not just
//! code the expander happens to produce): value numbering, forward
//! substitution, DCE, and compaction must preserve the interpreter's
//! semantics on arbitrary straight-line and looped programs.
//!
//! Programs are drawn deterministically from `spl_numeric::rng` with
//! fixed seeds, so every run checks the same case set.

mod common;

use common::{compact, dce, forward_substitute, value_number};
use spl_compiler::optimize::optimize;
use spl_icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
use spl_numeric::rng::Rng;
use spl_numeric::Complex;

const N_IN: usize = 6;
const N_OUT: usize = 6;
const N_F: u32 = 5;
const N_TEMP: usize = 4;

fn random_place(rng: &mut Rng, with_loop: Option<LoopVar>) -> Place {
    let choices = if with_loop.is_some() { 4 } else { 3 };
    match rng.below(choices) {
        0 => Place::F(rng.below(N_F as u64) as u32),
        1 => Place::Vec(VecRef {
            kind: VecKind::Out,
            idx: Affine::constant(rng.below(N_OUT as u64) as i64),
        }),
        2 => Place::Vec(VecRef {
            kind: VecKind::Temp(0),
            idx: Affine::constant(rng.below(N_TEMP as u64) as i64),
        }),
        _ => {
            let lv = with_loop.unwrap();
            let mut a = Affine::constant(rng.below(2) as i64);
            a.add_term(1, lv);
            Place::Vec(VecRef {
                kind: VecKind::Out,
                idx: a,
            })
        }
    }
}

fn random_value(rng: &mut Rng, with_loop: Option<LoopVar>) -> Value {
    match rng.below(3) {
        0 => Value::Const(match rng.below(4) {
            0 => Complex::ZERO,
            1 => Complex::ONE,
            2 => Complex::real(-1.0),
            _ => Complex::real(rng.uniform(-2.0, 2.0)),
        }),
        1 => Value::vec(VecKind::In, rng.below(N_IN as u64) as i64),
        _ => Value::Place(random_place(rng, with_loop)),
    }
}

fn random_instr(rng: &mut Rng, with_loop: Option<LoopVar>) -> Instr {
    if rng.chance(0.5) {
        let op = *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul]);
        Instr::Bin {
            op,
            dst: random_place(rng, with_loop),
            a: random_value(rng, with_loop),
            b: random_value(rng, with_loop),
        }
    } else {
        let op = *rng.pick(&[UnOp::Copy, UnOp::Neg]);
        Instr::Un {
            op,
            dst: random_place(rng, with_loop),
            a: random_value(rng, with_loop),
        }
    }
}

fn straight_line_program(rng: &mut Rng) -> IProgram {
    let len = rng.range(1, 29) as usize;
    IProgram {
        instrs: (0..len).map(|_| random_instr(rng, None)).collect(),
        n_in: N_IN,
        n_out: N_OUT,
        temps: vec![N_TEMP],
        tables: vec![],
        n_f: N_F,
        n_r: 0,
        n_loop: 0,
        complex: false,
        ..IProgram::empty()
    }
}

fn looped_program(rng: &mut Rng) -> IProgram {
    let lv = LoopVar(0);
    let mut instrs: Vec<Instr> = (0..rng.below(6)).map(|_| random_instr(rng, None)).collect();
    instrs.push(Instr::DoStart {
        var: lv,
        lo: 0,
        hi: 3,
        unroll: false,
    });
    instrs.extend((0..rng.range(1, 7)).map(|_| random_instr(rng, Some(lv))));
    instrs.push(Instr::DoEnd);
    instrs.extend((0..rng.below(6)).map(|_| random_instr(rng, None)));
    IProgram {
        instrs,
        n_in: N_IN,
        n_out: N_OUT,
        temps: vec![N_TEMP],
        tables: vec![],
        n_f: N_F,
        n_r: 0,
        n_loop: 1,
        complex: false,
        ..IProgram::empty()
    }
}

fn inputs(seed: u64) -> Vec<Complex> {
    (0..N_IN)
        .map(|i| Complex::real(((seed as f64) * 0.37 + i as f64 * 1.3).sin()))
        .collect()
}

fn outputs_match(a: &[Complex], b: &[Complex]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.approx_eq(*y, 1e-9))
}

#[test]
fn optimize_preserves_straight_line_semantics() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(0x51_0000 + seed);
        let p = straight_line_program(&mut rng);
        if p.validate().is_err() {
            continue;
        }
        let x = inputs(seed);
        let want = spl_icode::interp::run(&p, &x).unwrap();
        for (name, q) in [
            ("vn", value_number(&p)),
            ("fs", forward_substitute(&p).unwrap()),
            ("dce", dce(&p).unwrap()),
            ("compact", compact(&p).unwrap()),
            ("all", optimize(&p).unwrap()),
        ] {
            q.validate().unwrap();
            let got = spl_icode::interp::run(&q, &x).unwrap();
            assert!(
                outputs_match(&got, &want),
                "seed {seed}: {name} changed semantics"
            );
        }
    }
}

#[test]
fn optimize_preserves_loop_semantics() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(0x100_0000 + seed);
        let p = looped_program(&mut rng);
        if p.validate().is_err() {
            continue;
        }
        let x = inputs(seed);
        let want = spl_icode::interp::run(&p, &x).unwrap();
        for (name, q) in [
            ("vn", value_number(&p)),
            ("fs", forward_substitute(&p).unwrap()),
            ("all", optimize(&p).unwrap()),
        ] {
            q.validate().unwrap();
            let got = spl_icode::interp::run(&q, &x).unwrap();
            assert!(
                outputs_match(&got, &want),
                "seed {seed}: {name} changed semantics"
            );
        }
    }
}

#[test]
fn optimize_never_grows_code() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(0x9120_0000 + seed);
        let p = straight_line_program(&mut rng);
        if p.validate().is_err() {
            continue;
        }
        let o = optimize(&p).unwrap();
        assert!(
            o.static_instr_count() <= p.static_instr_count(),
            "seed {seed}"
        );
    }
}
