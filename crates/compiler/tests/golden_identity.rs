//! Output identity: the optimizer and the code generators are free to
//! get faster, not to print anything else. Pins an FNV-1a hash of the
//! optimized i-code text (what `splc --icode` prints) and of the emitted
//! C and Fortran for
//!
//! * the 12 plans of `benchmark/plans.wisdom` at `-B 8` and `-B 64`,
//! * complex `(F 32)` and the `(2x32)` calibration probe at `-B 64` (one
//!   8k and one 17k-instruction straight-line block),
//! * every file of `tests/corpus/`, compiled as flag-less `splc` does.
//!
//! The native kernel cache is content-addressed by the emitted C, so a
//! changed byte here is a cold cache everywhere. When a change is *meant*
//! to alter generated code, the failure message prints the whole table in
//! source form: paste it over `GOLDEN`.

use std::path::PathBuf;

use spl_compiler::{CompiledUnit, Compiler, CompilerOptions};
use spl_frontend::ast::Language;
use spl_generator::fft::FftTree;

/// `(case, i-code, emitted C, emitted Fortran)`, FNV-1a 64 of the text.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    (
        "plan2-B8",
        0xdec9edacc490bc61,
        0xbb5f51450ee3d3bd,
        0xca0d0bfdcceeec38,
    ),
    (
        "plan2-B64",
        0xdec9edacc490bc61,
        0xbb5f51450ee3d3bd,
        0xca0d0bfdcceeec38,
    ),
    (
        "plan4-B8",
        0x593002ffcc5b26df,
        0x7ac0f1398db5cece,
        0x8495903ce063c7be,
    ),
    (
        "plan4-B64",
        0x593002ffcc5b26df,
        0x7ac0f1398db5cece,
        0x8495903ce063c7be,
    ),
    (
        "plan8-B8",
        0xa5001f0c017cd915,
        0x4bc71ebbe44d0a5f,
        0x346775e9abaf84e7,
    ),
    (
        "plan8-B64",
        0xa5001f0c017cd915,
        0x4bc71ebbe44d0a5f,
        0x346775e9abaf84e7,
    ),
    (
        "plan16-B8",
        0x2f4b513baf82d108,
        0x0161be395e999dc6,
        0x6e2909fcda32ffdc,
    ),
    (
        "plan16-B64",
        0x0899b5fe6688036e,
        0xf44b419c1d13952a,
        0x0462a9877dd16774,
    ),
    (
        "plan32-B8",
        0x7dfd835dea18c4d5,
        0xec1e9abf8dfd697d,
        0x1e827fd4db4385f4,
    ),
    (
        "plan32-B64",
        0x025737901298a2cd,
        0x300804d3bc0a00c4,
        0x2bf87eadc8a07736,
    ),
    (
        "plan64-B8",
        0x1050493204699a71,
        0xbe5fdfd8278677a9,
        0x18573275247d4a3a,
    ),
    (
        "plan64-B64",
        0xbf18256b4613122e,
        0x7252c8b89980611b,
        0xc95e22e317f9a01f,
    ),
    (
        "plan128-B8",
        0xc66c9df04e61fe9f,
        0x9d94683f11f4d49d,
        0xb6e0d545b5d2e0cb,
    ),
    (
        "plan128-B64",
        0x80f6bf4e06acf640,
        0x708b698218ade7ca,
        0x4958cc0556005b03,
    ),
    (
        "plan256-B8",
        0x5c439039a61c8578,
        0x43d0f1066ed9db5b,
        0x5e1137204121e7d5,
    ),
    (
        "plan256-B64",
        0x16a134f77a7a6a54,
        0xf5a117b191e7f4a1,
        0x2f76432e315a6ac0,
    ),
    (
        "plan1024-B8",
        0x4b9961c5397f43db,
        0xb50a356abbf63487,
        0xa5127979d495af7d,
    ),
    (
        "plan1024-B64",
        0x4387ca3be7c4a989,
        0xcdfaa562842193a8,
        0xa1cec91212cc2efa,
    ),
    (
        "plan4096-B8",
        0x72a5a4c4a652a2a0,
        0xa7e882e952a95514,
        0xc8fed9f8eae61b99,
    ),
    (
        "plan4096-B64",
        0x218613b5f324459e,
        0x5968fc46f5f9cbec,
        0x25c7afdb41fffe37,
    ),
    (
        "plan16384-B8",
        0x7ee08eca8ab59210,
        0x1a588568c063522e,
        0x00b3155a66c02135,
    ),
    (
        "plan16384-B64",
        0x4addf03445e5be66,
        0xa879b9c50453bd8f,
        0x2df029d49925e75c,
    ),
    (
        "plan65536-B8",
        0x62b7b090ab692dae,
        0x6c101c77c0e0436a,
        0xa9b5d9215f02dcb7,
    ),
    (
        "plan65536-B64",
        0xb5f68578f5e6d143,
        0x0cb1141fb8c09997,
        0xffc6e4a553331a10,
    ),
    (
        "F32-B64",
        0xa852c005b685c6bc,
        0xcc6d0251bdcf8adc,
        0x285a9daa5c38798d,
    ),
    (
        "2x32-B64",
        0xacf2c891f93825e3,
        0xcb5bad322135e3cb,
        0xbff1c984b2e9535c,
    ),
    (
        "diagonal_fold.spl",
        0x5603581bc73c8af3,
        0xb343664fd150600c,
        0xe03e067350818607,
    ),
    (
        "directsum_perm.spl",
        0x32718be9159458c4,
        0xa1551289a45b83ff,
        0x9cda0db4ba5d6360,
    ),
    (
        "f32_definition_complex.spl",
        0xa852c005b685c6bc,
        0xcc6d0251bdcf8adc,
        0x285a9daa5c38798d,
    ),
    (
        "fft64_unrolled.spl",
        0xbf18256b4613122e,
        0x7252c8b89980611b,
        0xc95e22e317f9a01f,
    ),
    (
        "fft8.spl",
        0x5cc436f5535dcf33,
        0xa719d8b4623bb48a,
        0x873ef37533ab9f09,
    ),
    (
        "looped_tensor.spl",
        0xc100e3c9a0db6183,
        0x227ce2ab6c7f138c,
        0x3921526754d56d88,
    ),
    (
        "paper_fft4.spl",
        0x7abc6b5e76b91d1a,
        0xb1fc17b000901fd8,
        0x50b441bbc33d6fc1,
    ),
    (
        "tensor_mixed.spl",
        0xaccf921c15332a1a,
        0x6d8ccd4d98edf7ec,
        0xf3315facd107d0cf,
    ),
];

type Case = (String, u64, u64, u64);

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn emit_as(unit: &CompiledUnit, language: Language) -> String {
    let mut u = unit.clone();
    u.codegen.language = language;
    u.emit()
}

/// I-code and Fortran from `units`; C from `c_units` (the same source
/// compiled with `--language c`, which forces the real code type).
fn hashes(name: String, units: &[CompiledUnit], c_units: &[CompiledUnit]) -> Case {
    let icode: String = units.iter().map(|u| u.program.to_string()).collect();
    let fortran: String = units
        .iter()
        .map(|u| emit_as(u, Language::Fortran))
        .collect();
    let c: String = c_units.iter().map(CompiledUnit::emit).collect();
    (name, fnv1a(&icode), fnv1a(&c), fnv1a(&fortran))
}

fn formula_case(name: String, src: &str, threshold: usize) -> Case {
    // A fresh compiler per case, so generated subroutine names repeat.
    let mut c = Compiler::with_options(CompilerOptions {
        unroll_threshold: Some(threshold),
        language_override: Some(Language::C),
        ..Default::default()
    });
    let unit = c
        .compile_formula_str(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let units = [unit];
    hashes(name, &units, &units)
}

fn actual() -> Vec<Case> {
    let root = repo_root();
    let mut out = Vec::new();
    let plans = std::fs::read_to_string(root.join("benchmark/plans.wisdom")).unwrap();
    for line in plans.lines().filter(|l| !l.starts_with('#')) {
        let (n, spec) = line.split_once(':').expect("size: spec");
        let src = FftTree::from_spec(spec.trim())
            .unwrap()
            .to_sexp()
            .to_string();
        for b in [8, 64] {
            out.push(formula_case(format!("plan{}-B{b}", n.trim()), &src, b));
        }
    }
    out.push(formula_case("F32-B64".into(), "(F 32)", 64));
    out.push(formula_case(
        "2x32-B64".into(),
        "(compose (tensor (F 2) (I 32)) (T 64 32) (tensor (I 2) (F 32)) (L 64 2))",
        64,
    ));
    let mut corpus: Vec<PathBuf> = std::fs::read_dir(root.join("tests/corpus"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "spl"))
        .collect();
    corpus.sort();
    for path in corpus {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let compile = |opts: CompilerOptions| {
            Compiler::with_options(opts)
                .compile_source(&src)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        };
        let units = compile(CompilerOptions::default());
        let c_units = compile(CompilerOptions {
            language_override: Some(Language::C),
            ..Default::default()
        });
        out.push(hashes(name.clone(), &units, &c_units));
    }
    out
}

#[test]
fn optimized_icode_and_emitted_code_are_pinned() {
    let actual = actual();
    let same = actual.len() == GOLDEN.len()
        && actual
            .iter()
            .zip(GOLDEN)
            .all(|(a, g)| (a.0.as_str(), a.1, a.2, a.3) == *g);
    if !same {
        let table: String = actual
            .iter()
            .map(|(n, i, c, f)| format!("    ({n:?}, {i:#018x}, {c:#018x}, {f:#018x}),\n"))
            .collect();
        panic!("generated code differs from the pinned hashes; actual table:\n{table}");
    }
}

// ---------------------------------------------------------------------
// Random i-code: the same identity over code the expander never produces
// (symbolic temp subscripts, nested loops, integer registers, copy
// chains), pass by pass.
// ---------------------------------------------------------------------

mod random_icode {
    use spl_compiler::optimize::{dce, forward_substitute, optimize, value_number};
    use spl_icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
    use spl_numeric::rng::Rng;
    use spl_numeric::Complex;

    /// Pinned at the commit before the indexed passes:
    /// `(value-number, forward-substitute, dce, optimize)`.
    const GOLDEN: [u64; 4] = [
        0x4f51d0def4adf2dd,
        0x9662367737908ae8,
        0x7b36c6e99bced3e0,
        0x3fe7ce00712d03d9,
    ];

    fn subscript(rng: &mut Rng, loops: &[LoopVar]) -> Affine {
        let mut a = Affine::constant(rng.below(4) as i64);
        if !loops.is_empty() && rng.chance(0.5) {
            a.add_term(rng.range(1, 3) as i64, *rng.pick(loops));
            if loops.len() > 1 && rng.chance(0.3) {
                a.add_term(4, loops[0]);
            }
        }
        a
    }

    fn place(rng: &mut Rng, loops: &[LoopVar]) -> Place {
        match rng.below(8) {
            0..=3 => Place::F(rng.below(6) as u32),
            4 => Place::R(rng.below(2) as u32),
            5 => Place::Vec(VecRef {
                kind: VecKind::Out,
                idx: subscript(rng, loops),
            }),
            _ => Place::Vec(VecRef {
                kind: VecKind::Temp(rng.below(2) as u32),
                idx: subscript(rng, loops),
            }),
        }
    }

    fn value(rng: &mut Rng, loops: &[LoopVar]) -> Value {
        match rng.below(8) {
            0 => Value::Const(*rng.pick(&[
                Complex::ZERO,
                Complex::ONE,
                Complex::real(-1.0),
                Complex::real(0.5),
            ])),
            1 => Value::Place(Place::Vec(VecRef {
                kind: VecKind::In,
                idx: subscript(rng, loops),
            })),
            2 if !loops.is_empty() => Value::LoopIdx(*rng.pick(loops)),
            _ => Value::Place(place(rng, loops)),
        }
    }

    fn instr(rng: &mut Rng, loops: &[LoopVar]) -> Instr {
        match rng.below(5) {
            0 | 1 => Instr::Bin {
                op: *rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div]),
                dst: place(rng, loops),
                a: value(rng, loops),
                b: value(rng, loops),
            },
            2 => Instr::Un {
                op: UnOp::Neg,
                dst: place(rng, loops),
                a: value(rng, loops),
            },
            // Copies, mostly out of a scalar: forward substitution's food.
            _ => Instr::Un {
                op: UnOp::Copy,
                dst: place(rng, loops),
                a: if rng.chance(0.7) {
                    Value::Place(Place::F(rng.below(6) as u32))
                } else {
                    value(rng, loops)
                },
            },
        }
    }

    fn block(rng: &mut Rng, loops: &mut Vec<LoopVar>, next_loop: &mut u32, out: &mut Vec<Instr>) {
        for _ in 0..rng.range(1, 24) {
            if loops.len() < 2 && rng.chance(0.08) {
                let var = LoopVar(*next_loop);
                *next_loop += 1;
                out.push(Instr::DoStart {
                    var,
                    lo: 0,
                    hi: 2,
                    unroll: false,
                });
                loops.push(var);
                block(rng, loops, next_loop, out);
                loops.pop();
                out.push(Instr::DoEnd);
            } else {
                out.push(instr(rng, loops));
            }
        }
    }

    fn program(seed: u64) -> IProgram {
        let mut rng = Rng::new(0x5eed_0000 + seed);
        let (mut instrs, mut n_loop) = (Vec::new(), 0);
        block(&mut rng, &mut Vec::new(), &mut n_loop, &mut instrs);
        IProgram {
            instrs,
            n_in: 16,
            n_out: 16,
            temps: vec![16, 16],
            n_f: 6,
            n_r: 2,
            n_loop,
            complex: false,
            ..IProgram::empty()
        }
    }

    #[test]
    fn every_pass_prints_the_pinned_code_on_random_icode() {
        let mut h = [0xcbf2_9ce4_8422_2325u64; 4];
        for seed in 0..4000 {
            let p = program(seed);
            let outs = [
                value_number(&p),
                forward_substitute(&p).unwrap(),
                dce(&p).unwrap(),
                optimize(&p).unwrap(),
            ];
            for (h, q) in h.iter_mut().zip(&outs) {
                *h = (*h ^ super::fnv1a(&q.to_string())).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert!(
            h == GOLDEN,
            "a pass prints different code on random i-code; actual: {:#018x}, {:#018x}, {:#018x}, {:#018x}",
            h[0], h[1], h[2], h[3]
        );
    }
}
