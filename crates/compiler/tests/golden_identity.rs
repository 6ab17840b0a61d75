//! Output identity: the optimizer and the code generators are free to
//! get faster, not to print anything else. Pins an FNV-1a hash of the
//! optimized i-code text (what `splc --icode` prints) and of the emitted
//! C and Fortran for
//!
//! * the 12 plans of `benchmark/plans.wisdom` at `-B 8` and `-B 64`
//!   (straight-line up to the threshold, folded loop code above it),
//! * complex `(F 32)` and the `(2x32)` calibration probe at `-B 64` (one
//!   8k and one 17k-instruction straight-line block),
//! * every file of `tests/corpus/`, compiled as flag-less `splc` does.
//!
//! The native kernel cache is content-addressed by the emitted C, so a
//! changed byte here is a cold cache everywhere. When a change is *meant*
//! to alter generated code, the failure message prints the whole table in
//! source form: paste it over `GOLDEN`.

use std::path::PathBuf;

mod common;

use spl_compiler::{CompiledUnit, Compiler, CompilerOptions, TableMode};
use spl_frontend::ast::Language;
use spl_generator::fft::FftTree;

/// `(case, i-code, emitted C, emitted Fortran)`, FNV-1a 64 of the text.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    (
        "plan2-B8",
        0xdec9edacc490bc61,
        0xc99d241d5ae2a631,
        0xca0d0bfdcceeec38,
    ),
    (
        "plan2-B64",
        0xdec9edacc490bc61,
        0xc99d241d5ae2a631,
        0xca0d0bfdcceeec38,
    ),
    (
        "plan4-B8",
        0x08e7558283bf470f,
        0x0262fd728bdde525,
        0x7ebcfdbb3a6bccee,
    ),
    (
        "plan4-B64",
        0x08e7558283bf470f,
        0x0262fd728bdde525,
        0x7ebcfdbb3a6bccee,
    ),
    (
        "plan8-B8",
        0x053177dd4baba0d8,
        0x54e86472e374e2e4,
        0x762bd2ae133c8c02,
    ),
    (
        "plan8-B64",
        0x053177dd4baba0d8,
        0x54e86472e374e2e4,
        0x762bd2ae133c8c02,
    ),
    (
        "plan16-B8",
        0x34c8a63301910162,
        0x911280f751406102,
        0x946f271a803049a3,
    ),
    (
        "plan16-B64",
        0x32dcadb206451795,
        0x61f3cbc12e5cdb92,
        0x0f6e8d5cb3936a1b,
    ),
    (
        "plan32-B8",
        0x4b1e8cfcb66ead95,
        0xa9d4c22abf43f935,
        0xbd9e05700785780c,
    ),
    (
        "plan32-B64",
        0x8014577c7bbf0579,
        0x788e0a1846342953,
        0x183dfc4a534bc43e,
    ),
    (
        "plan64-B8",
        0xa7b828548826782a,
        0x6c971870f17f36ee,
        0xb74beaf9572ff0ef,
    ),
    (
        "plan64-B64",
        0x76b9116d5e0733c7,
        0x991c0311a2fe0386,
        0x5935d36f68c8bfbb,
    ),
    (
        "plan128-B8",
        0x3eee033b1a3a88c0,
        0x547cd42c08b9a9de,
        0x90c9448fd86fcf17,
    ),
    (
        "plan128-B64",
        0x555b859646ed5303,
        0xf492df8209cb86c6,
        0x294ca29e616fcf36,
    ),
    (
        "plan256-B8",
        0x6f6e82f43dccbf85,
        0x8c9f5d9ca4eec09a,
        0x628590221db120ea,
    ),
    (
        "plan256-B64",
        0xf42e67ecc7b3bacc,
        0x1e1eb1edde444f6e,
        0x39b00a0d0534ea6d,
    ),
    (
        "plan1024-B8",
        0xd6327452a7e835c4,
        0x44c5e3386e71abc5,
        0x94bd85d895d14892,
    ),
    (
        "plan1024-B64",
        0x5324b4b451f36861,
        0xae4a7e88edd1393e,
        0x6cf56b57eff3c923,
    ),
    (
        "plan4096-B8",
        0xfc2d176636b324cd,
        0x9356257a0cbcda9f,
        0x3e9985e66023c3d3,
    ),
    (
        "plan4096-B64",
        0x5147cc3f6d945af2,
        0x3c0f68b6493ac17e,
        0x4b44f76a4fb94577,
    ),
    (
        "plan16384-B8",
        0xa85f90b9cb818455,
        0xedfb2ab842664ef2,
        0xab28601fdf4a67e5,
    ),
    (
        "plan16384-B64",
        0xad65062ff6b4e568,
        0xda890744a27815ea,
        0x5edb160f9c08d964,
    ),
    (
        "plan65536-B8",
        0xcd9fabeb8cd4fa6a,
        0x8d58a3d480840c13,
        0x86250af7ac9e93a0,
    ),
    (
        "plan65536-B64",
        0x4f8c015365b59432,
        0xba03b6bd14599fea,
        0xa9c0b13966d2f407,
    ),
    (
        "F32-B64",
        0xa852c005b685c6bc,
        0x903359651bd2cb6a,
        0x285a9daa5c38798d,
    ),
    (
        "2x32-B64",
        0x34b704530fa157dd,
        0xbcb7da131f79e5c8,
        0x0a09d756712d3d23,
    ),
    (
        "diagonal_fold.spl",
        0x5603581bc73c8af3,
        0x2a59032fc66b8fcd,
        0xe03e067350818607,
    ),
    (
        "directsum_perm.spl",
        0x32718be9159458c4,
        0x0a49d3b85bfb2492,
        0x9cda0db4ba5d6360,
    ),
    (
        "f32_definition_complex.spl",
        0xa852c005b685c6bc,
        0x903359651bd2cb6a,
        0x285a9daa5c38798d,
    ),
    (
        "fft64_unrolled.spl",
        0x76b9116d5e0733c7,
        0x991c0311a2fe0386,
        0x5935d36f68c8bfbb,
    ),
    (
        "fft8.spl",
        0x5cc436f5535dcf33,
        0x8e039c72530b14e8,
        0x873ef37533ab9f09,
    ),
    (
        "fold_ct32.spl",
        0x3bea3533f530b3ea,
        0x53cb09675c83bb10,
        0x62ecf4689bb3f318,
    ),
    (
        "fold_dif32.spl",
        0x9c3c6fac81ffe316,
        0x9d41ecdb421a067d,
        0x2152993711b9e6a7,
    ),
    (
        "fold_par32.spl",
        0x3bea3533f530b3ea,
        0x53cb09675c83bb10,
        0x62ecf4689bb3f318,
    ),
    (
        "fold_vec32.spl",
        0xa8f63cd3699567a7,
        0x3eb46d89bdb73e98,
        0xaa7541448867609b,
    ),
    (
        "looped_tensor.spl",
        0xc100e3c9a0db6183,
        0x92fb92e9a044b17c,
        0x3921526754d56d88,
    ),
    (
        "paper_fft4.spl",
        0xdfc5d111a0665430,
        0xe80b194960792689,
        0xaeae8b90917dbc2c,
    ),
    (
        "tensor_mixed.spl",
        0xaccf921c15332a1a,
        0xc5b25fed04bab466,
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

/// The unit's C with its tables left to the loader.
fn emit_loaded(unit: &CompiledUnit) -> String {
    let mut u = unit.clone();
    u.codegen.tables = TableMode::Loaded;
    u.emit()
}

/// FNV-1a 64 of `fold_ct32.spl`'s C in loaded mode (its inline mode is
/// the `GOLDEN` row above): what `cc` is handed for it, and with that
/// its kernel-cache key.
const FOLD_CT32_LOADED: u64 = 0x3e07f78b5155ae25;

/// Loaded mode moves the tables out of the text and changes nothing
/// else: the subroutine is the inline one, to the byte, minus its
/// initialisers; and inline mode, `splc`'s, is what it always was.
#[test]
fn loaded_tables_are_the_same_code_without_the_literals() {
    let root = repo_root();
    let compile = |src: &str, threshold| {
        Compiler::with_options(CompilerOptions {
            unroll_threshold: threshold,
            language_override: Some(Language::C),
            ..Default::default()
        })
        .compile_source(src)
        .unwrap()
        .remove(0)
    };
    let plans = std::fs::read_to_string(root.join("benchmark/plans.wisdom")).unwrap();
    let spec = plans
        .lines()
        .find_map(|l| l.strip_prefix("65536:"))
        .expect("the 2^16 plan");
    let src = FftTree::from_spec(spec.trim())
        .unwrap()
        .to_sexp()
        .to_string();
    let big = compile(&src, Some(64));
    let ct32 = std::fs::read_to_string(root.join("tests/corpus/fold_ct32.spl")).unwrap();
    let ct32 = compile(&ct32, None);

    for unit in [&big, &ct32] {
        let inline = unit.emit();
        let loaded = emit_loaded(unit);
        assert!(inline.contains("static const double d0["), "{}", unit.name);
        assert!(!loaded.contains("] = {"), "an initialiser in loaded mode");
        let words: usize = unit.program.tables.iter().map(Vec::len).sum();
        assert_eq!(
            spl_compiler::codegen::table_values(&unit.program).len(),
            words
        );
        // Inline: [preambles,] header, initialisers, rest. Loaded:
        // [preambles,] declarations, the filler, then the same header and
        // the same rest.
        let preamble = inline.starts_with("#ifndef SPL_V2D\n");
        assert_eq!(loaded.starts_with("#ifndef SPL_V2D\n"), preamble);
        let (header, _) = inline.split_once("  static const").unwrap();
        let header = header.rsplit_once("#endif\n\n").map_or(header, |h| h.1);
        let (_, rest) = inline.rsplit_once("  };\n").unwrap();
        assert!(
            loaded.ends_with(&format!("{header}{rest}")),
            "{}: loaded mode changed the subroutine",
            unit.name
        );
        let filler = format!("void {}_tables(const double *src)\n", unit.name);
        assert_eq!(loaded.matches(&filler).count(), 1);
        for t in 0..unit.program.tables.len() {
            let decl = format!("static double d{t}[");
            assert_eq!(loaded.matches(&decl).count(), 1, "{decl}");
        }
    }
    let (inline, loaded) = (big.emit(), emit_loaded(&big));
    assert!(inline.len() > 2_000_000, "{} bytes inline", inline.len());
    assert!(loaded.len() < 200_000, "{} bytes loaded", loaded.len());

    // A unit without tables is one text in both modes, packed preamble
    // and all.
    let butterfly = compile("(F 2)", None);
    assert!(butterfly.emit().starts_with("#ifndef SPL_V2D\n"));
    assert_eq!(emit_loaded(&butterfly), butterfly.emit());

    let pinned = GOLDEN.iter().find(|g| g.0 == "fold_ct32.spl").unwrap();
    assert_eq!(fnv1a(&ct32.emit()), pinned.2, "inline mode moved");
    assert_eq!(
        fnv1a(&emit_loaded(&ct32)),
        FOLD_CT32_LOADED,
        "loaded mode moved: {:#018x}",
        fnv1a(&emit_loaded(&ct32))
    );
}

// ---------------------------------------------------------------------
// Random i-code: the same identity over code the expander never produces
// (symbolic temp subscripts, nested loops, integer registers, copy
// chains), pass by pass.
// ---------------------------------------------------------------------

mod random_icode {
    use crate::common::{dce, forward_substitute, value_number};
    use spl_compiler::optimize::optimize;
    use spl_icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
    use spl_numeric::rng::Rng;
    use spl_numeric::Complex;

    /// `(value-number, forward-substitute, dce, optimize)`. The first
    /// two are pinned at the commit before the indexed passes; `dce`
    /// (and `optimize` with it) moved once since, when it stopped
    /// counting a scalar's read by an instruction that writes the same
    /// scalar: 695 of the 4000 programs lose such self-feeding chains
    /// and what only they kept alive, and nothing else (EXPERIMENTS.md).
    const GOLDEN: [u64; 4] = [
        0x4f51d0def4adf2dd,
        0x9662367737908ae8,
        0xa68185464d9cd6e7,
        0x8f0ed6ff5b344634,
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
