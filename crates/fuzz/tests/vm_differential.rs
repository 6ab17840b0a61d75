//! Differential test for the VM's resolved execution engine.
//!
//! Three independent executions of the same compiled program must agree
//! bit-for-bit: the i-code interpreter (semantics oracle), the VM's
//! op-at-a-time reference executor, and the fused cursor-based resolved
//! engine. The corpus is the pinned fuzz stream (seed 1, 200 cases,
//! default generator knobs) — the same formulas `splfuzz` replays —
//! plus hand-built programs covering the engine's tricky corners:
//! zero-trip loops, deep nests, and aliased temporaries — and the twelve
//! plans the benchmark times, on which the profiled run must agree too.

use std::sync::{Mutex, MutexGuard};

use spl_compiler::{Compiler, CompilerOptions};
use spl_fuzz::{gen_formula, GenConfig};
use spl_generator::fft::FftTree;
use spl_icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, Value, VecKind, VecRef};
use spl_numeric::rng::Rng;
use spl_numeric::Complex;
use spl_vm::{lower, VmProgram, VmState};

/// The per-case generator stream `spl_fuzz::run` uses (a SplitMix64
/// jump keyed by seed and case index), replicated here so the corpus
/// is pinned to exactly what `splfuzz --seed 1 --count 200` generates.
fn case_rng(seed: u64, case: u64) -> Rng {
    Rng::new(
        seed ^ case
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03),
    )
}

/// The oracle workload: a sin/cos ramp with no masking symmetry,
/// interleaved for real-typed programs.
fn workload(n_in: usize) -> (Vec<Complex>, Vec<f64>) {
    let logical: Vec<Complex> = (0..n_in / 2)
        .map(|i| {
            let t = i as f64;
            Complex::new((0.7 * t + 0.3).sin(), (1.3 * t - 0.1).cos())
        })
        .collect();
    let flat: Vec<f64> = logical.iter().flat_map(|c| [c.re, c.im]).collect();
    let interp_in: Vec<Complex> = flat.iter().map(|&v| Complex::real(v)).collect();
    (interp_in, flat)
}

/// Runs one lowered program through all three executions and demands
/// bitwise agreement. Returns whether the resolved engine (rather than
/// the reference fallback) actually ran.
fn check_three_way(prog: &IProgram, vm: &VmProgram, label: &str) -> bool {
    let (interp_in, x) = workload(vm.n_in);
    let interp_out = spl_icode::interp::run(prog, &interp_in).expect("interpreter accepts");
    let mut y_ref = vec![0.0; vm.n_out];
    let mut y_new = vec![0.0; vm.n_out];
    vm.run_reference(&x, &mut y_ref, &mut VmState::new(vm));
    vm.run(&x, &mut y_new, &mut VmState::new(vm));
    for i in 0..vm.n_out {
        assert_eq!(
            y_new[i].to_bits(),
            y_ref[i].to_bits(),
            "{label}: resolved vs reference at lane {i}: {} vs {}",
            y_new[i],
            y_ref[i]
        );
        assert_eq!(
            y_ref[i].to_bits(),
            interp_out[i].re.to_bits(),
            "{label}: vm vs interpreter at lane {i}: {} vs {}",
            y_ref[i],
            interp_out[i].re
        );
        assert_eq!(
            interp_out[i].im, 0.0,
            "{label}: real-typed program produced imaginary residue"
        );
    }
    vm.is_resolved()
}

#[test]
fn pinned_corpus_is_bit_identical_across_engines() {
    let cfg = GenConfig::default();
    let mut compiled = 0usize;
    let mut resolved = 0usize;
    for case in 0..200u64 {
        let mut rng = case_rng(1, case);
        let sexp = gen_formula(&mut rng, &cfg);
        // Pipeline rejects (invalid mutants, unsupported constructs)
        // are the accept/reject cross-check's concern, not this test's.
        let mut compiler = Compiler::new();
        let Ok(unit) = compiler.compile_formula_str(&sexp.to_string()) else {
            continue;
        };
        let Ok(vm) = lower(&unit.program) else {
            continue;
        };
        compiled += 1;
        if check_three_way(&unit.program, &vm, &format!("case {case} ({sexp})")) {
            resolved += 1;
        }
    }
    // The corpus must genuinely exercise the engine: most generated
    // formulas compile, and everything that lowers must also resolve
    // (the fallback is for hand-built pathologies, not compiler output).
    assert!(compiled >= 100, "only {compiled}/200 corpus cases compiled");
    assert_eq!(
        resolved, compiled,
        "compiler output fell back to the reference executor"
    );
}

/// Serializes the tests that flip the process-wide forced-scalar switch.
fn force_scalar_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn benchmark_plans_agree_bitwise_on_every_executor() {
    // The twelve plans of `benchmark/plans.wisdom` as the benchmark
    // compiles them (`-B 64`): straight-line cell-form code up to 64
    // points, loops over unrolled leaves above. `run`, `run_profiled`
    // and `run_reference` must agree bit for bit, on the detected lane
    // backend and with the scalar fallback forced.
    let _g = force_scalar_lock();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../benchmark/plans.wisdom");
    let plans = std::fs::read_to_string(path).expect("benchmark/plans.wisdom exists");
    let mut sizes = Vec::new();
    for line in plans.lines().filter(|l| !l.starts_with('#')) {
        let (n, spec) = line.split_once(':').expect("size: spec");
        let label = format!("plan {}", n.trim());
        let src = FftTree::from_spec(spec.trim())
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .to_sexp()
            .to_string();
        let mut compiler = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(64),
            ..Default::default()
        });
        let unit = compiler.compile_formula_str(&src).expect("plan compiles");
        let vm = lower(&unit.program).expect("plan lowers");
        assert!(vm.is_resolved(), "{label}: {:?}", vm.resolve_fallback());
        let (_, x) = workload(vm.n_in);
        let mut want = vec![0.0; vm.n_out];
        vm.run_reference(&x, &mut want, &mut VmState::new(&vm));
        for forced in [false, true] {
            spl_vm::simd::set_force_scalar(forced);
            // One state through both: they are one executor.
            let mut st = VmState::new(&vm);
            let mut y_prof = vec![0.0; vm.n_out];
            let mut y_run = vec![0.0; vm.n_out];
            vm.run_profiled(&x, &mut y_prof, &mut st).expect("resolved");
            vm.run(&x, &mut y_run, &mut st);
            spl_vm::simd::set_force_scalar(false);
            for i in 0..vm.n_out {
                for (how, y) in [("run", &y_run), ("run_profiled", &y_prof)] {
                    assert_eq!(
                        y[i].to_bits(),
                        want[i].to_bits(),
                        "{label}: {how} vs reference at word {i} (forced scalar: {forced})"
                    );
                }
            }
        }
        sizes.push(vm.n_in / 2);
    }
    assert_eq!(sizes.len(), 12, "{sizes:?}");
}

#[test]
fn corpus_vector_and_forced_scalar_runs_are_bit_identical() {
    // Every pinned `tests/corpus/` formula must produce bit-identical
    // output whether marked loops run through the lane backend or
    // through the forced scalar fallback — the equivalence the fuzz
    // oracle's third leg checks per case, pinned here on the
    // pass-validation corpus. A no-op when the host (or
    // SPL_VM_FORCE_SCALAR) gives no vector backend.
    let _g = force_scalar_lock();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "spl"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "empty corpus at {dir}");
    let mut vectorized = 0u64;
    for path in &entries {
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(path).unwrap();
        // Comments and `#` directives out: this test wants each file's
        // formula as `compile_formula_str` compiles it (loops kept).
        let formula: String = src
            .lines()
            .filter(|l| !l.trim_start().starts_with([';', '#']))
            .collect();
        let mut compiler = Compiler::new();
        let unit = compiler
            .compile_formula_str(&formula)
            .unwrap_or_else(|e| panic!("{label}: corpus formula must compile: {e}"));
        let vm = lower(&unit.program).unwrap_or_else(|e| panic!("{label}: must lower: {e}"));
        vectorized += vm.resolve_stats().map_or(0, |s| s.vec_loops);
        let (_, x) = workload(vm.n_in);
        let mut y_vec = vec![0.0; vm.n_out];
        let mut y_sc = vec![0.0; vm.n_out];
        vm.run(&x, &mut y_vec, &mut VmState::new(&vm));
        spl_vm::simd::set_force_scalar(true);
        vm.run(&x, &mut y_sc, &mut VmState::new(&vm));
        spl_vm::simd::set_force_scalar(false);
        for i in 0..vm.n_out {
            assert_eq!(
                y_vec[i].to_bits(),
                y_sc[i].to_bits(),
                "{label}: vector vs forced-scalar at lane {i}: {} vs {}",
                y_vec[i],
                y_sc[i]
            );
        }
    }
    // The corpus must actually exercise the vector path: at least the
    // looped formulas carry verified lane plans.
    assert!(
        vectorized >= 1,
        "no corpus formula produced a verified vector loop"
    );
}

fn vec_ref(kind: VecKind, c: i64, terms: &[(i64, u32)]) -> Place {
    Place::Vec(VecRef {
        kind,
        idx: Affine {
            c,
            terms: terms.iter().map(|&(k, v)| (k, LoopVar(v))).collect(),
        },
    })
}

#[test]
fn zero_trip_loops_agree() {
    // An empty loop (lo > hi) must leave its body unexecuted, including
    // a body whose subscripts would be out of bounds if it ever ran.
    // The i-code validator rejects empty loops before the interpreter
    // runs, so this compares the two VM engines only.
    let prog = IProgram {
        instrs: vec![
            Instr::Bin {
                op: BinOp::Add,
                dst: vec_ref(VecKind::Out, 0, &[]),
                a: Value::Place(vec_ref(VecKind::In, 0, &[])),
                b: Value::Const(Complex::real(1.0)),
            },
            Instr::DoStart {
                var: LoopVar(0),
                lo: 3,
                hi: 1,
                unroll: false,
            },
            Instr::Bin {
                op: BinOp::Mul,
                dst: vec_ref(VecKind::Out, -100, &[(1, 0)]),
                a: Value::Place(vec_ref(VecKind::In, 0, &[(50, 0)])),
                b: Value::Const(Complex::real(2.0)),
            },
            Instr::DoEnd,
            Instr::Bin {
                op: BinOp::Sub,
                dst: vec_ref(VecKind::Out, 1, &[]),
                a: Value::Place(vec_ref(VecKind::In, 1, &[])),
                b: Value::Const(Complex::real(0.25)),
            },
        ],
        n_in: 2,
        n_out: 2,
        n_loop: 1,
        complex: false,
        ..IProgram::empty()
    };
    let vm = lower(&prog).unwrap();
    assert!(vm.is_resolved(), "{:?}", vm.resolve_fallback());
    let (_, x) = workload(vm.n_in);
    let mut y_ref = vec![0.0; vm.n_out];
    let mut y_new = vec![0.0; vm.n_out];
    vm.run_reference(&x, &mut y_ref, &mut VmState::new(&vm));
    vm.run(&x, &mut y_new, &mut VmState::new(&vm));
    assert_eq!(y_ref, y_new);
    assert_eq!(y_new, [x[0] + 1.0, x[1] - 0.25]);
}

#[test]
fn nested_loops_with_shared_subscripts_agree() {
    // out[4i + j] accumulates in[4j + i] over a 4x4 nest — transposed
    // access, both variables live in both subscripts.
    let prog = IProgram {
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
            Instr::Bin {
                op: BinOp::Add,
                dst: vec_ref(VecKind::Out, 0, &[(4, 0), (1, 1)]),
                a: Value::Place(vec_ref(VecKind::In, 0, &[(1, 0), (4, 1)])),
                b: Value::Place(vec_ref(VecKind::In, 0, &[(4, 0), (1, 1)])),
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
    let vm = lower(&prog).unwrap();
    assert!(check_three_way(&prog, &vm, "nested"));
}

#[test]
fn aliased_temp_reads_after_writes_agree() {
    // t[0] is read, overwritten, and re-read inside one loop body; the
    // fusion pass must not pair the ops across the intervening write,
    // and cursor-based addressing must observe the fresh value.
    let prog = IProgram {
        instrs: vec![
            Instr::Bin {
                op: BinOp::Add,
                dst: vec_ref(VecKind::Temp(0), 0, &[]),
                a: Value::Place(vec_ref(VecKind::In, 0, &[])),
                b: Value::Place(vec_ref(VecKind::In, 1, &[])),
            },
            Instr::DoStart {
                var: LoopVar(0),
                lo: 0,
                hi: 3,
                unroll: false,
            },
            // t[0] += in[i]  (read-modify-write of the aliased temp)
            Instr::Bin {
                op: BinOp::Add,
                dst: vec_ref(VecKind::Temp(0), 0, &[]),
                a: Value::Place(vec_ref(VecKind::Temp(0), 0, &[])),
                b: Value::Place(vec_ref(VecKind::In, 0, &[(1, 0)])),
            },
            // out[i] = t[0] - in[i]  (must see the value written above)
            Instr::Bin {
                op: BinOp::Sub,
                dst: vec_ref(VecKind::Out, 0, &[(1, 0)]),
                a: Value::Place(vec_ref(VecKind::Temp(0), 0, &[])),
                b: Value::Place(vec_ref(VecKind::In, 0, &[(1, 0)])),
            },
            Instr::DoEnd,
        ],
        n_in: 4,
        n_out: 4,
        n_loop: 1,
        complex: false,
        ..IProgram::empty()
    };
    let mut prog = prog;
    prog.temps = vec![1];
    prog.validate().expect("hand-built program is well-formed");
    let vm = lower(&prog).unwrap();
    assert!(check_three_way(&prog, &vm, "aliased-temp"));
}
