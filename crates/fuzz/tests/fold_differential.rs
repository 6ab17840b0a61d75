//! Differential test for the compose fold.
//!
//! For each of the four FFT breakdown rules, at 2^7, 2^8 and 2^10 points
//! and `-B 8` / `-B 64`, the formula is compiled twice: as is (the `L`
//! and `T` factors fold into the tensor stages beside them), and with
//! user templates overriding `(L n s)` and `(T n s)` by copies of the
//! built-in bodies, which the fold must leave alone — every factor is
//! then a sweep of its own, as before the fold existed. Both programs
//! must agree bit for bit on the i-code interpreter, the VM's reference
//! executor and its resolved engine, and both must pass the dense
//! oracle; the folded one needs less temporary storage and the resolver
//! plans every one of its innermost loops lane-wide.

use spl_compiler::{CompiledUnit, Compiler, CompilerOptions};
use spl_generator::fft::{FftTree, Rule, ALL_RULES};
use spl_icode::{IProgram, Instr};
use spl_numeric::{relative_rms_error, Complex};
use spl_vm::{lower, VmProgram, VmState};

/// The startup file's `L` and `T`, as a user would write them.
const UNFOLDABLE: &str = "
(template (L n_ s_) [n_%s_==0 && s_>=1]
  (do $i0 = 0,s_-1
        do $i1 = 0,n_/s_-1
             $out($i0*(n_/s_)+$i1) = $in($i1*s_+$i0)
        end
   end))
(template (T n_ s_) [n_%s_==0 && s_>=1]
  (do $i0 = 0,n_/s_-1
        do $i1 = 0,s_-1
             $r0 = $i0 * $i1
             $f0 = W(n_ $r0)
             $out($i0*s_+$i1) = $f0 * $in($i0*s_+$i1)
        end
   end))
";

/// A balanced tree of `2^k` points, every node split by `rule`.
fn tree(rule: Rule, k: u32) -> FftTree {
    match k {
        1 => FftTree::leaf(2),
        _ => FftTree::node(rule, tree(rule, k / 2), tree(rule, k - k / 2)),
    }
}

fn compile(src: &str, threshold: usize, fold: bool) -> (CompiledUnit, u64) {
    let mut c = Compiler::with_options(CompilerOptions {
        unroll_threshold: Some(threshold),
        ..Default::default()
    });
    if !fold {
        assert!(c.compile_source(UNFOLDABLE).unwrap().is_empty());
    }
    let unit = c.compile_formula_str(src).unwrap();
    let tel = c.take_telemetry();
    let folded = tel.counter("templates.fold.perm").unwrap_or(0)
        + tel.counter("templates.fold.diag").unwrap_or(0);
    (unit, folded)
}

/// Interpreter, reference VM and resolved VM on one input: the three
/// must agree bitwise; returns the output.
fn run_everywhere(prog: &IProgram, vm: &VmProgram, x: &[f64], label: &str) -> Vec<f64> {
    let interp_in: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
    let interp = spl_icode::interp::run(prog, &interp_in).expect("interpreter accepts");
    let mut y_ref = vec![0.0; vm.n_out];
    let mut y = vec![0.0; vm.n_out];
    vm.run_reference(x, &mut y_ref, &mut VmState::new(vm));
    vm.run(x, &mut y, &mut VmState::new(vm));
    assert!(vm.is_resolved(), "{label}: {:?}", vm.resolve_fallback());
    for i in 0..vm.n_out {
        assert_eq!(
            y[i].to_bits(),
            y_ref[i].to_bits(),
            "{label}: resolved vs reference, word {i}"
        );
        assert_eq!(
            y[i].to_bits(),
            interp[i].re.to_bits(),
            "{label}: vm vs interpreter, word {i}"
        );
    }
    y
}

/// The number of loops that contain no other loop.
fn innermost_loops(prog: &IProgram) -> u64 {
    let mut count = 0;
    // Per open loop: whether a loop was opened inside it.
    let mut open: Vec<bool> = Vec::new();
    for ins in &prog.instrs {
        match ins {
            Instr::DoStart { .. } => {
                if let Some(parent) = open.last_mut() {
                    *parent = true;
                }
                open.push(false);
            }
            Instr::DoEnd => count += u64::from(!open.pop().unwrap()),
            _ => {}
        }
    }
    count
}

#[test]
fn folded_and_unfolded_expansions_agree_bitwise() {
    for rule in ALL_RULES {
        for k in [7, 8, 10] {
            let t = tree(rule, k);
            let n = t.size();
            let src = t.to_sexp().to_string();
            let x: Vec<f64> = (0..2 * n)
                .map(|i| (0.37 * i as f64 + 0.2).sin() + (0.011 * i as f64).cos())
                .collect();
            let logical: Vec<Complex> = x.chunks(2).map(|p| Complex::new(p[0], p[1])).collect();
            let want = spl_formula::dense::apply(&t.to_formula(), &logical).unwrap();
            for threshold in [8, 64] {
                let label = format!("{rule:?} 2^{k} -B {threshold}");
                let (folded, n_folded) = compile(&src, threshold, true);
                let (plain, n_plain) = compile(&src, threshold, false);
                assert!(n_folded > 0, "{label}: nothing folded");
                assert_eq!(n_plain, 0, "{label}: the user's L and T were folded");

                let vm_folded = lower(&folded.program).unwrap();
                let vm_plain = lower(&plain.program).unwrap();
                let y = run_everywhere(&folded.program, &vm_folded, &x, &label);
                let y_plain = run_everywhere(&plain.program, &vm_plain, &x, &label);
                for i in 0..y.len() {
                    assert_eq!(
                        y[i].to_bits(),
                        y_plain[i].to_bits(),
                        "{label}: folded vs unfolded, word {i}: {} vs {}",
                        y[i],
                        y_plain[i]
                    );
                }
                let got: Vec<Complex> = y.chunks(2).map(|p| Complex::new(p[0], p[1])).collect();
                let err = relative_rms_error(&got, &want);
                assert!(err < 1e-12, "{label}: off the dense oracle by {err:e}");

                let words = |p: &IProgram| p.temps.iter().sum::<usize>();
                assert!(
                    words(&folded.program) < words(&plain.program),
                    "{label}: temporaries {:?} did not shrink from {:?}",
                    folded.program.temps,
                    plain.program.temps
                );
                // Every loop the fold left innermost is one tensor stage
                // over straight-line code: the resolver must plan every
                // one of them lane-wide.
                let inner = innermost_loops(&folded.program);
                assert!(inner > 0, "{label}: no loops at all");
                let stats = vm_folded.resolve_stats().unwrap();
                assert_eq!(
                    (stats.vec_loops, stats.vec_demoted),
                    (inner, 0),
                    "{label}: the resolver demoted a stage loop"
                );
            }
        }
    }
}
