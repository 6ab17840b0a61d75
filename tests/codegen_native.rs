//! Target-code tests: the emitted C is compiled by the host compiler and
//! executed, and must agree bit-for-bit in structure with the VM and the
//! dense oracle; the emitted Fortran is checked structurally (no Fortran
//! compiler on the host — see DESIGN.md, substitution 5).

use spl::compiler::{Compiler, CompilerOptions, OptLevel};
use spl::frontend::ast::{DataType, DirectiveState, Language};
use spl::native::NativeKernel;
use spl::numeric::{reference, relative_rms_error, Complex};
use spl::vm::{lower, VmState};

fn directives() -> DirectiveState {
    DirectiveState {
        datatype: DataType::Complex,
        codetype: DataType::Real,
        ..Default::default()
    }
}

fn workload(n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| Complex::new((i as f64 * 0.23).cos(), (i as f64 * 0.41).sin()))
        .collect()
}

#[test]
fn native_c_matches_vm_across_shapes() {
    let cases = [
        // Straight-line with folded constants.
        (
            "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))",
            Some(64),
        ),
        // Loop code with twiddle tables.
        (
            "(compose (tensor (F 2) (I 8)) (T 16 8) (tensor (I 2) (F 8)) (L 16 2))",
            None,
        ),
        // Permutations and temps.
        ("(compose (L 16 4) (F 16) (L 16 2))", None),
        // Direct sums and reversal.
        ("(direct-sum (F 4) (J 4))", None),
    ];
    for (src, threshold) in cases {
        let mut compiler = Compiler::with_options(CompilerOptions {
            unroll_threshold: threshold,
            ..Default::default()
        });
        let sexp = spl::frontend::parser::parse_formula(src).unwrap();
        let unit = compiler.compile_sexp(&sexp, &directives()).unwrap();
        let kernel = NativeKernel::compile(&unit).unwrap();
        let vm = lower(&unit.program).unwrap();
        let n = unit.logical_input_len();
        let x = spl::vm::convert::interleave(&workload(n));
        let mut y_native = vec![0.0; kernel.n_out];
        let mut y_vm = vec![0.0; vm.n_out];
        kernel.run(&x, &mut y_native);
        vm.run(&x, &mut y_vm, &mut VmState::new(&vm));
        for (a, b) in y_native.iter().zip(&y_vm) {
            assert!((a - b).abs() < 1e-12, "{src}: native {a} vs vm {b}");
        }
    }
}

/// The emitted C promises the C compiler non-overlapping buffers, and
/// what `cc` makes of that promise is still the VM's output bit for bit
/// — straight-line code and loop code with folded `L`/`T` alike.
#[test]
fn restrict_qualified_kernels_match_the_vm_bitwise() {
    let split = |r: usize, s: usize| {
        let n = r * s;
        format!(
            "(compose (tensor (F {r}) (I {s})) (T {n} {s}) (tensor (I {r}) (F {s})) (L {n} {r}))"
        )
    };
    for (src, threshold) in [(split(4, 4), 64), (split(8, 16), 8), (split(16, 8), 16)] {
        let mut compiler = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(threshold),
            language_override: Some(Language::C),
            ..Default::default()
        });
        let sexp = spl::frontend::parser::parse_formula(&src).unwrap();
        let unit = compiler.compile_sexp(&sexp, &directives()).unwrap();
        let c = unit.emit();
        assert!(
            c.contains("(double *restrict y, const double *restrict x)"),
            "{src}: signature lost its restrict qualifiers:\n{}",
            c.lines().next().unwrap_or_default()
        );
        let kernel = NativeKernel::compile(&unit).unwrap();
        let vm = lower(&unit.program).unwrap();
        let x = spl::vm::convert::interleave(&workload(unit.logical_input_len()));
        let mut y_native = vec![0.0; kernel.n_out];
        let mut y_vm = vec![0.0; vm.n_out];
        kernel.run(&x, &mut y_native);
        vm.run(&x, &mut y_vm, &mut VmState::new(&vm));
        for (k, (a, b)) in y_native.iter().zip(&y_vm).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{src}: word {k}: native {a} vs vm {b}"
            );
        }
    }
}

#[test]
fn native_fft_is_correct_at_all_opt_levels() {
    let src = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))";
    let x = workload(8);
    let want = reference::dft(&x);
    for level in [OptLevel::None, OptLevel::ScalarTemps, OptLevel::Default] {
        let mut compiler = Compiler::with_options(CompilerOptions {
            opt_level: level,
            ..Default::default()
        });
        let sexp = spl::frontend::parser::parse_formula(src).unwrap();
        let unit = compiler.compile_sexp(&sexp, &directives()).unwrap();
        let kernel = NativeKernel::compile(&unit).unwrap();
        let flat = spl::vm::convert::interleave(&x);
        let mut y = vec![0.0; kernel.n_out];
        kernel.run(&flat, &mut y);
        let got = spl::vm::convert::deinterleave(&y);
        assert!(relative_rms_error(&got, &want) < 1e-12, "{level:?}");
    }
}

#[test]
fn fortran_output_structure() {
    // Golden structural checks of the Fortran emitter (complex codetype).
    let mut compiler = Compiler::new();
    let units = compiler
        .compile_source(
            "#datatype complex\n#codetype complex\n#subname cfft\n(compose (T 4 2) (F 4))",
        )
        .unwrap();
    let f = units[0].emit();
    assert!(f.contains("subroutine cfft(y,x)"), "{f}");
    assert!(f.contains("complex*16 y(4),x(4)"), "{f}");
    assert!(f.contains("end"), "{f}");
    // Complex table entries as Fortran complex literals.
    assert!(f.contains("data d0 /"), "{f}");
    assert!(
        f.contains("(1.0d0,0.0d0)") || f.contains("(1.0d0,-0.0d0)"),
        "{f}"
    );
}

#[test]
fn fortran_peephole_variants() {
    let mut compiler = Compiler::with_options(CompilerOptions {
        peephole: true,
        ..Default::default()
    });
    // diag(-1, i) forces a negation into the real-typed code.
    let units = compiler
        .compile_source("#codetype real\n#subname pp\n(diagonal (-1 (0,1)))")
        .unwrap();
    let f = units[0].emit();
    assert!(!f.contains("= -f"), "unary minus must be rewritten: {f}");
}

#[test]
fn io_params_compile_and_run() {
    // Stride/offset entry points (Section 3.5): generated C gets extra
    // parameters; check it still compiles natively by emitting and
    // compiling the source by hand.
    let mut compiler = Compiler::with_options(CompilerOptions {
        io_params: true,
        language_override: Some(Language::C),
        ..Default::default()
    });
    let sexp = spl::frontend::parser::parse_formula("(F 2)").unwrap();
    let unit = compiler.compile_sexp(&sexp, &directives()).unwrap();
    let src = unit.emit();
    assert!(
        src.contains("long yofs, long xofs, long ystr, long xstr"),
        "{src}"
    );
    // Compile it with cc to prove it is valid C.
    let dir = std::env::temp_dir();
    let cpath = dir.join("spl_ioparams_test.c");
    let opath = dir.join("spl_ioparams_test.o");
    std::fs::write(&cpath, &src).unwrap();
    let ok = std::process::Command::new("cc")
        .args(["-c", "-O2", "-o"])
        .arg(&opath)
        .arg(&cpath)
        .status()
        .unwrap()
        .success();
    std::fs::remove_file(&cpath).ok();
    std::fs::remove_file(&opath).ok();
    assert!(ok, "generated io-params C does not compile:\n{src}");
}

#[test]
fn emitted_c_for_every_f16_factorization_compiles_and_agrees() {
    use spl::generator::fft::{enumerate_trees, Rule};
    let x = workload(16);
    let want = reference::dft(&x);
    for tree in enumerate_trees(4, Rule::CooleyTukey) {
        let mut compiler = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(8),
            ..Default::default()
        });
        let unit = compiler
            .compile_sexp(&tree.to_sexp(), &directives())
            .unwrap();
        let kernel = NativeKernel::compile(&unit).unwrap();
        let flat = spl::vm::convert::interleave(&x);
        let mut y = vec![0.0; kernel.n_out];
        kernel.run(&flat, &mut y);
        let got = spl::vm::convert::deinterleave(&y);
        assert!(
            relative_rms_error(&got, &want) < 1e-11,
            "{}",
            tree.describe()
        );
    }
}
