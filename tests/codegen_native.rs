//! Target-code tests: the emitted C is compiled by the host compiler and
//! executed, and must agree bit-for-bit in structure with the VM and the
//! dense oracle; the emitted Fortran is checked structurally (no Fortran
//! compiler on the host — see DESIGN.md, substitution 5).

use spl::compiler::{Compiler, CompilerOptions, OptLevel};
use spl::frontend::ast::{DataType, DirectiveState, Language};
use spl::generator::fft::FftTree;
use spl::native::{isa_tokens, BuildOptions, CcTarget, KernelCache, NativeKernel};
use spl::numeric::{reference, relative_rms_error, Complex};
use spl::telemetry::Telemetry;
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

/// The plans the benchmark runs whose size passes `sizes`, compiled as
/// it compiles them.
fn benchmark_plans(sizes: impl Fn(usize) -> bool) -> Vec<(usize, spl::compiler::CompiledUnit)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/plans.wisdom");
    let text = std::fs::read_to_string(path).unwrap();
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|line| line.split_once(':').expect("size: spec"))
        .map(|(n, spec)| (n.trim().parse::<usize>().unwrap(), spec))
        .filter(|(n, _)| sizes(*n))
        .map(|(n, spec)| {
            let tree = FftTree::from_spec(spec.trim()).unwrap();
            let mut compiler = Compiler::with_options(CompilerOptions {
                unroll_threshold: Some(64),
                language_override: Some(Language::C),
                ..Default::default()
            });
            let unit = compiler
                .compile_formula_str(&tree.to_sexp().to_string())
                .unwrap();
            (n, unit)
        })
        .collect()
}

/// `len` doubles in [-1, 1) from a 64-bit LCG.
fn seeded(seed: u64, len: usize) -> Vec<f64> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        })
        .collect()
}

/// `kernel` against the resolved VM on two seeded inputs, bit for bit: a
/// fused multiply-add or a reassociation anywhere in what `cc` made of
/// the target line shows here, as it would at spld's promotion gate.
fn assert_bitwise_vm(what: &str, unit: &spl::compiler::CompiledUnit, kernel: &NativeKernel) {
    let vm = lower(&unit.program).unwrap();
    let mut st = VmState::new(&vm);
    for seed in [1, 0x5eed] {
        let x = seeded(seed, kernel.n_in);
        let mut y_native = vec![0.0; kernel.n_out];
        let mut y_vm = vec![0.0; vm.n_out];
        kernel.run(&x, &mut y_native);
        vm.run(&x, &mut y_vm, &mut st);
        let diff = y_native
            .iter()
            .zip(&y_vm)
            .position(|(a, b)| a.to_bits() != b.to_bits());
        assert_eq!(
            diff,
            None,
            "{what}, seed {seed}: first differing word, built by `{}`",
            CcTarget::host().command_line()
        );
    }
}

fn benchmark_plans_match_the_vm(sizes: impl Fn(usize) -> bool) {
    for (n, unit) in benchmark_plans(sizes) {
        let kernel = NativeKernel::compile(&unit).unwrap();
        assert_bitwise_vm(&format!("plan {n}"), &unit, &kernel);
    }
}

#[test]
fn benchmark_plans_on_the_host_target_line_match_the_vm_bitwise() {
    benchmark_plans_match_the_vm(|n| n <= 1 << 14);
}

#[test]
#[ignore = "2^16: about 3 s of cc"]
fn benchmark_plan_65536_on_the_host_target_line_matches_the_vm_bitwise() {
    benchmark_plans_match_the_vm(|n| n > 1 << 14);
}

#[test]
fn isa_selection_is_total_and_never_admits_a_fused_multiply_add() {
    let avx2: &[&str] = &["-mavx2", "-mno-fma"];
    let avx: &[&str] = &["-mavx", "-mno-fma"];
    let none: &[&str] = &[];
    // (avx, avx2) -> tokens on x86-64; every other architecture: none.
    let x86_64 = [
        ((false, false), none),
        ((true, false), avx),
        ((true, true), avx2),
        ((false, true), avx2),
    ];
    for arch in ["x86_64", "aarch64", "riscv64", ""] {
        for ((has_avx, has_avx2), on_x86_64) in x86_64 {
            let got = isa_tokens(arch, has_avx, has_avx2);
            let want = if arch == "x86_64" { on_x86_64 } else { none };
            assert_eq!(got, want, "{arch} avx={has_avx} avx2={has_avx2}");
            assert_eq!(
                got.iter().any(|t| t.starts_with("-mavx")),
                got.contains(&"-mno-fma"),
                "{got:?}: -mno-fma rides with every -mavx*"
            );
            for t in got {
                assert!(
                    !t.starts_with("-march=") && *t != "-mfma" && !t.starts_with("-mavx512"),
                    "{got:?}"
                );
            }
        }
    }
}

#[test]
fn kernel_cache_key_separates_isa_levels() {
    let c = "void spl_kernel(double *restrict y, const double *restrict x) { y[0] = x[0]; }";
    let opts = BuildOptions::default();
    let line = |avx, avx2| {
        CcTarget::with_isa_tokens(isa_tokens("x86_64", avx, avx2))
            .command_line()
            .to_string()
    };
    let keys = [line(true, true), line(true, false), line(false, false)]
        .map(|l| KernelCache::key_for(c, &opts, &l));
    assert_ne!(keys[0], keys[1], "avx2 vs avx");
    assert_ne!(keys[1], keys[2], "avx vs baseline");
    assert_ne!(keys[0], keys[2], "avx2 vs baseline");
    assert_eq!(
        KernelCache::key(c, &opts),
        KernelCache::key_for(c, &opts, spl::native::cc_command_line()),
        "the host key is the key under the host's line"
    );
}

#[test]
fn cc_that_rejects_the_isa_tokens_falls_back_to_baseline_once() {
    let target = CcTarget::with_isa_tokens(&["-mno-such-isa"]);
    let (_, unit) = benchmark_plans(|n| n == 256).remove(0); // loop code
    let opts = BuildOptions::default();
    let first = NativeKernel::compile_for(&unit, &opts, &target).unwrap();
    assert_bitwise_vm("fallback build", &unit, &first);
    assert_eq!(target.fallbacks(), 1);
    assert!(!target.command_line().contains("-mno-such-isa"));
    // Downgraded for good: the next build starts at baseline, so there
    // is nothing to retry and nothing more to count.
    let second = NativeKernel::compile_for(&unit, &opts, &target).unwrap();
    assert_bitwise_vm("build after the fallback", &unit, &second);
    let mut tel = Telemetry::new();
    target.report(&mut tel);
    assert_eq!(tel.counter("native.isa.fallback"), Some(1));
    assert_eq!(
        tel.notes()[0],
        (
            "native.isa".to_string(),
            "baseline (fallback from no-such-isa)".to_string()
        )
    );
    // The host's own line is untouched by another target's trouble.
    assert_eq!(CcTarget::host().fallbacks(), 0);
}

/// `cc` is handed code, not data: two units whose C differs only in the
/// *values* of their tables are one text, so one `cc` run serves both —
/// and each load, in a handle of its own, is filled from its own unit.
#[test]
fn units_that_differ_only_in_table_values_share_one_cc_run() {
    // `T` with a power: the same loops over another table.
    let src = "(template (TW n_ s_ p_) [n_%s_==0 && s_>=1]
                 (do $i0 = 0,n_/s_-1
                       do $i1 = 0,s_-1
                            $r0 = $i0 * $i1
                            $r1 = $r0 * p_
                            $f0 = W(n_ $r1)
                            $out($i0*s_+$i1) = $f0 * $in($i0*s_+$i1)
                       end
                  end))
               #datatype complex
               #codetype real
               (compose (tensor (F 2) (I 4)) (TW 8 2 1))
               (compose (tensor (F 2) (I 4)) (TW 8 2 3))";
    let units = Compiler::new().compile_source(src).unwrap();
    let [a, b] = units.as_slice() else {
        panic!("two formulas, {} units", units.len());
    };
    assert_ne!(a.program.tables, b.program.tables, "different twiddles");
    let opts = BuildOptions::default();
    assert_eq!(
        NativeKernel::cache_key(a, &opts).unwrap(),
        NativeKernel::cache_key(b, &opts).unwrap(),
        "same text"
    );

    let cache = KernelCache::in_memory();
    let (ka, _) = NativeKernel::compile_cached(a, &opts, &cache).unwrap();
    let (kb, _) = NativeKernel::compile_cached(b, &opts, &cache).unwrap();
    // Both alive at once, and a second load of the first beside them.
    let (ka2, _) = NativeKernel::compile_cached(a, &opts, &cache).unwrap();
    assert_bitwise_vm("(TW 8 2 1)", a, &ka);
    assert_bitwise_vm("(TW 8 2 3)", b, &kb);
    assert_bitwise_vm("(TW 8 2 1) again", a, &ka2);
    let tel = cache.drain_telemetry();
    assert_eq!(tel.counter("native.cc_invocations"), Some(1));
    assert_eq!(tel.counter("native.cache.memory_hits"), Some(2));
    // What cc was handed, and what it was spared: 8 complex twiddles.
    assert_eq!(tel.counter("native.table_bytes"), Some(8 * 2 * 8));
    assert!(tel.counter("native.c_bytes").unwrap() > 0);
}

/// The sandboxed runs fork a process that already has the tables.
#[test]
fn sandboxed_runs_see_the_loaded_tables() {
    let (_, unit) = benchmark_plans(|n| n == 256).remove(0);
    assert!(!unit.program.tables.is_empty());
    let kernel = NativeKernel::compile(&unit).unwrap();
    let vm = lower(&unit.program).unwrap();
    let x = spl::vm::convert::interleave(&workload(256));
    let mut want = vec![0.0; vm.n_out];
    vm.run(&x, &mut want, &mut VmState::new(&vm));
    let mut got = vec![0.0; kernel.n_out];
    kernel
        .run_sandboxed(&x, &mut got, std::time::Duration::from_secs(30))
        .unwrap();
    assert!(
        got.iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()),
        "sandboxed run differs from the VM"
    );
    let secs = kernel
        .measure_sandboxed(
            std::time::Duration::from_millis(2),
            std::time::Duration::from_secs(30),
        )
        .unwrap();
    assert!(secs > 0.0);
}
