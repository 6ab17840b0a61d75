//! Target-code tests: the emitted C is compiled by the host compiler and
//! executed, and must agree bit-for-bit with the VM and within rounding
//! with the dense oracle; the emitted Fortran is checked structurally (no
//! Fortran compiler on the host — see DESIGN.md, substitution 5).

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use spl::compiler::codegen::{emit_counted, EmitStats};
use spl::compiler::{CodegenOptions, CompiledUnit, Compiler, CompilerOptions, OptLevel};
use spl::frontend::ast::{DataType, DirectiveState, Language};
use spl::frontend::sexp::Sexp;
use spl::generator::fft::FftTree;
use spl::generator::fft::{Rule, ALL_RULES};
use spl::icode::{Affine, BinOp, IProgram, Instr, LoopVar, Place, UnOp, Value, VecKind, VecRef};
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
        for (k, (a, b)) in y_native.iter().zip(&y_vm).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{src}: word {k}: native {a} vs vm {b}"
            );
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
    // Strided accesses stay scalar statements.
    assert!(!src.contains("spl_v2d"), "{src}");
    // Compile it with cc to prove it is valid C.
    assert_compiles("f2_io_params", &src, &[]);
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
/// it compiles them, once per test process.
fn benchmark_plans(sizes: impl Fn(usize) -> bool) -> Vec<(usize, spl::compiler::CompiledUnit)> {
    static PLANS: OnceLock<Vec<(usize, CompiledUnit)>> = OnceLock::new();
    let plans = PLANS.get_or_init(|| {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/plans.wisdom");
        let text = std::fs::read_to_string(path).unwrap();
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|line| line.split_once(':').expect("size: spec"))
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
                (n.trim().parse::<usize>().unwrap(), unit)
            })
            .collect()
    });
    plans.iter().filter(|(n, _)| sizes(*n)).cloned().collect()
}

/// `unit`'s kernel at the host line: `cc` runs once per plan and test
/// process, and each call loads its own copy of the object. The cache
/// directory is emptied when the process first asks for a kernel.
fn host_kernel(unit: &CompiledUnit) -> NativeKernel {
    static BUILT: OnceLock<KernelCache> = OnceLock::new();
    let cache = BUILT.get_or_init(|| {
        let dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/codegen_native_kernels");
        let _ = std::fs::remove_dir_all(dir);
        KernelCache::with_dir(dir.as_ref()).unwrap()
    });
    NativeKernel::compile_cached(unit, &BuildOptions, cache)
        .unwrap()
        .0
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
        assert_bitwise_vm(&format!("plan {n}"), &unit, &host_kernel(&unit));
    }
}

#[test]
fn benchmark_plans_on_the_host_target_line_match_the_vm_bitwise() {
    benchmark_plans_match_the_vm(|n| n <= 1 << 14);
}

#[test]
fn benchmark_plan_65536_on_the_host_target_line_matches_the_vm_bitwise() {
    benchmark_plans_match_the_vm(|n| n > 1 << 14);
    loop_forms(|n| n > 1 << 14);
}

/// The object an ISA fallback builds: each looped plan at the baseline
/// line, where only the scalar form of a wide loop compiles.
#[test]
fn looped_plans_at_the_baseline_line_match_the_vm_bitwise() {
    let baseline = CcTarget::with_isa_tokens(&[]);
    for (n, unit) in benchmark_plans(|n| n >= 128) {
        let kernel = NativeKernel::compile_for(&unit, &baseline).unwrap();
        assert_bitwise_vm(&format!("plan {n} at the baseline line"), &unit, &kernel);
    }
}

/// A balanced tree of `2^k` points, every node split by `rule`.
fn balanced(rule: Rule, k: u32) -> FftTree {
    match k {
        1 => FftTree::leaf(2),
        _ => FftTree::node(rule, balanced(rule, k / 2), balanced(rule, k - k / 2)),
    }
}

/// Every breakdown rule's loop shapes, not Cooley–Tukey's alone, built
/// native at the host line: bit for bit the VM's.
#[test]
fn every_rule_builds_native_kernels_equal_to_the_vm_bitwise() {
    let mut totals = EmitStats::default();
    for rule in ALL_RULES {
        for k in [7, 10] {
            for threshold in [8, 64] {
                let mut compiler = Compiler::with_options(CompilerOptions {
                    unroll_threshold: Some(threshold),
                    language_override: Some(Language::C),
                    ..Default::default()
                });
                let sexp = balanced(rule, k).to_sexp();
                let unit = compiler.compile_sexp(&sexp, &directives()).unwrap();
                let stats = emit_stats(&unit).1;
                totals.packed_loops += stats.packed_loops;
                totals.wide_loops += stats.wide_loops;
                totals.lane_nests += stats.lane_nests;
                let kernel = NativeKernel::compile(&unit).unwrap();
                assert_bitwise_vm(&format!("{rule:?} 2^{k} -B {threshold}"), &unit, &kernel);
            }
        }
    }
    assert!(
        totals.packed_loops > 0 && totals.wide_loops > 0 && totals.lane_nests > 0,
        "{totals:?}"
    );
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
    let line = |avx, avx2| {
        CcTarget::with_isa_tokens(isa_tokens("x86_64", avx, avx2))
            .command_line()
            .to_string()
    };
    let keys = [line(true, true), line(true, false), line(false, false)]
        .map(|l| KernelCache::key_for(c, &l));
    assert_ne!(keys[0], keys[1], "avx2 vs avx");
    assert_ne!(keys[1], keys[2], "avx vs baseline");
    assert_ne!(keys[0], keys[2], "avx2 vs baseline");
}

#[test]
fn cc_that_rejects_the_isa_tokens_falls_back_to_baseline_once() {
    let target = CcTarget::with_isa_tokens(&["-mno-such-isa"]);
    let (_, unit) = benchmark_plans(|n| n == 256).remove(0); // loop code
    let first = NativeKernel::compile_for(&unit, &target).unwrap();
    assert_bitwise_vm("fallback build", &unit, &first);
    assert_eq!(target.fallbacks(), 1);
    assert!(!target.command_line().contains("-mno-such-isa"));
    // Downgraded for good: the next build starts at baseline, so there
    // is nothing to retry and nothing more to count.
    let second = NativeKernel::compile_for(&unit, &target).unwrap();
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
    let dir = std::env::temp_dir().join(format!("spl_table_values_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = KernelCache::with_dir(&dir).unwrap();
    let (ka, _) = NativeKernel::compile_cached(a, &BuildOptions, &cache).unwrap();
    let (kb, _) = NativeKernel::compile_cached(b, &BuildOptions, &cache).unwrap();
    assert_eq!(ka.cache_key(), kb.cache_key(), "same text");
    // Both alive at once, and a second load of the first beside them.
    let (ka2, _) = NativeKernel::compile_cached(a, &BuildOptions, &cache).unwrap();
    assert_bitwise_vm("(TW 8 2 1)", a, &ka);
    assert_bitwise_vm("(TW 8 2 3)", b, &kb);
    assert_bitwise_vm("(TW 8 2 1) again", a, &ka2);
    let tel = cache.drain_telemetry();
    assert_eq!(tel.counter("native.cc_invocations"), Some(1));
    assert_eq!(tel.counter("native.cache.disk_hits"), Some(2));
    // What cc was handed, and what it was spared: 8 complex twiddles.
    assert_eq!(tel.counter("native.table_bytes"), Some(8 * 2 * 8));
    assert!(tel.counter("native.c_bytes").unwrap() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sandboxed runs fork a process that already has the tables.
#[test]
fn sandboxed_runs_see_the_loaded_tables() {
    let (_, unit) = benchmark_plans(|n| n == 256).remove(0);
    assert!(!unit.program.tables.is_empty());
    let kernel = host_kernel(&unit);
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

// ---------------------------------------------------------------------
// Straight-line C on complex pairs
// ---------------------------------------------------------------------

/// What an unused variable fails.
const STRICT: &[&str] = &["-Wall", "-Wextra", "-Werror"];

/// The flags of both target lines a kernel is built at: the AVX2 one
/// (where the architecture has it), under which wide loops compile, and
/// the baseline.
fn both_isa_lines() -> [&'static [&'static str]; 2] {
    [isa_tokens(std::env::consts::ARCH, true, true), &[]]
}

/// `cc -O2 -c` with `flags` accepts `src`.
fn assert_compiles(what: &str, src: &str, flags: &[&str]) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir();
    let k = NEXT.fetch_add(1, Ordering::Relaxed);
    let stem = format!("spl_codegen_{what}_{}_{k}", std::process::id());
    let (c, o) = (dir.join(format!("{stem}.c")), dir.join(format!("{stem}.o")));
    std::fs::write(&c, src).unwrap();
    let out = Command::new("cc")
        .args(["-O2", "-ffp-contract=off", "-c"])
        .args(flags)
        .arg(&c)
        .arg("-o")
        .arg(&o)
        .output()
        .unwrap();
    for p in [&c, &o] {
        std::fs::remove_file(p).ok();
    }
    assert!(
        out.status.success(),
        "{what}: cc {flags:?} rejects the C:\n{}\n{src}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// [`assert_compiles`] under [`STRICT`] at both target lines, side by
/// side.
fn assert_compiles_clean(what: &str, src: &str) {
    std::thread::scope(|s| {
        for isa in both_isa_lines() {
            s.spawn(move || assert_compiles(what, src, &[STRICT, isa].concat()));
        }
    });
}

fn emit_stats(unit: &CompiledUnit) -> (String, EmitStats) {
    emit_counted(&unit.name, &unit.program, &unit.codegen)
}

/// The benchmark's six straight-line plans print every value on a
/// complex pair: no scalar statement, no `$f` register.
#[test]
fn straight_line_plans_print_no_scalar_fallback() {
    let plans = benchmark_plans(|n| n <= 64);
    assert_eq!(plans.len(), 6);
    for (n, unit) in &plans {
        let (c, stats) = emit_stats(unit);
        assert_eq!(stats.scalar_stmts, 0, "plan {n}: {stats:?}\n{c}");
        assert!(stats.paired_stmts >= *n as u64, "plan {n}: {stats:?}");
        assert!(
            !c.contains("double f"),
            "plan {n} declares a scalar register"
        );
        // From 2^4 up the runs print on quads under AVX, behind the 4-lane
        // preamble; up to 2^3 their half moves, counted twice, leave the
        // pair form alone.
        assert_eq!(c.matches("#ifndef SPL_V2D").count(), 1, "plan {n}");
        let v4d = "#if defined(__AVX__) && !defined(SPL_V4D)";
        let quads = *n >= 16;
        assert_eq!(c.matches(v4d).count(), usize::from(quads), "plan {n}");
        assert_eq!(stats.quad_stmts > 0, quads, "plan {n}: {stats:?}");
    }
    // The `(2x32)` probe, one dense block of 6377 pair statements: nearly
    // all of it pairs into quads, with few half moves. Pairing upward in
    // another order than the pair form printed took it to 5894 statements,
    // 1823 of them half moves.
    let mut compiler = Compiler::with_options(CompilerOptions {
        unroll_threshold: Some(64),
        language_override: Some(Language::C),
        ..Default::default()
    });
    let probe = "(compose (tensor (F 2) (I 32)) (T 64 32) (tensor (I 2) (F 32)) (L 64 2))";
    let (_, stats) = emit_stats(&compiler.compile_formula_str(probe).unwrap());
    assert!(stats.quad_stmts > 3000, "{stats:?}");
    assert!(stats.quad_joins < 100, "{stats:?}");
}

/// `len` doubles drawn from ±0, ±∞, NaN, subnormals, ±1e308 and [-1, 1).
fn special(seed: u64, len: usize) -> Vec<f64> {
    const VALUES: [f64; 10] = [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
        -2.2250738585072e-308,
        1e308,
        -1e308,
        1.0,
    ];
    let lcg = seeded(seed, len);
    lcg.iter()
        .zip(seeded(seed ^ 0x9e37, len))
        .map(|(&r, s)| match ((s + 1.0) * 8.0) as usize {
            k @ 0..=9 => VALUES[k],
            _ => r,
        })
        .collect()
}

/// The six straight-line plans at the host line (their quads) and at the
/// baseline (the pair form an ISA fallback builds) equal the VM bit for
/// bit on special values, any NaN equal to any NaN: the packer may trade
/// the operands of `+` and `*`, which changes a NaN's payload only.
#[test]
fn straight_line_plans_equal_the_vm_on_special_values_at_both_lines() {
    let baseline = CcTarget::with_isa_tokens(&[]);
    for (n, unit) in benchmark_plans(|n| n <= 64) {
        let vm = lower(&unit.program).unwrap();
        let mut st = VmState::new(&vm);
        let host = NativeKernel::compile(&unit).unwrap();
        let base = NativeKernel::compile_for(&unit, &baseline).unwrap();
        for (line, kernel) in [("host", &host), ("baseline", &base)] {
            for seed in 0..200 {
                let x = special(seed, kernel.n_in);
                let mut y_native = vec![0.0; kernel.n_out];
                let mut y_vm = vec![0.0; vm.n_out];
                kernel.run(&x, &mut y_native);
                vm.run(&x, &mut y_vm, &mut st);
                let same =
                    |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits() || a.is_nan() && b.is_nan();
                let diff = y_native.iter().zip(&y_vm).position(|p| !same(p));
                assert_eq!(
                    diff, None,
                    "plan {n} at the {line} line, seed {seed}: {x:?}"
                );
            }
        }
    }
}

/// The loop variables whose bodies name the vector type `ty`, in order:
/// the innermost `for` around each line that names it.
fn loops_naming(c: &str, ty: &str) -> Vec<String> {
    let (mut open, mut out) = (Vec::<(usize, String)>::new(), Vec::new());
    for line in c.lines() {
        let indent = line.len() - line.trim_start().len();
        if let Some(rest) = line.trim_start().strip_prefix("for (") {
            open.push((indent, rest.split(' ').next().unwrap_or_default().into()));
        } else if line.trim() == "}" && open.last().is_some_and(|o| o.0 == indent) {
            open.pop();
        } else if let Some((_, var)) = open.last().filter(|_| line.contains(ty)) {
            if out.last() != Some(var) {
                out.push(var.clone());
            }
        }
    }
    out
}

/// The guard of wide loops, lane nests and what only an AVX build
/// declares (the 32-byte types' guard goes on to name `SPL_V4D`).
const AVX_GUARD: &str = "#if defined(__AVX__)\n";

/// The lines of `c` a build with AVX (`avx`), or one without, compiles:
/// one side of each `#if defined(__AVX__)` and `#if !defined(__AVX__)`,
/// every other guard's body, no preprocessor line.
fn compiled_with(c: &str, avx: bool) -> String {
    let mut keep = vec![true];
    let mut out = String::new();
    for line in c.lines() {
        match line {
            "#if defined(__AVX__)" => keep.push(avx),
            "#if !defined(__AVX__)" => keep.push(!avx),
            "#else" => *keep.last_mut().expect("an open #if") ^= true,
            "#endif" => drop(keep.pop()),
            _ if line.starts_with('#') => keep.push(true),
            _ if keep.iter().all(|&k| k) => {
                out.push_str(line);
                out.push('\n');
            }
            _ => {}
        }
    }
    out
}

/// The loops of `c` that step by 1 from 0 to 1 and that `plain` has no
/// loop over: lane loops.
fn lane_loops(c: &str, plain: &str) -> usize {
    c.lines()
        .filter_map(|l| l.trim_start().strip_prefix("for ("))
        .filter(|l| {
            let var = l.split(' ').next().unwrap_or_default();
            *l == format!("{var} = 0; {var} <= 1; {var}++) {{")
                && !plain.contains(&format!("for ({var} = "))
        })
        .count()
}

/// Which loop bodies of the looped plans whose size passes `sizes` print
/// on pairs and which two iterations per 32-byte vector, as a build with
/// AVX and one without compile them. Without: on pairs, the innermost
/// body whose loads stride past a complex value per iteration
/// (`x[2*i0+16*i1+…]` in `i1`); every other body scalar statements, which
/// gcc vectorises itself. With: wide, the bodies whose every subscript
/// steps by one complex value per iteration (a load may also not step),
/// and each plan's lane nest but 2^7's — the first loop, `i0`, takes two
/// trips at a time and its leaf prints iterations `i0` and `i0+1` in one
/// vector: the strided body from 2^10 up, and in 2^8 the `i0` body
/// itself, whose stores step by eight complex values (2^7's first loop,
/// whose stores step by two, stays gcc's). From 2^10 up, `i0` keeps its
/// step of 1,
/// the leaf runs in even trips only and the rest of the `i0` body runs in
/// every trip as that trip's lane; in 2^16, whose leaf is one loop
/// further in, the rest of the `i1` body runs once per lane in a lane
/// loop.
fn loop_forms(sizes: impl Fn(usize) -> bool) {
    for (n, unit) in benchmark_plans(|n| n >= 128 && sizes(n)) {
        let (c, stats) = emit_stats(&unit);
        let (pairs, wide, lanes): (&[&str], &[&str], usize) = match n {
            128 => (&[], &["i2"], 0),
            256 => (&[], &["i0", "i8"], 0),
            1024 => (&["i1"], &["i1", "i11", "i19"], 0),
            4096 => (&["i1"], &["i1", "i12", "i28"], 0),
            16384 => (&["i1"], &["i1", "i15", "i31"], 0),
            65536 => (&["i2"], &["i2", "i13", "i29", "i37"], 1),
            _ => unreachable!("plan {n}"),
        };
        let (plain, avx) = (compiled_with(&c, false), compiled_with(&c, true));
        let none: &[&str] = &[];
        assert_eq!(
            loops_naming(&plain, "spl_v2d"),
            pairs,
            "plan {n} without AVX"
        );
        assert_eq!(
            loops_naming(&plain, "spl_v4d"),
            none,
            "plan {n} without AVX"
        );
        assert_eq!(loops_naming(&avx, "spl_v2d"), none, "plan {n} with AVX");
        assert_eq!(loops_naming(&avx, "spl_v4d"), wide, "plan {n} with AVX");
        // Two i0 trips at a time: by 2 where the i0 body is the leaf;
        // else the levels down to the leaf on even trips, the rest of the
        // i0 body in every trip.
        let by_two = match n {
            128 => "",
            256 => "; i0 += 2) {\n    spl_v4d",
            _ => "; i0++) {\n    if ((i0 & 1) == 0) {\n",
        };
        assert!(avx.contains(by_two), "plan {n}: no {by_two:?}");
        assert_eq!(lane_loops(&avx, &plain), lanes, "plan {n}");
        assert_eq!(
            stats.packed_loops,
            pairs.len() as u64,
            "plan {n}: {stats:?}"
        );
        let nests = usize::from(n > 128);
        assert_eq!(
            stats.wide_loops,
            (wide.len() - nests) as u64,
            "plan {n}: {stats:?}"
        );
        assert_eq!(stats.lane_nests, nests as u64, "plan {n}: {stats:?}");
        // The loops guarded: the nest, and the last stage's wide loop.
        let guarded = c.lines().zip(c.lines().skip(1));
        let loops = guarded.filter(|(g, l)| *g == AVX_GUARD.trim_end() && l.starts_with("  for ("));
        assert_eq!(loops.count(), 1 + nests, "plan {n}");
    }
}

#[test]
fn strided_bodies_print_on_pairs_and_unit_stride_bodies_wide() {
    loop_forms(|n| n <= 1 << 14);
}

/// The twelve plans in one file, as `spl-minifft`'s `codelets.c` holds
/// its six: the preambles' guards admit the later units, and no unused
/// declaration is left behind, in straight-line code or in loops, on
/// either side of an `#if`: every plan from 2^4 up has one, around its
/// quads (up to 64 points) or its wide loops and lane nests.
#[test]
fn packed_plans_compile_clean_under_wall_werror() {
    let text: String = benchmark_plans(|_| true)
        .iter()
        .map(|(n, unit)| {
            let c = spl::compiler::codegen::emit(&format!("plan{n}"), &unit.program, &unit.codegen);
            assert_eq!(c.contains(AVX_GUARD), *n >= 16, "plan {n}");
            c
        })
        .collect();
    assert_compiles_clean("plans", &text);
}

fn at(kind: VecKind, i: i64) -> Place {
    Place::Vec(VecRef {
        kind,
        idx: Affine::constant(i),
    })
}

fn y(i: i64) -> Place {
    at(VecKind::Out, i)
}

fn x(i: i64) -> Value {
    Value::vec(VecKind::In, i)
}

/// Element `k*i0 + c` of `kind`'s array.
fn at_i0(kind: VecKind, k: i64, c: i64) -> Place {
    Place::Vec(VecRef {
        kind,
        idx: Affine {
            c,
            terms: vec![(k, LoopVar(0))],
        },
    })
}

fn read_i0(kind: VecKind, k: i64, c: i64) -> Value {
    Value::Place(at_i0(kind, k, c))
}

/// `do var = 0, hi`.
fn do_to(var: u32, hi: i64) -> Instr {
    Instr::DoStart {
        var: LoopVar(var),
        lo: 0,
        hi,
        unroll: false,
    }
}

/// `do i0 = 0, 1` around `body`.
fn two_trips(body: Vec<Instr>) -> Vec<Instr> {
    [vec![do_to(0, 1)], body, vec![Instr::DoEnd]].concat()
}

fn bin(op: BinOp, dst: Place, a: Value, b: Value) -> Instr {
    Instr::Bin { op, dst, a, b }
}

/// A unit around a hand-written real program, printed as plain C.
fn hand_unit(name: &str, instrs: Vec<Instr>, n_out: usize) -> CompiledUnit {
    let count = |f: fn(&Place) -> Option<u32>| {
        instrs
            .iter()
            .filter_map(|i| f(i.dst()?))
            .map(|k| k + 1)
            .max()
            .unwrap_or(0)
    };
    let n_f = count(|p| match p {
        Place::F(k) => Some(*k),
        _ => None,
    });
    let n_r = count(|p| match p {
        Place::R(k) => Some(*k),
        _ => None,
    });
    let loops = instrs
        .iter()
        .filter(|i| matches!(i, Instr::DoStart { .. }))
        .count();
    CompiledUnit {
        name: name.into(),
        program: IProgram {
            instrs,
            n_in: 8,
            n_out,
            n_f,
            n_r,
            n_loop: loops as u32,
            complex: false,
            ..IProgram::empty()
        },
        formula: Sexp::Symbol(name.into()),
        datatype: DataType::Real,
        codetype: DataType::Real,
        language: Language::C,
        codegen: CodegenOptions {
            language: Language::C,
            ..Default::default()
        },
    }
}

/// What a case's C must look like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// On pairs, every statement.
    Paired,
    /// On pairs, with scalar fallbacks beside them.
    Mixed,
    /// Scalar statements only.
    Scalar,
    /// A loop two iterations per vector, beside its scalar form.
    Wide,
    /// A lane nest, beside the form without it.
    Lanes,
    /// Outside any loop, two pairs per 32-byte vector beside the pair form.
    Quads,
}

/// What the packer cannot pair, or must not: each case compiles clean
/// and equals the VM bit for bit at both target lines, and its C has the
/// expected shape.
#[test]
fn packer_fallbacks_compile_and_equal_the_vm_bitwise() {
    use BinOp::{Add, Div, Mul, Sub};
    let i0 = LoopVar(0);
    let cases = vec![
        (
            // (y1, y2) starts at an odd offset: two scalar stores.
            hand_unit(
                "odd_offset",
                vec![
                    bin(Add, y(1), x(0), x(2)),
                    bin(Add, y(2), x(1), x(3)),
                    bin(Sub, y(4), x(4), x(6)),
                    bin(Sub, y(5), x(5), x(7)),
                    bin(Mul, y(6), x(4), x(6)),
                    bin(Mul, y(7), x(5), x(7)),
                ],
                8,
            ),
            Shape::Mixed,
        ),
        (
            hand_unit(
                "unpaired",
                vec![
                    bin(Add, y(0), x(0), x(2)),
                    bin(Add, y(1), x(1), x(3)),
                    bin(Mul, y(2), x(0), x(1)),
                ],
                3,
            ),
            Shape::Mixed,
        ),
        (
            hand_unit(
                "reads_what_it_writes",
                vec![
                    bin(Add, y(0), x(0), x(2)),
                    bin(Add, y(1), x(1), x(3)),
                    bin(Mul, y(2), Value::Place(y(0)), x(4)),
                    bin(Mul, y(3), Value::Place(y(1)), x(5)),
                ],
                4,
            ),
            Shape::Scalar,
        ),
        (
            hand_unit(
                "integer_registers",
                vec![
                    Instr::Un {
                        op: UnOp::Copy,
                        dst: Place::R(0),
                        a: Value::Int(3),
                    },
                    bin(Mul, Place::R(1), Value::Place(Place::R(0)), Value::Int(2)),
                    bin(Add, y(0), x(0), x(2)),
                    bin(Add, y(1), x(1), x(3)),
                    bin(Mul, y(2), Value::Place(Place::R(1)), x(4)),
                    bin(Mul, y(3), Value::Place(Place::R(1)), x(5)),
                ],
                4,
            ),
            Shape::Scalar,
        ),
        (
            // (x0/x2, x6/x4) stored two doubles apart: as one quad its
            // operands are joined from the halves of two 32-byte loads,
            // and with the half moves counted twice the pairs print alone.
            hand_unit(
                "division",
                vec![
                    bin(Div, y(0), x(0), x(2)),
                    bin(Div, y(1), x(1), x(3)),
                    bin(Div, y(2), x(6), x(4)),
                    bin(Div, y(3), x(7), x(5)),
                ],
                4,
            ),
            Shape::Paired,
        ),
        (
            // f0 and f1 are read after the run (live out, so assigned
            // at its end); the run after the loop reads f1, which it did
            // not assign, so it stays scalar.
            hand_unit(
                "registers_across_a_loop",
                vec![
                    bin(Add, Place::F(0), x(0), x(2)),
                    bin(Add, Place::F(1), x(1), x(3)),
                    Instr::Un {
                        op: UnOp::Copy,
                        dst: y(0),
                        a: Value::f(0),
                    },
                    Instr::Un {
                        op: UnOp::Neg,
                        dst: y(1),
                        a: Value::f(1),
                    },
                    Instr::DoStart {
                        var: i0,
                        lo: 0,
                        hi: 1,
                        unroll: false,
                    },
                    bin(
                        Mul,
                        Place::Vec(VecRef {
                            kind: VecKind::Out,
                            idx: Affine {
                                c: 2,
                                terms: vec![(1, i0)],
                            },
                        }),
                        Value::f(0),
                        Value::Place(Place::Vec(VecRef {
                            kind: VecKind::In,
                            idx: Affine::var(i0),
                        })),
                    ),
                    Instr::DoEnd,
                    bin(Mul, y(4), Value::f(1), x(4)),
                    bin(Mul, y(5), Value::f(1), x(5)),
                ],
                6,
            ),
            Shape::Mixed,
        ),
    ];
    // Loop bodies. Each loads with stride 4 in `i0` (a packing candidate)
    // but two, which load `x[2*i0+…]`: stored `y[4*i0+…]`, as the
    // 128-point plan's first loop, gcc's to vectorise; stored
    // `y[8*i0+…]`, as the 256-point plan's, a lane nest, two iterations
    // per vector.
    use VecKind::{In, Out, Temp};
    let (xi, yi) = (|c| read_i0(In, 4, c), |c| at_i0(Out, 4, c));
    let sum_and_difference = |k| {
        vec![
            bin(Add, yi(0), read_i0(In, k, 0), read_i0(In, k, 2)),
            bin(Add, yi(1), read_i0(In, k, 1), read_i0(In, k, 3)),
            bin(Sub, yi(2), read_i0(In, k, 0), read_i0(In, k, 2)),
            bin(Sub, yi(3), read_i0(In, k, 1), read_i0(In, k, 3)),
        ]
    };
    let mut with_temp = hand_unit(
        "loop_reads_its_temp",
        two_trips(vec![
            bin(Add, at_i0(Temp(0), 4, 0), xi(0), xi(2)),
            bin(Add, at_i0(Temp(0), 4, 1), xi(1), xi(3)),
            bin(Mul, yi(0), read_i0(Temp(0), 4, 0), xi(2)),
            bin(Mul, yi(1), read_i0(Temp(0), 4, 1), xi(3)),
            bin(Sub, yi(2), xi(0), xi(2)),
            bin(Sub, yi(3), xi(1), xi(3)),
        ]),
        8,
    );
    with_temp.program.temps = vec![8];
    // Unit-stride bodies: every subscript steps by 2 in `i0`. They print
    // wide unless two iterations side by side could differ from one after
    // the other, or a lane would need a scalar statement.
    let (xu, yu) = (|c| read_i0(In, 2, c), |c| at_i0(Out, 2, c));
    let butterfly = |y: &dyn Fn(i64) -> Place, apart| {
        vec![
            bin(Add, y(0), xu(0), xu(4)),
            bin(Add, y(1), xu(1), xu(5)),
            bin(Sub, y(apart), xu(0), xu(4)),
            bin(Sub, y(apart + 1), xu(1), xu(5)),
        ]
    };
    let mut wide_reads_its_temp = hand_unit(
        "wide_reads_its_temp",
        two_trips(vec![
            bin(Add, at_i0(Temp(0), 2, 0), xu(0), xu(4)),
            bin(Add, at_i0(Temp(0), 2, 1), xu(1), xu(5)),
            bin(Mul, yu(0), read_i0(Temp(0), 2, 0), xu(4)),
            bin(Mul, yu(1), read_i0(Temp(0), 2, 1), xu(5)),
        ]),
        4,
    );
    wide_reads_its_temp.program.temps = vec![4];
    let wide_cases = vec![
        (
            hand_unit("wide_butterfly", two_trips(butterfly(&yu, 4)), 8),
            Shape::Wide,
        ),
        (
            // (x0, x1) in every iteration: a broadcast of the pair.
            hand_unit(
                "wide_broadcast_load",
                two_trips(vec![
                    bin(Mul, yu(0), xu(4), x(0)),
                    bin(Mul, yu(1), xu(5), x(1)),
                ]),
                4,
            ),
            Shape::Wide,
        ),
        (
            // Three trips: the last would have no partner.
            hand_unit(
                "wide_odd_trips",
                [
                    vec![do_to(0, 2)],
                    vec![bin(Add, yu(0), xu(0), xu(2)), bin(Add, yu(1), xu(1), xu(3))],
                    vec![Instr::DoEnd],
                ]
                .concat(),
                6,
            ),
            Shape::Scalar,
        ),
        (
            // Every iteration stores (y0, y1): the last one's stay.
            hand_unit(
                "wide_store_that_does_not_step",
                two_trips(butterfly(&y, 2)),
                4,
            ),
            Shape::Scalar,
        ),
        (
            // Iteration 0 stores (y2, y3) second, iteration 1 first.
            hand_unit("wide_stores_a_pair_apart", two_trips(butterfly(&yu, 2)), 6),
            Shape::Scalar,
        ),
        (wide_reads_its_temp, Shape::Scalar),
        (
            // f0 and f1 are read after the loop: the last trip's values.
            hand_unit(
                "wide_live_out_registers",
                [
                    two_trips(vec![
                        bin(Add, Place::F(0), xu(0), xu(4)),
                        bin(Add, Place::F(1), xu(1), xu(5)),
                        bin(Mul, yu(0), Value::f(0), xu(4)),
                        bin(Mul, yu(1), Value::f(1), xu(5)),
                    ]),
                    vec![
                        bin(Mul, y(4), Value::f(0), Value::f(1)),
                        bin(Sub, y(5), Value::f(1), Value::f(0)),
                    ],
                ]
                .concat(),
                6,
            ),
            Shape::Scalar,
        ),
    ];
    let loop_cases = vec![
        (
            hand_unit(
                "loop_reads_an_invariant_register",
                [
                    vec![bin(Mul, Place::F(0), x(0), x(1))],
                    two_trips(vec![
                        bin(Mul, yi(0), Value::f(0), xi(0)),
                        bin(Mul, yi(1), Value::f(0), xi(1)),
                        bin(Sub, yi(2), xi(2), xi(0)),
                        bin(Sub, yi(3), xi(3), xi(1)),
                    ]),
                ]
                .concat(),
                8,
            ),
            Shape::Scalar,
        ),
        (with_temp, Shape::Scalar),
        (
            hand_unit("unit_stride_loads", two_trips(sum_and_difference(2)), 8),
            Shape::Scalar,
        ),
        (
            // The same stored a line apart: a lane nest.
            hand_unit(
                "lanes_storing_a_line_apart",
                two_trips(vec![
                    bin(Add, at_i0(Out, 8, 0), read_i0(In, 2, 0), read_i0(In, 2, 2)),
                    bin(Add, at_i0(Out, 8, 1), read_i0(In, 2, 1), read_i0(In, 2, 3)),
                    bin(Sub, at_i0(Out, 8, 2), read_i0(In, 2, 0), read_i0(In, 2, 2)),
                    bin(Sub, at_i0(Out, 8, 3), read_i0(In, 2, 1), read_i0(In, 2, 3)),
                ]),
                12,
            ),
            Shape::Lanes,
        ),
        (
            hand_unit("strided_loads", two_trips(sum_and_difference(4)), 8),
            Shape::Paired,
        ),
        (
            // f0 and f1 are read after the loop: each trip assigns them
            // from the lanes of their pair.
            hand_unit(
                "strided_body_with_live_out_registers",
                [
                    two_trips(vec![
                        bin(Add, Place::F(0), xi(0), xi(2)),
                        bin(Add, Place::F(1), xi(1), xi(3)),
                        bin(Mul, yi(0), Value::f(0), xi(2)),
                        bin(Mul, yi(1), Value::f(1), xi(3)),
                        bin(Sub, yi(2), xi(0), xi(2)),
                        bin(Sub, yi(3), xi(1), xi(3)),
                    ]),
                    vec![
                        bin(Mul, y(8), Value::f(0), Value::f(1)),
                        bin(Sub, y(9), Value::f(1), Value::f(0)),
                    ],
                ]
                .concat(),
                10,
            ),
            Shape::Mixed,
        ),
        (
            // The `i2` loop reads f0 before the `i0` body assigns it: on
            // the second outer trip it reads the first trip's, which the
            // packed body must therefore still assign.
            hand_unit(
                "strided_body_read_by_the_next_outer_trip",
                [
                    vec![bin(Mul, Place::F(0), x(6), x(7))],
                    vec![do_to(1, 1), do_to(2, 0)],
                    vec![bin(
                        Mul,
                        Place::Vec(VecRef {
                            kind: Out,
                            idx: Affine {
                                c: 8,
                                terms: vec![(2, LoopVar(1)), (4, LoopVar(2))],
                            },
                        }),
                        Value::f(0),
                        read_i0(In, 0, 0),
                    )],
                    vec![Instr::DoEnd],
                    two_trips(vec![
                        bin(Add, Place::F(0), xi(0), xi(2)),
                        bin(Add, Place::F(1), xi(1), xi(3)),
                        bin(Mul, yi(0), Value::f(0), xi(2)),
                        bin(Mul, yi(1), Value::f(1), xi(3)),
                        bin(Sub, yi(2), xi(0), xi(2)),
                        bin(Sub, yi(3), xi(1), xi(3)),
                    ]),
                    vec![Instr::DoEnd],
                ]
                .concat(),
                12,
            ),
            Shape::Mixed,
        ),
    ];
    // Lane nests: `i0` around a leaf `i1` whose loads step by 2 in `i0`
    // and by 4 in `i1`, which writes t0, and a loop `i2` beside it, which
    // reads t0 and stores to y.
    let at2 = |kind, i0: i64, i: (u32, i64), c| {
        Place::Vec(VecRef {
            kind,
            idx: Affine {
                c,
                terms: [(i0, LoopVar(0)), (i.1, LoopVar(i.0))]
                    .into_iter()
                    .filter(|t| t.0 != 0)
                    .collect(),
            },
        })
    };
    let x01 = |c| Value::Place(at2(In, 2, (1, 4), c));
    let t1 = |c| at2(Temp(0), 0, (1, 2), c);
    let t2 = |c| Value::Place(at2(Temp(0), 0, (2, 2), c));
    let half = Value::Const(spl::numeric::Complex::real(0.5));
    let nest = |name: &str, y_step: i64, t0_read: i64| {
        let mut unit = hand_unit(
            name,
            [
                vec![do_to(0, 1), do_to(1, 1)],
                vec![
                    bin(Mul, t1(0), x01(0), half.clone()),
                    bin(Mul, t1(1), x01(1), half.clone()),
                ],
                vec![Instr::DoEnd, do_to(2, 1)],
                vec![
                    bin(Add, at2(Out, y_step, (2, 2), 0), t2(t0_read), t2(0)),
                    bin(Add, at2(Out, y_step, (2, 2), 1), t2(t0_read + 1), t2(1)),
                ],
                vec![Instr::DoEnd, Instr::DoEnd],
            ]
            .concat(),
            8,
        );
        unit.program.temps = vec![4 + t0_read as usize];
        unit
    };
    // Trip i0 writes t0 in `i2` and reads it in `i3` around the leaf `i1`,
    // and stores y 32 doubles on from trip i0-1.
    let pairs_of =
        |dst: &dyn Fn(i64) -> Place, a: &dyn Fn(i64) -> Value, b: &dyn Fn(i64) -> Value| {
            (0..2)
                .map(|k| bin(Add, dst(k), a(k), b(k)))
                .collect::<Vec<_>>()
        };
    let y32 = |c0| move |c| at2(Out, 32, (1, 2), c0 + c);
    let t3 = |c| Value::Place(at2(Temp(0), 0, (3, 2), c));
    let mut before = hand_unit(
        "lanes_with_rest_before_the_leaf",
        [
            vec![do_to(0, 1), do_to(2, 1)],
            pairs_of(
                &|c| at2(Temp(0), 0, (2, 2), c),
                &|c| Value::Place(at2(In, 0, (2, 2), c)),
                &|_| half.clone(),
            ),
            vec![Instr::DoEnd, do_to(1, 1)],
            pairs_of(&y32(0), &x01, &|_| half.clone()),
            vec![Instr::DoEnd, do_to(3, 1)],
            pairs_of(&|c| at2(Out, 32, (3, 2), 8 + c), &t3, &t3),
            vec![Instr::DoEnd, Instr::DoEnd],
        ]
        .concat(),
        44,
    );
    before.program.temps = vec![4];
    let nest_cases = vec![
        (before, Shape::Lanes),
        // Every element of t0 the `i2` loop reads the leaf wrote in the same
        // `i0` trip, and y's elements of trips 0 and 1 lie 4 apart.
        (nest("nest_around_a_private_temporary", 4, 0), Shape::Lanes),
        // Trips 0 and 1 store y 2 apart over a span of 4: no nest.
        (nest("nest_whose_trips_overlap", 2, 0), Shape::Wide),
        // The `i2` loop reads t0 elements no `i0` trip writes: no nest.
        (nest("nest_reading_what_no_trip_wrote", 4, 2), Shape::Wide),
        (
            // The would-be leaf pairs `x1 * x5` beside `x0 - x4`, lanes of
            // their own: no nest, and scalar statements as before.
            hand_unit(
                "nest_with_a_scalar_lane",
                two_trips(vec![
                    bin(Add, yi(0), xu(0), xu(4)),
                    bin(Add, yi(1), xu(1), xu(5)),
                    bin(Sub, yi(2), xu(0), xu(4)),
                    bin(Mul, yi(3), xu(1), xu(5)),
                ]),
                8,
            ),
            Shape::Scalar,
        ),
    ];
    // Runs outside any loop on quads: two pairs two doubles apart per
    // 32-byte vector, what the pair form prints beside them.
    let lanes = |op, c: i64, a: &dyn Fn(i64) -> Value, b: &dyn Fn(i64) -> Value| {
        (0..2)
            .map(|k| bin(op, y(c + k), a(k), b(k)))
            .collect::<Vec<_>>()
    };
    let at = |c: i64| move |k| x(c + k);
    let f = |k: u32| move |j: i64| Value::f(k + j as u32);
    let to_f = |k: u32, a: &dyn Fn(i64) -> Value, b: &dyn Fn(i64) -> Value| {
        (0..2u32)
            .map(|j| bin(Add, Place::F(k + j), a(j.into()), b(j.into())))
            .collect::<Vec<_>>()
    };
    let copies = |c: i64, k: u32| {
        (0..2)
            .map(|j| Instr::Un {
                op: UnOp::Copy,
                dst: y(c + j),
                a: Value::f(k + j as u32),
            })
            .collect::<Vec<_>>()
    };
    let swap = [(4, 3), (5, 2)].map(|(c, a)| Instr::Un {
        op: UnOp::Copy,
        dst: y(c),
        a: x(a),
    });
    let quad_cases = vec![
        (
            // (x2 * x4, x6 * x0): both operands joined from two quads'
            // halves; beside it a sum of the quads, so that the joins pay.
            hand_unit(
                "quad_joins_halves_of_two_quads",
                [
                    lanes(Mul, 0, &at(2), &at(4)),
                    lanes(Mul, 2, &at(6), &at(0)),
                    lanes(Add, 4, &at(0), &at(4)),
                    lanes(Add, 6, &at(2), &at(6)),
                ]
                .concat(),
                8,
            ),
            Shape::Quads,
        ),
        (
            // A product of quads, and (x3, x2) on pairs: lanes 2–3 taken out.
            hand_unit(
                "quad_half_taken_out_for_a_pair",
                [
                    lanes(Mul, 0, &at(0), &at(4)),
                    lanes(Mul, 2, &at(2), &at(6)),
                    swap.to_vec(),
                ]
                .concat(),
                6,
            ),
            Shape::Quads,
        ),
        (
            hand_unit(
                "quad_add_beside_sub",
                [lanes(Add, 0, &at(0), &at(4)), lanes(Sub, 2, &at(2), &at(6))].concat(),
                4,
            ),
            Shape::Quads,
        ),
        (
            // Sums stored six doubles apart: two 16-byte halves; the
            // products between them in place.
            hand_unit(
                "quad_store_split",
                [
                    lanes(Add, 0, &at(0), &at(4)),
                    lanes(Mul, 2, &at(0), &at(4)),
                    lanes(Mul, 4, &at(2), &at(6)),
                    lanes(Add, 6, &at(2), &at(6)),
                ]
                .concat(),
                8,
            ),
            Shape::Quads,
        ),
        (
            // Each op reads both halves of one quad: pairs take fewer
            // statements, and print alone.
            hand_unit(
                "quads_no_shorter",
                [lanes(Add, 0, &at(0), &at(2)), lanes(Mul, 2, &at(4), &at(6))].concat(),
                4,
            ),
            Shape::Paired,
        ),
        (
            // The quad (a, b) reads (c, d), which reads it: pairs alone.
            hand_unit(
                "quads_in_a_circle",
                [
                    to_f(0, &at(4), &at(6)),
                    to_f(2, &at(0), &at(2)),
                    copies(0, 2),
                    lanes(Add, 2, &f(0), &at(4)),
                    lanes(Add, 4, &f(2), &at(6)),
                    copies(6, 0),
                ]
                .concat(),
                8,
            ),
            Shape::Paired,
        ),
    ];
    let mut cases: Vec<(CompiledUnit, Shape, bool)> = cases
        .into_iter()
        .chain(loop_cases)
        .chain(wide_cases)
        .chain(nest_cases)
        .chain(quad_cases)
        .map(|(u, s)| (u, s, true))
        .collect();
    // Compiled units: -O0 keeps the temporaries, which a run reads and
    // writes; the paper's peepholes and offset/stride entry points are
    // scalar by option. Their text is the scalar emitter's, which at -O0
    // sets integer registers nothing reads: compiled without -Werror.
    let fft8 = "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))) (L 8 2))";
    for (name, opts) in [
        (
            "opt_level_none",
            CompilerOptions {
                opt_level: OptLevel::None,
                ..Default::default()
            },
        ),
        (
            "peephole",
            CompilerOptions {
                peephole: true,
                ..Default::default()
            },
        ),
        (
            "io_params",
            CompilerOptions {
                io_params: true,
                ..Default::default()
            },
        ),
    ] {
        let mut compiler = Compiler::with_options(CompilerOptions {
            unroll_threshold: Some(64),
            language_override: Some(Language::C),
            ..opts
        });
        let sexp = spl::frontend::parser::parse_formula(fft8).unwrap();
        let mut unit = compiler.compile_sexp(&sexp, &directives()).unwrap();
        unit.name = name.into();
        cases.push((unit, Shape::Scalar, false));
    }

    let baseline = CcTarget::with_isa_tokens(&[]);
    for (unit, shape, strict) in &cases {
        let name = &unit.name;
        let (c, stats) = emit_stats(unit);
        let got = match (stats.lane_nests, stats.wide_loops) {
            (1.., _) => Shape::Lanes,
            (_, 1..) => Shape::Wide,
            _ if stats.quad_stmts > 0 => Shape::Quads,
            _ => match (stats.paired_stmts, stats.scalar_stmts) {
                (0, _) => Shape::Scalar,
                (_, 0) => Shape::Paired,
                _ => Shape::Mixed,
            },
        };
        assert_eq!(got, *shape, "{name}: {stats:?}\n{c}");
        assert_eq!(c.contains("spl_v2d"), got != Shape::Scalar, "{name}:\n{c}");
        if name == "lanes_with_rest_before_the_leaf" {
            // Lane loops around the `i2` and `i3` loops, which step t0 to
            // lane 1's copy and, after the leaf, y to trip i0+1's.
            let (plain, avx) = (compiled_with(&c, false), compiled_with(&c, true));
            assert_eq!(lane_loops(&avx, &plain), 2, "{name}:\n{c}");
            assert_eq!(
                loops_naming(&avx, "spl_v4d"),
                ["i2", "i1", "i3"],
                "{name}:\n{c}"
            );
            assert_eq!(loops_naming(&plain, "spl_v2d"), ["i1"], "{name}:\n{c}");
            for shadow in ["*t0 = lane_t0;", "*restrict y = lane_y;"] {
                assert!(avx.contains(shadow), "{name}: no {shadow}\n{c}");
            }
            assert_eq!((stats.packed_loops, stats.wide_loops), (1, 2), "{name}");
        } else if name.starts_with("nest_") {
            // The leaf on pairs, the `i2` loop wide: with a nest, only
            // where AVX is not.
            let lanes = got == Shape::Lanes;
            assert_eq!(
                stats.packed_loops,
                u64::from(got != Shape::Scalar),
                "{name}"
            );
            let (plain, avx) = (compiled_with(&c, false), compiled_with(&c, true));
            assert_eq!(lane_loops(&avx, &plain), 0, "{name}:\n{c}");
            assert_eq!(c.contains("if ((i0 & 1) == 0) {"), lanes, "{name}:\n{c}");
            let leaf = if lanes { "i1" } else { "i2" };
            let v4d: &[&str] = if got == Shape::Scalar {
                &[]
            } else {
                &[leaf, "i2"][usize::from(!lanes)..]
            };
            assert_eq!(loops_naming(&avx, "spl_v4d"), v4d, "{name}:\n{c}");
            if lanes {
                assert!(
                    c.contains("static double t0[8];\n#else\n  static double t0[4];"),
                    "{c}"
                );
            }
        } else {
            let packed_loop = name.starts_with("strided_");
            assert_eq!(stats.packed_loops, u64::from(packed_loop), "{name}");
            let in_i0 = |yes: bool| if yes { vec!["i0"] } else { vec![] };
            assert_eq!(loops_naming(&c, "spl_v2d"), in_i0(packed_loop), "{name}");
            assert_eq!(
                loops_naming(&c, "spl_v4d"),
                in_i0(matches!(got, Shape::Wide | Shape::Lanes)),
                "{name}"
            );
        }
        if *strict {
            assert_compiles_clean(name, &c);
        } else {
            assert_compiles(name, &c, &[]);
        }
        // A native build prints every unit without peepholes or
        // offset/stride parameters.
        let kernel = NativeKernel::compile(unit).unwrap();
        assert_bitwise_vm(name, unit, &kernel);
        let kernel = NativeKernel::compile_for(unit, &baseline).unwrap();
        assert_bitwise_vm(&format!("{name} at the baseline line"), unit, &kernel);
        let quad_text = match name.as_str() {
            "quad_joins_halves_of_two_quads" => "v2 = __builtin_shufflevector(v0, v1, 2, 3, 6, 7);",
            "quad_half_taken_out_for_a_pair" => {
                "spl_v2d v3 = __builtin_shufflevector(v0, v0, 2, 3);"
            }
            "quad_add_beside_sub" => "__builtin_shufflevector(v0 - v1, v0 + v1, 4, 5, 2, 3);",
            "quad_store_split" => {
                "v5 = __builtin_shufflevector(v2, v2, 2, 3);\n  *(spl_v2du *)&y[6] = v5;"
            }
            _ => "",
        };
        assert!(c.contains(quad_text), "{name}: no `{quad_text}`:\n{c}");
        assert_eq!(
            c.contains("#if defined(__AVX__)\n"),
            matches!(got, Shape::Wide | Shape::Lanes | Shape::Quads),
            "{name}"
        );
        if name == "wide_broadcast_load" {
            let broadcast = "(spl_v4d){x[0], x[1], x[0], x[1]}";
            assert!(c.contains(broadcast), "{name}:\n{c}");
        }
        if name == "registers_across_a_loop" {
            // Both registers get their values from lanes of the pair.
            for f in ["  f0 = v", "  f1 = v"] {
                assert!(c.contains(f), "{name}: no `{f}`:\n{c}");
            }
        }
        if name == "strided_body_with_live_out_registers" {
            for f in ["    f0 = v", "    f1 = v"] {
                assert!(c.contains(f), "{name}: no `{f}` in the loop:\n{c}");
            }
        }
        if name == "strided_body_read_by_the_next_outer_trip" {
            assert!(c.contains("      f0 = v"), "{name}:\n{c}");
        }
    }
}
