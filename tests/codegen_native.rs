//! Target-code tests: the emitted C is compiled by the host compiler and
//! executed, and must agree bit-for-bit with the VM and within rounding
//! with the dense oracle; the emitted Fortran is checked structurally (no
//! Fortran compiler on the host — see DESIGN.md, substitution 5).

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

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
        let kernel = NativeKernel::compile_for(&unit, &BuildOptions::default(), &baseline).unwrap();
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
                let kernel = NativeKernel::compile(&unit).unwrap();
                assert_bitwise_vm(&format!("{rule:?} 2^{k} -B {threshold}"), &unit, &kernel);
            }
        }
    }
    assert!(
        totals.packed_loops > 0 && totals.wide_loops > 0,
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
    let cache = KernelCache::in_memory();
    let (ka, _) = NativeKernel::compile_cached(a, &opts, &cache).unwrap();
    let (kb, _) = NativeKernel::compile_cached(b, &opts, &cache).unwrap();
    assert!(ka.cache_key().is_some());
    assert_eq!(ka.cache_key(), kb.cache_key(), "same text");
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
        assert_eq!(c.matches("#ifndef SPL_V2D").count(), 1, "plan {n}");
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

/// The wide loops' guard, one per wide loop (the 32-byte types' guard
/// goes on to name `SPL_V4D`).
const AVX_GUARD: &str = "#if defined(__AVX__)\n";

/// Which loop bodies of the looped plans whose size passes `sizes` print
/// on pairs, and which wide. On pairs: the innermost one whose loads
/// stride past a complex value per iteration (`x[2*i0+16*i1+…]` in
/// `i1`). Wide, under `#if defined(__AVX__)` beside their scalar form:
/// those whose every subscript steps by one complex value per iteration
/// (a load may also not step). gcc vectorises the rest itself: the
/// first loops of 2^7 and 2^8, whose stores step by two complex values.
fn loop_forms(sizes: impl Fn(usize) -> bool) {
    for (n, unit) in benchmark_plans(|n| n >= 128 && sizes(n)) {
        let (c, stats) = emit_stats(&unit);
        let (pairs, wide): (&[&str], &[&str]) = match n {
            128 => (&[], &["i2"]),
            256 => (&[], &["i8"]),
            1024 => (&["i1"], &["i11", "i19"]),
            4096 => (&["i1"], &["i12", "i28"]),
            16384 => (&["i1"], &["i15", "i31"]),
            65536 => (&["i2"], &["i13", "i29", "i37"]),
            _ => unreachable!("plan {n}"),
        };
        assert_eq!(loops_naming(&c, "spl_v2d"), pairs, "plan {n}");
        assert_eq!(loops_naming(&c, "spl_v4d"), wide, "plan {n}");
        assert_eq!(
            stats.packed_loops,
            pairs.len() as u64,
            "plan {n}: {stats:?}"
        );
        assert_eq!(stats.wide_loops, wide.len() as u64, "plan {n}: {stats:?}");
        assert_eq!(c.matches(AVX_GUARD).count(), wide.len(), "plan {n}");
    }
}

#[test]
fn strided_bodies_print_on_pairs_and_unit_stride_bodies_wide() {
    loop_forms(|n| n <= 1 << 14);
}

/// The twelve plans in one file, as `spl-minifft`'s `codelets.c` holds
/// its six: the preambles' guards admit the later units, and no unused
/// declaration is left behind, in straight-line code or in loops, on
/// either side of a wide loop's `#if`.
#[test]
fn packed_plans_compile_clean_under_wall_werror() {
    let text: String = benchmark_plans(|_| true)
        .iter()
        .map(|(n, unit)| {
            let c = spl::compiler::codegen::emit(&format!("plan{n}"), &unit.program, &unit.codegen);
            assert_eq!(c.contains(AVX_GUARD), *n >= 128, "plan {n}");
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
    // but the last but one, which loads `x[2*i0+…]` and stores
    // `y[4*i0+…]`, as the 256-point plan's loops do: gcc's to vectorise.
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
    let mut cases: Vec<(CompiledUnit, Shape, bool)> = cases
        .into_iter()
        .chain(loop_cases)
        .chain(wide_cases)
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
        let got = match (stats.wide_loops, stats.paired_stmts, stats.scalar_stmts) {
            (1.., _, _) => Shape::Wide,
            (_, 0, _) => Shape::Scalar,
            (_, _, 0) => Shape::Paired,
            _ => Shape::Mixed,
        };
        assert_eq!(got, *shape, "{name}: {stats:?}\n{c}");
        let packed_loop = name.starts_with("strided_");
        assert_eq!(stats.packed_loops, u64::from(packed_loop), "{name}");
        let in_i0 = |yes: bool| if yes { vec!["i0"] } else { vec![] };
        assert_eq!(loops_naming(&c, "spl_v2d"), in_i0(packed_loop), "{name}");
        assert_eq!(
            loops_naming(&c, "spl_v4d"),
            in_i0(got == Shape::Wide),
            "{name}"
        );
        assert_eq!(c.contains("spl_v2d"), got != Shape::Scalar, "{name}:\n{c}");
        if *strict {
            assert_compiles_clean(name, &c);
        } else {
            assert_compiles(name, &c, &[]);
        }
        // A native build prints every unit without peepholes or
        // offset/stride parameters.
        let kernel = NativeKernel::compile(unit).unwrap();
        assert_bitwise_vm(name, unit, &kernel);
        let kernel = NativeKernel::compile_for(unit, &BuildOptions::default(), &baseline).unwrap();
        assert_bitwise_vm(&format!("{name} at the baseline line"), unit, &kernel);
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
