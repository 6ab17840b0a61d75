//! `splfuzz` — differential fuzzing for the SPL compiler pipeline.
//!
//! Generates seeded random formulas over the full SPL operator
//! vocabulary, checks the dense-matrix reference against the i-code
//! interpreter (and, with `--native`, the sandboxed C kernel), and
//! writes a minimized reproducer for the first bug of every class.
//! Exits nonzero when any bug is found, so it slots directly into CI.

use std::path::PathBuf;
use std::process::ExitCode;

use spl::fuzz::{run, FuzzConfig};
use spl::telemetry::cli::ReportOptions;
use spl::telemetry::RunReport;
use spl::telemetry::{out, outln};

const USAGE: &str = "\
usage: splfuzz [options]

  --seed <n>     master seed for the formula generator (default 1)
  --count <n>    number of formulas to generate (default 100)
  --max-size <n> largest vector size generated (default 64)
  --max-depth <n>
                 deepest operator nesting generated (default 8)
  --p-invalid <f>
                 probability a formula is mutated invalid (default 0.15)
  --native       also run the cc-compiled kernel in a fork sandbox
  --vm-engine    also cross-check the VM's resolved engine against its
                 reference executor (bit-identical outputs required)
  --localize     recompile each shrunk reproducer under per-pass
                 translation validation and name the optimization pass
                 (if any) that miscompiles it
  --inject-buggy-pass
                 append a deliberately miscompiling pass to every
                 compile (implies --vm-engine; exercises --localize)
  --no-shrink    report bugs unminimized
  --out <dir>    reproducer directory (default results/fuzz)
  --no-out       do not write reproducer files
  -h, --help     print this help
";

fn fail(msg: &str) -> ExitCode {
    eprintln!("splfuzz: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = FuzzConfig::default();
    let mut reporting = ReportOptions::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match reporting.accept(a, &mut it) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => return fail(&e),
        }
        match a.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed = n,
                None => return fail("--seed requires an integer"),
            },
            "--count" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.count = n,
                None => return fail("--count requires an integer"),
            },
            "--max-size" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.gen.max_size = n,
                None => return fail("--max-size requires an integer"),
            },
            "--max-depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.gen.max_depth = n,
                None => return fail("--max-depth requires an integer"),
            },
            "--p-invalid" => match it.next().and_then(|v| v.parse().ok()) {
                Some(p) => cfg.gen.p_invalid = p,
                None => return fail("--p-invalid requires a probability"),
            },
            "--native" => cfg.oracle.native = true,
            "--vm-engine" => cfg.oracle.vm_engine = true,
            "--localize" => cfg.localize = true,
            "--inject-buggy-pass" => {
                cfg.oracle.inject_buggy_pass = true;
                cfg.oracle.vm_engine = true;
            }
            "--no-shrink" => cfg.shrink = false,
            "--out" => match it.next() {
                Some(dir) => cfg.out_dir = Some(PathBuf::from(dir)),
                None => return fail("--out requires a directory"),
            },
            "--no-out" => cfg.out_dir = None,
            "-h" | "--help" => {
                out!("{USAGE}{}", spl::telemetry::cli::USAGE);
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown option {other} (try --help)")),
        }
    }

    let mut report = run(&cfg);
    outln!(
        "splfuzz: {} cases (seed {}): {} agree-ok, {} agree-reject, {} skipped, {} bug class{}{}",
        report.total(),
        cfg.seed,
        report.agree_ok,
        report.agree_reject,
        report.skipped,
        report.bugs.len(),
        if report.bugs.len() == 1 { "" } else { "es" },
        if report.duplicate_bugs > 0 {
            format!(" (+{} duplicates)", report.duplicate_bugs)
        } else {
            String::new()
        },
    );
    for bug in &report.bugs {
        outln!(
            "  [{}] case {}: {} ({})",
            bug.bug.class,
            bug.case,
            bug.shrunk,
            bug.bug.detail
        );
        if let Some(pass) = &bug.guilty_pass {
            outln!("        guilty pass: {pass}");
        } else if cfg.localize {
            outln!("        guilty pass: none (not an optimizer miscompile)");
        }
        if let Some(path) = &bug.file {
            outln!("        reproducer: {}", path.display());
        }
    }
    let mut rep = RunReport::new("splfuzz");
    rep.meta("seed", &cfg.seed.to_string());
    rep.meta("count", &cfg.count.to_string());
    rep.meta("bug_classes", &report.bugs.len().to_string());
    if cfg.oracle.native {
        let target = spl::native::CcTarget::host();
        rep.meta("native.isa", &target.isa_label());
        target.report(&mut report.telemetry);
    }
    rep.push_section("fuzz", report.telemetry);
    if let Err(e) = reporting.finish(&rep) {
        return fail(&e);
    }
    if report.bugs.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
