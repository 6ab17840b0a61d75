//! Smoke tests: every figure binary runs to completion in `--quick` mode
//! and prints its table.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("running {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn table1_prints_platforms() {
    let out = run(env!("CARGO_BIN_EXE_table1"), &[]);
    assert!(out.contains("UltraSPARC II"));
    assert!(out.contains("host platform"));
}

#[test]
fn fig2_prints_three_levels() {
    let out = run(env!("CARGO_BIN_EXE_fig2"), &["--quick"]);
    assert!(out.contains("no optimization"));
    assert!(out.contains("scalar temporary"));
    assert!(out.contains("default optimization"));
    assert!(out.contains("1.000"));
}

#[test]
fn fig3_prints_both_series() {
    let out = run(env!("CARGO_BIN_EXE_fig3"), &["--quick"]);
    assert!(out.contains("FFTW codelet"));
    assert!(out.contains("SPL/FFTW"));
}

#[test]
#[ignore = "~75 s in debug: run with --ignored (CI's test job does)"]
fn fig4_prints_three_series() {
    let out = run(env!("CARGO_BIN_EXE_fig4"), &["--quick"]);
    assert!(out.contains("FFTW estimate"));
    assert!(out.contains("2^7"));
}

#[test]
fn fig5_prints_memory() {
    let out = run(env!("CARGO_BIN_EXE_fig5"), &["--quick"]);
    assert!(out.contains("KB"));
    assert!(out.contains("FFTW (measured)"));
}

#[test]
fn fig6_prints_errors() {
    let out = run(env!("CARGO_BIN_EXE_fig6"), &["--quick"]);
    assert!(out.contains("relative error"));
    assert!(out.contains("2^1"));
    // Errors are tiny.
    assert!(out.contains("e-1"), "expected scientific-notation errors");
}

#[test]
fn codesize_prints_ratios() {
    let out = run(env!("CARGO_BIN_EXE_codesize"), &["--quick"]);
    assert!(out.contains("ratio vs 2^7"));
}

#[test]
#[ignore = "~140 s in debug: run with --ignored (CI's test job does)"]
fn ablation_prints_three_sections() {
    let out = run(env!("CARGO_BIN_EXE_ablation"), &["--quick"]);
    assert!(out.contains("k-best"));
    assert!(out.contains("unroll threshold"));
    assert!(out.contains("breakdown rule"));
}

#[test]
fn transforms_prints_wht_and_dct() {
    let out = run(env!("CARGO_BIN_EXE_transforms"), &["--quick"]);
    assert!(out.contains("WHT search winners"));
    assert!(out.contains("DCT-IV"));
}
