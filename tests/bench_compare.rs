//! The one decision `scripts/bench-compare.sh` takes — a `regressed` row
//! fails, an `unresolved` row is shown and passes, a comparison that
//! printed no verdict row fails — checked on canned `run.sh --compare`
//! output, without running a benchmark. The script defines its functions
//! and runs nothing when it is sourced.
//!
//! The tables are pasted from real `--compare` output (PR 20's own first
//! base-vs-head run, one workload's ten rows each; the `regressed` row is
//! the `setup_s` false alarm EXPERIMENTS.md § *One perf gate* describes),
//! so that a change of the column layout shows up here and not as a gate
//! that passes every PR.

#![cfg(unix)]

use std::io::Write;
use std::process::{Command, Stdio};

/// Pipes `table` through the script's `verdict`; stdout and exit code.
fn verdict(table: &str) -> (String, i32) {
    let mut child = Command::new("bash")
        .args(["-c", "source scripts/bench-compare.sh && verdict"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bash");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(table.as_bytes())
        .expect("write table");
    let out = child.wait_with_output().expect("bash");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.code().expect("exit code"),
    )
}

const HEADER: &str = "
A = /root/scratch/tmp/tmp.xbKJHGAogG/base-1.json (base), B = /root/scratch/tmp/tmp.xbKJHGAogG/head.json
workload   metric                    median A      median B     B/A  worse by  bound  spread  verdict
";

const ALL_OK: &str = "\
serve      setup_s                     4.4564        4.3421   0.974     -2.6%    25%    0.0%  ok
serve      compile_ms                  7.7027        7.5790   0.984     -1.6%    25%   10.5%  ok
serve      native_mflops           12885.7626    12824.7622   0.995      0.5%    25%    2.0%  ok
serve      vm_mflops                1571.8917     1712.6835   1.090     -9.0%    25%    2.9%  ok
serve      minifft_mflops           6355.1288     6154.9738   0.969      3.1%    25%   10.8%  ok
serve      search_cold_s               0.3578        0.3614   1.010      1.0%    25%    5.0%  ok
serve      search_warm_ms              4.1924        3.8943   0.929     -7.1%    25%   10.5%  ok
serve      serve_rps               21301.1260    20894.2968   0.981      1.9%    25%    8.7%  ok
serve      serve_small_p50_us          6.8940        6.7825   0.984     -1.6%    25%    2.6%  ok
serve      serve_large_p50_us        319.0135      319.5265   1.002      0.2%    25%    5.3%  ok
";

const ONE_UNRESOLVED: &str = "\
search     setup_s                     5.1256        4.6447   0.906     -9.4%    25%    0.0%  ok
search     compile_ms                  8.1587        7.7112   0.945     -5.5%    25%    6.6%  ok
search     native_mflops           12706.2752    12945.4810   1.019     -1.9%    25%    1.5%  ok
search     vm_mflops                1547.1302     1662.2117   1.074     -7.4%    25%    2.4%  ok
search     minifft_mflops           6011.4806     6136.7652   1.021     -2.1%    25%   27.3%  unresolved
search     search_cold_s               0.6923        0.6250   0.903     -9.7%    25%   15.0%  ok
search     search_warm_ms              4.4476        4.3037   0.968     -3.2%    25%    4.4%  ok
search     serve_rps               21235.2942    20878.5048   0.983      1.7%    25%    7.8%  ok
search     serve_small_p50_us          6.9395        6.8110   0.981     -1.9%    25%    2.5%  ok
search     serve_large_p50_us        319.2805      328.2725   1.028      2.8%    25%    7.3%  ok
";

const ONE_REGRESSED: &str = "\
fft-large  setup_s                     6.9490        8.8262   1.270     27.0%    25%    0.0%  regressed
fft-large  compile_ms                 10.2118       10.5988   1.038      3.8%    25%    2.6%  ok
fft-large  native_mflops           13493.2352    12938.7183   0.959      4.1%    25%    5.8%  ok
fft-large  vm_mflops                1664.9421     1724.5538   1.036     -3.6%    25%    5.9%  ok
fft-large  minifft_mflops           5118.3457     5083.6956   0.993      0.7%    25%    2.9%  ok
fft-large  search_cold_s               0.3462        0.3692   1.066      6.6%    25%    5.2%  ok
fft-large  search_warm_ms              3.6887        4.0670   1.103     10.3%    25%    5.9%  ok
fft-large  serve_rps               21025.2213    19542.9538   0.930      7.0%    25%    9.4%  ok
fft-large  serve_small_p50_us          6.9385        6.9430   1.001      0.1%    25%    1.8%  ok
fft-large  serve_large_p50_us        317.3920      337.7550   1.064      6.4%    25%    7.8%  ok
";

#[test]
fn every_row_ok_passes() {
    let (out, code) = verdict(&format!("{HEADER}{ALL_OK}"));
    assert_eq!(code, 0, "{out}");
    assert_eq!(
        out,
        format!("{HEADER}{ALL_OK}"),
        "the table is printed as is"
    );
}

#[test]
fn an_unresolved_row_is_shown_and_passes() {
    let (out, code) = verdict(&format!("{HEADER}{ONE_UNRESOLVED}"));
    assert_eq!(code, 0, "{out}");
    let shown: Vec<&str> = out.lines().filter(|l| l.ends_with("unresolved")).collect();
    assert_eq!(shown.len(), 1, "{out}");
    assert!(ONE_UNRESOLVED.contains(shown[0]));
}

#[test]
fn a_regressed_row_fails() {
    let (out, code) = verdict(&format!("{HEADER}{ONE_REGRESSED}"));
    assert_eq!(code, 1, "{out}");
    assert!(out.lines().any(|l| l.ends_with("regressed")), "{out}");
}

#[test]
fn a_refused_comparison_prints_no_row_and_fails() {
    // `--compare` across machines writes its refusal to stderr and
    // nothing to stdout.
    assert_eq!(verdict("").1, 1);
    // A header without rows is no evidence either.
    assert_eq!(verdict(HEADER).1, 1);
}
