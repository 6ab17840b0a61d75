#![warn(missing_docs)]

//! Shared harness utilities for the paper-reproduction benchmarks.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md for the experiment index):
//!
//! | binary     | reproduces |
//! |------------|------------|
//! | `table1`   | Table 1 — experiment platform(s) |
//! | `fig2`     | Figure 2 — effect of basic optimizations |
//! | `fig3`     | Figure 3 — small-size FFT performance |
//! | `fig4`     | Figure 4 — large-size FFT performance |
//! | `fig5`     | Figure 5 — memory consumption |
//! | `fig6`     | Figure 6 — accuracy |
//! | `codesize` | Section 4.2 code-size growth claim |

use std::time::Duration;

use spl_numeric::Complex;
use spl_telemetry::cli::ReportOptions;
use spl_telemetry::{RunReport, Stopwatch};
use spl_vm::{VmProgram, VmState};

/// Default minimum measurement time per data point.
pub const MEASURE_TIME: Duration = Duration::from_millis(20);

/// Runs a figure/table binary under a [`RunReport`], then writes the
/// report next to the figure's text output as
/// `results/<tool>.telemetry.json` (or `--telemetry-json <path>`).
///
/// Every experiment binary wraps its `main` body in this, so each
/// `results/` artifact ships with a machine-readable record of what was
/// measured and how long it took. The shared reporting flags
/// (`--stats`, `--trace-json`, `--trace-chrome`; see
/// [`spl_telemetry::cli`]) are honored by every wrapped binary.
pub fn with_report(tool: &str, f: impl FnOnce(&mut RunReport)) {
    let opts = match ReportOptions::from_env() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{tool}: {e}");
            std::process::exit(2);
        }
    };
    let mut report = RunReport::new(tool);
    if quick_mode() {
        report.meta("quick", "true");
    }
    let sw = Stopwatch::start();
    f(&mut report);
    let mut total = spl_telemetry::Telemetry::new();
    total.record_span("total", sw.elapsed());
    report.push_section("run", total);
    let path =
        arg_value("--telemetry-json").unwrap_or_else(|| format!("results/{tool}.telemetry.json"));
    let path = std::path::PathBuf::from(path);
    // Results dir may not exist when a binary is run outside the
    // experiment script; skip the artifact rather than fail the run.
    let dir_missing = path
        .parent()
        .is_some_and(|d| !d.as_os_str().is_empty() && !d.exists());
    if dir_missing {
        eprintln!(
            "note: {} not present, skipping telemetry artifact",
            path.parent().unwrap().display()
        );
    } else {
        match report.write_to_file(&path) {
            Ok(()) => eprintln!("telemetry: {}", path.display()),
            Err(e) => eprintln!("note: could not write {}: {e}", path.display()),
        }
    }
    if let Err(e) = opts.finish(&report) {
        eprintln!("{tool}: {e}");
        std::process::exit(1);
    }
}

/// Parses a `--flag value` style option from `std::env::args`.
fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Like [`arg_value`], but parses the value into `T` and makes an
/// unparsable value a **hard error** (exit 2). A silent `.ok()`
/// fallback here would let a typo'd `--max-log2 1O` run the default
/// sweep without anyone noticing.
pub fn arg_value_parsed<T: std::str::FromStr>(name: &str) -> Option<T> {
    arg_value(name).map(|v| match v.parse() {
        Ok(x) => x,
        Err(_) => {
            eprintln!(
                "error: {name} {v:?} is not a valid {}",
                std::any::type_name::<T>()
            );
            std::process::exit(2);
        }
    })
}

/// True when `--quick` was passed (smaller sweeps for smoke tests).
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// A deterministic complex workload (same data for every candidate).
pub fn workload(n: usize) -> Vec<Complex> {
    let mut rng = spl_numeric::rng::Rng::new(0x5915_u64 + n as u64);
    (0..n)
        .map(|_| Complex::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
        .collect()
}

/// Runs a compiled SPL FFT on a complex vector.
pub fn run_fft(vm: &VmProgram, x: &[Complex]) -> Vec<Complex> {
    let flat = spl_vm::convert::interleave(x);
    let mut y = vec![0.0; vm.n_out];
    let mut st = VmState::new(vm);
    vm.run(&flat, &mut y, &mut st);
    spl_vm::convert::deinterleave(&y)
}

/// Runs the *inverse* FFT through a forward SPL program using
/// `IDFT(x) = conj(DFT(conj(x))) / n`.
pub fn run_ifft(vm: &VmProgram, x: &[Complex]) -> Vec<Complex> {
    let n = x.len();
    let conj: Vec<Complex> = x.iter().map(|z| z.conj()).collect();
    let y = run_fft(vm, &conj);
    y.into_iter().map(|z| z.conj() * (1.0 / n as f64)).collect()
}

/// Prints a header and aligned numeric rows (simple fixed-width table).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n{title}");
    println!("{}", "-".repeat(title.len()));
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(c, h)| {
            rows.iter()
                .map(|r| r.get(c).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_generator::fft::{FftTree, Rule};
    use spl_search::compile_tree;

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(workload(8), workload(8));
        assert_ne!(workload(8), workload(16)[..8].to_vec());
    }

    #[test]
    fn fft_and_inverse_round_trip() {
        let t = FftTree::node(Rule::CooleyTukey, FftTree::leaf(4), FftTree::leaf(4));
        let vm = compile_tree(&t, 64).unwrap();
        let x = workload(16);
        let y = run_fft(&vm, &x);
        let back = run_ifft(&vm, &y);
        for (a, b) in back.iter().zip(&x) {
            assert!(a.approx_eq(*b, 1e-10));
        }
    }
}
