//! Shared command-line plumbing for telemetry-emitting tools.
//!
//! Every binary in the workspace exposes the same three reporting flags
//! (`--stats`, `--trace-json <file>`, `--trace-chrome <file>`); this
//! module owns their parsing, the human-readable `--stats` table, and
//! the end-of-run artifact writing, so the tools don't each reimplement
//! them.
//!
//! ```
//! use spl_telemetry::cli::ReportOptions;
//! use spl_telemetry::{RunReport, Telemetry};
//!
//! let args = vec!["--stats".to_string(), "--verbose".to_string()];
//! let mut opts = ReportOptions::default();
//! let mut it = args.iter();
//! while let Some(a) = it.next() {
//!     if opts.accept(a, &mut it).unwrap() {
//!         continue; // consumed by the reporting layer
//!     }
//!     // ... tool-specific flags ("--verbose" here) ...
//! }
//! let mut report = RunReport::new("demo");
//! report.push_section("run", Telemetry::new());
//! opts.finish(&report).unwrap();
//! ```

use std::io::Write as _;
use std::path::Path;

use crate::{RunReport, Telemetry};

/// Writes formatted text to stdout, treating a broken pipe as a quiet,
/// successful exit. Tools whose stdout feeds a pipeline
/// (`splprof ... | head`) must not panic when the reader goes away —
/// the classic `println!` does exactly that. Any other write error is
/// reported on stderr and exits nonzero.
///
/// Call as `emit(format_args!(...))`; [`emitln`] appends a newline.
pub fn emit(args: std::fmt::Arguments<'_>) {
    write_stdout(args, false);
}

/// [`emit`] plus a trailing newline — the broken-pipe-safe `println!`.
pub fn emitln(args: std::fmt::Arguments<'_>) {
    write_stdout(args, true);
}

/// The broken-pipe-safe `print!`: forwards to [`cli::emit`](emit).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::cli::emit(format_args!($($arg)*)) };
}

/// The broken-pipe-safe `println!`: forwards to
/// [`cli::emitln`](emitln).
#[macro_export]
macro_rules! outln {
    () => { $crate::cli::emitln(format_args!("")) };
    ($($arg:tt)*) => { $crate::cli::emitln(format_args!($($arg)*)) };
}

fn write_stdout(args: std::fmt::Arguments<'_>, newline: bool) {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let res = out.write_fmt(args).and_then(|()| {
        if newline {
            out.write_all(b"\n")
        } else {
            Ok(())
        }
    });
    if let Err(e) = res {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            // The reader (e.g. `head`) closed the pipe: a normal end of
            // output, not an error.
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// Usage text for the shared flags, for splicing into a tool's `--help`.
pub const USAGE: &str = "  --stats        print per-phase times and per-pass counters to stderr
  --trace-json <file>
                 write the telemetry run report to <file> as JSON
  --trace-chrome <file>
                 write a Chrome trace-event JSON file to <file>
                 (load it in ui.perfetto.dev or chrome://tracing)
";

/// The three shared reporting flags of one tool invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportOptions {
    /// `--stats`: print the merged telemetry table to stderr.
    pub stats: bool,
    /// `--trace-json <file>`: write the full run report as JSON.
    pub trace_json: Option<String>,
    /// `--trace-chrome <file>`: write a Chrome trace-event file.
    pub trace_chrome: Option<String>,
}

impl ReportOptions {
    /// Offers one argument to the reporting layer inside a tool's own
    /// parse loop. Returns `Ok(true)` when the argument (and possibly
    /// its value, taken from `it`) was consumed.
    ///
    /// # Errors
    ///
    /// A flag that requires a value but is last on the line yields a
    /// ready-to-print message.
    pub fn accept<'a, I>(&mut self, arg: &str, it: &mut I) -> Result<bool, String>
    where
        I: Iterator<Item = &'a String>,
    {
        match arg {
            "--stats" => {
                self.stats = true;
                Ok(true)
            }
            "--trace-json" => match it.next() {
                Some(path) => {
                    self.trace_json = Some(path.clone());
                    Ok(true)
                }
                None => Err("--trace-json requires a file path".to_string()),
            },
            "--trace-chrome" => match it.next() {
                Some(path) => {
                    self.trace_chrome = Some(path.clone());
                    Ok(true)
                }
                None => Err("--trace-chrome requires a file path".to_string()),
            },
            _ => Ok(false),
        }
    }

    /// Scans an argument slice for the shared flags, ignoring everything
    /// else (for tools whose other options are parsed positionally).
    ///
    /// # Errors
    ///
    /// Same as [`accept`](ReportOptions::accept).
    pub fn from_args(args: &[String]) -> Result<ReportOptions, String> {
        let mut opts = ReportOptions::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            opts.accept(a, &mut it)?;
        }
        Ok(opts)
    }

    /// [`from_args`](ReportOptions::from_args) over the process
    /// arguments.
    ///
    /// # Errors
    ///
    /// Same as [`accept`](ReportOptions::accept).
    pub fn from_env() -> Result<ReportOptions, String> {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args)
    }

    /// Emits everything the flags asked for: the `--stats` table on
    /// stderr and the JSON / Chrome-trace artifacts.
    ///
    /// # Errors
    ///
    /// A ready-to-print message on I/O failure.
    pub fn finish(&self, report: &RunReport) -> Result<(), String> {
        if self.stats {
            eprint!("{}", render_stats(&report.merged()));
        }
        if let Some(path) = &self.trace_json {
            report
                .write_to_file(Path::new(path))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        if let Some(path) = &self.trace_chrome {
            report
                .write_chrome_trace(Path::new(path))
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        Ok(())
    }
}

/// The human-readable `--stats` table: phase timings, pass counters,
/// metrics, and notes, in recording order.
///
/// Counter lines are `  <name padded to 36> <value right-aligned>` with
/// nothing after the value — scripts extract values with e.g.
/// `sed -n 's/^ *native.cc_invocations *\([0-9]*\)$/\1/p'`.
pub fn render_stats(tel: &Telemetry) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if !tel.spans().is_empty() {
        let _ = writeln!(out, "phase timings:");
        for s in tel.spans() {
            let _ = writeln!(
                out,
                "  {:<36} {:>12.1} us  ({} call{})",
                s.name,
                s.wall_ns as f64 / 1e3,
                s.calls,
                if s.calls == 1 { "" } else { "s" }
            );
        }
    }
    if !tel.counters().is_empty() {
        let _ = writeln!(out, "pass counters:");
        for c in tel.counters() {
            let _ = writeln!(out, "  {:<36} {:>12}", c.name, c.value);
        }
    }
    if !tel.metrics().is_empty() {
        let _ = writeln!(out, "metrics:");
        for (name, value) in tel.metrics() {
            // Six decimals would print a sub-millisecond cost as zeros.
            let _ = if *value != 0.0 && value.abs() < 1e-3 {
                writeln!(out, "  {name:<36} {value:>12.6e}")
            } else {
                writeln!(out, "  {name:<36} {value:>12.6}")
            };
        }
    }
    if !tel.notes().is_empty() {
        let _ = writeln!(out, "notes:");
        for (key, value) in tel.notes() {
            let _ = writeln!(out, "  {key:<36} {value}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn accept_consumes_shared_flags_only() {
        let args = strs(&["--stats", "--trace-json", "t.json", "--jobs", "4"]);
        let mut opts = ReportOptions::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if opts.accept(a, &mut it).unwrap() {
                continue;
            }
            rest.push(a.clone());
        }
        assert!(opts.stats);
        assert_eq!(opts.trace_json.as_deref(), Some("t.json"));
        assert_eq!(opts.trace_chrome, None);
        assert_eq!(rest, strs(&["--jobs", "4"]));
    }

    #[test]
    fn missing_value_is_an_error() {
        let args = strs(&["--trace-chrome"]);
        assert!(ReportOptions::from_args(&args).is_err());
        let args = strs(&["--trace-json"]);
        assert!(ReportOptions::from_args(&args).is_err());
    }

    #[test]
    fn from_args_scans_past_unknown_options() {
        let args = strs(&["--quick", "--out", "x.json", "--trace-chrome", "c.json"]);
        let opts = ReportOptions::from_args(&args).unwrap();
        assert!(!opts.stats);
        assert_eq!(opts.trace_chrome.as_deref(), Some("c.json"));
    }

    #[test]
    fn stats_table_keeps_script_friendly_counter_lines() {
        let mut tel = Telemetry::new();
        tel.record_span("compile", std::time::Duration::from_micros(12));
        tel.add("native.cc_invocations", 4);
        tel.set_metric("median", 2.5);
        tel.note("wisdom", "out.txt");
        let table = render_stats(&tel);
        // The counter line ends in its value, nothing after.
        let line = table
            .lines()
            .find(|l| l.contains("native.cc_invocations"))
            .unwrap();
        assert!(line.trim_end().ends_with('4'));
        assert!(line.starts_with("  native.cc_invocations"));
        assert!(table.contains("phase timings:"));
        assert!(table.contains("pass counters:"));
        assert!(table.contains("metrics:"));
        assert!(table.contains("notes:"));
    }

    #[test]
    fn stats_table_keeps_the_digits_of_small_metrics() {
        let mut tel = Telemetry::new();
        tel.set_metric("search.best_cost.2", 3.16e-8);
        tel.set_metric("median", 1.5);
        tel.set_metric("nothing", 0.0);
        let table = render_stats(&tel);
        let value = |name: &str| {
            let line = table.lines().find(|l| l.contains(name)).unwrap();
            line.split_whitespace().nth(1).unwrap().to_string()
        };
        assert_eq!(value("search.best_cost.2"), "3.160000e-8");
        assert_eq!(value("search.best_cost.2").parse::<f64>(), Ok(3.16e-8));
        assert_eq!(value("median"), "1.500000");
        assert_eq!(value("nothing"), "0.000000");
    }
}
