//! End-to-end tests of the telemetry surface: `splc --trace-json`
//! produces a parseable run report naming every paper phase, and the
//! optimizer counters distinguish the `-O` levels.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

use spl::telemetry::json::{self, Json};

const FFT4: &str = "\
#codetype real
#subname fft4
(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))
";

fn splc(args: &[&str], stdin: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_splc"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn splc");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(stdin.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Runs splc with `--trace-json` into a scratch file and parses the
/// resulting report.
fn trace(name: &str, extra: &[&str]) -> Json {
    let path: PathBuf =
        std::env::temp_dir().join(format!("spl-telemetry-{}-{name}.json", std::process::id()));
    let path_str = path.to_str().unwrap().to_string();
    let mut args = vec!["--trace-json", &path_str];
    args.extend_from_slice(extra);
    let (_, err, ok) = splc(&args, FFT4);
    assert!(ok, "splc failed: {err}");
    let text = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    json::parse(&text).expect("report parses as JSON")
}

fn counter(report: &Json, name: &str) -> Option<f64> {
    report.get("merged")?.get("counters")?.get(name)?.as_f64()
}

#[test]
fn trace_json_names_all_seven_phases() {
    let report = trace("phases", &["-B", "32"]);
    assert_eq!(report.get("tool").and_then(Json::as_str), Some("splc"));
    assert_eq!(
        report.get("schema_version").and_then(Json::as_f64),
        Some(1.0)
    );
    let phases = report
        .get("merged")
        .and_then(|m| m.get("phases"))
        .and_then(Json::as_arr)
        .expect("merged.phases array");
    let names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("name").and_then(Json::as_str))
        .collect();
    for phase in [
        "parse",
        "expand",
        "unroll",
        "intrinsics",
        "typetrans",
        "optimize",
        "codegen",
    ] {
        assert!(names.contains(&phase), "missing phase {phase} in {names:?}");
    }
    for p in phases {
        assert!(p.get("wall_ns").and_then(Json::as_f64).is_some());
        assert!(p.get("calls").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}

#[test]
fn opt_levels_change_optimizer_counters() {
    let o0 = trace("o0", &["-B", "32", "-O0"]);
    let o1 = trace("o1", &["-B", "32", "-O1"]);
    let o2 = trace("o2", &["-B", "32", "-O2"]);
    // -O2 runs the value-numbering optimizer and records its work.
    assert!(counter(&o2, "optimize.instrs_before").unwrap() > 0.0);
    assert!(counter(&o2, "optimize.dce_removed").unwrap() > 0.0);
    assert!(
        counter(&o2, "optimize.instrs_after").unwrap()
            < counter(&o2, "optimize.instrs_before").unwrap()
    );
    // -O0 and -O1 never reach that pass, so its counters are absent.
    assert_eq!(counter(&o0, "optimize.instrs_before"), None);
    assert_eq!(counter(&o1, "optimize.instrs_before"), None);
    // -O1 scalarizes temporaries; -O0 does not.
    assert!(counter(&o1, "unroll.temps_scalarized").unwrap() > 0.0);
    assert_eq!(counter(&o0, "unroll.temps_scalarized"), None);
    // Post-optimization code is strictly smaller for FFT4.
    let final_o0 = counter(&o0, "program.instrs").unwrap();
    let final_o2 = counter(&o2, "program.instrs").unwrap();
    assert!(final_o2 < final_o0, "O2 {final_o2} vs O0 {final_o0}");
}

#[test]
fn stats_flag_prints_table_to_stderr() {
    let (out, err, ok) = splc(&["-B", "32", "--stats"], FFT4);
    assert!(ok);
    // Target code still goes to stdout, untouched by the table.
    assert!(out.contains("subroutine fft4(y,x)"));
    assert!(err.contains("phase timings:"), "{err}");
    assert!(err.contains("optimize"), "{err}");
    assert!(err.contains("pass counters:"), "{err}");
    assert!(err.contains("optimize.instrs_after"), "{err}");
}

#[test]
fn help_prints_usage_to_stdout() {
    let (out, err, ok) = splc(&["--help"], "");
    assert!(ok);
    assert!(out.contains("usage: splc"), "{out}");
    assert!(out.contains("--trace-json"), "{out}");
    assert!(out.contains("-O0 | -O1 | -O2"), "{out}");
    assert!(err.is_empty(), "{err}");

    // spld's help names no batching and no plan journal, and the deleted
    // batch flags are refused like any unknown option.
    let spld = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_spld"))
            .args(args)
            .output()
            .expect("run spld")
    };
    let help = spld(&["--help"]);
    assert!(help.status.success());
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(help.contains("usage: spld"), "{help}");
    assert!(
        !help.contains("batch") && !help.contains("journal"),
        "{help}"
    );
    for flag in ["--batch-window-ms", "--batch-max"] {
        let refused = spld(&[flag, "3", "--stdio"]);
        assert_eq!(refused.status.code(), Some(2));
        let err = String::from_utf8_lossy(&refused.stderr);
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
    }
}
