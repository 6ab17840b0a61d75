//! End-to-end tests of the `splc` command-line compiler.

use std::io::Write;
use std::process::{Command, Stdio};

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

const FFT4: &str = "\
#codetype real
#subname fft4
(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))
";

#[test]
fn emits_fortran_by_default() {
    let (out, _, ok) = splc(&[], FFT4);
    assert!(ok);
    assert!(out.contains("subroutine fft4(y,x)"));
    assert!(out.contains("implicit real*8 (f)"));
}

#[test]
fn emits_c_on_request() {
    let (out, _, ok) = splc(&["--language", "c", "-B", "32"], FFT4);
    assert!(ok);
    assert!(out.contains("void fft4(double *restrict y, const double *restrict x)"));
}

#[test]
fn icode_mode_prints_tuples() {
    let (out, _, ok) = splc(&["--icode", "-B", "32"], FFT4);
    assert!(ok);
    assert!(out.contains("$out("));
    assert!(out.contains("$in("));
}

#[test]
fn run_mode_executes() {
    let (out, _, ok) = splc(&["--run"], "#datatype real\n(F 2)");
    assert!(ok);
    assert!(out.contains("output on sin-ramp input"));
    assert!(out.contains("y(1)"));
}

#[test]
fn parse_errors_fail_cleanly() {
    let (_, err, ok) = splc(&[], "(compose (F 2)");
    assert!(!ok);
    assert!(err.contains("splc:"));
}

#[test]
fn shape_errors_fail_cleanly() {
    let (_, err, ok) = splc(&[], "(compose (F 2) (F 3))");
    assert!(!ok);
    assert!(err.contains("splc:"));
}

#[test]
fn reads_files_and_reports_missing() {
    let (_, err, ok) = splc(&["/nonexistent/x.spl"], "");
    assert!(!ok);
    assert!(err.contains("reading"));
}

#[test]
fn templates_only_input_is_not_an_error() {
    let (_, err, ok) = splc(&[], "(template (nothing n_) ($out(0) = $in(0)))");
    assert!(ok);
    assert!(err.contains("no formulas"));
}

#[test]
fn deeply_nested_formula_is_a_typed_error_not_a_stack_overflow() {
    // 50k levels of nesting would overflow the stack of a naive
    // recursive-descent parser; the depth limit must reject it first.
    let deep = format!(
        "{}(F 2){}",
        "(tensor (I 1) ".repeat(50_000),
        ")".repeat(50_000)
    );
    let (_, err, ok) = splc(&[], &deep);
    assert!(!ok);
    assert!(err.contains("depth"), "unexpected diagnostic: {err}");
}

#[test]
fn max_depth_flag_tightens_the_parser_limit() {
    let shallow = "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))";
    let (_, err, ok) = splc(&["--max-depth", "2"], shallow);
    assert!(!ok);
    assert!(err.contains("depth"), "unexpected diagnostic: {err}");
    let (_, _, ok) = splc(&["--max-depth", "16"], shallow);
    assert!(ok);
}

#[test]
fn unrolled_size_cap_is_a_typed_error() {
    // Fully unrolling a 64-point FFT formula needs far more than 10
    // instructions; the cap must convert that into a resource error.
    let src = "#unroll on\n(tensor (F 8) (F 8))";
    let (_, err, ok) = splc(&["--max-unrolled-ops", "10", "-B", "64"], src);
    assert!(!ok);
    assert!(
        err.contains("--max-unrolled-ops"),
        "unexpected diagnostic: {err}"
    );
    let (_, _, ok) = splc(&["-B", "64"], src);
    assert!(ok, "default cap must not trip on a 64-point formula");
}

#[test]
fn broken_pipe_exits_cleanly() {
    // A reader that closes early (`splc ... | head`) must produce a
    // clean exit 0, not a panic or a SIGPIPE kill. The formula unrolls
    // to well past the 64 KiB pipe buffer, so the writer is guaranteed
    // to hit EPIPE once the read end is gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_splc"))
        .args(["--language", "c", "-B", "4096"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn splc");
    drop(child.stdout.take()); // close the read end before any output
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"#unroll on\n(tensor (I 512) (F 2))")
        .unwrap();
    drop(child.stdin.take());
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "broken pipe must exit 0, got {:?}; stderr: {err}",
        out.status
    );
    assert!(!err.contains("panic"), "broken pipe must not panic: {err}");
}
