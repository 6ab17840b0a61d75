//! End-to-end tests of the `splsearch` command-line search.

use std::process::Command;

fn splsearch(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_splsearch"))
        .args(args)
        .output()
        .expect("run splsearch");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The value on a `--stats` counter line, if the counter was reported.
fn counter(stats: &str, name: &str) -> Option<u64> {
    stats.lines().find_map(|l| {
        let mut words = l.split_whitespace();
        if words.next()? != name {
            return None;
        }
        words.next()?.parse().ok()
    })
}

#[test]
fn cold_run_measures_every_candidate_and_the_rerun_reuses_the_store() {
    let dir = std::env::temp_dir().join(format!("spl_splsearch_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = dir.display().to_string();
    let args = [
        "--eval",
        "opcount",
        "--max-log",
        "8",
        "--leaf-max",
        "8",
        "--jobs",
        "2",
        "--wisdom-db",
        &db,
        "--stats",
    ];

    let (cold_out, cold_err, ok) = splsearch(&args);
    assert!(ok, "{cold_err}");
    assert_eq!(cold_out.lines().count(), 8, "{cold_out}");
    assert!(counter(&cold_err, "search.plans_evaluated").unwrap() > 0);
    // A search measures; nothing is fitted, ranked or cut beforehand.
    for gone in ["search.calibration", "search.prune", "search.features"] {
        assert!(!cold_err.contains(gone), "{gone} in:\n{cold_err}");
    }

    let (warm_out, warm_err, ok) = splsearch(&args);
    assert!(ok, "{warm_err}");
    assert_eq!(warm_out, cold_out);
    assert_eq!(counter(&warm_err, "wisdom.db.reused_sizes"), Some(8));
    assert_eq!(counter(&warm_err, "search.plans_evaluated"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pruning_flags_are_unknown_options() {
    for flag in ["--prune", "--prune=3", "--no-prune"] {
        let (_, err, ok) = splsearch(&["--eval", "opcount", "--max-log", "2", flag]);
        assert!(!ok, "{flag} was accepted");
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
    }
    let (help, _, ok) = splsearch(&["--help"]);
    assert!(ok);
    assert!(help.contains("--wisdom-db"));
    assert!(!help.contains("prune"), "{help}");
}

/// A directory holding a `cc` that appends its arguments to `cc.log`
/// and then becomes the real one, and the `PATH` that finds it first.
#[cfg(unix)]
fn cc_shim(name: &str) -> (std::path::PathBuf, String) {
    use std::os::unix::fs::PermissionsExt;
    let dir = std::env::temp_dir().join(format!("spl_cc_shim_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bin = dir.join("bin");
    std::fs::create_dir_all(&bin).expect("shim dir");
    let path = std::env::var("PATH").expect("PATH");
    let real_cc = std::env::split_paths(&path)
        .map(|p| p.join("cc"))
        .find(|p| p.is_file())
        .expect("a cc on PATH");
    let script = format!(
        "#!/bin/sh\necho \"$@\" >> {log}\nexec {cc} \"$@\"\n",
        log = dir.join("cc.log").display(),
        cc = real_cc.display(),
    );
    std::fs::write(bin.join("cc"), script).expect("cc shim");
    std::fs::set_permissions(bin.join("cc"), std::fs::Permissions::from_mode(0o755))
        .expect("chmod cc shim");
    std::fs::write(dir.join("cc.log"), "").expect("cc log");
    let shimmed = format!("{}:{path}", bin.display());
    (dir, shimmed)
}

/// `splsearch` with the shim's `PATH` and its temporaries in `dir`.
#[cfg(unix)]
fn splsearch_behind_shim(dir: &std::path::Path, path: &str, args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_splsearch"))
        .args(args)
        .env("PATH", path)
        .env("TMPDIR", dir)
        .output()
        .expect("run splsearch");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{err}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), err)
}

/// A key names only what the value depends on: costs the VM timed or
/// the op-count model computed are filed without asking `cc` who it is,
/// so no compiler process exists behind such a search — with a store or
/// without, cold or warm.
#[cfg(unix)]
#[test]
fn vm_and_opcount_searches_start_no_cc_process() {
    let (dir, path) = cc_shim("nocc");
    for eval in ["vm", "opcount"] {
        let db = dir.join(format!("db-{eval}")).display().to_string();
        let base = [
            "--eval",
            eval,
            "--max-log",
            "6",
            "--leaf-max",
            "8",
            "--min-time",
            "1",
            "--jobs",
            "2",
            "--stats",
        ];
        splsearch_behind_shim(&dir, &path, &base);
        let stored = [&base[..], &["--wisdom-db", &db]].concat();
        let (cold_out, cold_err) = splsearch_behind_shim(&dir, &path, &stored);
        assert!(counter(&cold_err, "search.plans_evaluated").unwrap() > 0);
        let (warm_out, warm_err) = splsearch_behind_shim(&dir, &path, &stored);
        assert_eq!(warm_out, cold_out, "--eval {eval}");
        assert_eq!(counter(&warm_err, "wisdom.db.hits"), Some(6), "{warm_err}");
        assert_eq!(counter(&warm_err, "search.plans_evaluated"), None);
        let log = std::fs::read_to_string(dir.join("cc.log")).expect("cc log");
        assert_eq!(log, "", "--eval {eval} ran cc");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shim does see the compiler when the costs are the compiler's.
#[cfg(unix)]
#[test]
fn a_native_search_does_ask_cc() {
    let (dir, path) = cc_shim("native");
    let db = dir.join("db").display().to_string();
    let args = [
        "--eval",
        "native",
        "--max-log",
        "3",
        "--min-time",
        "1",
        "--wisdom-db",
        &db,
    ];
    splsearch_behind_shim(&dir, &path, &args);
    let log = std::fs::read_to_string(dir.join("cc.log")).expect("cc log");
    assert!(log.contains("--version"), "{log}");
    assert!(log.contains("-shared"), "{log}");
    let _ = std::fs::remove_dir_all(&dir);
}
