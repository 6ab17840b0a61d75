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
