//! Crash-recovery tests for the wisdom store on disk: a search killed
//! mid-write (simulated by truncating or corrupting an entry file) must
//! resume from the intact entries and finish with exactly the plans an
//! uninterrupted run finds. The deterministic [`OpCountEvaluator`] makes
//! that comparison exact.

use std::fs;
use std::path::{Path, PathBuf};

use spl_search::{
    Evaluator, EvaluatorPool, FaultyEvaluator, OpCountEvaluator, Search, SearchConfig,
    SearchOutcome, WisdomDb,
};
use spl_telemetry::Telemetry;

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spl_store_recovery_{}_{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One process's search: a fresh [`WisdomDb`] over `dir`, a fresh
/// evaluator, everything counted into `tel`.
fn search_in(
    dir: &Path,
    config: &SearchConfig,
    max_log: u32,
    eval: impl Evaluator + 'static,
    tel: &mut Telemetry,
) -> SearchOutcome {
    Search::new(config.clone())
        .with_store(WisdomDb::open(dir).unwrap())
        .run(max_log, &mut EvaluatorPool::single(eval), tel)
        .unwrap()
}

/// The uninterrupted search that persists nothing.
fn clean(config: &SearchConfig, max_log: u32) -> SearchOutcome {
    let mut pool = EvaluatorPool::single(OpCountEvaluator);
    Search::new(config.clone())
        .run(max_log, &mut pool, &mut Telemetry::new())
        .unwrap()
}

/// The entry file of size `n` in `dir`.
fn entry_of(dir: &Path, n: usize) -> PathBuf {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| {
            let text = String::from_utf8_lossy(&fs::read(p).unwrap()).into_owned();
            p.extension().is_some_and(|x| x == "entry")
                && text.split_whitespace().nth(2) == Some(n.to_string().as_str())
        })
        .unwrap_or_else(|| panic!("no entry file of size {n}"))
}

/// Simulates a kill during the final write: chops the last few bytes of
/// the newest entry file, that of the largest size, so its trailer no
/// longer matches.
fn tear_tail(dir: &Path, max_log: u32) {
    let path = entry_of(dir, 1 << max_log);
    let bytes = fs::read(&path).unwrap();
    assert!(bytes.len() > 3);
    fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
}

#[test]
fn truncated_tail_is_healed_counted_and_resumed_to_same_plans() {
    let dir = tmp("torn_small");
    let config = SearchConfig::default();
    let eval = OpCountEvaluator::default;
    search_in(&dir, &config, 6, eval(), &mut Telemetry::new());
    tear_tail(&dir, 6);

    // Resume with a fresh evaluator: only the torn size is recomputed.
    let mut tel = Telemetry::new();
    let resumed = search_in(&dir, &config, 6, eval(), &mut tel);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(5));
    assert_eq!(tel.counter("wisdom.db.dropped_records"), Some(1));
    assert_eq!(tel.counter("wisdom.db.records_written"), Some(1));
    assert_eq!(resumed, clean(&config, 6));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_crc_drops_suffix_and_recomputes_to_same_plans() {
    let dir = tmp("badcrc");
    let config = SearchConfig::default();
    let eval = OpCountEvaluator::default;
    search_in(&dir, &config, 5, eval(), &mut Telemetry::new());

    // Flip one byte inside the size-4 entry. The loader must drop that
    // file alone and keep every other size.
    let path = entry_of(&dir, 4);
    let intact = fs::read(&path).unwrap();
    let mut bytes = intact.clone();
    bytes[20] ^= 0x01;
    fs::write(&path, &bytes).unwrap();

    let mut tel = Telemetry::new();
    let resumed = search_in(&dir, &config, 5, eval(), &mut tel);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(4));
    assert_eq!(tel.counter("wisdom.db.dropped_records"), Some(1));
    // Unlinked, recomputed and filed again under the same name.
    assert_eq!(fs::read(&path).unwrap(), intact);
    assert_eq!(resumed, clean(&config, 5));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn large_search_killed_mid_size_resumes_to_same_plans() {
    let dir = tmp("torn_large");
    let config = SearchConfig::default();
    let eval = OpCountEvaluator::default;
    search_in(&dir, &config, 10, eval(), &mut Telemetry::new());
    tear_tail(&dir, 10); // the k-best entry of size 1024

    let mut tel = Telemetry::new();
    let resumed = search_in(&dir, &config, 10, eval(), &mut tel);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(9));
    assert_eq!(resumed.large.len(), 4);
    assert_eq!(resumed, clean(&config, 10));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_under_injected_faults_matches_uninterrupted_run() {
    // The full acceptance scenario: a stored search to 2^10 under
    // ≥10 % injected faults is killed mid-write, then resumed under the
    // same seed — and lands on the plans of the uninterrupted run at
    // that seed, because a fault belongs to a candidate, not to the
    // order in which the candidates were evaluated.
    let faulty = || FaultyEvaluator::new(OpCountEvaluator, 11, 0.25);
    let config = SearchConfig::default();
    let uninterrupted = Search::new(config.clone())
        .run(
            10,
            &mut EvaluatorPool::single(faulty()),
            &mut Telemetry::new(),
        )
        .unwrap();

    let dir = tmp("faulty");
    search_in(&dir, &config, 10, faulty(), &mut Telemetry::new());
    tear_tail(&dir, 10);

    let mut tel = Telemetry::new();
    let resumed = search_in(&dir, &config, 10, faulty(), &mut tel);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(9));
    assert!(tel.counter("search.plans_evaluated").unwrap() > 0);
    assert!(
        tel.counter("search.faults_injected.timeout").unwrap_or(0)
            + tel.counter("search.faults_injected.crash").unwrap_or(0)
            + tel.counter("search.faults_injected.corrupt").unwrap_or(0)
            > 0
    );
    assert_eq!(resumed, uninterrupted);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_different_config_sees_none_of_the_others_entries() {
    // Two configurations may share a directory: each finds its own
    // entries and only those.
    let dir = tmp("config");
    let config = SearchConfig::default();
    let other = SearchConfig {
        keep: 7,
        ..SearchConfig::default()
    };
    let eval = OpCountEvaluator::default;
    search_in(&dir, &config, 3, eval(), &mut Telemetry::new());

    let mut tel = Telemetry::new();
    search_in(&dir, &other, 3, eval(), &mut tel);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), None);
    assert_eq!(tel.counter("wisdom.db.hits"), None);
    assert_eq!(tel.counter("search.plans_evaluated"), Some(6));

    for config in [&config, &other] {
        let mut tel = Telemetry::new();
        search_in(&dir, config, 3, eval(), &mut tel);
        assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(3));
        assert_eq!(tel.counter("search.plans_evaluated"), None);
    }
    let _ = fs::remove_dir_all(&dir);
}
