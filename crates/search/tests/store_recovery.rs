//! Crash-recovery tests for the wisdom store on disk: a search killed
//! mid-write (simulated by truncating or corrupting `db.journal`) must
//! resume from the intact records and finish with exactly the plans an
//! uninterrupted run finds. The deterministic [`OpCountEvaluator`] makes
//! that comparison exact.

use std::fs;
use std::path::{Path, PathBuf};

use spl_search::{
    Evaluator, EvaluatorPool, FaultyEvaluator, OpCountEvaluator, ResilientEvaluator, Search,
    SearchConfig, SearchOutcome, WisdomDb,
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
    let mut pool = EvaluatorPool::single(OpCountEvaluator::default());
    Search::new(config.clone())
        .run(max_log, &mut pool, &mut Telemetry::new())
        .unwrap()
}

/// Simulates a kill during the final append: chops the last few bytes so
/// the tail record is torn (its CRC no longer matches).
fn tear_tail(dir: &Path) {
    let path = dir.join("db.journal");
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
    tear_tail(&dir);

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

    // Flip one byte inside the second line (the size-4 record). The
    // tolerant loader must keep the intact prefix — the size-2 record —
    // and drop everything from the damage onward.
    let path = dir.join("db.journal");
    let mut bytes = fs::read(&path).unwrap();
    let second_line = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;
    bytes[second_line + 20] ^= 0x01;
    fs::write(&path, &bytes).unwrap();

    let mut tel = Telemetry::new();
    let resumed = search_in(&dir, &config, 5, eval(), &mut tel);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(1));
    assert_eq!(tel.counter("wisdom.db.dropped_records"), Some(4));
    assert_eq!(resumed, clean(&config, 5));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn large_search_killed_mid_size_resumes_to_same_plans() {
    let dir = tmp("torn_large");
    let config = SearchConfig::default();
    let eval = OpCountEvaluator::default;
    search_in(&dir, &config, 10, eval(), &mut Telemetry::new());
    tear_tail(&dir); // the k-best record of size 1024

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
    // ≥10 % injected faults is killed mid-write, then resumed under a
    // *different* fault sequence — and still lands on the same best
    // plans, because the degradation chain falls back to the same
    // deterministic model.
    let chain = |seed: u64| {
        ResilientEvaluator::new()
            .tier(
                "faulty",
                Box::new(FaultyEvaluator::new(
                    OpCountEvaluator::default(),
                    seed,
                    0.25,
                )),
            )
            .tier("opcount", Box::new(OpCountEvaluator::default()))
    };
    let dir = tmp("faulty");
    let config = SearchConfig::default();
    search_in(&dir, &config, 10, chain(11), &mut Telemetry::new());
    tear_tail(&dir);

    let mut tel = Telemetry::new();
    let resumed = search_in(&dir, &config, 10, chain(1234), &mut tel);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(9));
    assert!(tel.counter("search.plans_evaluated").unwrap() > 0);
    assert_eq!(resumed, clean(&config, 10));
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
