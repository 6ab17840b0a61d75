//! Multi-process `WisdomDb` regression: two real processes search
//! overlapping size sets into the same database directory concurrently,
//! and the merged journal must converge to one identical best-cost
//! entry per (transform, size, fingerprints) key — no lost appends, no
//! corrupt records, no order dependence.
//!
//! Mirrors `spl-native`'s `cache_multiprocess` pattern: the test
//! re-invokes its own binary (`current_exe`) in a worker mode selected
//! by environment variables, so no helper binary is needed.

use std::path::Path;
use std::process::Command;

use spl_search::{
    transform_key, EvaluatorPool, OpCountEvaluator, Search, SearchConfig, SearchOutcome, WisdomDb,
};
use spl_telemetry::Telemetry;

const WORKER_ENV: &str = "SPL_WISDOM_MP_MAX_K";
const DIR_ENV: &str = "SPL_WISDOM_MP_DIR";

/// Small trees only: debug-mode compiles of big candidates are slow,
/// and the merge semantics under test do not depend on size.
fn config() -> SearchConfig {
    SearchConfig {
        leaf_max: 8,
        ..SearchConfig::default()
    }
}

/// The op-count search to `2^max_log` over `db`.
fn search_into(db: WisdomDb, max_log: u32) -> SearchOutcome {
    let mut pool = EvaluatorPool::single(OpCountEvaluator::default());
    Search::new(config())
        .with_store(db)
        .run(max_log, &mut pool, &mut Telemetry::new())
        .unwrap()
}

/// Worker mode: run a search into the shared DB.
/// Runs only when spawned by the parent test below.
#[test]
fn wisdom_worker_searches_shared_db() {
    let (Ok(max_k), Ok(dir)) = (std::env::var(WORKER_ENV), std::env::var(DIR_ENV)) else {
        return; // not in worker mode: nothing to do
    };
    let max_k: u32 = max_k.parse().unwrap();
    search_into(WisdomDb::open(Path::new(&dir)).unwrap(), max_k);
}

#[test]
fn two_processes_converge_to_identical_best_entries() {
    if std::env::var(WORKER_ENV).is_ok() {
        return; // worker invocation: only the worker test runs work
    }
    let dir = std::env::temp_dir().join(format!("spl_wisdom_mp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Overlapping size sets: both workers search 2^1..=2^5; one goes a
    // step further. The shared prefix is where merges genuinely race.
    let exe = std::env::current_exe().unwrap();
    let spawn = |max_k: u32| {
        Command::new(&exe)
            .args(["wisdom_worker_searches_shared_db", "--exact"])
            .env(WORKER_ENV, max_k.to_string())
            .env(DIR_ENV, &dir)
            .spawn()
            .unwrap()
    };
    let mut children = [spawn(5), spawn(6)];
    for child in &mut children {
        let status = child.wait().unwrap();
        assert!(status.success(), "wisdom worker failed: {status}");
    }

    // A fresh DB instance (cold memory, journal replayed from disk)
    // must hold exactly the deterministic winners a local search finds.
    let mut db = WisdomDb::open(&dir).unwrap();
    let key = transform_key(&config(), "opcount");
    let reference = search_into(WisdomDb::in_memory(), 6).winners();
    assert_eq!(reference.len(), 6);
    for want in &reference {
        let n = want.tree.size();
        let entry = db
            .lookup(&key, n)
            .unwrap_or_else(|| panic!("no trusted entry for size {n}"));
        assert!(entry.measured(), "size {n} entry must carry real costs");
        let best = entry.best();
        assert_eq!(
            best.tree.to_spec(),
            want.tree.to_spec(),
            "size {n} best plan diverged from the deterministic winner"
        );
        assert_eq!(
            best.cost.to_bits(),
            want.cost.to_bits(),
            "size {n} best cost diverged"
        );
    }
    // One merged entry per key — concurrent appends for the same key
    // collapsed under best-cost-wins rather than accumulating.
    let sizes: Vec<usize> = db.entries().map(|e| e.n).collect();
    let mut dedup = sizes.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(
        sizes.len(),
        dedup.len(),
        "merged view must hold one entry per key: {sizes:?}"
    );
    // No journal records were lost or healed away by the race.
    let tel = db.drain_telemetry();
    assert_eq!(
        tel.counter("wisdom.db.dropped_records"),
        None,
        "concurrent appends must not tear the journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
