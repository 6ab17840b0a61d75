//! The compiler component of a wisdom key: a fingerprint of the `cc`
//! line where the costs came through `cc`, a constant where they did
//! not. Stores written before that rule hold VM and op-count entries
//! under a real `cc` hash; those must stay readable, stay exported, and
//! be measured again once rather than trusted under a key nobody asks
//! for any more.

use std::path::PathBuf;

use spl_generator::fft::FftTree;
use spl_search::{
    cc_fingerprint, cc_key, machine_fingerprint, transform_key, EvaluatorPool, OpCountEvaluator,
    Plan, Search, SearchConfig, WisdomDb,
};
use spl_telemetry::Telemetry;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spl_wisdom_cc_key_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn plan(spec: &str, cost: f64) -> Plan {
    Plan {
        tree: FftTree::from_spec(spec).unwrap(),
        cost,
    }
}

#[test]
fn an_old_vm_entry_under_a_real_cc_hash_is_exported_but_not_trusted() {
    let dir = tmp("old_vm");
    let vm = transform_key(&SearchConfig::default(), "vm");
    let mut db = WisdomDb::open(&dir).unwrap();
    // What the parent commit wrote for `--eval vm`.
    db.record_with(
        &vm,
        8,
        &[plan("(ct 2 4)", 1.5e-7)],
        cc_fingerprint(),
        machine_fingerprint(),
    )
    .unwrap();
    drop(db);

    let mut db = WisdomDb::open(&dir).unwrap();
    assert_eq!(db.len(), 1, "the old record is kept");
    assert!(db.lookup(&vm, 8).is_none(), "and is not a hit");
    assert_eq!(db.export_flat(), "8: (ct 2 4)\n", "and is still exported");

    // A fresh measurement is filed under the constant, is the hit from
    // then on, and outranks the stale entry in the export.
    db.record(&vm, 8, &[plan("(ct 4 2)", 2.5e-7)]).unwrap();
    assert_eq!(db.len(), 2);
    let hit = db.lookup(&vm, 8).expect("the new entry");
    assert_eq!(hit.cc_fp, cc_key("vm"));
    assert_ne!(hit.cc_fp, cc_fingerprint());
    assert_eq!(hit.best().tree.to_spec(), "(ct 4 2)");
    assert_eq!(db.export_flat(), "8: (ct 4 2)\n");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_store_of_old_opcount_entries_is_remeasured_once_then_reused() {
    let dir = tmp("old_opcount");
    let config = SearchConfig {
        leaf_max: 8,
        ..SearchConfig::default()
    };
    let mut pool = EvaluatorPool::single(OpCountEvaluator);
    let fresh = Search::new(config.clone())
        .run(4, &mut pool, &mut Telemetry::new())
        .unwrap();

    // The same winners as the parent commit filed them.
    let opcount = transform_key(&config, "opcount");
    let mut db = WisdomDb::open(&dir).unwrap();
    for w in fresh.winners() {
        let n = w.tree.size();
        let old = [Plan {
            tree: w.tree,
            cost: w.cost,
        }];
        db.record_with(&opcount, n, &old, cc_fingerprint(), machine_fingerprint())
            .unwrap();
    }
    drop(db);

    let mut tel = Telemetry::new();
    let again = Search::new(config.clone())
        .with_store(WisdomDb::open(&dir).unwrap())
        .run(4, &mut pool, &mut tel)
        .unwrap();
    assert_eq!(again, fresh);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), None);
    assert!(tel.counter("search.plans_evaluated").unwrap() > 0);

    let mut tel = Telemetry::new();
    let db = WisdomDb::open(&dir).unwrap();
    assert_eq!(db.len(), 8, "four stale entries kept beside four new");
    let warm = Search::new(config)
        .with_store(db)
        .run(4, &mut pool, &mut tel)
        .unwrap();
    assert_eq!(warm, fresh);
    assert_eq!(tel.counter("wisdom.db.reused_sizes"), Some(4));
    assert_eq!(tel.counter("search.plans_evaluated"), None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn native_entries_are_keyed_by_the_cc_line_as_before() {
    let dir = tmp("native");
    let native = transform_key(&SearchConfig::default(), "native");
    let mut db = WisdomDb::open(&dir).unwrap();
    db.record(&native, 8, &[plan("(ct 2 4)", 1.0e-8)]).unwrap();
    let hit = db.lookup(&native, 8).expect("trusted");
    assert_eq!(hit.cc_fp, cc_fingerprint());
    assert_eq!(cc_key("native"), cc_fingerprint());
    // Filed under the constant, a native cost would be nobody's.
    db.record_with(
        &native,
        4,
        &[plan("(ct 2 2)", 1.0e-8)],
        cc_key("vm"),
        machine_fingerprint(),
    )
    .unwrap();
    assert!(db.lookup(&native, 4).is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
