//! Multi-process `KernelCache` regression: two processes hammer the
//! same cache directory concurrently and every entry must come back
//! intact — no corrupt objects, no lost entries — to a fresh instance
//! and to one opened before either process wrote anything.
//!
//! The test re-invokes its own test binary (`current_exe`) in a worker
//! mode selected by environment variables, so no extra helper binary is
//! needed. Both workers insert an overlapping key set, which is exactly
//! the pattern that used to race on a fixed `<key>.so.tmp` name.

use std::path::PathBuf;
use std::process::Command;

use spl_native::cache::KernelCache;

const WORKER_ENV: &str = "SPL_CACHE_MP_WORKER";
const DIR_ENV: &str = "SPL_CACHE_MP_DIR";
const KEYS_PER_WORKER: usize = 40;
/// Keys below this index are inserted by *both* workers concurrently.
const SHARED_KEYS: usize = 20;

fn key_name(i: usize) -> String {
    format!("mpkey{i:04}")
}

/// Deterministic per-key payload, sized to span several pages so a torn
/// write would be visible.
fn payload(i: usize) -> Vec<u8> {
    (0..4096 + i * 7)
        .map(|j| ((i * 131 + j) % 251) as u8)
        .collect()
}

fn worker_keys(worker: usize) -> Vec<usize> {
    // Shared prefix plus a worker-private tail.
    (0..SHARED_KEYS)
        .chain((0..KEYS_PER_WORKER - SHARED_KEYS).map(|k| SHARED_KEYS + worker * 1000 + k))
        .collect()
}

/// Worker mode: populate the shared dir, interleaving with the sibling
/// process. Runs only when spawned by the parent test below.
#[test]
fn cache_worker_populates_shared_dir() {
    let (Ok(worker), Ok(dir)) = (std::env::var(WORKER_ENV), std::env::var(DIR_ENV)) else {
        return; // not in worker mode: nothing to do
    };
    let worker: usize = worker.parse().unwrap();
    let cache = KernelCache::with_dir(&PathBuf::from(dir)).unwrap();
    for (round, &i) in worker_keys(worker).iter().enumerate() {
        cache.insert(&key_name(i), &payload(i));
        if round % 8 == 0 {
            // Yield so the two workers genuinely interleave.
            std::thread::yield_now();
        }
    }
}

#[test]
fn two_processes_populate_one_dir_without_corruption_or_loss() {
    if std::env::var(WORKER_ENV).is_ok() {
        return; // worker invocation: only the worker test runs work
    }
    let dir = std::env::temp_dir().join(format!("spl_kcache_mp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // Opened before anything is filed: what the workers write later must
    // still reach it, from the directory itself.
    let early = KernelCache::with_dir(&dir).unwrap();

    let exe = std::env::current_exe().unwrap();
    let spawn = |worker: usize| {
        Command::new(&exe)
            .args(["cache_worker_populates_shared_dir", "--exact"])
            .env(WORKER_ENV, worker.to_string())
            .env(DIR_ENV, &dir)
            .spawn()
            .unwrap()
    };
    let mut children = [spawn(0), spawn(1)];
    for child in &mut children {
        let status = child.wait().unwrap();
        assert!(status.success(), "cache worker failed: {status}");
    }

    // The early instance and a fresh one must serve every key either
    // worker inserted from disk, byte-for-byte.
    let fresh = KernelCache::with_dir(&dir).unwrap();
    let mut all: Vec<usize> = worker_keys(0);
    all.extend(worker_keys(1));
    all.sort_unstable();
    all.dedup();
    for cache in [&early, &fresh] {
        for &i in &all {
            let object = cache
                .lookup(&key_name(i))
                .unwrap_or_else(|| panic!("lost entry {}", key_name(i)));
            assert_eq!(object, payload(i), "corrupt entry {}", key_name(i));
        }
    }
    // No abandoned tmp files: every write either renamed or cleaned up.
    let stray: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(stray.is_empty(), "stray tmp files: {stray:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory written by the format before the trailer: a `.so` with no
/// trailer, an `index.journal` vouching for it, an `index.lock`. The old
/// object misses once and is removed; the journal and the lock file are
/// neither read nor touched.
#[test]
fn a_directory_from_before_the_trailer_misses_once_and_keeps_its_log() {
    if std::env::var(WORKER_ENV).is_ok() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("spl_kcache_old_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let key = "0123456789abcdef0123456789abcdef";
    let object = payload(3);
    let so = dir.join(format!("{key}.so"));
    std::fs::write(&so, &object).unwrap();
    // One record in that log's framing, `splj1 <crc of payload> <payload>`.
    let crc = spl_resilience::crc32::crc32(&object);
    let record = format!("so {key} {} {crc:08x}", object.len());
    let framed = spl_resilience::crc32::crc32(record.as_bytes());
    std::fs::write(
        dir.join("index.journal"),
        format!("splj1 {framed:08x} {record}\n"),
    )
    .unwrap();
    std::fs::write(dir.join("index.lock"), b"old lock").unwrap();
    let log_before = std::fs::read(dir.join("index.journal")).unwrap();

    let cache = KernelCache::with_dir(&dir).unwrap();
    assert!(
        cache.lookup(key).is_none(),
        "a trailer-less object was served"
    );
    assert!(!so.exists(), "the old object is still there");
    cache.insert(key, &object);
    drop(cache);
    assert_eq!(
        KernelCache::with_dir(&dir).unwrap().lookup(key).unwrap(),
        object
    );

    assert_eq!(
        std::fs::read(dir.join("index.journal")).unwrap(),
        log_before
    );
    assert_eq!(std::fs::read(dir.join("index.lock")).unwrap(), b"old lock");
    let _ = std::fs::remove_dir_all(&dir);
}
