//! A content-addressed cache of compiled kernel shared objects.
//!
//! A timing search compiles thousands of generated kernels, and many of
//! them are byte-identical: shared subtrees recur across sizes, and a
//! rerun of the same search recompiles everything. The cache keys each
//! kernel by the *content* that determines the machine code — the
//! emitted C source and the effective `cc` command line
//! ([`cc_command_line`](crate::cc_command_line): flags, ISA tokens, `cc`
//! version) — so a hit is guaranteed to be the same object `cc` would
//! have produced, any change to compiler or flags invalidates the entry
//! automatically, and a directory shared with a host of another vector
//! level never hands this one code it cannot execute. The C names a
//! kernel's tables by shape only; their values reach each loaded copy
//! of the object from the unit it is loaded for
//! (`NativeKernel::from_loaded`), so they are no part of what `cc` makes
//! of the text and no part of the key.
//!
//! The cache is its directory: `<dir>/<key>.so` holds the object
//! followed by a fixed 16-byte trailer, the object's length (u64 LE),
//! its CRC32 (u32 LE) and the magic `SPLk` ([`spl_resilience::sealed`],
//! the wisdom DB's format too). The file name is the key; there is no
//! index beside the files and no copy in memory. A cache without a
//! directory ([`KernelCache::none`]) stores nothing: every build runs
//! `cc`.
//!
//! The directory is safe to share between processes (a search and a
//! serving daemon pointed at the same directory, or several daemons)
//! without a lock. A writer fills a tmp file named by its pid plus a
//! per-process counter and renames it into place, so a reader sees a
//! whole file or none; every reader checks the trailer of the file it
//! read, so that rename is all the coordination needed, and no `fsync`
//! is either: a file a crash left short or zeroed fails the check. The
//! trailer is what makes a file self-checking, not the writers: two
//! builds of one key are *not* byte-identical, because `cc` records
//! the unique temp source name, so two processes filing one key rename
//! different (each valid) bytes and the later rename wins. Eviction is an `unlink`, and
//! the absent file is the tombstone. A file that fails its check is
//! unlinked and recompiled; a `.so` written before the trailer existed
//! fails it once the same way, and the index log and lock file that
//! format kept beside the objects are neither read nor touched.
//!
//! The race this accepts: a reader that discards a corrupt file can
//! unlink a good copy another process renamed into place between the
//! read and the unlink. That costs one recompile, never a wrong load.
//!
//! The cache never runs `cc` itself — callers
//! ([`NativeKernel::compile_cached`](crate::NativeKernel::compile_cached))
//! look up, compile on a miss, and insert the result.

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use spl_resilience::sealed::{unseal, write_sealed};
use spl_telemetry::Telemetry;

use crate::NativeError;

/// How a cached-compile request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The shared object was loaded (and CRC-verified) from disk.
    DiskHit,
    /// `cc` had to be invoked.
    Miss,
}
/// The version banner of the host C compiler (first line of
/// `cc --version`), computed once per process. Unavailable compilers
/// yield `"unknown"` — the subsequent `cc` invocation will produce the
/// real error.
pub fn cc_version() -> &'static str {
    static VERSION: OnceLock<String> = OnceLock::new();
    VERSION.get_or_init(|| {
        std::process::Command::new("cc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|out| {
                String::from_utf8_lossy(&out.stdout)
                    .lines()
                    .next()
                    .map(str::to_string)
            })
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    })
}

/// 64-bit FNV-1a over `bytes`, from an explicit basis so two passes
/// with different bases give 128 key bits.
fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A thread-safe content-addressed store of compiled `.so` images.
///
/// Shared across search workers behind an `Arc`. The one mutex guards
/// the telemetry counters alone: lookups, inserts and evictions are file
/// operations on the directory, done outside it.
#[derive(Debug, Default)]
pub struct KernelCache {
    /// Where objects are filed; `None` files nothing.
    pub(crate) dir: Option<PathBuf>,
    tel: Mutex<Telemetry>,
}

impl KernelCache {
    /// A cache with no directory: it stores nothing, so every build
    /// through it runs `cc` (it still counts them).
    pub fn none() -> KernelCache {
        KernelCache::default()
    }

    /// A cache backed by `dir`: hits survive across processes, and a
    /// kernel another process files later is a hit here too. The
    /// directory is created if needed.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors creating the directory.
    pub fn with_dir(dir: &Path) -> Result<KernelCache, NativeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| NativeError::Io(format!("creating {}: {e}", dir.display())))?;
        Ok(KernelCache {
            dir: Some(dir.to_path_buf()),
            ..KernelCache::none()
        })
    }

    /// The content key for one compilation under the `cc` command line
    /// `cc_line` (a [`CcTarget::command_line`](crate::CcTarget::command_line)):
    /// 128 hash bits over the emitted C source and that line. Anything
    /// that could change the produced object changes the key.
    pub fn key_for(c_src: &str, cc_line: &str) -> String {
        let mut text = String::with_capacity(c_src.len() + 256);
        text.push_str(c_src);
        text.push('\u{1f}');
        text.push_str(cc_line);
        format!(
            "{:016x}{:016x}",
            fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes()),
            fnv1a(0x9e37_79b9_7f4a_7c15, text.as_bytes())
        )
    }

    /// Looks up a compiled object by key: `<dir>/<key>.so`. A missing
    /// file (or no directory) is a miss; a file whose trailer fails the
    /// check is unlinked, counted, and reported as a miss so the caller
    /// recompiles. A hit is the object without its trailer.
    pub fn lookup(&self, key: &str) -> Option<Vec<u8>> {
        let path = self.so_path(key)?;
        let file = std::fs::read(&path).ok()?;
        let Some(object) = unseal(file) else {
            // Truncated, bit-flipped, or from before the trailer: purge
            // it so the recompiled object can take its place.
            let _ = std::fs::remove_file(&path);
            self.count("native.cache.corrupt_discarded");
            return None;
        };
        self.count("native.cache.disk_hits");
        Some(object)
    }

    /// Files a freshly compiled object under `key` in the cache
    /// directory (the object and its trailer into a pid-unique tmp file,
    /// renamed into place); without a directory, does nothing. Disk I/O
    /// failures are counted, not propagated: the kernel already
    /// compiled, so a full disk must not fail the candidate.
    pub fn insert(&self, key: &str, object: &[u8]) {
        if let Some(path) = self.so_path(key) {
            if write_sealed(&path, object, false).is_err() {
                self.count("native.cache.disk_write_failures");
            }
        }
    }

    /// Unlinks `key`'s file; the absent file is what keeps the eviction
    /// across a restart (a subsequent [`KernelCache::insert`] re-admits
    /// the key).
    ///
    /// Used to quarantine kernels whose *output* was found wrong after
    /// compilation (verification failure): the cache key only covers
    /// what goes *into* `cc`, so a miscompiled or corrupted object must
    /// be expelled explicitly or every retry would be served the same
    /// bad code.
    pub fn evict(&self, key: &str) {
        self.count("native.cache.quarantined");
        if let Some(path) = self.so_path(key) {
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Counts one run of the C compiler (`native.cc_invocations`), how
    /// long the build took (`native.cc_ms`, wall: writing the source, `cc`
    /// and its ISA fallback if any, loading the object), what it was
    /// handed (`native.c_bytes` of text) and what it was spared
    /// (`native.table_bytes` of table values the loader copies in);
    /// called by the cached compile path when it actually runs `cc`.
    pub fn count_cc_invocation(&self, c_bytes: usize, table_bytes: usize, wall: Duration) {
        let mut tel = self.tel();
        tel.add("native.cc_invocations", 1);
        tel.add("native.cc_ms", wall.as_millis() as u64);
        tel.add("native.c_bytes", c_bytes as u64);
        tel.add("native.table_bytes", table_bytes as u64);
    }

    /// Takes the accumulated cache telemetry (hit/miss/evict and cc
    /// invocation counters), leaving the cache's own copy empty — safe
    /// to merge into a per-run report without double counting.
    pub fn drain_telemetry(&self) -> Telemetry {
        std::mem::take(&mut self.tel())
    }

    fn count(&self, counter: &str) {
        self.tel().add(counter, 1);
    }

    /// The counters. Every update leaves them valid, so a poisoned lock
    /// is no news.
    fn tel(&self) -> MutexGuard<'_, Telemetry> {
        self.tel.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn so_path(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.so")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spl_resilience::sealed::{trailer, MAGIC, TRAILER};

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spl_kcache_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn key_is_content_addressed() {
        let a = KernelCache::key_for("void f(void){}", "cc -O2");
        let b = KernelCache::key_for("void f(void){}", "cc -O2");
        let c = KernelCache::key_for("void g(void){}", "cc -O2");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
        assert_ne!(a, KernelCache::key_for("void f(void){}", "cc -O3"));
    }

    #[test]
    fn a_cache_without_a_directory_stores_nothing() {
        let cache = KernelCache::none();
        cache.insert("deadbeef", &[1, 2, 3]);
        assert!(cache.lookup("deadbeef").is_none());
        cache.evict("deadbeef");
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cache.disk_hits"), None);
        assert_eq!(tel.counter("native.cache.quarantined"), Some(1));
    }

    #[test]
    fn disk_roundtrip_across_instances() {
        let dir = tmp_dir("roundtrip");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("cafe", b"not really elf");
        }
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert_eq!(cache.lookup("cafe").unwrap(), b"not really elf");
        // The file is the object and its trailer; a hit is the object.
        let file = std::fs::read(dir.join("cafe.so")).unwrap();
        assert_eq!(file.len(), b"not really elf".len() + TRAILER);
        assert_eq!(&file[file.len() - 4..], MAGIC);
        // Every lookup reads the directory: nothing is kept in memory.
        assert!(cache.lookup("cafe").is_some());
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cache.disk_hits"), Some(2));
        // Take-semantics: a second drain starts from zero.
        assert!(cache
            .drain_telemetry()
            .counter("native.cache.disk_hits")
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
    #[test]
    fn corrupted_disk_entry_is_discarded() {
        let dir = tmp_dir("corrupt");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("beef", &[9u8; 64]);
        }
        // Flip a byte in the stored object; the trailer's CRC now disagrees.
        let so = dir.join("beef.so");
        let mut bytes = std::fs::read(&so).unwrap();
        bytes[10] ^= 0xff;
        std::fs::write(&so, &bytes).unwrap();
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert!(cache.lookup("beef").is_none(), "corrupt entry served");
        assert!(!so.exists(), "corrupt file not removed");
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cache.corrupt_discarded"), Some(1));
        // A reinsert (the recompile) works and is served again.
        cache.insert("beef", &[7u8; 64]);
        assert!(cache.lookup("beef").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_entry_is_discarded() {
        let dir = tmp_dir("truncated");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("feed", &[5u8; 128]);
        }
        let so = dir.join("feed.so");
        let bytes = std::fs::read(&so).unwrap();
        std::fs::write(&so, &bytes[..100]).unwrap();
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert!(cache.lookup("feed").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_bad_trailer_is_one_counted_miss_and_removed() {
        let dir = tmp_dir("trailers");
        let object = vec![6u8; 48];
        let mut good = object.clone();
        good.extend_from_slice(&trailer(&object));
        let flipped = |at: usize| {
            let mut f = good.clone();
            f[at] ^= 0x01;
            f
        };
        let cases = [
            ("short", good[..TRAILER - 1].to_vec()),
            ("magic", flipped(good.len() - 1)),
            ("crc", flipped(object.len() + 8)),
            ("length", flipped(object.len())),
        ];
        let cache = KernelCache::with_dir(&dir).unwrap();
        for (key, file) in cases {
            let so = dir.join(format!("{key}.so"));
            std::fs::write(&so, file).unwrap();
            assert!(cache.lookup(key).is_none(), "{key}: bad trailer served");
            assert!(!so.exists(), "{key}: bad file not removed");
            assert!(cache.lookup(key).is_none(), "{key}");
            let tel = cache.drain_telemetry();
            assert_eq!(
                tel.counter("native.cache.corrupt_discarded"),
                Some(1),
                "{key}"
            );
        }
        // The good file, for contrast, is a hit.
        std::fs::write(dir.join("good.so"), &good).unwrap();
        assert_eq!(cache.lookup("good").unwrap(), object);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_unlinks_the_file() {
        let dir = tmp_dir("evict");
        let cache = KernelCache::with_dir(&dir).unwrap();
        cache.insert("bad0", &[1u8; 32]);
        assert!(cache.lookup("bad0").is_some());
        cache.evict("bad0");
        assert!(cache.lookup("bad0").is_none(), "evicted key still served");
        assert!(!dir.join("bad0.so").exists(), "evicted .so left on disk");
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cache.quarantined"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_survives_restart() {
        let dir = tmp_dir("evict_restart");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("bad1", &[2u8; 32]);
            cache.evict("bad1");
        }
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert!(
            cache.lookup("bad1").is_none(),
            "evicted key served after restart"
        );
        // A reinsert after the eviction files the key again.
        cache.insert("bad1", &[3u8; 32]);
        drop(cache);
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert_eq!(cache.lookup("bad1").unwrap(), [3u8; 32]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_unknown_key_is_harmless() {
        let dir = tmp_dir("evict_unknown");
        let cache = KernelCache::with_dir(&dir).unwrap();
        cache.evict("never-inserted");
        assert!(cache.lookup("never-inserted").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
