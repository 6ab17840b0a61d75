//! A content-addressed cache of compiled kernel shared objects.
//!
//! A timing search compiles thousands of generated kernels, and many of
//! them are byte-identical: shared subtrees recur across sizes, and a
//! rerun of the same search recompiles everything. The cache keys each
//! kernel by the *content* that determines the machine code — the
//! emitted C source, the [`BuildOptions`], and the effective `cc`
//! command line ([`cc_command_line`]: flags, ISA tokens, `cc` version)
//! — so a hit is guaranteed to be the same object `cc` would have
//! produced, any change to compiler or flags invalidates the entry
//! automatically, and a directory shared with a host of another vector
//! level never hands this one code it cannot execute. The C names a
//! kernel's tables by shape only; their values reach each loaded copy
//! of the object from the unit it is loaded for
//! (`NativeKernel::from_loaded`), so they are no part of what `cc` makes
//! of the text and no part of the key.
//!
//! Two layers:
//!
//! * **Memory** — an `Arc<Vec<u8>>` per shared object, bounded FIFO, so
//!   concurrent search workers share one copy per distinct kernel.
//! * **Disk (optional)** — `<dir>/<key>.so` files plus a CRC-framed
//!   `index.journal` ([`spl_resilience::journal`]) recording each
//!   entry's length and CRC32. Entries are written atomically
//!   (tmp + rename); a corrupt or truncated `.so` is detected by the
//!   index check, discarded, and recompiled rather than loaded.
//!
//! The disk layer is safe to share between processes (a search and a
//! serving daemon pointed at the same directory, or several daemons):
//! tmp files carry the writer's pid plus a per-process counter so
//! concurrent writers of the same key never interleave into one file,
//! and every disk mutation (index open/heal, insert, evict, corrupt
//! discard) happens under an advisory `index.lock`
//! ([`spl_resilience::lockfile`]), so index appends from different
//! processes never tear each other. The lock is advisory and degrades
//! to a no-op where unsupported — single-process use never needed it
//! for correctness.
//!
//! The cache never runs `cc` itself — callers
//! ([`NativeKernel::compile_cached`](crate::NativeKernel::compile_cached))
//! look up, compile on a miss, and insert the result.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use spl_resilience::crc32::crc32;
use spl_resilience::{FileLock, Journal};
use spl_telemetry::Telemetry;

use crate::{cc_command_line, BuildOptions, NativeError};

/// Bound on in-memory entries; a full small-search to 2^10 uses well
/// under a hundred distinct kernels, so this is a leak guard, not a
/// working-set limit.
const MEM_CAP: usize = 512;

/// How a cached-compile request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The shared object was already in memory.
    MemoryHit,
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

struct CacheInner {
    mem: HashMap<String, Arc<Vec<u8>>>,
    /// Insertion order of `mem` keys, for FIFO eviction.
    order: VecDeque<String>,
    /// Disk entries by key: (byte length, crc32). Later index records
    /// win, so a rewritten entry supersedes the old line.
    disk: HashMap<String, (u64, u32)>,
    index: Option<Journal>,
    tel: Telemetry,
}

/// A thread-safe content-addressed store of compiled `.so` images.
///
/// Shared across search workers behind an [`Arc`]; all internal state
/// is guarded by one mutex (lookups are byte-copies and index updates,
/// never compilations, so the critical sections are short).
pub struct KernelCache {
    inner: Mutex<CacheInner>,
    disk_dir: Option<PathBuf>,
}

impl fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelCache")
            .field("disk_dir", &self.disk_dir)
            .finish()
    }
}

impl KernelCache {
    /// A purely in-memory cache (the default for `compile_cached`).
    pub fn in_memory() -> KernelCache {
        KernelCache {
            inner: Mutex::new(CacheInner {
                mem: HashMap::new(),
                order: VecDeque::new(),
                disk: HashMap::new(),
                index: None,
                tel: Telemetry::new(),
            }),
            disk_dir: None,
        }
    }

    /// A cache backed by `dir`: hits survive across processes. The
    /// directory is created if needed and its `index.journal` loaded
    /// tolerantly (a torn final record is dropped, not fatal).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors creating the directory or opening the index.
    pub fn with_dir(dir: &Path) -> Result<KernelCache, NativeError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| NativeError::Io(format!("creating {}: {e}", dir.display())))?;
        // Opening may heal the journal (tmp + rename of the whole
        // file); hold the directory lock so a concurrent writer's
        // append is never torn off by the rewrite.
        let _lock = FileLock::acquire_or_noop(&dir.join("index.lock"));
        let (journal, loaded) = Journal::open(&dir.join("index.journal"))
            .map_err(|e| NativeError::Io(format!("kernel cache index: {e}")))?;
        let mut disk = HashMap::new();
        for rec in &loaded.records {
            if let Some((key, len, crc)) = parse_index_record(rec) {
                disk.insert(key, (len, crc));
            } else if let Some(key) = parse_rm_record(rec) {
                disk.remove(&key);
            }
        }
        let mut tel = Telemetry::new();
        if loaded.dropped > 0 {
            tel.add("native.cache.index_records_dropped", loaded.dropped as u64);
        }
        Ok(KernelCache {
            inner: Mutex::new(CacheInner {
                mem: HashMap::new(),
                order: VecDeque::new(),
                disk,
                index: Some(journal),
                tel,
            }),
            disk_dir: Some(dir.to_path_buf()),
        })
    }

    /// The content key for one compilation on this host: 128 hash bits
    /// over the emitted C source, the build options, and the effective
    /// `cc` command line. Anything that could change the produced
    /// object changes the key.
    pub fn key(c_src: &str, opts: &BuildOptions) -> String {
        Self::key_for(c_src, opts, cc_command_line())
    }

    /// [`KernelCache::key`] under an explicit command line (a
    /// [`CcTarget::command_line`](crate::CcTarget::command_line)).
    pub fn key_for(c_src: &str, opts: &BuildOptions, cc_line: &str) -> String {
        let mut text = String::with_capacity(c_src.len() + 256);
        text.push_str(c_src);
        text.push('\u{1f}');
        text.push_str(&format!("{opts:?}"));
        text.push('\u{1f}');
        text.push_str(cc_line);
        format!(
            "{:016x}{:016x}",
            fnv1a(0xcbf2_9ce4_8422_2325, text.as_bytes()),
            fnv1a(0x9e37_79b9_7f4a_7c15, text.as_bytes())
        )
    }

    /// Looks up a compiled object by key: memory first, then the disk
    /// directory (CRC-verified against the index; corrupt entries are
    /// discarded and reported as a miss so the caller recompiles).
    pub fn lookup(&self, key: &str) -> Option<(Arc<Vec<u8>>, CacheOutcome)> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(bytes) = inner.mem.get(key) {
            let bytes = Arc::clone(bytes);
            inner.tel.add("native.cache.memory_hits", 1);
            return Some((bytes, CacheOutcome::MemoryHit));
        }
        let (want_len, want_crc) = inner.disk.get(key).copied()?;
        let path = self.so_path(key)?;
        let ok = std::fs::read(&path)
            .ok()
            .filter(|b| b.len() as u64 == want_len && crc32(b) == want_crc);
        match ok {
            Some(bytes) => {
                let bytes = Arc::new(bytes);
                Self::remember(&mut inner, key, Arc::clone(&bytes));
                inner.tel.add("native.cache.disk_hits", 1);
                Some((bytes, CacheOutcome::DiskHit))
            }
            None => {
                // Truncated, bit-flipped, or deleted: purge the entry so
                // the recompiled object can take its place. Under the
                // directory lock, so the removal can't race another
                // process's tmp + rename of a fresh copy.
                inner.disk.remove(key);
                let _lock = self.disk_lock();
                let _ = std::fs::remove_file(&path);
                inner.tel.add("native.cache.corrupt_discarded", 1);
                None
            }
        }
    }

    /// Inserts a freshly compiled object under `key`, into memory and —
    /// when disk-backed — the cache directory (atomic tmp + rename with
    /// a pid-unique tmp name, then an index record with length and
    /// CRC32, all under the directory lock). Disk I/O failures are
    /// counted, not propagated: the kernel already compiled, so a full
    /// disk must not fail the candidate.
    pub fn insert(&self, key: &str, bytes: Vec<u8>) {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let mut inner = self.inner.lock().unwrap();
        let bytes = Arc::new(bytes);
        Self::remember(&mut inner, key, Arc::clone(&bytes));
        let Some(path) = self.so_path(key) else {
            return;
        };
        // Unique per writer: two processes (or threads) inserting the
        // same key never write into the same tmp file.
        let tmp = path.with_extension(format!(
            "so.{}.{}.tmp",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _lock = self.disk_lock();
        let written = std::fs::write(&tmp, bytes.as_slice())
            .and_then(|()| std::fs::rename(&tmp, &path))
            .is_ok();
        if !written {
            let _ = std::fs::remove_file(&tmp);
            inner.tel.add("native.cache.disk_write_failures", 1);
            return;
        }
        let len = bytes.len() as u64;
        let crc = crc32(&bytes);
        inner.disk.insert(key.to_string(), (len, crc));
        if let Some(journal) = inner.index.as_mut() {
            if journal
                .append(&format!("so {key} {len} {crc:08x}"))
                .is_err()
            {
                inner.tel.add("native.cache.disk_write_failures", 1);
            }
        }
    }

    /// Removes `key` everywhere: memory, the disk directory, and — when
    /// disk-backed — an `rm` tombstone record in the index journal so
    /// the eviction survives a process restart (later records win, so a
    /// subsequent [`KernelCache::insert`] re-admits the key).
    ///
    /// Used to quarantine kernels whose *output* was found wrong after
    /// compilation (verification failure): the cache key only covers
    /// what goes *into* `cc`, so a miscompiled or corrupted object must
    /// be expelled explicitly or every retry would be served the same
    /// bad code.
    pub fn evict(&self, key: &str) {
        let mut inner = self.inner.lock().unwrap();
        if inner.mem.remove(key).is_some() {
            inner.order.retain(|k| k != key);
        }
        let on_disk = inner.disk.remove(key).is_some();
        inner.tel.add("native.cache.quarantined", 1);
        if let Some(path) = self.so_path(key) {
            let _lock = self.disk_lock();
            let _ = std::fs::remove_file(&path);
            if on_disk {
                if let Some(journal) = inner.index.as_mut() {
                    if journal.append(&format!("rm {key}")).is_err() {
                        inner.tel.add("native.cache.disk_write_failures", 1);
                    }
                }
            }
        }
    }

    /// Counts one run of the C compiler (`native.cc_invocations`), what
    /// it was handed (`native.c_bytes` of text) and what it was spared
    /// (`native.table_bytes` of table values the loader copies in);
    /// called by the cached compile path when it actually runs `cc`.
    pub fn count_cc_invocation(&self, c_bytes: usize, table_bytes: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.tel.add("native.cc_invocations", 1);
        inner.tel.add("native.c_bytes", c_bytes as u64);
        inner.tel.add("native.table_bytes", table_bytes as u64);
    }

    /// Takes the accumulated cache telemetry (hit/miss/evict and cc
    /// invocation counters), leaving the cache's own copy empty — safe
    /// to merge into a per-run report without double counting.
    pub fn drain_telemetry(&self) -> Telemetry {
        std::mem::take(&mut self.inner.lock().unwrap().tel)
    }

    fn remember(inner: &mut CacheInner, key: &str, bytes: Arc<Vec<u8>>) {
        if inner.mem.insert(key.to_string(), bytes).is_none() {
            inner.order.push_back(key.to_string());
            if inner.order.len() > MEM_CAP {
                if let Some(old) = inner.order.pop_front() {
                    inner.mem.remove(&old);
                    inner.tel.add("native.cache.evictions", 1);
                }
            }
        }
    }

    fn so_path(&self, key: &str) -> Option<PathBuf> {
        self.disk_dir.as_ref().map(|d| d.join(format!("{key}.so")))
    }

    /// The advisory cross-process lock over the cache directory, or
    /// `None` for in-memory caches. Degrades to an unlocked guard where
    /// `flock` is unavailable.
    fn disk_lock(&self) -> Option<FileLock> {
        self.disk_dir
            .as_ref()
            .map(|d| FileLock::acquire_or_noop(&d.join("index.lock")))
    }
}

/// Parses one `so <key> <len> <crc:08x>` index record.
fn parse_index_record(rec: &str) -> Option<(String, u64, u32)> {
    let mut it = rec.split_whitespace();
    if it.next()? != "so" {
        return None;
    }
    let key = it.next()?.to_string();
    let len = it.next()?.parse().ok()?;
    let crc = u32::from_str_radix(it.next()?, 16).ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((key, len, crc))
}

/// Parses one `rm <key>` tombstone record (written by
/// [`KernelCache::evict`]).
fn parse_rm_record(rec: &str) -> Option<String> {
    let mut it = rec.split_whitespace();
    if it.next()? != "rm" {
        return None;
    }
    let key = it.next()?.to_string();
    if it.next().is_some() {
        return None;
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("spl_kcache_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn key_is_content_addressed() {
        let opts = BuildOptions::default();
        let a = KernelCache::key("void f(void){}", &opts);
        let b = KernelCache::key("void f(void){}", &opts);
        let c = KernelCache::key("void g(void){}", &opts);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
        let slow = BuildOptions {
            cc_timeout: std::time::Duration::from_secs(7),
            ..BuildOptions::default()
        };
        assert_ne!(a, KernelCache::key("void f(void){}", &slow));
    }

    #[test]
    fn memory_roundtrip_and_counters() {
        let cache = KernelCache::in_memory();
        assert!(cache.lookup("deadbeef").is_none());
        cache.insert("deadbeef", vec![1, 2, 3]);
        let (bytes, outcome) = cache.lookup("deadbeef").unwrap();
        assert_eq!(*bytes, vec![1, 2, 3]);
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cache.memory_hits"), Some(1));
        // Take-semantics: a second drain starts from zero.
        assert!(cache
            .drain_telemetry()
            .counter("native.cache.memory_hits")
            .is_none());
    }

    #[test]
    fn disk_roundtrip_across_instances() {
        let dir = tmp_dir("roundtrip");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("cafe", b"not really elf".to_vec());
        }
        let cache = KernelCache::with_dir(&dir).unwrap();
        let (bytes, outcome) = cache.lookup("cafe").unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(bytes.as_slice(), b"not really elf");
        // Now resident in memory too.
        assert_eq!(cache.lookup("cafe").unwrap().1, CacheOutcome::MemoryHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_entry_is_discarded() {
        let dir = tmp_dir("corrupt");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("beef", vec![9u8; 64]);
        }
        // Flip a byte in the stored object; the index CRC now disagrees.
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
        cache.insert("beef", vec![7u8; 64]);
        assert!(cache.lookup("beef").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_disk_entry_is_discarded() {
        let dir = tmp_dir("truncated");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("feed", vec![5u8; 128]);
        }
        let so = dir.join("feed.so");
        let bytes = std::fs::read(&so).unwrap();
        std::fs::write(&so, &bytes[..100]).unwrap();
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert!(cache.lookup("feed").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_is_fifo_and_counted() {
        let cache = KernelCache::in_memory();
        for i in 0..(MEM_CAP + 3) {
            cache.insert(&format!("k{i}"), vec![i as u8]);
        }
        assert!(cache.lookup("k0").is_none(), "oldest entry not evicted");
        assert!(cache.lookup("k5").is_some() || MEM_CAP < 6);
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cache.evictions"), Some(3));
    }

    #[test]
    fn evict_purges_memory_and_disk() {
        let dir = tmp_dir("evict");
        let cache = KernelCache::with_dir(&dir).unwrap();
        cache.insert("bad0", vec![1u8; 32]);
        assert!(cache.lookup("bad0").is_some());
        cache.evict("bad0");
        assert!(cache.lookup("bad0").is_none(), "evicted key still served");
        assert!(!dir.join("bad0.so").exists(), "evicted .so left on disk");
        let tel = cache.drain_telemetry();
        assert_eq!(tel.counter("native.cache.quarantined"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_tombstone_survives_restart() {
        let dir = tmp_dir("tombstone");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("bad1", vec![2u8; 32]);
            cache.evict("bad1");
        }
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert!(cache.lookup("bad1").is_none(), "tombstone ignored on load");
        // A reinsert after the tombstone wins (later records beat earlier).
        cache.insert("bad1", vec![3u8; 32]);
        drop(cache);
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert_eq!(cache.lookup("bad1").unwrap().1, CacheOutcome::DiskHit);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evict_unknown_key_is_harmless() {
        let cache = KernelCache::in_memory();
        cache.evict("never-inserted");
        assert!(cache.lookup("never-inserted").is_none());
    }

    #[test]
    fn rm_records_parse() {
        assert_eq!(parse_rm_record("rm abc123"), Some("abc123".into()));
        assert_eq!(parse_rm_record("so abc123 1 ff"), None);
        assert_eq!(parse_rm_record("rm"), None);
        assert_eq!(parse_rm_record("rm k extra"), None);
    }

    #[test]
    fn index_records_parse() {
        assert_eq!(
            parse_index_record("so abc123 42 deadbeef"),
            Some(("abc123".into(), 42, 0xdeadbeef))
        );
        assert_eq!(parse_index_record("wisdom abc 1 2"), None);
        assert_eq!(parse_index_record("so onlykey"), None);
        assert_eq!(parse_index_record("so k 1 zz"), None);
        assert_eq!(parse_index_record("so k 1 ff extra"), None);
    }
}
