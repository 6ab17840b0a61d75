//! A content-addressed cache of compiled kernel shared objects.
//!
//! A timing search compiles thousands of generated kernels, and many of
//! them are byte-identical: shared subtrees recur across sizes, and a
//! rerun of the same search recompiles everything. The cache keys each
//! kernel by the *content* that determines the machine code — the
//! emitted C source, the [`BuildOptions`], and the effective `cc`
//! command line ([`cc_command_line`](crate::cc_command_line): flags,
//! ISA tokens, `cc` version) — so a hit is guaranteed to be the same
//! object `cc` would have produced, any change to compiler or flags
//! invalidates the entry automatically, and a directory shared with a
//! host of another vector level never hands this one code it cannot
//! execute. The C names a
//! kernel's tables by shape only; their values reach each loaded copy
//! of the object from the unit it is loaded for
//! (`NativeKernel::from_loaded`), so they are no part of what `cc` makes
//! of the text and no part of the key.
//!
//! Two layers:
//!
//! * **Memory** — an `Arc<Vec<u8>>` per shared object, bounded FIFO, so
//!   concurrent search workers share one copy per distinct kernel.
//! * **Disk (optional)** — the directory alone: `<dir>/<key>.so` holds
//!   the object followed by a fixed 16-byte trailer, the object's length
//!   (u64 LE), its CRC32 (u32 LE) and the magic `SPLk`
//!   ([`spl_resilience::sealed`], the wisdom DB's format too). The file
//!   name is the key; there is no index beside the files.
//!
//! The disk layer is safe to share between processes (a search and a
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

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use spl_resilience::sealed::{unseal, write_sealed};
use spl_telemetry::Telemetry;

use crate::{BuildOptions, NativeError};

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
    tel: Telemetry,
}

/// A thread-safe content-addressed store of compiled `.so` images.
///
/// Shared across search workers behind an [`Arc`]; all internal state
/// is guarded by one mutex, held across each whole operation (disk I/O
/// included) so a [`KernelCache::evict`] is ordered against a
/// concurrent lookup that would otherwise put the evicted bytes back
/// into memory. Lookups are byte-copies and one file read, never
/// compilations, so the critical sections are short.
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
                tel: Telemetry::new(),
            }),
            disk_dir: None,
        }
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
        let mut cache = KernelCache::in_memory();
        cache.disk_dir = Some(dir.to_path_buf());
        Ok(cache)
    }

    /// The content key for one compilation under the `cc` command line
    /// `cc_line` (a [`CcTarget::command_line`](crate::CcTarget::command_line)):
    /// 128 hash bits over the emitted C source, the build options, and
    /// that line. Anything that could change the produced object
    /// changes the key.
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

    /// Looks up a compiled object by key: memory first, then
    /// `<dir>/<key>.so`. A missing file is a miss; a file whose trailer
    /// fails the check is unlinked, counted, and reported as a miss so
    /// the caller recompiles. A hit is the object without its trailer.
    pub fn lookup(&self, key: &str) -> Option<(Arc<Vec<u8>>, CacheOutcome)> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(bytes) = inner.mem.get(key) {
            let bytes = Arc::clone(bytes);
            inner.tel.add("native.cache.memory_hits", 1);
            return Some((bytes, CacheOutcome::MemoryHit));
        }
        let path = self.so_path(key)?;
        let file = std::fs::read(&path).ok()?;
        let Some(object) = unseal(file) else {
            // Truncated, bit-flipped, or from before the trailer: purge
            // it so the recompiled object can take its place.
            let _ = std::fs::remove_file(&path);
            inner.tel.add("native.cache.corrupt_discarded", 1);
            return None;
        };
        let bytes = Arc::new(object);
        Self::remember(&mut inner, key, Arc::clone(&bytes));
        inner.tel.add("native.cache.disk_hits", 1);
        Some((bytes, CacheOutcome::DiskHit))
    }

    /// Inserts a freshly compiled object under `key`, into memory and —
    /// when disk-backed — the cache directory (the object and its
    /// trailer into a pid-unique tmp file, renamed into place). Disk I/O
    /// failures are counted, not propagated: the kernel already
    /// compiled, so a full disk must not fail the candidate.
    pub fn insert(&self, key: &str, bytes: Vec<u8>) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(path) = self.so_path(key) {
            if write_sealed(&path, &bytes, false).is_err() {
                inner.tel.add("native.cache.disk_write_failures", 1);
            }
        }
        Self::remember(&mut inner, key, Arc::new(bytes));
    }

    /// Removes `key` from memory and unlinks its file; the absent file
    /// is what keeps the eviction across a restart (a subsequent
    /// [`KernelCache::insert`] re-admits the key).
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
        inner.tel.add("native.cache.quarantined", 1);
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
        let mut inner = self.inner.lock().unwrap();
        inner.tel.add("native.cc_invocations", 1);
        inner.tel.add("native.cc_ms", wall.as_millis() as u64);
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
        let opts = BuildOptions::default();
        let key = |src, opts: &BuildOptions| KernelCache::key_for(src, opts, "cc -O2");
        let a = key("void f(void){}", &opts);
        let b = key("void f(void){}", &opts);
        let c = key("void g(void){}", &opts);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
        let slow = BuildOptions {
            cc_timeout: std::time::Duration::from_secs(7),
            ..BuildOptions::default()
        };
        assert_ne!(a, key("void f(void){}", &slow));
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
        // The file is the object and its trailer; a hit is the object.
        let file = std::fs::read(dir.join("cafe.so")).unwrap();
        assert_eq!(file.len(), b"not really elf".len() + TRAILER);
        assert_eq!(&file[file.len() - 4..], MAGIC);
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
        assert_eq!(*cache.lookup("good").unwrap().0, object);
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
    fn evict_survives_restart() {
        let dir = tmp_dir("evict_restart");
        {
            let cache = KernelCache::with_dir(&dir).unwrap();
            cache.insert("bad1", vec![2u8; 32]);
            cache.evict("bad1");
        }
        let cache = KernelCache::with_dir(&dir).unwrap();
        assert!(
            cache.lookup("bad1").is_none(),
            "evicted key served after restart"
        );
        // A reinsert after the eviction files the key again.
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
}
