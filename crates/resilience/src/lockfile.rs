//! Advisory whole-file locks for multi-process coordination.
//!
//! On-disk state shared between processes — the wisdom database that
//! searches and daemons share — needs a mutual-exclusion primitive that
//! survives `kill -9` (kernel-released, not lockfile-presence-based).
//! POSIX `flock` is exactly that: the lock dies with the process, so a
//! crashed holder never wedges its peers. [`FileLock`] wraps it RAII
//! style; dropping the guard releases the lock.
//!
//! On non-Unix platforms acquisition reports
//! [`LockError::Unsupported`]; callers that merely *prefer* exclusion
//! (single-process use is already safe) should treat that as a no-op
//! via [`FileLock::acquire_or_noop`].

use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;

/// Why a lock could not be taken.
#[derive(Debug)]
pub enum LockError {
    /// Opening or creating the lock file failed.
    Io(io::Error),
    /// `flock` itself failed.
    Flock(io::Error),
    /// No advisory-lock support on this platform.
    Unsupported,
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Io(e) => write!(f, "opening lock file: {e}"),
            LockError::Flock(e) => write!(f, "flock: {e}"),
            LockError::Unsupported => write!(f, "file locks unsupported on this platform"),
        }
    }
}

impl std::error::Error for LockError {}

/// An exclusive advisory lock on a file, held until drop.
///
/// The lock is per-open-file-description: two `FileLock`s on the same
/// path exclude each other across *and* within processes. It is
/// advisory — only cooperating lockers are serialized.
#[derive(Debug)]
pub struct FileLock {
    // Held only for its drop side effect: closing the fd releases the
    // flock.
    _file: Option<File>,
}

#[cfg(unix)]
mod imp {
    use std::io;
    use std::os::unix::io::AsRawFd;

    const LOCK_EX: i32 = 2;
    const LOCK_UN: i32 = 8;

    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    pub fn lock_exclusive(file: &std::fs::File) -> io::Result<()> {
        // Restart on EINTR: a signal during a contended acquire is
        // routine for a daemon.
        loop {
            if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
                return Ok(());
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub fn unlock(file: &std::fs::File) {
        // Best-effort; closing the fd releases the lock anyway.
        unsafe { flock(file.as_raw_fd(), LOCK_UN) };
    }
}

impl FileLock {
    /// Blocks until an exclusive lock on `path` is held, creating the
    /// file if needed.
    ///
    /// # Errors
    ///
    /// See [`LockError`].
    pub fn acquire(path: &Path) -> Result<FileLock, LockError> {
        #[cfg(unix)]
        {
            let file = OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(path)
                .map_err(LockError::Io)?;
            imp::lock_exclusive(&file).map_err(LockError::Flock)?;
            Ok(FileLock { _file: Some(file) })
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(LockError::Unsupported)
        }
    }

    /// [`acquire`](FileLock::acquire), but degrades to an unlocked
    /// guard when the platform has no lock support or the lock file
    /// cannot be created (e.g. a read-only cache dir). Cross-process
    /// exclusion is then not guaranteed — callers use this where the
    /// lock is a hardening measure, not a correctness requirement
    /// within one process.
    pub fn acquire_or_noop(path: &Path) -> FileLock {
        match FileLock::acquire(path) {
            Ok(lock) => lock,
            Err(_) => FileLock { _file: None },
        }
    }

    /// Whether this guard actually holds a lock (false only on the
    /// degraded [`acquire_or_noop`](FileLock::acquire_or_noop) path).
    pub fn is_locked(&self) -> bool {
        self._file.is_some()
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Some(file) = &self._file {
            imp::unlock(file);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spl-lockfile-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn acquire_creates_and_locks() {
        let dir = tmp_dir("basic");
        let path = dir.join("index.lock");
        let lock = FileLock::acquire(&path).unwrap();
        assert!(lock.is_locked());
        assert!(path.exists());
        drop(lock);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lock_excludes_second_acquirer_until_dropped() {
        let dir = tmp_dir("excl");
        let path = dir.join("index.lock");
        let held = FileLock::acquire(&path).unwrap();

        let (tx, rx) = mpsc::channel();
        let path2 = path.clone();
        let t = std::thread::spawn(move || {
            // Blocks until the main thread drops its lock.
            let _second = FileLock::acquire(&path2).unwrap();
            tx.send(()).unwrap();
        });
        // While held, the second acquirer must not get through.
        assert!(
            rx.recv_timeout(Duration::from_millis(200)).is_err(),
            "second lock acquired while first was held"
        );
        drop(held);
        rx.recv_timeout(Duration::from_secs(5))
            .expect("second lock never acquired after release");
        t.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn acquire_or_noop_degrades_on_bad_path() {
        // A path whose parent doesn't exist cannot be created.
        let bogus = std::path::Path::new("/nonexistent-spl-lockfile-dir/x.lock");
        let guard = FileLock::acquire_or_noop(bogus);
        assert!(!guard.is_locked());
    }
}
