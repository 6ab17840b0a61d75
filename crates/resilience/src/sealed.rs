//! Self-checking files: a payload followed by a 16-byte trailer — the
//! payload's length (u64 LE), its CRC-32 (u32 LE) and the magic `SPLk` —
//! written to a tmp file unique to its writer and renamed into place.
//!
//! A reader sees a whole file or none, and [`unseal`] tells a whole file
//! from one a crash left short or zeroed, or a flipped bit, so the rename
//! is all the coordination writers need: no log, no lock. The kernel
//! cache's `<key>.so` files and the wisdom DB's `*.entry` files are this
//! one format.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::crc32::crc32;

/// Bytes after the payload: length, CRC-32, magic.
pub const TRAILER: usize = 16;

/// The trailer's last four bytes.
pub const MAGIC: &[u8; 4] = b"SPLk";

/// The trailer that follows `payload` in its file.
pub fn trailer(payload: &[u8]) -> [u8; TRAILER] {
    let mut t = [0u8; TRAILER];
    t[..8].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    t[8..12].copy_from_slice(&crc32(payload).to_le_bytes());
    t[12..].copy_from_slice(MAGIC);
    t
}

/// The payload inside the bytes of a sealed file, or `None` when its
/// trailer is missing or disagrees with what precedes it.
pub fn unseal(mut file: Vec<u8>) -> Option<Vec<u8>> {
    let len = file.len().checked_sub(TRAILER)?;
    if file[len..] != trailer(&file[..len]) {
        return None;
    }
    file.truncate(len);
    Some(file)
}

/// Writes `payload` and its trailer to `<path>.<pid>.<seq>.tmp` and
/// renames that over `path`; with `sync` the data reaches the disk
/// before the rename, and the rename before the return (the directory
/// is synced too). The tmp name is unique per process and call, so two
/// writers of one path never share one. On failure the tmp file is
/// removed and `path` is as it was.
///
/// # Errors
///
/// Any I/O failure creating, writing, syncing or renaming the tmp file,
/// or syncing the directory.
pub fn write_sealed(path: &Path, payload: &[u8], sync: bool) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(payload)?;
            f.write_all(&trailer(payload))?;
            if sync {
                f.sync_data()?;
            }
            Ok(())
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    match path.parent() {
        Some(dir) if sync && !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_written_file_unseals_to_its_payload_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("spl_sealed_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("one.entry");
        for (payload, sync) in [(&b"first"[..], false), (&b"second, longer"[..], true)] {
            write_sealed(&path, payload, sync).unwrap();
            let file = std::fs::read(&path).unwrap();
            assert_eq!(file.len(), payload.len() + TRAILER);
            assert_eq!(unseal(file).unwrap(), payload);
        }
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["one.entry"]);
        // Into a directory that is not there: an error, nothing left.
        assert!(write_sealed(&dir.join("absent/x"), b"x", true).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_short_or_flipped_file_does_not_unseal() {
        let mut good = b"payload".to_vec();
        good.extend_from_slice(&trailer(b"payload"));
        assert!(unseal(good[..TRAILER - 1].to_vec()).is_none());
        assert!(unseal(good[1..].to_vec()).is_none());
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert!(unseal(bad).is_none(), "flip at {at}");
        }
        assert_eq!(unseal(good).unwrap(), b"payload");
    }
}
