//! The shared on-disk entry discipline: checksummed self-verifying files,
//! atomic temp+rename stores, orphan-temp sweeps, quarantine of corrupt
//! entries, and oldest-first byte-budget eviction.
//!
//! This is the hardening the engine's `ResultCache` grew (atomic writes,
//! checksum-quarantine, budgets), extracted so every persistent store in
//! the workspace — the result cache and the warm-state
//! [`SnapshotStore`](crate::SnapshotStore) — runs the *same* crash-safety protocol
//! instead of a divergent copy. A [`DiskProfile`] parameterizes the parts
//! that legitimately differ per store: the magic header (which doubles as
//! the format version), the entry file extension, whether bare payloads
//! without a header pass through (legacy result-cache entries predate
//! checksumming; snapshots never had a headerless era), and the failpoint
//! site names (so chaos tests can aim at one store at a time).
//!
//! Entry layout: `<magic><fnv64 hex>\n<payload>`. The checksum line lets a
//! reader distinguish "complete entry" from torn or bit-rotted bytes
//! without trusting the payload parser to notice.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes concurrent writers' temp files (multiple workers, or
/// several processes sharing one store directory, may write at once — even
/// the same key, where last-rename-wins is fine because equal keys imply
/// equal bytes).
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// FNV-1a, the workspace's stable no-dependency hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one store's disk entries look like and which failpoints govern
/// them. Construct as a `const` next to the store that owns it.
#[derive(Debug, Clone, Copy)]
pub struct DiskProfile {
    /// Header prefix of every entry, including a trailing space; the
    /// checksum follows it. Doubles as the format version: bump the
    /// embedded digit on incompatible changes and old entries read as
    /// corrupt (quarantined, rebuilt — never misparsed).
    pub magic: &'static str,
    /// Entry file extension (no dot). Everything else in the directory is
    /// invisible to counting, budgets and lookups.
    pub entry_ext: &'static str,
    /// Failpoint site checked before every disk read.
    pub read_failpoint: &'static str,
    /// Failpoint site checked before every disk write.
    pub write_failpoint: &'static str,
    /// Failpoint site fired between temp write and rename — simulates a
    /// crash in the exact window the atomic protocol defends (process
    /// exits 86).
    pub crash_failpoint: &'static str,
    /// When `true`, files without the magic header are returned as their
    /// own payload (entries written before checksumming existed). When
    /// `false`, a missing header is corruption.
    pub legacy_passthrough: bool,
}

/// Outcome of [`DiskProfile::read_entry`].
#[derive(Debug)]
pub enum DiskRead {
    /// No entry (or the read failed for any reason other than invalid
    /// UTF-8 — treated the same: a miss, not corruption).
    Missing,
    /// The file exists but fails verification (bad header, bad checksum,
    /// or bytes that stopped being UTF-8). The caller should quarantine
    /// it and count the eviction.
    Corrupt,
    /// A complete, checksum-verified payload.
    Payload(String),
}

impl DiskProfile {
    /// Serializes a disk entry: checksum header line, then the payload.
    pub fn encode_entry(&self, payload: &str) -> String {
        format!(
            "{}{:016x}\n{payload}",
            self.magic,
            fnv1a(payload.as_bytes())
        )
    }

    /// Splits and verifies a disk entry. `None` means corrupt (bad header,
    /// bad checksum); with `legacy_passthrough`, headerless text passes
    /// through for the payload parser to judge.
    pub fn decode_entry<'a>(&self, text: &'a str) -> Option<&'a str> {
        match text.strip_prefix(self.magic) {
            Some(rest) => {
                let (sum, payload) = rest.split_once('\n')?;
                let sum = u64::from_str_radix(sum, 16).ok()?;
                (sum == fnv1a(payload.as_bytes())).then_some(payload)
            }
            None => self.legacy_passthrough.then_some(text),
        }
    }

    /// Path of the entry for `key` (keys are lowercase hex — filesystem
    /// safe by construction).
    pub fn entry_path(&self, dir: &Path, key: &str) -> PathBuf {
        dir.join(format!("{key}.{}", self.entry_ext))
    }

    /// Reads and verifies the entry for `key`.
    pub fn read_entry(&self, dir: &Path, key: &str) -> DiskRead {
        let path = self.entry_path(dir, key);
        let read = if domino_failpoint::should_fire(self.read_failpoint) {
            Err(domino_failpoint::injected_io_error(self.read_failpoint))
        } else {
            std::fs::read_to_string(&path)
        };
        match read {
            // Entries are text; bytes that stopped being UTF-8 are bit
            // rot, not a missing file — quarantine them like any other
            // failed verification. Every other error (incl. injected
            // read failures) stays a plain miss.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => DiskRead::Corrupt,
            Err(_) => DiskRead::Missing,
            Ok(text) => match self.decode_entry(&text) {
                Some(payload) => DiskRead::Payload(payload.to_string()),
                None => DiskRead::Corrupt,
            },
        }
    }

    /// Writes the entry for `key` **atomically**: encoded bytes go to a
    /// unique temp file first, which is then renamed over the entry path.
    /// A process killed mid-store can never leave a truncated entry —
    /// readers observe either no entry or a complete one. Returns the
    /// entry path on success; failures are best-effort-cleaned and
    /// reported as `None` (stores are accelerators, not sources of truth).
    pub fn write_entry(&self, dir: &Path, key: &str, payload: &str) -> Option<PathBuf> {
        let path = self.entry_path(dir, key);
        // The temp name's ".tmp…" suffix keeps it outside the entry
        // extension filter of the counting/clearing scans.
        let temp = dir.join(format!(
            "{key}.tmp{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let text = self.encode_entry(payload);
        let written = !domino_failpoint::should_fire(self.write_failpoint)
            && std::fs::write(&temp, text).is_ok();
        if written && domino_failpoint::should_fire(self.crash_failpoint) {
            // Chaos-only: die between the temp write and the rename — the
            // exact window the atomic protocol defends. Exit code 86 marks
            // an injected crash.
            std::process::exit(86);
        }
        let stored = written && std::fs::rename(&temp, &path).is_ok();
        if !stored {
            // Failed write (disk full: a *partial* temp file) or failed
            // rename: don't leave the orphan around.
            let _ = std::fs::remove_file(&temp);
            return None;
        }
        Some(path)
    }

    /// Deletes oldest-first (by modification time) entries until the
    /// directory fits `budget` bytes. `keep` — the entry just written — is
    /// never a victim, so a store always lands even when the budget is
    /// smaller than one entry. Returns how many entries were evicted.
    /// Best-effort like disk writes: a missed eviction only delays
    /// reclamation until the next store.
    pub fn enforce_byte_budget(&self, dir: &Path, keep: &Path, budget: u64) -> u64 {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return 0;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == self.entry_ext))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total <= budget {
            return 0;
        }
        files.sort(); // oldest mtime first; path breaks mtime ties
        let mut evicted = 0;
        for (_, path, len) in files {
            if total <= budget {
                break;
            }
            if path == keep {
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                total = total.saturating_sub(len);
                evicted += 1;
            }
        }
        evicted
    }

    /// Number of complete entries in `dir`.
    pub fn entry_count(&self, dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == self.entry_ext))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Total bytes of complete entries in `dir` (temps and quarantined
    /// corpses excluded, matching the byte budget's accounting).
    pub fn entry_bytes(&self, dir: &Path) -> u64 {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == self.entry_ext))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Deletes every entry, orphaned temp and quarantined corpse in `dir`:
    /// clear means a pristine directory.
    ///
    /// # Errors
    ///
    /// A human-readable message when a removal fails.
    pub fn clear_dir(&self, dir: &Path) -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("reading store dir: {e}"))?;
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            let is_entry = path.extension().is_some_and(|x| x == self.entry_ext);
            let is_orphan_temp = path
                .extension()
                .and_then(|x| x.to_str())
                .is_some_and(|x| x.starts_with("tmp"));
            if is_entry || is_orphan_temp {
                std::fs::remove_file(&path)
                    .map_err(|e| format!("removing {}: {e}", path.display()))?;
            }
        }
        let _ = std::fs::remove_dir_all(dir.join("quarantine"));
        Ok(())
    }
}

/// Removes `<key>.tmp…` files left by a writer that died between its temp
/// write and the rename. Runs at store open so a restarted process starts
/// from a consistent directory: complete entries only. Sweeping a *live*
/// writer's in-flight temp (another process sharing the directory) merely
/// fails that writer's rename, which stores already swallow as a
/// best-effort write.
pub fn sweep_orphan_temps(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let is_orphan_temp = path
            .extension()
            .and_then(|x| x.to_str())
            .is_some_and(|x| x.starts_with("tmp"));
        if is_orphan_temp {
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Moves a corrupt entry file into `<dir>/quarantine/` (falling back to
/// deletion if the move fails). Quarantined files are kept for post-mortem
/// inspection but are invisible to lookups, entry counts and byte budgets.
/// The caller counts the event.
pub fn quarantine(dir: &Path, path: &Path) {
    let qdir = dir.join("quarantine");
    let moved = match path.file_name() {
        Some(name) => {
            std::fs::create_dir_all(&qdir).is_ok() && std::fs::rename(path, qdir.join(name)).is_ok()
        }
        None => false,
    };
    if !moved {
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: DiskProfile = DiskProfile {
        magic: "testmagic1 ",
        entry_ext: "ent",
        read_failpoint: "test.store.disk_read",
        write_failpoint: "test.store.disk_write",
        crash_failpoint: "test.store.crash_rename",
        legacy_passthrough: false,
    };

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dominolp-disk-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checksum_roundtrip_and_flip_detection() {
        let payload = "line one\nline two";
        let encoded = P.encode_entry(payload);
        assert_eq!(P.decode_entry(&encoded), Some(payload));
        let mut bytes = encoded.clone().into_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        let flipped = String::from_utf8(bytes).unwrap();
        assert_eq!(P.decode_entry(&flipped), None);
        // No legacy passthrough: headerless text is corrupt.
        assert_eq!(P.decode_entry(payload), None);
        // With passthrough it would be the payload itself.
        let legacy = DiskProfile {
            legacy_passthrough: true,
            ..P
        };
        assert_eq!(legacy.decode_entry(payload), Some(payload));
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = temp_dir("rw");
        assert!(matches!(P.read_entry(&dir, "abcd"), DiskRead::Missing));
        P.write_entry(&dir, "abcd", "hello").unwrap();
        match P.read_entry(&dir, "abcd") {
            DiskRead::Payload(p) => assert_eq!(p, "hello"),
            other => panic!("expected payload, got {other:?}"),
        }
        assert_eq!(P.entry_count(&dir), 1);
        assert!(P.entry_bytes(&dir) > 0);
        P.clear_dir(&dir).unwrap();
        assert_eq!(P.entry_count(&dir), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_bytes_read_as_corrupt_and_quarantine_moves_them() {
        let dir = temp_dir("torn");
        P.write_entry(&dir, "feed", "whole payload").unwrap();
        let path = P.entry_path(&dir, "feed");
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(P.read_entry(&dir, "feed"), DiskRead::Corrupt));
        quarantine(&dir, &path);
        assert!(!path.exists());
        assert!(dir.join("quarantine").join("feed.ent").exists());
        assert_eq!(P.entry_count(&dir), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_budget_evicts_oldest_never_newest() {
        let dir = temp_dir("budget");
        let payload = "x".repeat(64);
        P.write_entry(&dir, "1111", &payload).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let kept = P.write_entry(&dir, "2222", &payload).unwrap();
        let one_entry = P.encode_entry(&payload).len() as u64;
        let evicted = P.enforce_byte_budget(&dir, &kept, one_entry);
        assert_eq!(evicted, 1);
        assert!(!P.entry_path(&dir, "1111").exists());
        assert!(kept.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_removes_entries_temps_and_quarantine() {
        let dir = temp_dir("clear");
        P.write_entry(&dir, "aa11", "an entry").unwrap();
        std::fs::write(dir.join("dead.tmp1-0"), "orphan").unwrap();
        std::fs::create_dir_all(dir.join("quarantine")).unwrap();
        std::fs::write(dir.join("quarantine").join("old.ent"), "corpse").unwrap();

        P.clear_dir(&dir).unwrap();
        assert_eq!(P.entry_count(&dir), 0);
        assert!(!dir.join("dead.tmp1-0").exists());
        assert!(!dir.join("quarantine").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_temps_swept_but_entries_kept() {
        let dir = temp_dir("sweep");
        P.write_entry(&dir, "aaaa", "keep me").unwrap();
        std::fs::write(dir.join("dead.tmp999-0"), "half a write").unwrap();
        sweep_orphan_temps(&dir);
        assert!(P.entry_path(&dir, "aaaa").exists());
        assert!(!dir.join("dead.tmp999-0").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
