//! Persistent warm-state snapshots for the domino flow.
//!
//! Building the BDD kernel and converging the probability tables is by far
//! the dominant cost of a flow run on large circuits — and both are pure
//! functions of the network structure, the probability configuration and
//! the primary-input probabilities. This crate makes that work *restart
//! durable*: a [`WarmSnapshot`] captures what the flow reads from its
//! kernel — the converged per-node probabilities, the fixed-point power
//! total, and the kernel statistics and reorder outcome its report
//! carries — and a [`SnapshotStore`] persists snapshots on disk in a
//! versioned, checksummed format so a restarted server answers its first
//! request without building a single BDD node. The BDDs themselves are
//! never persisted: the search and the power estimate read only their
//! probabilities.
//!
//! Trust model, in layers — a snapshot is only served when every one holds:
//!
//! 1. **Container checksum** ([`DiskProfile`]): the file is a complete,
//!    untorn `dominosnap1` entry.
//! 2. **Header**: the payload is in the current [`SNAPSHOT_HEADER`]
//!    format, and it parses.
//! 3. **Fixed-point total**: the recorded total equals the sum of
//!    [`power_to_fixed`] over the loaded probabilities, pinning the
//!    arithmetic the power model will perform downstream.
//!
//! On top of those, the probability table must cover exactly the caller's
//! network nodes. Anything that fails is quarantined and reported as a
//! miss — corrupt state is rebuilt from scratch, never served. Keys are
//! the caller's business (the engine hashes the structural digest plus
//! the canonical probability configuration); the store treats them as
//! opaque hex strings.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod disk;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use domino_bdd::{BddStats, ReorderOutcome};
use domino_phase::power::{power_to_fixed, FixedPower};

pub use disk::{DiskProfile, DiskRead};

/// First line of every snapshot payload; the digit is the payload format
/// version. Bump it on incompatible changes: old snapshots then fail to
/// parse, get quarantined, and the flow transparently rebuilds.
pub const SNAPSHOT_HEADER: &str = "snapshot 2";

/// Disk discipline for snapshot entries. Same protocol as the engine's
/// result cache, different magic/extension/failpoints — and no legacy
/// passthrough, because snapshots never had a headerless era.
pub const SNAPSHOT_PROFILE: DiskProfile = DiskProfile {
    magic: "dominosnap1 ",
    entry_ext: "snap",
    read_failpoint: "engine.snapshot.disk_read",
    write_failpoint: "engine.snapshot.disk_write",
    crash_failpoint: "engine.snapshot.crash_rename",
    legacy_passthrough: false,
};

/// Why a snapshot payload was rejected. Every variant is handled the same
/// way by [`SnapshotStore::load`] — quarantine and rebuild — but the
/// message names the failing layer for post-mortems.
#[derive(Debug)]
pub struct SnapshotFormatError(String);

impl std::fmt::Display for SnapshotFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot rejected: {}", self.0)
    }
}

impl std::error::Error for SnapshotFormatError {}

fn malformed(msg: impl Into<String>) -> SnapshotFormatError {
    SnapshotFormatError(msg.into())
}

/// Everything the flow needs to skip the kernel stage: the converged
/// probability table, and the kernel-side statistics that keep a warm
/// run's report byte-identical to the cold run that produced it.
#[derive(Debug)]
pub struct WarmSnapshot {
    /// Converged signal probability of every network node, indexed by node
    /// id — exact bits of the cold computation.
    pub probs: Vec<f64>,
    /// Total reachable BDD node count the cold run reported.
    pub bdd_nodes: usize,
    /// Kernel traffic statistics from the cold build. A warm load builds
    /// no manager to count them, so they ride along verbatim.
    pub bdd_stats: Option<BddStats>,
    /// Outcome of dynamic variable reordering during the cold build, when
    /// reordering was enabled.
    pub reorder: Option<ReorderOutcome>,
}

impl WarmSnapshot {
    /// The fixed-point sum of the probability table under the power
    /// model's [`power_to_fixed`] quantization. Recorded in the payload
    /// and re-verified on load.
    pub fn fixed_power_total(&self) -> FixedPower {
        self.probs.iter().map(|&p| power_to_fixed(p)).sum()
    }

    /// Serializes the snapshot payload (the checksummed container header
    /// is the [`DiskProfile`]'s job, not ours).
    pub fn to_payload(&self) -> String {
        let mut out = String::new();
        out.push_str(SNAPSHOT_HEADER);
        out.push('\n');
        out.push_str(&format!("probs {}", self.probs.len()));
        for &p in &self.probs {
            out.push_str(&format!(" {:016x}", p.to_bits()));
        }
        out.push('\n');
        out.push_str(&format!("fixed_total {}\n", self.fixed_power_total()));
        out.push_str(&format!("bdd_nodes {}\n", self.bdd_nodes));
        if let Some(s) = &self.bdd_stats {
            out.push_str(&format!(
                "stats {} {} {} {} {} {} {}\n",
                s.nodes,
                s.n_vars,
                s.cache_entries,
                s.unique_hits,
                s.unique_misses,
                s.cache_hits,
                s.cache_misses
            ));
        }
        if let Some(r) = &self.reorder {
            out.push_str(&format!(
                "reorder {} {} {} {}",
                r.swaps, r.sift_rounds, r.nodes_before, r.nodes_after
            ));
            for &v in &r.final_order {
                out.push_str(&format!(" {v}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parses and verifies a snapshot payload: header, line shapes, each
    /// probability in `[0, 1]` and the fixed-point total. Every count a
    /// payload declares is checked against the tokens actually read, so
    /// allocation stays proportional to the payload's bytes.
    ///
    /// # Errors
    ///
    /// A [`SnapshotFormatError`] naming the failing check.
    pub fn from_payload(payload: &str) -> Result<WarmSnapshot, SnapshotFormatError> {
        let mut lines = payload.lines();
        let header = lines.next().ok_or_else(|| malformed("empty payload"))?;
        if header != SNAPSHOT_HEADER {
            return Err(malformed(format!("unsupported header {header:?}")));
        }

        let mut toks = field(lines.next(), "probs")?.split_ascii_whitespace();
        let count: usize = toks
            .next()
            .ok_or_else(|| malformed("probs line missing count"))?
            .parse()
            .map_err(|_| malformed("probs count is not a number"))?;
        let probs: Vec<f64> = toks
            .map(|t| {
                u64::from_str_radix(t, 16)
                    .map(f64::from_bits)
                    .ok()
                    .filter(|p| (0.0..=1.0).contains(p))
                    .ok_or_else(|| malformed("probability bits are not a probability"))
            })
            .collect::<Result<_, _>>()?;
        if probs.len() != count {
            return Err(malformed(format!(
                "probs line holds {} values but declares {count}",
                probs.len()
            )));
        }

        let fixed_total: FixedPower = field(lines.next(), "fixed_total")?
            .parse()
            .map_err(|_| malformed("fixed_total is not an integer"))?;
        let bdd_nodes: usize = field(lines.next(), "bdd_nodes")?
            .parse()
            .map_err(|_| malformed("bdd_nodes is not a count"))?;

        let mut bdd_stats = None;
        let mut reorder = None;
        for line in lines {
            if let Some(rest) = line.strip_prefix("stats ") {
                let nums: Vec<u64> = rest
                    .split_ascii_whitespace()
                    .map(|t| t.parse().map_err(|_| malformed("stats field not a number")))
                    .collect::<Result<_, _>>()?;
                let [nodes, n_vars, cache_entries, unique_hits, unique_misses, cache_hits, cache_misses] =
                    nums[..]
                else {
                    return Err(malformed("stats line needs exactly 7 fields"));
                };
                bdd_stats = Some(BddStats {
                    nodes: nodes as usize,
                    n_vars: n_vars as usize,
                    cache_entries: cache_entries as usize,
                    unique_hits,
                    unique_misses,
                    cache_hits,
                    cache_misses,
                });
            } else if let Some(rest) = line.strip_prefix("reorder ") {
                let nums: Vec<u64> = rest
                    .split_ascii_whitespace()
                    .map(|t| {
                        t.parse()
                            .map_err(|_| malformed("reorder field not a number"))
                    })
                    .collect::<Result<_, _>>()?;
                if nums.len() < 4 {
                    return Err(malformed("reorder line needs at least 4 fields"));
                }
                reorder = Some(ReorderOutcome {
                    swaps: nums[0],
                    sift_rounds: nums[1] as u32,
                    nodes_before: nums[2] as usize,
                    nodes_after: nums[3] as usize,
                    final_order: nums[4..].iter().map(|&v| v as usize).collect(),
                });
            } else if !line.is_empty() {
                return Err(malformed(format!("unexpected trailing line {line:?}")));
            }
        }

        // Checked: millions of probabilities near one would overflow.
        let actual = probs
            .iter()
            .try_fold(0, |sum: FixedPower, &p| sum.checked_add(power_to_fixed(p)));
        if actual != Some(fixed_total) {
            return Err(malformed(format!(
                "fixed-point total {actual:?} does not match recorded {fixed_total}"
            )));
        }
        Ok(WarmSnapshot {
            probs,
            bdd_nodes,
            bdd_stats,
            reorder,
        })
    }
}

fn field<'a>(line: Option<&'a str>, key: &str) -> Result<&'a str, SnapshotFormatError> {
    let line = line.ok_or_else(|| malformed(format!("missing {key} line")))?;
    line.strip_prefix(key)
        .map(str::trim_start)
        .ok_or_else(|| malformed(format!("expected {key} line, found {line:?}")))
}

/// Counters a [`SnapshotStore`] accumulates over its lifetime. Exposed
/// verbatim in the server's `/metrics` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Loads served from a fully verified snapshot.
    pub hits: u64,
    /// Loads that found nothing servable (absent, corrupt, or shape
    /// mismatch).
    pub misses: u64,
    /// Snapshots written to disk.
    pub stores: u64,
    /// Entries quarantined because a verification layer failed.
    pub corrupt_evictions: u64,
    /// Entries evicted by the disk byte budget.
    pub disk_evictions: u64,
    /// Full kernel builds the engine performed because no snapshot was
    /// servable. The warm-restart contract is exactly `kernel_builds == 0`
    /// on a snapshot-warm first request.
    pub kernel_builds: u64,
}

/// A disk-backed store of [`WarmSnapshot`]s keyed by opaque hex strings.
///
/// Deliberately has no in-memory layer: within a process, repeat requests
/// are answered by the engine's result cache; the snapshot store exists to
/// survive restarts. A caller without a store passes `None` where it would
/// pass one.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
    disk_budget: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt_evictions: AtomicU64,
    disk_evictions: AtomicU64,
    kernel_builds: AtomicU64,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory. Orphaned temp
    /// files from writers that died mid-store are swept immediately, so
    /// the directory holds complete entries only.
    ///
    /// # Errors
    ///
    /// A human-readable message when the directory cannot be created.
    pub fn on_disk(dir: impl Into<PathBuf>) -> Result<SnapshotStore, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("creating snapshot dir {}: {e}", dir.display()))?;
        disk::sweep_orphan_temps(&dir);
        Ok(SnapshotStore {
            dir,
            disk_budget: 0,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt_evictions: AtomicU64::new(0),
            disk_evictions: AtomicU64::new(0),
            kernel_builds: AtomicU64::new(0),
        })
    }

    /// Caps the total bytes of snapshot entries on disk; oldest entries
    /// are evicted after each store until the directory fits. The entry
    /// just written is never evicted. `0` (the default) means unbounded,
    /// as for the result cache.
    #[must_use]
    pub fn with_disk_byte_budget(mut self, budget: u64) -> SnapshotStore {
        self.disk_budget = budget;
        self
    }

    /// Loads and fully verifies the snapshot under `key`. `expected_nodes`
    /// is the caller's network node count — a snapshot whose probability
    /// count differs is not the caller's circuit (a key collision) and is
    /// quarantined like any other corruption. Returns `None` on any miss;
    /// the caller rebuilds and [`store`](SnapshotStore::store)s.
    pub fn load(&self, key: &str, expected_nodes: usize) -> Option<WarmSnapshot> {
        let dir = &self.dir;
        let verified = match SNAPSHOT_PROFILE.read_entry(dir, key) {
            DiskRead::Missing => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            DiskRead::Corrupt => None,
            DiskRead::Payload(payload) => WarmSnapshot::from_payload(&payload)
                .ok()
                .filter(|s| s.probs.len() == expected_nodes),
        };
        if verified.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            // Torn bytes, or a checksum that passed over a payload failing a
            // deeper check (header, parse, fixed-point total, shape): out of
            // the serving path, rebuilt fresh.
            disk::quarantine(dir, &SNAPSHOT_PROFILE.entry_path(dir, key));
            self.corrupt_evictions.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        verified
    }

    /// Persists `snapshot` under `key` (atomic temp+rename), then enforces
    /// the disk byte budget.
    pub fn store(&self, key: &str, snapshot: &WarmSnapshot) {
        let dir = &self.dir;
        let payload = snapshot.to_payload();
        if let Some(path) = SNAPSHOT_PROFILE.write_entry(dir, key, &payload) {
            self.stores.fetch_add(1, Ordering::Relaxed);
            if self.disk_budget > 0 {
                let evicted = SNAPSHOT_PROFILE.enforce_byte_budget(dir, &path, self.disk_budget);
                self.disk_evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Records that the engine performed a full kernel build (BDD
    /// construction + probability convergence) because no snapshot was
    /// servable. The restart-warm contract reads this counter: it answers
    /// "did this process do kernel work", which `hits` and `misses` alone
    /// cannot.
    pub fn note_kernel_build(&self) {
        self.kernel_builds.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the lifetime counters.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt_evictions: self.corrupt_evictions.load(Ordering::Relaxed),
            disk_evictions: self.disk_evictions.load(Ordering::Relaxed),
            kernel_builds: self.kernel_builds.load(Ordering::Relaxed),
        }
    }

    /// Number of complete snapshot entries on disk.
    pub fn disk_len(&self) -> usize {
        SNAPSHOT_PROFILE.entry_count(&self.dir)
    }

    /// Total bytes of complete snapshot entries on disk.
    pub fn disk_bytes(&self) -> u64 {
        SNAPSHOT_PROFILE.entry_bytes(&self.dir)
    }
}

#[cfg(test)]
mod tests;
