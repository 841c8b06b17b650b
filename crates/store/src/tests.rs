//! Store-level tests: payload roundtrips over random generator circuits,
//! the verification layers, the quarantine/rebuild contract — a corrupted
//! snapshot is never served, and after quarantine the slot reads as a
//! clean miss so the flow rebuilds from scratch — and a payload parser
//! that never panics or over-allocates on damaged bytes.

use std::path::PathBuf;

use domino_bdd::{BddStats, ReorderMode, ReorderOutcome};
use domino_phase::prob::{compute_probabilities, ProbabilityConfig};
use domino_workloads::GeneratorSpec;
use proptest::prelude::*;

use crate::{SnapshotStore, WarmSnapshot, SNAPSHOT_PROFILE};

fn random_network(pis: usize, pos: usize, gates: usize, seed: u64) -> domino_netlist::Network {
    domino_workloads::generate(&GeneratorSpec::control_block(
        format!("store{seed}"),
        pis,
        pos,
        gates,
        seed,
    ))
    .expect("generator produces valid networks")
}

/// Builds the warm state for `net` the way the engine does: converged
/// probabilities from an (optionally sifted) kernel, plus its statistics.
fn warm_state(net: &domino_netlist::Network, sift: bool) -> WarmSnapshot {
    let config = ProbabilityConfig {
        reorder: if sift {
            ReorderMode::Sift
        } else {
            ReorderMode::Off
        },
        ..ProbabilityConfig::default()
    };
    let probs = compute_probabilities(net, &vec![0.5; net.inputs().len()], &config).unwrap();
    WarmSnapshot {
        probs: probs.as_slice().to_vec(),
        bdd_nodes: probs.bdd_node_count(),
        bdd_stats: probs.bdd_stats().copied(),
        reorder: probs.reorder_outcome().cloned(),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dominolp-store-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fragments spliced into valid payloads. Most are whole tokens with their
/// separator, so a huge count, a negative number or hex that is not a
/// probability (NaN, infinity, above one, negative) lands where a field
/// is read; the bare ones glue onto a neighbouring token, and the line
/// breaks and field names move fields.
const FRAGMENTS: &[&str] = &[
    "1000000000000000 ",
    "18446744073709551615 ",
    "99999999999999999999 ",
    "-1 ",
    "0 ",
    "ffffffffffffffff ",
    "7ff0000000000000 ",
    "7fe0000000000000 ",
    "3ff0000000000001 ",
    "bff0000000000000 ",
    "0x1 ",
    "+3fe0000000000000 ",
    "é ",
    "-",
    "7",
    "g",
    " ",
    "\n",
    "\r\n",
    "probs ",
    "fixed_total ",
    "stats ",
    "reorder ",
    "snapshot 1\n",
];

fn splice() -> impl Strategy<Value = String> {
    prop::collection::vec(0..FRAGMENTS.len(), 0..4)
        .prop_map(|picks| picks.into_iter().map(|i| FRAGMENTS[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serialize → parse over random generator circuits preserves
    /// everything observable: probability bits, fixed-point total, and
    /// the carried kernel statistics and reorder outcome (including the
    /// post-sift order).
    #[test]
    fn payload_roundtrip_is_lossless(
        seed in 0u64..1000,
        pis in 4usize..10,
        pos in 1usize..4,
        gates in 8usize..40,
        sift in 0u64..2,
    ) {
        let net = random_network(pis, pos, gates, seed);
        let snapshot = warm_state(&net, sift == 1);
        prop_assert_eq!(snapshot.probs.len(), net.len());
        let payload = snapshot.to_payload();
        let loaded = WarmSnapshot::from_payload(&payload).unwrap();

        let loaded_bits: Vec<u64> = loaded.probs.iter().map(|p| p.to_bits()).collect();
        let built_bits: Vec<u64> = snapshot.probs.iter().map(|p| p.to_bits()).collect();
        prop_assert_eq!(loaded_bits, built_bits);
        prop_assert_eq!(loaded.fixed_power_total(), snapshot.fixed_power_total());
        prop_assert_eq!(loaded.bdd_nodes, snapshot.bdd_nodes);
        prop_assert_eq!(loaded.bdd_stats, snapshot.bdd_stats);
        prop_assert_eq!(loaded.reorder.clone(), snapshot.reorder.clone());
        prop_assert_eq!(loaded.to_payload(), payload);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Damaged payloads are answered with `Ok` or `Err`, never a panic or
    /// an allocation sized by a declared count. Fragments replace `cut`
    /// whole tokens at token `at` (so a huge number can land on a count
    /// and bad hex on a probability), then the text is truncated to
    /// `keep` bytes when that falls inside it.
    #[test]
    fn payloads_survive_spliced_text(
        at in 0usize..64,
        cut in 0usize..3,
        text in splice(),
        keep in 0usize..4096,
        sift in 0u64..2,
    ) {
        let net = random_network(5, 2, 12, 13);
        let payload = warm_state(&net, sift == 1).to_payload();
        let mut tokens: Vec<&str> = payload.split_inclusive([' ', '\n']).collect();
        let at = at % tokens.len();
        tokens.splice(at..(at + cut).min(tokens.len()), [text.as_str()]);
        let mut bytes = tokens.concat().into_bytes();
        bytes.truncate(keep);
        let _ = WarmSnapshot::from_payload(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn store_roundtrip_hits_after_restart() {
    let dir = temp_dir("roundtrip");
    let net = random_network(6, 2, 20, 7);
    let snapshot = warm_state(&net, true);

    let store = SnapshotStore::on_disk(&dir).unwrap();
    assert!(store.load("aaaa", net.len()).is_none());
    store.store("aaaa", &snapshot);
    assert_eq!(store.disk_len(), 1);
    assert!(store.disk_bytes() > 0);

    // A fresh store over the same directory — a restarted process — serves
    // the snapshot with full fidelity.
    let restarted = SnapshotStore::on_disk(&dir).unwrap();
    let loaded = restarted.load("aaaa", net.len()).unwrap();
    assert_eq!(loaded.to_payload(), snapshot.to_payload());
    assert_eq!(loaded.bdd_stats, snapshot.bdd_stats);
    assert_eq!(loaded.reorder, snapshot.reorder);
    let stats = restarted.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.corrupt_evictions),
        (1, 0, 0)
    );
    let first = store.stats();
    assert_eq!((first.hits, first.misses, first.stores), (0, 1, 1));

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_snapshot_is_quarantined_never_served() {
    let dir = temp_dir("truncated");
    let net = random_network(5, 2, 16, 11);
    let snapshot = warm_state(&net, false);
    let store = SnapshotStore::on_disk(&dir).unwrap();
    store.store("bbbb", &snapshot);

    let path = SNAPSHOT_PROFILE.entry_path(&dir, "bbbb");
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();

    assert!(store.load("bbbb", net.len()).is_none());
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.corrupt_evictions),
        (0, 1, 1)
    );
    assert!(!path.exists(), "corrupt entry must leave the serving path");
    assert!(dir.join("quarantine").join("bbbb.snap").exists());
    // The slot now reads as a clean miss: the flow rebuilds and restores.
    assert!(store.load("bbbb", net.len()).is_none());
    store.store("bbbb", &snapshot);
    assert!(store.load("bbbb", net.len()).is_some());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn flipped_byte_is_quarantined() {
    let dir = temp_dir("flip");
    let net = random_network(5, 1, 14, 3);
    let snapshot = warm_state(&net, false);
    let store = SnapshotStore::on_disk(&dir).unwrap();
    store.store("cccc", &snapshot);

    let path = SNAPSHOT_PROFILE.entry_path(&dir, "cccc");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, bytes).unwrap();

    assert!(store.load("cccc", net.len()).is_none());
    assert_eq!(store.stats().corrupt_evictions, 1);
    assert!(!path.exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_utf8_bit_rot_is_quarantined_not_a_silent_miss() {
    // A high-bit flip makes the entry invalid UTF-8, so the read itself
    // errors before any checksum runs — that is still corruption, and it
    // must land in quarantine accounting, not masquerade as a cold miss.
    let dir = temp_dir("bitrot");
    let net = random_network(5, 1, 14, 3);
    let snapshot = warm_state(&net, false);
    let store = SnapshotStore::on_disk(&dir).unwrap();
    store.store("eeee", &snapshot);

    let path = SNAPSHOT_PROFILE.entry_path(&dir, "eeee");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, bytes).unwrap();

    assert!(store.load("eeee", net.len()).is_none());
    let stats = store.stats();
    assert_eq!(stats.corrupt_evictions, 1);
    assert!(dir.join("quarantine").join("eeee.snap").exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wrong_version_header_is_quarantined() {
    let dir = temp_dir("version");
    let net = random_network(4, 1, 10, 5);
    let snapshot = warm_state(&net, false);
    let store = SnapshotStore::on_disk(&dir).unwrap();

    // An entry in the previous `snapshot 1` format (which carried the BDD
    // arena) with a *valid* container checksum: the container layer
    // passes, the payload header layer must reject.
    let previous = snapshot
        .to_payload()
        .replacen("snapshot 2", "snapshot 1", 1);
    let path = SNAPSHOT_PROFILE.entry_path(&dir, "dddd");
    std::fs::write(&path, SNAPSHOT_PROFILE.encode_entry(&previous)).unwrap();

    assert!(store.load("dddd", net.len()).is_none());
    let stats = store.stats();
    assert_eq!((stats.hits, stats.corrupt_evictions), (0, 1));
    assert!(dir.join("quarantine").join("dddd.snap").exists());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn tampered_fixed_total_is_rejected() {
    let net = random_network(5, 2, 12, 9);
    let snapshot = warm_state(&net, false);
    let payload = snapshot.to_payload();
    let recorded = snapshot.fixed_power_total();
    let tampered = payload.replacen(
        &format!("fixed_total {recorded}"),
        &format!("fixed_total {}", recorded + 1),
        1,
    );
    assert_ne!(tampered, payload);
    let err = WarmSnapshot::from_payload(&tampered).unwrap_err();
    assert!(err.to_string().contains("fixed-point total"));
}

#[test]
fn shape_mismatch_reads_as_corruption() {
    let dir = temp_dir("shape");
    let net = random_network(5, 2, 12, 2);
    let snapshot = warm_state(&net, false);
    let store = SnapshotStore::on_disk(&dir).unwrap();
    store.store("eeee", &snapshot);

    // A key collision with a different circuit: the entry verifies
    // internally but is not the caller's shape — quarantined, not served.
    assert!(store.load("eeee", net.len() + 1).is_none());
    assert_eq!(store.stats().corrupt_evictions, 1);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A budget of one entry evicts the oldest snapshot; a budget of 0 (what
/// `--snapshot-disk-bytes` defaults to) keeps every entry.
#[test]
fn disk_budget_evicts_oldest_snapshot() {
    let net = random_network(5, 2, 14, 4);
    let snapshot = warm_state(&net, false);
    let one_entry = SNAPSHOT_PROFILE.encode_entry(&snapshot.to_payload()).len() as u64;
    for (budget, kept) in [(one_entry, 1), (0, 2)] {
        let dir = temp_dir(&format!("budget{budget}"));
        let store = SnapshotStore::on_disk(&dir)
            .unwrap()
            .with_disk_byte_budget(budget);

        store.store("1111", &snapshot);
        std::thread::sleep(std::time::Duration::from_millis(20));
        store.store("2222", &snapshot);

        assert_eq!(store.disk_len(), kept, "budget {budget}");
        assert_eq!(store.stats().disk_evictions, 2 - kept as u64);
        assert_eq!(store.load("1111", net.len()).is_some(), kept == 2);
        assert!(store.load("2222", net.len()).is_some());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A declared probability count far beyond the values present, inside a
/// valid container: the entry is quarantined as corrupt, and the load
/// never tries to allocate what the count claims.
#[test]
fn huge_declared_count_is_quarantined_not_allocated() {
    let dir = temp_dir("huge");
    let net = random_network(4, 1, 10, 12);
    let snapshot = warm_state(&net, false);
    let store = SnapshotStore::on_disk(&dir).unwrap();

    let payload = snapshot.to_payload().replacen(
        &format!("probs {}", net.len()),
        "probs 1000000000000000",
        1,
    );
    let path = SNAPSHOT_PROFILE.entry_path(&dir, "abab");
    std::fs::write(&path, SNAPSHOT_PROFILE.encode_entry(&payload)).unwrap();

    assert!(store.load("abab", net.len()).is_none());
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.corrupt_evictions),
        (0, 1, 1)
    );
    assert!(dir.join("quarantine").join("abab.snap").exists());
    // The store carries on: the rebuilt entry is stored and served.
    store.store("abab", &snapshot);
    assert!(store.load("abab", net.len()).is_some());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The parsed-but-empty statistics sections stay `None` through the
/// roundtrip, and synthesized values land field-for-field.
#[test]
fn optional_sections_roundtrip_exactly() {
    let net = random_network(4, 1, 9, 8);
    let mut snapshot = warm_state(&net, false);
    snapshot.bdd_stats = None;
    snapshot.reorder = None;
    let bare = WarmSnapshot::from_payload(&snapshot.to_payload()).unwrap();
    assert_eq!(bare.bdd_stats, None);
    assert_eq!(bare.reorder, None);

    snapshot.bdd_stats = Some(BddStats {
        nodes: 12,
        n_vars: 4,
        cache_entries: 3,
        unique_hits: 100,
        unique_misses: 20,
        cache_hits: 55,
        cache_misses: 44,
    });
    snapshot.reorder = Some(ReorderOutcome {
        swaps: 9,
        sift_rounds: 2,
        nodes_before: 30,
        nodes_after: 18,
        final_order: vec![2, 0, 1, 3],
    });
    let full = WarmSnapshot::from_payload(&snapshot.to_payload()).unwrap();
    assert_eq!(full.bdd_stats, snapshot.bdd_stats);
    assert_eq!(full.reorder, snapshot.reorder);
}
