//! Self-tests of the benchmark itself: exact counts repeat for a seed,
//! the seed drives the request stream, the tail rule, failure accounting
//! under injected faults, and agreement with `BENCHMARK.json`.
//!
//! The tests run the optimized benchmark binary; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use domino_engine::json::{parse, Json};
use domino_perfbench::inputs::{MixStream, FRESH_ID_BASE};
use domino_perfbench::report::{per_layer, END_TO_END};
use domino_perfbench::stats::{tail, TAIL_MIN_BEYOND};

/// One benchmark run: its metrics and its `detail` line.
struct Run {
    metrics: BTreeMap<String, f64>,
    detail: Json,
    correct: bool,
}

fn run(workload: &str, seed: u64, seconds: u64, trace: u8, env: &[(&str, &str)]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .envs(env.iter().copied())
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = parse(last).expect("result line is JSON");
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("detail "))
        .map(|d| parse(d).expect("detail line is JSON"))
        .expect("a detail line");
    let metrics = match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| {
                let value = v
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                (k.clone(), value)
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    };
    Run {
        metrics,
        detail,
        correct: result.get("correct").and_then(Json::as_bool) == Some(true),
    }
}

fn count(detail: &Json, key: &str) -> u64 {
    detail
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("detail lacks count {key}"))
}

#[test]
fn table_counts_repeat_exactly_for_a_seed() {
    let a = run("tables_cold", 5, 1, 1, &[]);
    let b = run("tables_cold", 5, 1, 1, &[]);
    assert!(a.correct && b.correct);
    for name in ["bdd.nodes", "search.mp_evaluations", "sim.words"] {
        assert!(a.metrics[name] > 0.0, "{name} was measured");
        assert_eq!(a.metrics[name], b.metrics[name], "{name} repeats exactly");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "unoptimized sifting of apex7 and x1 takes minutes; run with --release"
)]
fn swap_count_repeats_exactly_for_a_seed() {
    let a = run("sift_compare", 5, 1, 1, &[]);
    let b = run("sift_compare", 5, 1, 1, &[]);
    assert!(a.correct && b.correct);
    assert!(a.metrics["bdd.swaps"] > 0.0);
    assert_eq!(a.metrics["bdd.swaps"], b.metrics["bdd.swaps"]);
    assert_eq!(a.metrics["bdd.nodes"], b.metrics["bdd.nodes"]);
}

#[test]
fn gateway_counts_repeat_and_the_seed_drives_the_stream() {
    let a = run("gateway_mix", 5, 1, 0, &[]);
    let b = run("gateway_mix", 5, 1, 0, &[]);
    let c = run("gateway_mix", 6, 1, 0, &[]);
    assert!(a.correct && b.correct && c.correct);
    for key in ["setup_cache_hits", "setup_cache_misses"] {
        assert_eq!(
            count(&a.detail, key),
            count(&b.detail, key),
            "{key} repeats"
        );
    }
    // One block of the mix after the four pool specs: 36 repeats answered
    // warm, 4 fresh profiles computed, plus the pool's own 4 misses.
    assert_eq!(count(&a.detail, "setup_cache_hits"), 36);
    assert_eq!(count(&a.detail, "setup_cache_misses"), 8);
    let digest = |r: &Run| {
        r.detail
            .get("stream_digest")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(digest(&a), digest(&b), "one seed, one stream");
    assert_ne!(digest(&a), digest(&c), "another seed, another stream");
}

#[test]
fn mix_stream_is_a_pure_function_of_seed_and_index() {
    let pool = || {
        let suite = domino_workloads::public_suite().expect("suite");
        suite
            .iter()
            .map(|b| {
                (
                    domino_engine::JobSpec::for_network(b.name, &b.network),
                    b.network.inputs().len(),
                )
            })
            .collect::<Vec<_>>()
    };
    let (s1, s1b, s2) = (
        MixStream::new(1, pool()),
        MixStream::new(1, pool()),
        MixStream::new(2, pool()),
    );
    let ids = |s: &MixStream| (0..80).map(|i| s.request(i).spec_id).collect::<Vec<_>>();
    assert_eq!(ids(&s1), ids(&s1b));
    assert_ne!(ids(&s1), ids(&s2));
    // Every block holds exactly the configured composition.
    let fresh = (0..s1.block_len())
        .filter(|&i| s1.request(i).spec_id >= FRESH_ID_BASE)
        .count();
    assert_eq!(fresh, 4);
}

#[test]
fn tail_is_the_highest_ladder_percentile_with_ten_beyond() {
    let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
    for (n, percentile, beyond) in [
        (40, 75.0, 10),
        (99, 75.0, 24),
        (100, 90.0, 10),
        (499, 90.0, 49),
        (500, 98.0, 10),
        (9999, 98.0, 199),
        (10_000, 99.9, 10),
    ] {
        let t = tail(&samples(n));
        assert_eq!((t.percentile, t.beyond), (percentile, beyond), "n = {n}");
        assert!(t.beyond >= TAIL_MIN_BEYOND);
        assert_eq!(t.samples, n);
        assert_eq!(
            t.value as usize,
            n - t.beyond,
            "nearest-rank value, n = {n}"
        );
    }
    // Under 40 samples the bar is a quarter of them: the upper quartile.
    for (n, beyond) in [(4, 1), (9, 2), (39, 9)] {
        let t = tail(&samples(n));
        assert_eq!((t.percentile, t.beyond), (75.0, beyond), "n = {n}");
    }
    // Fewer than four: nothing can lie beyond, so the maximum.
    let t = tail(&[3.0, 1.0, 2.0]);
    assert_eq!((t.value, t.beyond), (3.0, 0));
}

#[test]
fn injected_relay_faults_are_all_accounted_for() {
    let r = run(
        "gateway_mix",
        7,
        2,
        0,
        &[
            ("DOMINO_FAILPOINTS", "fleet.gateway.relay=every(7)"),
            ("DOMINO_FAILPOINT_SEED", "3"),
        ],
    );
    assert!(r.correct, "faults never corrupt an answer");
    let fires = count(&r.detail, "failpoint_fires");
    let failovers = count(&r.detail, "failovers");
    let failed = count(&r.detail, "failed_ops") + count(&r.detail, "setup_failed_ops");
    assert!(fires > 0, "the schedule fired");
    // A failover is one fault followed by a good answer from the other
    // backend. A failed request saw at most two faults: with two backends
    // a submission makes at most two attempts, and both can fire when the
    // other client's requests advance the schedule in between. So every
    // fault is accounted for exactly when these bounds hold.
    assert!(failovers <= fires, "{failovers} failovers, {fires} faults");
    assert!(
        fires <= failovers + 2 * failed,
        "{fires} faults but only {failovers} failovers and {failed} failed ops"
    );
    assert_eq!(
        count(&r.detail, "latency_samples") + count(&r.detail, "failed_ops"),
        count(&r.detail, "attempted_ops"),
        "no op vanishes from the latency samples silently"
    );
}

#[test]
fn benchmark_json_matches_the_printed_catalogue() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u, _)| (n, u.to_string()))
        .collect();
    assert_eq!(names("per_layer"), layers);
}
