//! The perf-regression comparator behind `perf_snapshot --check`.
//!
//! Compares a freshly measured snapshot document against a committed
//! baseline (see `bench/baselines/`) and produces one report line per
//! compared metric. Every failing comparison is a single greppable line
//! of the form
//!
//! ```text
//! check: REGRESSED <scope>.<metric> now=<value> baseline=<value> ...
//! ```
//!
//! so CI logs answer "which metric, and by how much" with one `grep
//! REGRESSED`.
//!
//! Three metric families are gated:
//!
//! * **wall-clock** ([`TIME_METRICS`] per circuit, plus the serve/fleet
//!   latency+throughput pairs) — ratio-gated with a noise floor and the
//!   configured tolerance;
//! * **deterministic counts** ([`COUNT_METRICS`] per circuit, the
//!   connection-scale capability, and the reorder node counts) — exact:
//!   any growth beyond baseline fails regardless of tolerance; the
//!   `reorder` section's suite rows gate [`SIFT_EXACT_METRICS`] by
//!   equality and their `sift_ms` like [`TIME_METRICS`];
//! * **the reorder win** — the `reorder` section's `shrink_pct` must stay
//!   at or above [`MIN_REORDER_SHRINK_PCT`]: sifting that stops beating
//!   the static order is a regression even if it got there "honestly";
//! * **the warm-restart contract** — the `warm_restart` section's
//!   deterministic facts (zero kernel builds after restart, byte-identical
//!   outcome, corruption quarantined and rebuilt) gate absolutely.

use domino_engine::json::Json;

/// Wall-clock metrics compared per circuit by the regression gate
/// (everything else in a snapshot row is informational or count-gated).
pub const TIME_METRICS: &[&str] = &[
    "flow_ms",
    "ingest_ms",
    "bdd_build_ms",
    "prob_eval_ms",
    "cones_ms",
    "search_ms",
    "synth_ms",
    "sim_ms",
];

/// Deterministic node-count metrics compared per circuit: bit-identical
/// across machines, so any growth at all is a regression (no tolerance).
pub const COUNT_METRICS: &[&str] = &["bdd_nodes", "manager_nodes"];

/// Deterministic sifting outcome of each `reorder.suite` row, gated by
/// exact equality: a different swap count or node count means sifting
/// took a different path, which is a behaviour change, not noise.
pub const SIFT_EXACT_METRICS: [&str; 2] = ["swaps", "nodes_sifted"];

/// Minimum BDD node shrink (percent) the sifting pass must achieve on the
/// reorder-stress circuit for the `reorder` section to pass the gate.
pub const MIN_REORDER_SHRINK_PCT: f64 = 25.0;

/// Noise floor for the regression gate, ms: both sides of a comparison
/// are clamped up to this before the ratio is taken, so microsecond-scale
/// metrics (whose wall-clock jitter easily exceeds any tolerance) cannot
/// flake the gate, while a genuine blow-up past the floor still trips it.
const CHECK_FLOOR_MS: f64 = 0.05;

/// Noise floor for the serve latency metric: per-request wall time under
/// client concurrency sits around a millisecond and swings with scheduler
/// load, so sub-half-millisecond differences never trip the gate.
const SERVE_FLOOR_MS: f64 = 0.5;

/// Outcome of one snapshot-vs-baseline comparison: the per-metric report
/// lines plus the counts the exit code is derived from.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// One line per compared metric (plus skip notices), in input order.
    pub lines: Vec<String>,
    /// Metrics compared on both sides.
    pub compared: usize,
    /// Metrics that regressed beyond their gate.
    pub regressions: usize,
}

impl CheckReport {
    /// True when at least one metric was compared and none regressed.
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.regressions == 0
    }

    fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Ratio-gates wall-clock `metric` of row `now` against `base` (both
    /// clamped up to the noise floor). Skipped when either side lacks it.
    fn gate_ms(&mut self, scope: &str, metric: &str, now: &Json, base: &Json, limit: f64) {
        let (Some(now), Some(base)) = (
            now.get(metric).and_then(Json::as_f64),
            base.get(metric).and_then(Json::as_f64),
        ) else {
            return; // metric absent on one side (older baseline)
        };
        if base <= 0.0 {
            return;
        }
        self.compared += 1;
        let ratio = now.max(CHECK_FLOOR_MS) / base.max(CHECK_FLOOR_MS);
        if ratio > limit {
            self.fail(
                scope,
                metric,
                format!("{now:.3}ms"),
                format!("{base:.3}ms"),
                &format!("({ratio:.2}x > {limit:.2}x allowed)"),
            );
        } else {
            let verdict = ratio_verdict(ratio, limit);
            self.note(format!(
                "check: {scope:<11} {metric:<13} {now:>9.3} ms vs {base:>9.3} ms  \
                 ({ratio:>5.2}x)  {verdict}"
            ));
        }
    }

    /// Records a regression as the canonical one-line greppable failure.
    fn fail(
        &mut self,
        scope: &str,
        metric: &str,
        now: impl std::fmt::Display,
        base: impl std::fmt::Display,
        detail: &str,
    ) {
        self.regressions += 1;
        self.lines.push(format!(
            "check: REGRESSED {scope}.{metric} now={now} baseline={base} {detail}"
        ));
    }
}

/// Shared verdict logic for ratio-gated wall-clock comparisons (`ratio`
/// is oriented so that > 1 means worse).
fn ratio_verdict(ratio: f64, limit: f64) -> &'static str {
    if ratio > limit {
        "REGRESSED"
    } else if ratio < 1.0 / limit {
        "improved"
    } else {
        "ok"
    }
}

/// Compares `current` against `baseline` and reports every metric ratio;
/// regressions beyond the tolerance fail the report. Only metrics present
/// in both documents are compared, so baselines survive metric additions.
pub fn check_snapshot(current: &Json, baseline: &Json, tolerance_pct: f64) -> CheckReport {
    let mut report = CheckReport::default();
    let limit = 1.0 + tolerance_pct / 100.0;
    let find_row = |doc: &Json, name: &str| -> Option<Json> {
        doc.get("circuits")?
            .as_arr()?
            .iter()
            .find(|row| row.get("name").and_then(Json::as_str) == Some(name))
            .cloned()
    };

    let current_rows = current
        .get("circuits")
        .and_then(Json::as_arr)
        .expect("snapshot has circuits");
    for row in current_rows {
        let name = row.get("name").and_then(Json::as_str).expect("row name");
        let Some(base_row) = find_row(baseline, name) else {
            report.note(format!("check: {name}: not in baseline, skipped"));
            continue;
        };
        for &metric in TIME_METRICS {
            report.gate_ms(name, metric, row, &base_row, limit);
        }
        // Node counts are bit-identical across machines and runs, so the
        // gate is exact: any growth is a regression, no tolerance applies.
        for &metric in COUNT_METRICS {
            let (Some(now), Some(base)) = (
                row.get(metric).and_then(Json::as_u64),
                base_row.get(metric).and_then(Json::as_u64),
            ) else {
                continue;
            };
            report.compared += 1;
            if now > base {
                report.fail(name, metric, now, base, "(deterministic count grew)");
            } else {
                let verdict = if now < base { "improved" } else { "ok" };
                report.note(format!(
                    "check: {name:<11} {metric:<13} {now:>9} vs {base:>9}  {verdict}"
                ));
            }
        }
    }

    // Service metrics: a warm latency (lower is better) and a throughput
    // (higher is better) per section — `serve` is the single dominod, and
    // `fleet` the warm wave routed through the dominogw gateway. All are
    // wall-clock under client concurrency, which jitters more than the
    // kernel minima above, so they get twice the tolerance and a larger
    // floor. Sections absent from the baseline are skipped, so baselines
    // predating the fleet still gate what they know.
    let serve_limit = 1.0 + 2.0 * tolerance_pct / 100.0;
    for (section, latency_metric) in [("serve", "serve_ms"), ("fleet", "fleet_ms")] {
        let (Some(now), Some(base)) = (current.get(section), baseline.get(section)) else {
            continue;
        };
        let pair = |metric: &str| Some((now.get(metric)?.as_f64()?, base.get(metric)?.as_f64()?));
        if let Some((now_ms, base_ms)) = pair(latency_metric) {
            report.compared += 1;
            let ratio = now_ms.max(SERVE_FLOOR_MS) / base_ms.max(SERVE_FLOOR_MS);
            if ratio > serve_limit {
                report.fail(
                    section,
                    latency_metric,
                    format!("{now_ms:.3}ms"),
                    format!("{base_ms:.3}ms"),
                    &format!("({ratio:.2}x > {serve_limit:.2}x allowed)"),
                );
            } else {
                let verdict = ratio_verdict(ratio, serve_limit);
                report.note(format!(
                    "check: {section:<11} {latency_metric:<13} {now_ms:>9.3} ms vs \
                     {base_ms:>9.3} ms  ({ratio:>5.2}x)  {verdict}"
                ));
            }
        }
        if let Some((now_tp, base_tp)) = pair("jobs_per_s") {
            if base_tp > 0.0 && now_tp > 0.0 {
                report.compared += 1;
                // Compared through per-job wall time with the same noise
                // floor as the latency metric: throughput is the inverse
                // of the same wall clock, so without the floor a
                // sub-floor latency wiggle the latency clamp absorbs
                // would still trip the gate here as a throughput ratio.
                let ratio =
                    (1e3 / now_tp).max(SERVE_FLOOR_MS) / (1e3 / base_tp).max(SERVE_FLOOR_MS);
                if ratio > serve_limit {
                    report.fail(
                        section,
                        "jobs_per_s",
                        format!("{now_tp:.0}/s"),
                        format!("{base_tp:.0}/s"),
                        &format!("({ratio:.2}x slower > {serve_limit:.2}x allowed)"),
                    );
                } else {
                    let verdict = ratio_verdict(ratio, serve_limit);
                    report.note(format!(
                        "check: {section:<11} jobs_per_s    {now_tp:>9.0} /s vs {base_tp:>9.0} /s  \
                         ({:>5.2}x)  {verdict}",
                        now_tp / base_tp
                    ));
                }
            }
        }
    }

    // The connection-scale section gates a deterministic capability, not
    // a wall clock: the serve layer must still hold at least as many
    // concurrent kept-alive connections as the baseline records (the
    // harness itself already verified byte-identity and the thread
    // bound, panicking otherwise).
    if let (Some(now), Some(base)) = (current.get("serve_scale"), baseline.get("serve_scale")) {
        if let (Some(now_c), Some(base_c)) = (
            now.get("connections").and_then(Json::as_u64),
            base.get("connections").and_then(Json::as_u64),
        ) {
            report.compared += 1;
            if now_c < base_c {
                report.fail(
                    "serve_scale",
                    "connections",
                    now_c,
                    base_c,
                    "(capability shrank)",
                );
            } else {
                report.note(format!(
                    "check: serve_scale connections   {now_c:>9} held vs {base_c:>9} held  ok"
                ));
            }
        }
    }

    // The reorder section gates the sifting win itself, all deterministic:
    // the shrink must stay at or above the floor, and the sifted node
    // count must not grow past the baseline's.
    if let (Some(now), Some(base)) = (current.get("reorder"), baseline.get("reorder")) {
        if let Some(shrink) = now.get("shrink_pct").and_then(Json::as_f64) {
            report.compared += 1;
            if shrink < MIN_REORDER_SHRINK_PCT {
                report.fail(
                    "reorder",
                    "shrink_pct",
                    format!("{shrink:.1}%"),
                    format!("{MIN_REORDER_SHRINK_PCT:.1}% floor"),
                    "(sifting stopped beating the static order)",
                );
            } else {
                report.note(format!(
                    "check: reorder     shrink_pct    {shrink:>8.1} % vs {MIN_REORDER_SHRINK_PCT:>8.1} % floor  ok"
                ));
            }
        }
        if let (Some(now_n), Some(base_n)) = (
            now.get("nodes_sifted").and_then(Json::as_u64),
            base.get("nodes_sifted").and_then(Json::as_u64),
        ) {
            report.compared += 1;
            if now_n > base_n {
                report.fail(
                    "reorder",
                    "nodes_sifted",
                    now_n,
                    base_n,
                    "(deterministic count grew)",
                );
            } else {
                let verdict = if now_n < base_n { "improved" } else { "ok" };
                report.note(format!(
                    "check: reorder     nodes_sifted  {now_n:>9} vs {base_n:>9}  {verdict}"
                ));
            }
        }
        // Suite sift rows: `sift_ms` is ratio-gated like the per-circuit
        // wall clocks; `swaps` and `nodes_sifted` are the golden sifting
        // outcome, so any change at all, either way, fails.
        let base_rows = base.get("suite").and_then(Json::as_arr).unwrap_or(&[]);
        for row in now.get("suite").and_then(Json::as_arr).unwrap_or(&[]) {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .expect("sift row name");
            let scope = format!("reorder.{name}");
            let Some(base_row) = base_rows
                .iter()
                .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
            else {
                report.note(format!("check: {scope}: not in baseline, skipped"));
                continue;
            };
            report.gate_ms(&scope, "sift_ms", row, base_row, limit);
            for metric in SIFT_EXACT_METRICS {
                let (Some(now_n), Some(base_n)) = (
                    row.get(metric).and_then(Json::as_u64),
                    base_row.get(metric).and_then(Json::as_u64),
                ) else {
                    continue;
                };
                report.compared += 1;
                if now_n == base_n {
                    report.note(format!(
                        "check: {scope:<11} {metric:<13} {now_n:>9} vs {base_n:>9}  ok"
                    ));
                } else {
                    report.fail(
                        &scope,
                        metric,
                        now_n,
                        base_n,
                        "(deterministic sifting outcome changed)",
                    );
                }
            }
        }
    }

    // The warm-restart section gates the persistence contract itself,
    // all deterministic: a restarted process must answer from the
    // snapshot with zero kernel rebuilds, byte-identical to the cold
    // run, and a corrupted snapshot must be quarantined and rebuilt —
    // never served. The baseline only has to carry the section; the
    // contract values are absolute, not relative.
    if let (Some(now), Some(_)) = (current.get("warm_restart"), baseline.get("warm_restart")) {
        if let Some(builds) = now.get("restart_kernel_builds").and_then(Json::as_u64) {
            report.compared += 1;
            if builds > 0 {
                report.fail(
                    "warm_restart",
                    "restart_kernel_builds",
                    builds,
                    0,
                    "(restarted process recomputed its kernels)",
                );
            } else {
                report.note(
                    "check: warm_restart restart_kernel_builds       0 vs       0 floor  ok"
                        .to_string(),
                );
            }
        }
        for (metric, detail) in [
            (
                "restart_identical",
                "(snapshot-served outcome diverged from the cold run)",
            ),
            (
                "corrupt_recovered",
                "(corrupted snapshot was not quarantined and rebuilt)",
            ),
        ] {
            if let Some(ok) = now.get(metric).and_then(Json::as_bool) {
                report.compared += 1;
                if ok {
                    report.note(format!("check: warm_restart {metric:<13} true  ok"));
                } else {
                    report.fail("warm_restart", metric, false, true, detail);
                }
            }
        }
    }

    if report.compared == 0 {
        report.note("check: no comparable metrics between snapshot and baseline".to_string());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_engine::json::parse;

    fn doc(circuit_fields: &str, extra_sections: &str) -> Json {
        let text =
            format!(r#"{{"circuits": [{{"name": "frg1", {circuit_fields}}}]{extra_sections}}}"#);
        parse(&text).expect("test doc parses")
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = doc(r#""flow_ms": 1.0, "bdd_nodes": 50"#, "");
        let report = check_snapshot(&a, &a, 25.0);
        assert!(report.passed(), "{:?}", report.lines);
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn time_regression_is_one_greppable_line_with_both_values() {
        let base = doc(r#""flow_ms": 1.0"#, "");
        let now = doc(r#""flow_ms": 2.0"#, "");
        let report = check_snapshot(&now, &base, 25.0);
        assert_eq!(report.regressions, 1);
        assert!(!report.passed());
        let line = report
            .lines
            .iter()
            .find(|l| l.contains("REGRESSED"))
            .expect("a REGRESSED line");
        // One line carries the metric and both values.
        assert!(line.contains("frg1.flow_ms"), "{line}");
        assert!(line.contains("now=2.000ms"), "{line}");
        assert!(line.contains("baseline=1.000ms"), "{line}");
    }

    #[test]
    fn time_improvement_and_tolerance_band_pass() {
        let base = doc(r#""flow_ms": 1.0"#, "");
        for (now_ms, expect_word) in [(0.5, "improved"), (1.1, "ok")] {
            let now = doc(&format!(r#""flow_ms": {now_ms}"#), "");
            let report = check_snapshot(&now, &base, 25.0);
            assert!(report.passed(), "{:?}", report.lines);
            assert!(
                report.lines.iter().any(|l| l.contains(expect_word)),
                "{:?}",
                report.lines
            );
        }
    }

    #[test]
    fn sub_floor_jitter_never_trips_the_gate() {
        // 0.001 ms vs 0.04 ms is a 40x ratio but both sit under the noise
        // floor, so the clamp holds the ratio at 1.
        let base = doc(r#""bdd_build_ms": 0.001"#, "");
        let now = doc(r#""bdd_build_ms": 0.04"#, "");
        assert!(check_snapshot(&now, &base, 25.0).passed());
    }

    #[test]
    fn node_count_growth_fails_without_tolerance() {
        let base = doc(r#""bdd_nodes": 100"#, "");
        // +10% is inside the 25% time tolerance, but counts gate exactly.
        let now = doc(r#""bdd_nodes": 110"#, "");
        let report = check_snapshot(&now, &base, 25.0);
        assert_eq!(report.regressions, 1);
        let line = &report.lines[0];
        assert!(line.contains("REGRESSED frg1.bdd_nodes"), "{line}");
        assert!(line.contains("now=110"), "{line}");
        assert!(line.contains("baseline=100"), "{line}");
        // Shrinking is an improvement, not a regression.
        let smaller = doc(r#""bdd_nodes": 90"#, "");
        assert!(check_snapshot(&smaller, &base, 25.0).passed());
    }

    #[test]
    fn missing_metrics_are_skipped_not_failed() {
        let base = doc(r#""flow_ms": 1.0"#, "");
        let now = doc(r#""flow_ms": 1.0, "bdd_nodes": 50"#, "");
        let report = check_snapshot(&now, &base, 25.0);
        assert!(report.passed());
        assert_eq!(report.compared, 1, "{:?}", report.lines);
    }

    #[test]
    fn reorder_shrink_below_floor_fails() {
        let section = r#", "reorder": {"shrink_pct": 10.0, "nodes_sifted": 30}"#;
        let good = r#", "reorder": {"shrink_pct": 80.0, "nodes_sifted": 30}"#;
        let base = doc(r#""flow_ms": 1.0"#, good);
        let now = doc(r#""flow_ms": 1.0"#, section);
        let report = check_snapshot(&now, &base, 25.0);
        assert_eq!(report.regressions, 1);
        let line = report
            .lines
            .iter()
            .find(|l| l.contains("REGRESSED"))
            .unwrap();
        assert!(line.contains("reorder.shrink_pct"), "{line}");
        assert!(line.contains("now=10.0%"), "{line}");
        let ok = check_snapshot(&base, &base, 25.0);
        assert!(ok.passed(), "{:?}", ok.lines);
    }

    #[test]
    fn reorder_sifted_node_growth_fails() {
        let base = doc(
            r#""flow_ms": 1.0"#,
            r#", "reorder": {"shrink_pct": 80.0, "nodes_sifted": 30}"#,
        );
        let now = doc(
            r#""flow_ms": 1.0"#,
            r#", "reorder": {"shrink_pct": 80.0, "nodes_sifted": 31}"#,
        );
        let report = check_snapshot(&now, &base, 25.0);
        assert_eq!(report.regressions, 1);
        assert!(report
            .lines
            .iter()
            .any(|l| l.contains("REGRESSED reorder.nodes_sifted")));
    }

    #[test]
    fn suite_sift_rows_gate_time_by_ratio_and_outcome_exactly() {
        let section = |sift_ms: f64, swaps: u64, nodes: u64| {
            format!(
                r#", "reorder": {{"shrink_pct": 80.0, "suite": [{{"name": "apex7",
                    "sift_ms": {sift_ms}, "swaps": {swaps}, "nodes_sifted": {nodes}}}]}}"#
            )
        };
        let base = doc(r#""flow_ms": 1.0"#, &section(50.0, 24839, 306));
        let same = check_snapshot(&base, &base, 25.0);
        assert!(same.passed(), "{:?}", same.lines);
        // shrink_pct, flow_ms, sift_ms, swaps, nodes_sifted.
        assert_eq!(same.compared, 5, "{:?}", same.lines);

        let faster = doc(r#""flow_ms": 1.0"#, &section(5.0, 24839, 306));
        assert!(check_snapshot(&faster, &base, 25.0).passed());
        let slower = doc(r#""flow_ms": 1.0"#, &section(70.0, 24839, 306));
        let report = check_snapshot(&slower, &base, 25.0);
        assert_eq!(report.regressions, 1, "{:?}", report.lines);
        assert!(report
            .lines
            .iter()
            .any(|l| l.contains("REGRESSED reorder.apex7.sift_ms")));

        // Fewer swaps or nodes is a different sifting path too: it fails.
        for (now, metric) in [
            (section(50.0, 24838, 306), "swaps"),
            (section(50.0, 24839, 305), "nodes_sifted"),
        ] {
            let report = check_snapshot(&doc(r#""flow_ms": 1.0"#, &now), &base, 25.0);
            assert_eq!(report.regressions, 1, "{:?}", report.lines);
            let needle = format!("REGRESSED reorder.apex7.{metric}");
            assert!(report.lines.iter().any(|l| l.contains(&needle)), "{needle}");
        }

        // A baseline without the rows skips them.
        let old = doc(r#""flow_ms": 1.0"#, r#", "reorder": {"shrink_pct": 80.0}"#);
        let report = check_snapshot(&base, &old, 25.0);
        assert!(report.passed(), "{:?}", report.lines);
        assert!(report.lines.iter().any(|l| l.contains("skipped")));
    }

    #[test]
    fn warm_restart_contract_gates_exactly() {
        let good = r#", "warm_restart": {"restart_kernel_builds": 0,
            "restart_identical": true, "corrupt_recovered": true}"#;
        let base = doc(r#""flow_ms": 1.0"#, good);
        let ok = check_snapshot(&base, &base, 25.0);
        assert!(ok.passed(), "{:?}", ok.lines);

        for (section, metric) in [
            (
                r#", "warm_restart": {"restart_kernel_builds": 1,
                    "restart_identical": true, "corrupt_recovered": true}"#,
                "restart_kernel_builds",
            ),
            (
                r#", "warm_restart": {"restart_kernel_builds": 0,
                    "restart_identical": false, "corrupt_recovered": true}"#,
                "restart_identical",
            ),
            (
                r#", "warm_restart": {"restart_kernel_builds": 0,
                    "restart_identical": true, "corrupt_recovered": false}"#,
                "corrupt_recovered",
            ),
        ] {
            let now = doc(r#""flow_ms": 1.0"#, section);
            let report = check_snapshot(&now, &base, 25.0);
            assert_eq!(report.regressions, 1, "{:?}", report.lines);
            assert!(
                report
                    .lines
                    .iter()
                    .any(|l| l.contains(&format!("REGRESSED warm_restart.{metric}"))),
                "{:?}",
                report.lines
            );
        }
    }

    #[test]
    fn warm_restart_absent_from_baseline_is_skipped() {
        let base = doc(r#""flow_ms": 1.0"#, "");
        let now = doc(
            r#""flow_ms": 1.0"#,
            r#", "warm_restart": {"restart_kernel_builds": 7,
                "restart_identical": false, "corrupt_recovered": false}"#,
        );
        // Pre-persistence baselines do not gate the new section.
        assert!(check_snapshot(&now, &base, 25.0).passed());
    }

    #[test]
    fn empty_comparison_does_not_pass() {
        let now = doc(r#""flow_ms": 1.0"#, "");
        let base = parse(r#"{"circuits": []}"#).unwrap();
        let report = check_snapshot(&now, &base, 25.0);
        assert!(!report.passed());
        assert_eq!(report.compared, 0);
    }
}
