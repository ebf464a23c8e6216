//! Metric names, units, correctness checks and the result line.
//!
//! The names here are the ones `BENCHMARK.json` lists; a test keeps the
//! two in step.

use crate::host::Sched;
use crate::spans::{self, SpanStat, Spans};
use crate::stats::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("routability", "%"),
    ("wirelength", "tracks"),
    ("vias", "count"),
    ("overlay_units", "w_line"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("session.create_s", "s"),
    ("finalize_s", "s"),
    ("finalize.share", "%"),
    ("finalize.ripups", "count"),
    ("finalize.nets_dropped", "count"),
    ("session.slice_ms_max", "ms"),
    ("schedule.serial_s", "s"),
    ("schedule.band_s", "s"),
    ("schedule.boundary_s", "s"),
    ("schedule.waves", "count"),
    ("schedule.max_wave", "nets"),
    ("schedule.t2_s", "s"),
    ("stage.search_s", "s"),
    ("stage.search_count", "count"),
    ("stage.commit_s", "s"),
    ("stage.commit_count", "count"),
    ("stage.recolor_s", "s"),
    ("stage.recolor_count", "count"),
    ("stage.ripup_s", "s"),
    ("stage.ripup_count", "count"),
    ("stage.merge_s", "s"),
    ("stage.merge_count", "count"),
    ("stage.boundary_s", "s"),
    ("stage.boundary_count", "count"),
    ("stage.unattributed_s", "s"),
    ("search.nodes_expanded", "count"),
    ("search.commit_ratio", "ratio"),
    ("ripups_type_b", "count"),
    ("ripups_graph", "count"),
    ("ripups_risk", "count"),
    ("failed_cleanup", "count"),
    ("failed_exhausted", "count"),
    ("decomp.patterns_s", "s"),
    ("decomp.verify_s", "s"),
    ("decomp.hard_overlay_runs", "count"),
    ("cut_conflicts", "count"),
    ("checkpoint.snapshot_ms", "ms"),
    ("checkpoint.snapshot_kb", "KiB"),
    ("checkpoint.resume_s", "s"),
    ("eco.invalidated_mean", "nets"),
    ("eco.invalidated_max", "nets"),
    ("eco.rerouted_per_edit", "nets"),
    ("eco.undo_ms_p50", "ms"),
    ("eco.redo_ms_p50", "ms"),
    ("serve.ping_ms_p50", "ms"),
    ("serve.submit_ms_p50", "ms"),
    ("serve.done_wait_ms_p50", "ms"),
    ("serve.shed", "count"),
    ("trace.overhead_pct", "%"),
    ("host.cpu_s", "s"),
    ("host.runq_wait_ms", "ms"),
    ("host.loadavg_start", "load"),
    ("host.loadavg_end", "load"),
    ("host.nproc", "count"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub tally: Tally,
    /// Failed correctness checks, one line each.
    pub broken: Vec<String>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
    /// Span totals and self times of every thread that recorded spans.
    pub spans: BTreeMap<&'static str, SpanStat>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a correctness check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.broken.push(what());
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn merge_spans(&mut self, s: &Spans) {
        spans::merge(&mut self.spans, &s.summary());
    }

    /// Records the timed thread's CPU time and run-queue wait.
    pub fn sched(&mut self, s: Sched) {
        self.set("host.cpu_s", s.cpu.as_secs_f64());
        self.set("host.runq_wait_ms", s.wait.as_secs_f64() * 1e3);
    }

    /// The result line: every metric of `list` with its unit. Fails
    /// when one was not measured or is not a finite number.
    pub fn result_line(&self, list: &[(&'static str, &'static str)]) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.broken.is_empty(),
            self.tally.attempted,
            self.tally.failed
        ))
    }

    /// The metrics of `list` as an aligned table, with units.
    pub fn table(&self, list: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for (name, unit) in list {
            if let Some(v) = self.values.get(name) {
                let _ = writeln!(out, "  {name:<26} {v:>16.4} {unit}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sadp_serve::Json;

    /// Whether `name` is a legal metric or workload name: starts with a
    /// letter or digit, at most 64 of letters, digits, `_`, `.` and `-`.
    pub fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `unit` is a legal unit: at most 16 of letters, digits, `_`,
    /// `/`, `%`, `.` and `-`.
    pub fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn bench_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        sadp_serve::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(v: &'a Json, key: &str) -> &'a [Json] {
        match v.get(key) {
            Some(Json::Arr(items)) => items,
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    }

    fn names<'a>(v: &'a Json, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
        entries(v, key)
            .iter()
            .map(|e| {
                let name = e
                    .get("name")
                    .and_then(Json::as_str)
                    .expect("entry has a name");
                (name, e.get("unit").and_then(Json::as_str))
            })
            .collect()
    }

    #[test]
    fn name_rule_accepts_and_rejects() {
        assert!(valid_name("latency_ms_p50"));
        assert!(valid_name("stage.search_s"));
        assert!(valid_name("route-batch"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("ms/op"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("per second"));
    }

    #[test]
    fn benchmark_json_names_are_valid_unique_and_match_the_code() {
        let v = bench_json();
        let mut seen = std::collections::BTreeSet::new();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for (name, unit) in names(&v, key) {
                assert!(valid_name(name), "{key}: bad name {name:?}");
                assert!(seen.insert(name), "{key}: {name} used twice");
                if let Some(unit) = unit {
                    assert!(valid_unit(unit), "{key}: bad unit {unit:?} on {name}");
                }
            }
        }
        let as_listed = |list: &[(&'static str, &'static str)]| {
            list.iter().map(|&(n, u)| (n, Some(u))).collect::<Vec<_>>()
        };
        assert_eq!(names(&v, "end_to_end"), as_listed(END_TO_END));
        assert_eq!(names(&v, "per_layer"), as_listed(PER_LAYER));
        let workloads: Vec<&str> = names(&v, "workloads").iter().map(|w| w.0).collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for e in entries(&v, "end_to_end") {
            assert!(e.get("better").and_then(Json::as_str).is_some());
            match e.get("bound") {
                Some(Json::Num(b)) => assert!(*b > 0.0 && *b <= 0.25, "bound {b}"),
                _ => panic!("end_to_end entry without a bound"),
            }
        }
    }

    #[test]
    fn result_line_counts_failures_and_needs_every_metric() {
        let mut o = Outcome::default();
        o.tally.record(true);
        o.tally.record(false);
        o.set("a", 1.5);
        let list = [("a", "s"), ("b", "ms")];
        assert!(o.result_line(&list).unwrap_err().contains("b"));
        o.set("b", 2.0);
        let line = o.result_line(&list).unwrap();
        let v = sadp_serve::json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(1));
        let b = v.get("metrics").and_then(|m| m.get("b")).unwrap();
        assert_eq!(b.get("unit").and_then(Json::as_str), Some("ms"));
        o.check(false, || "broken".into());
        assert!(o
            .result_line(&list)
            .unwrap()
            .starts_with("{\"correct\": false"));
        o.set("a", f64::NAN);
        assert!(o.result_line(&list).is_err());
    }
}
