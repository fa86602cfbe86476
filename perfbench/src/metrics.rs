//! The metrics the benchmark prints, by name and unit. `BENCHMARK.json` at
//! the repository root lists the same names; a self-test keeps them equal.

use crate::json::Json;
use std::collections::BTreeMap;

/// Metrics a user of the system sees, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("diag_p50_s", "s"),
    ("resume_wall_s", "s"),
    ("campaigns_per_hour", "1/h"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lifs.wall_s", "s"),
    ("lifs.self_s", "s"),
    ("lifs.schedules", "count"),
    ("lifs.pruned", "count"),
    ("ca.wall_s", "s"),
    ("ca.self_s", "s"),
    ("ca.flips", "count"),
    ("ca.static_skips", "count"),
    ("ca.causal_ratio", "ratio"),
    ("ca.plan_flip_s", "s"),
    ("ca.prove_s", "s"),
    ("ca.gain_s", "s"),
    ("ca.chain_s", "s"),
    ("race.races_in_trace_s", "s"),
    ("race.conflict_index_s", "s"),
    ("race.trace_steps", "count"),
    ("race.races", "count"),
    ("exec.runs", "count"),
    ("exec.busy_s", "s"),
    ("exec.steps", "count"),
    ("exec.batches", "count"),
    ("exec.memo_hit_ratio", "ratio"),
    ("exec.snapshot_hit_ratio", "ratio"),
    ("exec.parallel_eff", "ratio"),
    ("enforce.replay_s", "s"),
    ("ksim.steps_per_s", "1/s"),
    ("journal.records", "count"),
    ("journal.bytes", "B"),
    ("journal.flush_s", "s"),
    ("journal.open_s", "s"),
    ("journal.replay_s", "s"),
    ("server.submit_s", "s"),
    ("server.submit_p50_ms", "ms"),
    ("server.run_s", "s"),
    ("server.resolve_s", "s"),
    ("server.fold_s", "s"),
    ("server.queue_bytes", "B"),
    ("corpus.build_s", "s"),
    ("report.render_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("split.lifs_self", "ratio"),
    ("split.ca_self", "ratio"),
    ("split.exec_busy", "ratio"),
    ("split.report_render", "ratio"),
    ("split.remainder", "ratio"),
    ("failed_frac", "ratio"),
];

/// Named values of one run. Raw sums that only feed a ratio use names of
/// their own and must be taken out before printing.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn take(&mut self, name: &str) -> f64 {
        self.0.remove(name).unwrap_or(0.0)
    }

    /// The `metrics` object of the result line: every metric of `list`,
    /// with its unit (0 for a layer the workload never calls).
    pub fn to_json(&self, list: &[(&str, &str)]) -> Json {
        for name in self.0.keys() {
            assert!(
                END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name),
                "metric {name} is not listed"
            );
        }
        Json::obj(list.iter().map(|&(name, unit)| {
            let value = Json::obj([("value", self.get(name).into()), ("unit", unit.into())]);
            (name, value)
        }))
    }
}
