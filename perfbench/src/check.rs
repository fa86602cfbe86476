//! Correctness: every diagnosis is compared with the report digest recorded
//! in `digests.json`, and every failure is counted against the attempts.

use std::collections::BTreeMap;

/// Report digests (`aitia::server::report_digest` of `aitia::report::render`)
/// by input key. Regenerate with `cargo run --release -- --record-digests`
/// only when a change is meant to alter reports.
#[derive(Clone, Debug)]
pub struct Digests(pub BTreeMap<String, String>);

impl Digests {
    /// The digests checked in next to the benchmark.
    pub fn stored() -> Digests {
        Digests::parse(include_str!("../digests.json"))
    }

    /// Parses the file [`Digests::render`] writes: a JSON object with one
    /// `"key": "digest"` entry per line.
    pub fn parse(text: &str) -> Digests {
        let entries = text.lines().filter_map(|line| {
            let (key, value) = line.trim().trim_end_matches(',').split_once(": ")?;
            Some((
                key.trim_matches('"').to_string(),
                value.trim_matches('"').to_string(),
            ))
        });
        Digests(entries.collect())
    }

    pub fn render(&self) -> String {
        let entries: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
            .collect();
        format!("{{\n{}\n}}\n", entries.join(",\n"))
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// Generator seeds with a recorded diagnosis: the pool the
    /// `campaignd-gen` workload samples from.
    pub fn gen_seeds(&self) -> Vec<u64> {
        self.0
            .keys()
            .filter_map(|k| k.strip_prefix("gen:")?.parse().ok())
            .collect()
    }
}

/// Key of a corpus bug diagnosed at `scale` and causality `level`.
pub fn cve_key(id: &str, scale: f64, level: aitia::CausalityLevel) -> String {
    format!("cve:{id}:{scale}:{level}")
}

/// Key of a generated bug (default generator knobs).
pub fn gen_key(seed: u64) -> String {
    format!("gen:{seed}")
}

/// The digest of a rendered report.
pub fn digest(report: &str) -> String {
    aitia::server::report_digest(report)
}

/// Attempts and failures of one run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one attempt that failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Checks a diagnosis: it completed (`report` is `Some`) and its
    /// digest equals the one stored under `key`. Returns the digest.
    pub fn diagnosis(&mut self, digests: &Digests, key: &str, report: Option<&str>) -> String {
        let got = report.map_or_else(|| "incomplete".to_string(), digest);
        let want = digests.get(key);
        self.check(want == Some(got.as_str()), || {
            format!("{key}: digest {got}, stored {want:?}")
        });
        got
    }

    pub fn failed_frac(&self) -> f64 {
        crate::host::ratio(self.failed as f64, self.attempted as f64)
    }
}
