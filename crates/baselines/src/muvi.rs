//! MUVI-style access-correlation inference (§2.2, §5.3).
//!
//! MUVI assumes that semantically correlated variables are *accessed
//! together*: "if one of these two is accessed, the other variable should
//! be accessed with a high probability". It mines that correlation from
//! execution traces and flags variable pairs whose correlation crosses a
//! threshold as multi-variable candidates.
//!
//! The §2.2/§5.3 comparison point: kernel multi-variable races often
//! involve *loosely correlated* objects (different subsystems, most paths
//! touching only one of the two), which fall below any reasonable
//! correlation threshold — MUVI's assumption fails on exactly the
//! asterisked rows of Table 3.

use crate::sampler::SampledRun;
use ksim::Addr;
use std::collections::{
    HashMap,
    HashSet, //
};

/// Default co-access window (instructions within one thread).
pub const WINDOW: usize = 8;

/// Default correlation threshold for flagging a pair.
pub const THRESHOLD: f64 = 0.6;

/// Computes pairwise co-access correlation over the sampled traces.
///
/// For each ordered pair `(x, y)` of shared addresses:
/// `corr(x, y) = P(y accessed within WINDOW same-thread instructions | x accessed)`.
/// The symmetric correlation of a pair is the *minimum* of the two
/// directions (both variables must imply each other, per MUVI).
#[must_use]
pub fn correlations(samples: &[SampledRun], window: usize) -> HashMap<(Addr, Addr), f64> {
    let mut x_count: HashMap<Addr, usize> = HashMap::new();
    let mut co_count: HashMap<(Addr, Addr), usize> = HashMap::new();
    for run in samples {
        // Per-thread access streams.
        let mut streams: HashMap<ksim::ThreadId, Vec<Addr>> = HashMap::new();
        for rec in &run.trace {
            for acc in rec.accesses() {
                streams.entry(rec.tid()).or_default().push(acc.addr);
            }
        }
        for stream in streams.values() {
            for (i, &x) in stream.iter().enumerate() {
                *x_count.entry(x).or_insert(0) += 1;
                let mut seen: HashSet<Addr> = HashSet::new();
                for &y in stream.iter().skip(i + 1).take(window) {
                    if y != x && seen.insert(y) {
                        *co_count.entry((x, y)).or_insert(0) += 1;
                    }
                }
            }
        }
    }
    let mut out = HashMap::new();
    for (&(x, y), &co) in &co_count {
        let cx = x_count.get(&x).copied().unwrap_or(1) as f64;
        out.insert((x, y), co as f64 / cx);
    }
    out
}

/// The symmetric correlation of a pair (minimum of both directions).
#[must_use]
pub fn pair_correlation(corr: &HashMap<(Addr, Addr), f64>, x: Addr, y: Addr) -> f64 {
    let a = corr.get(&(x, y)).copied().unwrap_or(0.0);
    let b = corr.get(&(y, x)).copied().unwrap_or(0.0);
    a.min(b)
}

/// Whether MUVI would flag `(x, y)` as a correlated multi-variable pair.
#[must_use]
pub fn flags_pair(corr: &HashMap<(Addr, Addr), f64>, x: Addr, y: Addr, threshold: f64) -> bool {
    pair_correlation(corr, x, y) >= threshold
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{
        sample_runs,
        SamplerConfig, //
    };
    use ksim::builder::ProgramBuilder;
    use std::sync::Arc;

    #[test]
    fn tight_pair_correlates_loose_pair_does_not() {
        // Thread A always accesses t1 and t2 together (tight). Thread B
        // hammers l1 alone and touches l2 once (loose).
        let mut p = ProgramBuilder::new("corr");
        let t1 = p.global("tight1", 0);
        let t2 = p.global("tight2", 0);
        let l1 = p.global("loose1", 0);
        let l2 = p.global("loose2", 0);
        {
            let mut a = p.syscall_thread("A", "t");
            for _ in 0..8 {
                a.fetch_add_global(t1, 1u64);
                a.fetch_add_global(t2, 1u64);
            }
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "l");
            for _ in 0..16 {
                b.fetch_add_global(l1, 1u64);
            }
            b.fetch_add_global(l2, 1u64);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let samples = sample_runs(&prog, 20, 5, &SamplerConfig::default());
        let corr = correlations(&samples, WINDOW);
        assert!(
            flags_pair(&corr, t1.addr(), t2.addr(), THRESHOLD),
            "tight pair must be flagged: {}",
            pair_correlation(&corr, t1.addr(), t2.addr())
        );
        assert!(
            !flags_pair(&corr, l1.addr(), l2.addr(), THRESHOLD),
            "loose pair must not be flagged: {}",
            pair_correlation(&corr, l1.addr(), l2.addr())
        );
    }

    #[test]
    fn empty_samples_have_no_correlations() {
        let corr = correlations(&[], WINDOW);
        assert!(corr.is_empty());
    }
}
