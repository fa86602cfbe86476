//! Kairux-style inflection-point localization (the paper's §5.3 comparator).
//!
//! Kairux defines the root cause as the *inflection point*: "an instruction
//! that resides in a failed run and deviates from all non-failed runs". We
//! implement the concurrency instantiation the paper discusses: project
//! every run onto its sequence of static instructions, find the longest
//! prefix of the failing run shared with any passing run, and report the
//! first deviating instruction.
//!
//! The comparison point (§5.3): the output is a *single instruction*, so it
//! cannot express multi-race causality chains — the comprehensiveness gap
//! Table 1 records.

use crate::sampler::SampledRun;
use ksim::{
    InstrAddr,
    Trace, //
};

/// The reported inflection point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InflectionPoint {
    /// The first instruction of the failing run deviating from every
    /// passing run.
    pub at: InstrAddr,
    /// Position within the failing trace.
    pub position: usize,
}

fn projection(trace: &Trace) -> Vec<InstrAddr> {
    trace.iter().map(|r| r.at()).collect()
}

fn lcp(a: &[InstrAddr], b: &[InstrAddr]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// Locates the inflection point of `failing` against the passing runs.
///
/// Returns `None` when the failing run is a prefix of some passing run
/// (no deviation exists) or when there are no passing runs to compare
/// against.
#[must_use]
pub fn inflection_point(failing: &Trace, passing: &[SampledRun]) -> Option<InflectionPoint> {
    if passing.is_empty() {
        return None;
    }
    let f = projection(failing);
    let best = passing
        .iter()
        .map(|p| lcp(&f, &projection(&p.trace)))
        .max()
        .unwrap_or(0);
    if best >= f.len() {
        return None;
    }
    Some(InflectionPoint {
        at: f[best],
        position: best,
    })
}

/// Whether an inflection point *covers* a causality chain: Kairux's single
/// instruction explains the chain only when the chain has a single race and
/// the instruction is one of its ends. This is the §5.3 comprehensiveness
/// measurement.
#[must_use]
pub fn covers_chain(point: &InflectionPoint, chain: &aitia::CausalityChain) -> bool {
    if chain.race_count() != 1 {
        return false;
    }
    chain
        .nodes
        .iter()
        .flat_map(|n| n.races().iter())
        .any(|r| r.first == point.at || r.second == point.at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{
        sample_runs,
        split,
        SamplerConfig, //
    };
    use ksim::builder::ProgramBuilder;
    use std::sync::Arc;

    #[test]
    fn inflection_point_found_for_racy_program() {
        let mut p = ProgramBuilder::new("racy");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "w");
            a.store_global(ptr_valid, 1u64);
            a.load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "c");
            let out = b.new_label();
            b.load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let (fail, pass) = split(sample_runs(&prog, 300, 11, &SamplerConfig::default()));
        assert!(!fail.is_empty() && !pass.is_empty());
        let ip = inflection_point(&fail[0].trace, &pass).expect("deviation exists");
        assert!(ip.position < fail[0].trace.len());
    }

    #[test]
    fn no_passing_runs_means_no_point() {
        assert!(inflection_point(&Trace::new(), &[]).is_none());
    }
}
