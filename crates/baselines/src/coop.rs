//! Cooperative bug localization (Gist / Snorlax / CCI style, §5.3).
//!
//! These techniques predefine a small set of *single-variable* interleaving
//! patterns — order violations and atomicity violations — and report the
//! pattern with the strongest statistical correlation to failure across
//! many labeled executions. We implement exactly that:
//!
//! * pattern extraction per run — for every shared address: cross-thread
//!   ordered access pairs (order-violation candidates) and
//!   local–remote–local access triples (atomicity-violation candidates);
//! * suspiciousness ranking — frequency in failing runs minus frequency in
//!   passing runs.
//!
//! The §5.3 comparison point: the pattern vocabulary is single-variable, so
//! multi-variable bugs fall outside it, and the statistically top pattern
//! can be failure-irrelevant (e.g. the paper's `B17 ⇒ A12`-only diagnosis
//! of CVE-2017-15649, which leads to a wrong fix).

use crate::sampler::SampledRun;
use ksim::{
    Addr,
    InstrAddr,
    Trace, //
};
use std::collections::{
    HashMap,
    HashSet, //
};

/// A predefined single-variable interleaving pattern.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// `first ⇒ second` on one variable, across threads.
    OrderViolation {
        /// Earlier access.
        first: InstrAddr,
        /// Later access.
        second: InstrAddr,
        /// The variable.
        addr: Addr,
    },
    /// Local access – remote access – local access on one variable.
    AtomicityViolation {
        /// First local access.
        pre: InstrAddr,
        /// Interleaved remote access.
        remote: InstrAddr,
        /// Second local access.
        post: InstrAddr,
        /// The variable.
        addr: Addr,
    },
}

impl Pattern {
    /// The single variable the pattern concerns.
    #[must_use]
    pub fn addr(&self) -> Addr {
        match self {
            Pattern::OrderViolation { addr, .. } | Pattern::AtomicityViolation { addr, .. } => {
                *addr
            }
        }
    }
}

/// A ranked pattern.
#[derive(Clone, Debug)]
pub struct RankedPattern {
    /// The pattern.
    pub pattern: Pattern,
    /// Suspiciousness: failing frequency minus passing frequency.
    pub score: f64,
}

fn patterns_in(trace: &Trace) -> HashSet<Pattern> {
    // Accesses grouped per address, in execution order.
    let mut per_addr: HashMap<Addr, Vec<(usize, ksim::ThreadId, InstrAddr, bool)>> = HashMap::new();
    for rec in trace {
        for acc in rec.accesses() {
            per_addr.entry(acc.addr).or_default().push((
                rec.seq(),
                rec.tid(),
                rec.at(),
                acc.kind.is_write(),
            ));
        }
    }
    let mut out = HashSet::new();
    for (addr, accs) in per_addr {
        for (i, &(_, tid_a, at_a, w_a)) in accs.iter().enumerate() {
            // Order violations: adjacent-ish cross-thread conflicting pairs.
            for &(_, tid_b, at_b, w_b) in accs.iter().skip(i + 1).take(4) {
                if tid_a != tid_b && (w_a || w_b) {
                    out.insert(Pattern::OrderViolation {
                        first: at_a,
                        second: at_b,
                        addr,
                    });
                }
            }
            // Atomicity violations: local, remote, local.
            if i + 2 < accs.len() {
                let (_, tid_b, at_b, w_b) = accs[i + 1];
                let (_, tid_c, at_c, _) = accs[i + 2];
                if tid_a == tid_c && tid_b != tid_a && (w_a || w_b) {
                    out.insert(Pattern::AtomicityViolation {
                        pre: at_a,
                        remote: at_b,
                        post: at_c,
                        addr,
                    });
                }
            }
        }
    }
    out
}

/// Ranks patterns by statistical correlation with failure.
#[must_use]
pub fn localize(failing: &[SampledRun], passing: &[SampledRun]) -> Vec<RankedPattern> {
    let mut fail_counts: HashMap<Pattern, usize> = HashMap::new();
    let mut pass_counts: HashMap<Pattern, usize> = HashMap::new();
    for run in failing {
        for p in patterns_in(&run.trace) {
            *fail_counts.entry(p).or_insert(0) += 1;
        }
    }
    for run in passing {
        for p in patterns_in(&run.trace) {
            *pass_counts.entry(p).or_insert(0) += 1;
        }
    }
    let nf = failing.len().max(1) as f64;
    let np = passing.len().max(1) as f64;
    let mut ranked: Vec<RankedPattern> = fail_counts
        .into_iter()
        .map(|(pattern, fc)| {
            let pc = pass_counts.get(&pattern).copied().unwrap_or(0);
            RankedPattern {
                score: fc as f64 / nf - pc as f64 / np,
                pattern,
            }
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ranked
}

/// The §5.3 diagnosis criterion: cooperative bug localization explains a
/// bug only when it is a *single-variable* bug (the semantic object
/// classification of Tables 2–3 — the pattern vocabulary cannot express
/// multi-variable causality) and the racing object appears among the
/// top-ranked patterns (the short ranked list a Gist/Snorlax user
/// inspects).
#[must_use]
pub fn diagnoses(
    ranked: &[RankedPattern],
    chain: &aitia::CausalityChain,
    chain_vars: &[Addr],
    single_variable: bool,
) -> bool {
    if !single_variable || chain.race_count() == 0 {
        return false;
    }
    ranked
        .iter()
        .take(5)
        .any(|p| chain_vars.contains(&p.pattern.addr()))
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
    fn order_violation_is_extracted_and_ranked() {
        // x is the bug variable: B's store between A's check and use.
        let mut p = ProgramBuilder::new("ov");
        let obj = p.static_obj("obj", 8);
        let x = p.global_ptr("x", obj);
        {
            let mut a = p.syscall_thread("A", "u");
            a.load_global("r0", x);
            a.load_global("r1", x);
            a.load_ind("r2", "r1", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "c");
            b.store_global(x, 0u64);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let (fail, pass) = split(sample_runs(&prog, 400, 3, &SamplerConfig::default()));
        assert!(!fail.is_empty() && !pass.is_empty());
        let ranked = localize(&fail, &pass);
        assert!(!ranked.is_empty());
        assert!(ranked[0].score > 0.0);
        // The top pattern concerns the bug variable x.
        assert_eq!(ranked[0].pattern.addr(), ksim::GlobalId(0).addr());
    }

    #[test]
    fn empty_samples_rank_nothing() {
        assert!(localize(&[], &[]).is_empty());
    }
}
