//! Human-readable diagnosis reports.
//!
//! AITIA "cleans up the result of the diagnosers and reports a causality
//! chain with instruction-level information, such as line numbers in the
//! kernel" (§4.1). This module renders that final report and computes the
//! conciseness statistics of §5.2 (memory-accessing instructions vs detected
//! races vs chain races).

use crate::{
    causality::{
        CausalityResult,
        Verdict, //
    },
    lifs::{
        FailingRun,
        LifsStats, //
    },
    race::races_in_trace,
};
use ksim::Program;

/// Conciseness figures for one failure (§5.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Conciseness {
    /// Memory-accessing instruction executions in the failed execution.
    pub mem_instrs: usize,
    /// Individual data races detected in the failed execution.
    pub races_detected: usize,
    /// Races in the causality chain.
    pub chain_races: usize,
}

/// Computes the conciseness statistics from a failing run and its analysis.
#[must_use]
pub fn conciseness(run: &FailingRun, result: &CausalityResult) -> Conciseness {
    let mem_instrs = run
        .trace
        .iter()
        .filter(|r| !r.accesses().is_empty())
        .count();
    Conciseness {
        mem_instrs,
        races_detected: races_in_trace(&run.trace).len(),
        chain_races: result.chain.race_count(),
    }
}

/// Renders the full diagnosis report for one failure.
#[must_use]
pub fn render(program: &Program, run: &FailingRun, result: &CausalityResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("== AITIA diagnosis: {} ==\n", program.name));
    out.push_str(&format!("failure : {}\n", run.failure));
    out.push_str(&format!("chain   : {}\n", result.chain));
    out.push_str("\nchain links (instruction-level):\n");
    for node in &result.chain.nodes {
        for r in node.races() {
            out.push_str(&format!(
                "  {:<16} on `{}`  [{} | {}]\n",
                r.order(),
                r.variable,
                r.locations.0,
                r.locations.1
            ));
        }
    }
    let benign = result
        .tested
        .iter()
        .filter(|t| t.verdict == Verdict::Benign)
        .count();
    let ambiguous = result
        .tested
        .iter()
        .filter(|t| t.verdict == Verdict::Ambiguous)
        .count();
    let unverified = result
        .tested
        .iter()
        .filter(|t| t.verdict == Verdict::Unverified)
        .count();
    out.push_str(&format!(
        "\ntested races: {} total, {} causal, {} benign (excluded), {} ambiguous, \
         {} unverified\n",
        result.tested.len(),
        result.root_causes.len(),
        benign,
        ambiguous,
        unverified
    ));
    if result.stats.deadline_fired || unverified > 0 {
        out.push_str(
            "PARTIAL diagnosis: a deadline budget expired before every race was \
             flipped; unverified races are suspects, not exonerated.\n",
        );
        out.push_str("verdict provenance:\n");
        for t in &result.tested {
            let (f, s) = t.race.key();
            out.push_str(&format!(
                "  {} / {}  {:?} — {}\n",
                program.instr_name(f),
                program.instr_name(s),
                t.verdict,
                t.provenance()
            ));
        }
    }
    let c = conciseness(run, result);
    out.push_str(&format!(
        "conciseness: {} memory-accessing instructions → {} data races → {} chain races\n",
        c.mem_instrs, c.races_detected, c.chain_races
    ));
    out
}

/// One row of the paper's evaluation tables.
#[derive(Clone, Debug)]
pub struct TableRow {
    /// Bug identifier (CVE id or Syzkaller bug number).
    pub bug_id: String,
    /// Kernel subsystem.
    pub subsystem: String,
    /// Failure type description.
    pub bug_type: String,
    /// Multi-variable classification (`None` = single variable;
    /// `Some(true)` = loosely correlated).
    pub multi_variable: Option<bool>,
    /// LIFS simulated seconds.
    pub lifs_time_s: f64,
    /// LIFS schedules executed.
    pub lifs_schedules: usize,
    /// Interleaving count at reproduction.
    pub interleavings: u32,
    /// Causality Analysis simulated seconds.
    pub ca_time_s: f64,
    /// Causality Analysis schedules executed.
    pub ca_schedules: usize,
    /// Races in the final chain.
    pub chain_races: usize,
}

/// Formats a LIFS/CA summary row (Tables 2 and 3 shape).
#[must_use]
pub fn table_row(
    bug_id: &str,
    subsystem: &str,
    bug_type: &str,
    multi_variable: Option<bool>,
    lifs: &LifsStats,
    result: &CausalityResult,
    model: &crate::simtime::CostModel,
) -> TableRow {
    TableRow {
        bug_id: bug_id.to_string(),
        subsystem: subsystem.to_string(),
        bug_type: bug_type.to_string(),
        multi_variable,
        lifs_time_s: lifs.sim.seconds(model),
        lifs_schedules: lifs.schedules_executed,
        interleavings: lifs.interleaving_count,
        ca_time_s: result.stats.sim.seconds(model),
        ca_schedules: result.stats.schedules_executed,
        chain_races: result.chain.race_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::causality::{
        CausalityAnalysis,
        CausalityConfig, //
    };
    use crate::lifs::{
        Lifs,
        LifsConfig, //
    };
    use ksim::builder::ProgramBuilder;
    use std::sync::Arc;

    fn diagnose_fig1() -> (Arc<ksim::Program>, FailingRun, CausalityResult) {
        let mut p = ProgramBuilder::new("fig1");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            let out = b.new_label();
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let run = Lifs::new(Arc::clone(&prog), LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        (prog, run, result)
    }

    #[test]
    fn report_mentions_chain_and_conciseness() {
        let (prog, run, result) = diagnose_fig1();
        let s = render(&prog, &run, &result);
        assert!(s.contains("AITIA diagnosis"), "{s}");
        assert!(s.contains("A1 ⇒ B1"), "{s}");
        assert!(s.contains("conciseness"), "{s}");
        assert!(s.contains("ptr_valid"), "{s}");
    }

    #[test]
    fn conciseness_is_monotone() {
        let (_, run, result) = diagnose_fig1();
        let c = conciseness(&run, &result);
        assert!(c.mem_instrs >= c.races_detected);
        assert!(c.chain_races <= c.races_detected.max(c.chain_races));
        assert!(c.chain_races >= 1);
    }

    #[test]
    fn table_row_collects_stats() {
        let (_, run, result) = diagnose_fig1();
        let lifs = LifsStats {
            schedules_executed: 5,
            interleaving_count: 1,
            ..LifsStats::default()
        };
        let row = table_row(
            "CVE-TEST",
            "TTY",
            "NULL deref",
            Some(false),
            &lifs,
            &result,
            &crate::simtime::CostModel::default(),
        );
        assert_eq!(row.bug_id, "CVE-TEST");
        assert_eq!(row.lifs_schedules, 5);
        assert_eq!(row.interleavings, 1);
        assert_eq!(row.chain_races, result.chain.race_count());
        let _ = run;
    }
}
