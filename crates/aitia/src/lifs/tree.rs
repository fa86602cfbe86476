//! LIFS search-tree recording (paper Figure 5).
//!
//! Every candidate schedule LIFS considers becomes a node: executed
//! (failing or not) or pruned (statically non-conflicting, or equivalent to
//! an explored interleaving under partial-order reduction). The recorded
//! tree regenerates the paper's Figure 5 walkthrough.

use crate::schedule::ThreadSel;
use ksim::InstrAddr;

/// Outcome of one search node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeOutcome {
    /// Executed; no failure manifested.
    NoFailure,
    /// Executed; the failure reproduced — the search stops here.
    Failure,
    /// Skipped before execution: the preemption point's accesses conflict
    /// with no other thread.
    PrunedNonConflicting,
    /// Skipped before execution: equivalent to an already-explored
    /// interleaving (partial-order reduction).
    PrunedEquivalent,
    /// Skipped before execution by the DPOR sleep-set rule: the preemption
    /// re-creates an interleaving already explored-and-backtracked from an
    /// equivalent prefix (an earlier preemption point of the same victim
    /// commutes across the segment separating them).
    PrunedSleepSet,
    /// Skipped before execution by the DPOR persistent-set rule: the
    /// preemption's Mazurkiewicz class already has a scheduled
    /// representative (here: it is equivalent to a serial order because
    /// everything after the point commutes).
    PrunedPersistent,
}

/// One preemption of a candidate plan, for display.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreemptionDesc {
    /// The preempted thread.
    pub victim: ThreadSel,
    /// The memory-accessing instruction preempted after.
    pub at: InstrAddr,
    /// Occurrence ordinal of `at` in the victim (loops).
    pub nth: u32,
    /// The thread switched to.
    pub target: ThreadSel,
}

/// One node of the LIFS search tree.
#[derive(Clone, Debug)]
pub struct SearchNode {
    /// 1-based search order (the numbers under Figure 5's tree). Pruned
    /// nodes keep the order counter they would have had.
    pub order: usize,
    /// Interleaving count of the plan (0 = serial).
    pub interleavings: u32,
    /// The plan's preemptions (empty for serial runs).
    pub plan: Vec<PreemptionDesc>,
    /// For serial runs, the thread order.
    pub serial_order: Vec<ThreadSel>,
    /// What happened.
    pub outcome: NodeOutcome,
    /// Steps executed (0 when pruned).
    pub steps: usize,
}

/// The recorded search tree.
#[derive(Clone, Debug, Default)]
pub struct SearchTree {
    /// Nodes in search order.
    pub nodes: Vec<SearchNode>,
}

impl SearchTree {
    /// Number of executed (non-pruned) nodes.
    #[must_use]
    pub fn executed(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.outcome, NodeOutcome::NoFailure | NodeOutcome::Failure))
            .count()
    }

    /// Number of pruned nodes.
    #[must_use]
    pub fn pruned(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.outcome,
                    NodeOutcome::PrunedNonConflicting
                        | NodeOutcome::PrunedEquivalent
                        | NodeOutcome::PrunedSleepSet
                        | NodeOutcome::PrunedPersistent
                )
            })
            .count()
    }

    /// Renders the tree walkthrough (one line per node).
    #[must_use]
    pub fn render(&self, program: &ksim::Program) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            let what = if n.plan.is_empty() {
                let order: Vec<String> = n
                    .serial_order
                    .iter()
                    .map(|s| program.prog(s.prog).name.clone())
                    .collect();
                format!("serial [{}]", order.join(" → "))
            } else {
                n.plan
                    .iter()
                    .map(|p| {
                        format!(
                            "{}@{} → {}",
                            program.prog(p.victim.prog).name,
                            program.instr_name(p.at),
                            program.prog(p.target.prog).name
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let outcome = match n.outcome {
                NodeOutcome::NoFailure => "ok",
                NodeOutcome::Failure => "FAILURE",
                NodeOutcome::PrunedNonConflicting => "skip (non-conflicting)",
                NodeOutcome::PrunedEquivalent => "skip (equivalent)",
                NodeOutcome::PrunedSleepSet => "skip (sleep set)",
                NodeOutcome::PrunedPersistent => "skip (persistent set)",
            };
            out.push_str(&format!(
                "{:>4}. c={} {:<48} {}\n",
                n.order, n.interleavings, what, outcome
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksim::ThreadProgId;

    #[test]
    fn executed_and_pruned_counts() {
        let sel = ThreadSel::first(ThreadProgId(0));
        let mk = |order, outcome| SearchNode {
            order,
            interleavings: 1,
            plan: vec![],
            serial_order: vec![sel],
            outcome,
            steps: 0,
        };
        let tree = SearchTree {
            nodes: vec![
                mk(1, NodeOutcome::NoFailure),
                mk(2, NodeOutcome::PrunedEquivalent),
                mk(3, NodeOutcome::Failure),
                mk(4, NodeOutcome::PrunedNonConflicting),
                mk(5, NodeOutcome::PrunedSleepSet),
                mk(6, NodeOutcome::PrunedPersistent),
            ],
        };
        assert_eq!(tree.executed(), 2);
        assert_eq!(tree.pruned(), 4);
    }
}
