//! Least Interleaving First Search (§3.3).
//!
//! LIFS reproduces a reported concurrency failure by exploring thread
//! interleavings in increasing order of *interleaving count* — the number of
//! preemptions performed at memory-accessing instructions — based on the
//! observation that most concurrency failures need only one or two
//! preemptions to manifest.
//!
//! The search proceeds exactly as the paper's Figure 5 walkthrough:
//!
//! 1. **Interleaving count 0** — every serial order of the slice's threads
//!    runs to completion. These runs seed the knowledge base: each thread's
//!    memory-accessing instructions (front to back) and address footprint.
//! 2. **Count c ≥ 1** — candidate plans preempt a thread right *after* one
//!    of its memory-accessing instructions (so the installed watchpoint can
//!    observe conflicting accesses by the threads that run next) and switch
//!    to another thread. Candidates are enumerated front to back.
//! 3. **Pruning** (dynamic partial-order reduction flavour, toggleable for
//!    ablation): a preemption whose instruction touches only addresses no
//!    other thread ever touches cannot change the conflict order — skipped;
//!    a preemption after a thread's *last* memory access is equivalent to a
//!    serial order — skipped; an executed run whose conflict-order signature
//!    was already seen contributes nothing new and is recorded as
//!    equivalent.
//! 4. New memory-accessing instructions revealed by race-steered control
//!    flows (previously unexecuted code) join the candidate set on the fly.
//!
//! The search stops at the first failing run and emits the failure-causing
//! instruction sequence together with every data race observed in it —
//! including races whose second access is *pending* (the failure killed the
//! thread first), which Causality Analysis must still test (Figure 6's
//! `B17 ⇒ A12`).

pub mod tree;

use crate::{
    causality::flip::FlipIndex,
    enforce::{
        EnforceConfig,
        RunResult,
        ThreadFinal, //
    },
    exec::{
        CancelToken,
        ExecJob,
        ExecOutput,
        Executor, //
    },
    fxhash::FxHashMap,
    race::{
        races_in_trace,
        ObservedRace,
        RaceEnd, //
    },
    schedule::{
        Anchor,
        SchedPoint,
        Schedule,
        ThreadSel, //
    },
    simtime::SimCost,
};
use ksim::{
    Addr,
    Failure,
    InstrAddr,
    Program,
    StepRecord,
    ThreadId,
    Trace, //
};
use std::{
    collections::{
        BTreeMap,
        BTreeSet,
        HashMap,
        HashSet, //
    },
    hash::{
        Hash,
        Hasher, //
    },
    sync::Arc,
};
use tree::{
    NodeOutcome,
    PreemptionDesc,
    SearchNode,
    SearchTree, //
};

/// The failure signature LIFS reproduces, extracted from the crash report
/// (§4.2: "AITIA identifies the symptom of the failure ... and the location
/// of the failure"). Runs that fail *differently* are not reproductions of
/// the reported bug and the search continues past them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureTarget {
    /// The failure class from the report.
    pub kind: ksim::FailureKind,
    /// The faulting kernel function, when the report resolves it.
    pub func: Option<String>,
}

impl FailureTarget {
    /// A target matching any failure of `kind`.
    #[must_use]
    pub fn kind(kind: ksim::FailureKind) -> Self {
        FailureTarget { kind, func: None }
    }

    /// A target matching `kind` inside the named kernel function.
    #[must_use]
    pub fn in_func(kind: ksim::FailureKind, func: &str) -> Self {
        FailureTarget {
            kind,
            func: Some(func.to_string()),
        }
    }

    /// Whether `failure` matches this signature.
    #[must_use]
    pub fn matches(&self, failure: &Failure, program: &Program) -> bool {
        if failure.kind != self.kind {
            return false;
        }
        match &self.func {
            None => true,
            Some(f) => program
                .meta_at(failure.at)
                .is_some_and(|m| m.func == f.as_str()),
        }
    }
}

/// How aggressively LIFS prunes the schedule space before execution.
///
/// The levels are strictly ordered: each one applies every rule of the
/// level below it, so `Dpor ≥ Conflict ≥ Off` in schedules skipped. All
/// levels are *diagnosis-preserving*: every pruned plan is Mazurkiewicz-
/// equivalent to a plan scheduled earlier in the canonical generation
/// order (or to a serial run), so the first failing schedule — and with it
/// the entire diagnosis — is identical at every level. The differential
/// harness in `tests/properties.rs` checks exactly that, and
/// `tests/prune_golden.rs` and `tests/default_levels.rs` check the first
/// failing schedule and its races on every corpus bug.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PruneLevel {
    /// No pruning: every candidate preemption point × target is executed.
    Off,
    /// Conflict-based pruning (the level of the paper's tables): points
    /// whose accesses conflict with no other thread are skipped, as are
    /// preemptions after a thread's final memory access.
    Conflict,
    /// Full dynamic partial-order reduction, and the default: conflict
    /// pruning plus a refined point filter that sees through commuting
    /// add/add meetings, sleep-set pruning (a preemption that re-creates an
    /// interleaving already explored from an equivalent earlier prefix is
    /// never regenerated) and persistent-set pruning (plans provably
    /// equivalent to a serial order are cut), both validated step-by-step
    /// against the victim's solo trace through the write-aware
    /// [`crate::race::ConflictIndex`].
    #[default]
    Dpor,
}

impl std::str::FromStr for PruneLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(PruneLevel::Off),
            "conflict" => Ok(PruneLevel::Conflict),
            "dpor" => Ok(PruneLevel::Dpor),
            other => Err(format!(
                "unknown prune level {other:?} (expected off, conflict or dpor)"
            )),
        }
    }
}

impl std::fmt::Display for PruneLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PruneLevel::Off => "off",
            PruneLevel::Conflict => "conflict",
            PruneLevel::Dpor => "dpor",
        })
    }
}

/// LIFS configuration.
#[derive(Clone, Debug)]
pub struct LifsConfig {
    /// Maximum interleaving count explored before giving up.
    pub max_interleavings: u32,
    /// Enforcement limits per run.
    pub enforce: EnforceConfig,
    /// Schedule-space pruning level (lower it for the ablation bench).
    pub prune: PruneLevel,
    /// Hard cap on executed schedules.
    pub max_schedules: usize,
    /// The reported failure to reproduce. `None` accepts any failure.
    pub target: Option<FailureTarget>,
    /// Cooperative cancellation: an in-flight search aborts at the next
    /// schedule boundary, as it does once the token's deadline passes.
    /// Statistics still count the deterministically folded prefix of
    /// completed schedules.
    pub cancel: CancelToken,
}

impl Default for LifsConfig {
    fn default() -> Self {
        LifsConfig {
            max_interleavings: 4,
            enforce: EnforceConfig::default(),
            prune: PruneLevel::default(),
            max_schedules: 200_000,
            target: None,
            cancel: CancelToken::new(),
        }
    }
}

/// Search statistics (the LIFS columns of Tables 2 and 3).
#[derive(Clone, Debug, Default)]
pub struct LifsStats {
    /// Schedules actually executed.
    pub schedules_executed: usize,
    /// Candidates skipped because the preemption point conflicts with
    /// nothing.
    pub pruned_nonconflicting: usize,
    /// Candidates skipped or discounted as equivalent interleavings.
    pub pruned_equivalent: usize,
    /// Candidates skipped by the DPOR sleep-set rule: the preemption
    /// re-creates an interleaving already explored from an equivalent
    /// earlier prefix of the same victim.
    pub pruned_sleep_set: usize,
    /// Candidates skipped by the DPOR persistent-set rule: the plan is
    /// provably equivalent to an already-explored serial order.
    pub pruned_persistent: usize,
    /// The interleaving count at which the failure reproduced.
    pub interleaving_count: u32,
    /// Simulated cost (schedule setups, steps, reboots).
    pub sim: SimCost,
    /// Schedules served from the substrate's result memo table (counted
    /// in `schedules_executed` and `sim` exactly like executed ones, so
    /// diagnosis statistics stay memo-invariant).
    pub memo_hits: usize,
    /// Whether a deadline on the search's token
    /// ([`LifsConfig::cancel`]) had fired when the search ended, making its
    /// result a best-so-far frontier rather than an exhausted one.
    pub deadline_fired: bool,
}

impl LifsStats {
    /// Folds another search's statistics into this one. Counters add;
    /// the interleaving count keeps the maximum reached by either search.
    pub fn merge(&mut self, other: &LifsStats) {
        self.schedules_executed += other.schedules_executed;
        self.pruned_nonconflicting += other.pruned_nonconflicting;
        self.pruned_equivalent += other.pruned_equivalent;
        self.pruned_sleep_set += other.pruned_sleep_set;
        self.pruned_persistent += other.pruned_persistent;
        self.interleaving_count = self.interleaving_count.max(other.interleaving_count);
        self.sim.merge(&other.sim);
        self.memo_hits += other.memo_hits;
        self.deadline_fired |= other.deadline_fired;
    }

    /// Folds one executor output's memoization accounting into the
    /// search's counters. The output itself is consumed exactly as if it
    /// had executed — `schedules_executed` and `sim` are charged by the
    /// caller either way — so this touches only the hit diagnostics.
    pub(crate) fn note_exec(&mut self, out: &crate::exec::ExecOutput) {
        self.memo_hits += usize::from(out.memo_hit);
    }
}

/// The failure-causing instruction sequence and everything Causality
/// Analysis needs alongside it.
#[derive(Clone, Debug)]
pub struct FailingRun {
    /// The program the run executed.
    pub program: Arc<Program>,
    /// The schedule that reproduced the failure.
    pub schedule: Schedule,
    /// The executed trace — the totally ordered failure-causing sequence.
    /// Structurally shared (cloning bumps reference counts).
    pub trace: Trace,
    /// The manifested failure.
    pub failure: Failure,
    /// Data races in the failing sequence (backward-sorted), including
    /// pending-second races.
    pub races: Vec<ObservedRace>,
    /// Per-thread solo traces from serial runs (control-flow projections
    /// for pending-tail scheduling).
    pub solo: HashMap<ThreadSel, Vec<StepRecord>>,
    /// Final thread states of the failing run.
    pub finals: Vec<ThreadFinal>,
    /// Runtime-thread → selector map for the failing run.
    pub sel_of_tid: HashMap<ThreadId, ThreadSel>,
    /// Flip planning's index of `trace`, `sel_of_tid`, `finals` and `solo`,
    /// built once when LIFS assembles the run and shared by its clones.
    pub(crate) flip_index: Arc<FlipIndex>,
}

impl FailingRun {
    /// The selector of a runtime thread in the failing run.
    ///
    /// # Panics
    ///
    /// Panics when the thread did not participate in the failing run.
    #[must_use]
    pub fn sel(&self, tid: ThreadId) -> ThreadSel {
        self.sel_of_tid[&tid]
    }

    /// The parked next-instruction map for suspended threads.
    #[must_use]
    pub fn pending_next(&self) -> HashMap<ThreadSel, InstrAddr> {
        self.finals
            .iter()
            .filter_map(|f| f.next.map(|n| (f.sel, n)))
            .collect()
    }
}

/// Output of a LIFS search.
#[derive(Clone, Debug)]
pub struct LifsOutput {
    /// The failing run, when the failure reproduced.
    pub failing: Option<FailingRun>,
    /// Search statistics.
    pub stats: LifsStats,
    /// The recorded search tree (Figure 5).
    pub tree: SearchTree,
}

/// Canonical identity of a candidate plan (for deduplication).
type PlanKey = Vec<(u16, u32, usize, u32, u16, u32)>;

/// One preemption of a candidate plan.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Preemption {
    victim: ThreadSel,
    at: InstrAddr,
    nth: u32,
    target: ThreadSel,
}

/// Accumulated dynamic knowledge about the slice's threads.
#[derive(Default)]
struct Knowledge {
    /// All thread selectors ever observed (initial + spawned), in first-seen
    /// order.
    sels: Vec<ThreadSel>,
    /// Memory-access occurrence list per thread, front to back.
    mem_points: BTreeMap<ThreadSel, Vec<(InstrAddr, u32)>>,
    /// Addresses accessed at each occurrence.
    point_addrs: FxHashMap<(ThreadSel, InstrAddr, u32), BTreeSet<Addr>>,
    /// Address footprint per thread.
    footprints: BTreeMap<ThreadSel, BTreeSet<Addr>>,
    /// Racing instruction pairs (unordered, normalized) seen in any run,
    /// in sorted order: `finish` turns them into pending races, and two of
    /// those at one failing-adjacent access tie in the backward order, so
    /// the order they are found in is the order they are tested in.
    known_pairs: BTreeSet<(InstrAddr, InstrAddr)>,
    /// Conflict-order signatures of executed runs.
    signatures: HashSet<u64>,
    /// Latest complete solo-ish trace per thread.
    solo: HashMap<ThreadSel, Vec<StepRecord>>,
    /// Per-thread projection of a serial run in which the thread ran
    /// *first* (uninterrupted from the initial state) — the exact
    /// prediction of a count-1 plan's pre-preemption prefix, which is what
    /// the DPOR rules validate against. Absent when every serial run with
    /// the thread first failed, in which case no DPOR rule may fire for
    /// that victim.
    solo_first: HashMap<ThreadSel, Vec<StepRecord>>,
    /// Write-aware per-thread address sets over every absorbed run; the
    /// static conflict index the DPOR rules query.
    conflicts: crate::race::ConflictIndex,
    /// The program's `rcu_read_lock`/`rcu_read_unlock` instructions: an
    /// unlock can end a grace period and make waiting `call_rcu` callbacks
    /// runnable, which the step record does not show.
    rcu_edges: HashSet<InstrAddr>,
    /// Each thread's first memory point after each spawn, lock event or
    /// RCU read-side edge it performs: the points from which the refined
    /// filter keeps the first survivor ([`Lifs::extensions`]).
    after_sync: HashSet<(ThreadSel, InstrAddr, u32)>,
    /// Knowledge version (bumped per absorbed run) for cache invalidation.
    version: u64,
}

impl Knowledge {
    fn note_sel(&mut self, sel: ThreadSel) {
        if !self.sels.contains(&sel) {
            self.sels.push(sel);
        }
    }

    /// Folds an executed run into the knowledge base. Returns whether the
    /// run's conflict signature was new.
    fn absorb(&mut self, run: &RunResult, sel_of: &HashMap<ThreadId, ThreadSel>) -> bool {
        // Group the steps per thread once, in first-seen order.
        let mut groups: Vec<(ThreadSel, Vec<&StepRecord>)> = Vec::new();
        let mut group_of_tid: Vec<Option<usize>> = Vec::new();
        for rec in run.trace.iter() {
            let t = rec.tid.0 as usize;
            if group_of_tid.len() <= t {
                group_of_tid.resize(t + 1, None);
            }
            let g = *group_of_tid[t].get_or_insert_with(|| {
                let sel = sel_of[&rec.tid];
                groups
                    .iter()
                    .position(|(s, _)| *s == sel)
                    .unwrap_or_else(|| {
                        groups.push((sel, Vec::new()));
                        groups.len() - 1
                    })
            });
            groups[g].1.push(rec);
        }
        for (sel, steps) in groups {
            self.note_sel(sel);
            self.conflicts.add_steps(sel, steps.iter().copied());
            let mut counts: FxHashMap<InstrAddr, u32> = FxHashMap::default();
            let mut points = Vec::new();
            let mut footprint = Vec::new();
            let mut synced = false;
            for rec in &steps {
                synced |= rec.spawned.is_some()
                    || rec.lock_event.is_some()
                    || self.rcu_edges.contains(&rec.at);
                if rec.accesses.is_empty() {
                    continue;
                }
                let nth = *counts.entry(rec.at).and_modify(|c| *c += 1).or_insert(0);
                points.push((rec.at, nth));
                if std::mem::take(&mut synced) {
                    self.after_sync.insert((sel, rec.at, nth));
                }
                let addrs = self.point_addrs.entry((sel, rec.at, nth)).or_default();
                for acc in &rec.accesses {
                    addrs.insert(acc.addr);
                    footprint.push(acc.addr);
                }
            }
            if points.is_empty() {
                continue;
            }
            footprint.sort_unstable();
            footprint.dedup();
            self.footprints.entry(sel).or_default().extend(footprint);
            // Keep the longest observed point list per thread (race-steered
            // flows can reveal longer paths).
            let entry = self.mem_points.entry(sel).or_default();
            if points.len() > entry.len() {
                *entry = points;
            } else if !entry.starts_with(&points) {
                // Merge newly seen points at the tail.
                let known: HashSet<(InstrAddr, u32)> = entry.iter().copied().collect();
                for p in points {
                    if !known.contains(&p) {
                        entry.push(p);
                    }
                }
            }
        }
        // Racing pairs — including critical-section order pairs, which
        // Causality Analysis tests as units (§3.4) — and the signature: the
        // order of conflicting accesses (the Mazurkiewicz-trace equivalence
        // class over conflicting operations), plus which thread programs
        // participated (distinguishes serial orders that execute different
        // race-steered paths).
        let folded = crate::race::trace_conflicts(&run.trace);
        self.known_pairs.extend(folded.pairs);
        self.version += 1;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for &(first, second, addr) in &folded.order {
            (first, second, addr.0).hash(&mut h);
        }
        let mut sels: Vec<ThreadSel> = sel_of.values().copied().collect();
        sels.sort();
        for s in sels {
            (s.prog.0, s.occurrence).hash(&mut h);
        }
        run.trace.len().hash(&mut h);
        self.signatures.insert(h.finish())
    }

    /// Whether the occurrence's addresses conflict with any *other* thread's
    /// footprint.
    fn conflicts_somewhere(&self, sel: ThreadSel, at: InstrAddr, nth: u32) -> bool {
        let Some(addrs) = self.point_addrs.get(&(sel, at, nth)) else {
            return true; // Unknown: conservatively keep.
        };
        self.footprints
            .iter()
            .filter(|(s, _)| **s != sel)
            .any(|(_, fp)| addrs.iter().any(|a| fp.contains(a)))
    }

    /// The observability-refined version of
    /// [`Knowledge::conflicts_somewhere`], used by [`PruneLevel::Dpor`]:
    /// commutative unobserved adds ([`crate::race::AccessClass::Add`])
    /// conflict only with genuine reads or writes of the address, so a
    /// point whose accesses meet other threads exclusively in add/add
    /// pairs cannot change any observable order.
    fn conflicts_somewhere_refined(&self, sel: ThreadSel, at: InstrAddr, nth: u32) -> bool {
        let Some(addrs) = self.point_addrs.get(&(sel, at, nth)) else {
            return true; // Unknown: conservatively keep.
        };
        addrs
            .iter()
            .any(|&a| self.conflicts.addr_conflicts_any_other(a, at, sel))
    }
}

/// Identity of a pruned candidate. Point-level rules (non-conflicting,
/// last-access) prune a whole point and carry no target; the DPOR rules
/// decide per `(point, target)` pair and carry the target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct PruneKey {
    victim: ThreadSel,
    at: InstrAddr,
    nth: u32,
    target: Option<ThreadSel>,
}

/// Records pruned candidates, deduplicated *per knowledge version*, so the
/// search tree and statistics count each skipped candidate exactly once.
///
/// Generation re-examines every candidate each round against the current
/// knowledge, so the same key is re-noted many times: a same-version
/// re-note is a no-op and a newer-version re-note updates the recorded
/// reason in place without double counting. A candidate that *stops* being
/// pruned under newer knowledge (footprints grew and the point now
/// conflicts) is [`PruneLog::unnote`]d — it is about to be generated and
/// executed, and a stale pending entry would count it as both.
#[derive(Default)]
struct PruneLog {
    /// Key → knowledge version of the latest note.
    seen: HashMap<PruneKey, u64>,
    /// First-noted order of keys (drives deterministic flush order).
    order: Vec<PruneKey>,
    /// Current reason per still-pruned key.
    reasons: HashMap<PruneKey, NodeOutcome>,
}

impl PruneLog {
    fn note(&mut self, key: PruneKey, version: u64, reason: NodeOutcome) {
        if self.seen.get(&key) == Some(&version) {
            return;
        }
        self.seen.insert(key, version);
        self.reasons.insert(key, reason);
        if !self.order.contains(&key) {
            self.order.push(key);
        }
    }

    /// Drops a pending entry: the candidate became generative under newer
    /// knowledge, so it is no longer pruned.
    fn unnote(&mut self, key: &PruneKey) {
        self.seen.remove(key);
        self.reasons.remove(key);
    }

    fn flush(&mut self, stats: &mut LifsStats, tree: &mut SearchTree, order: &mut usize) {
        for key in self.order.drain(..) {
            let Some(reason) = self.reasons.remove(&key) else {
                continue; // Unnoted: executed after all, already counted.
            };
            match reason {
                NodeOutcome::PrunedNonConflicting => stats.pruned_nonconflicting += 1,
                NodeOutcome::PrunedSleepSet => stats.pruned_sleep_set += 1,
                NodeOutcome::PrunedPersistent => stats.pruned_persistent += 1,
                _ => stats.pruned_equivalent += 1,
            }
            *order += 1;
            tree.nodes.push(SearchNode {
                order: *order,
                interleavings: 1,
                plan: vec![PreemptionDesc {
                    victim: key.victim,
                    at: key.at,
                    nth: key.nth,
                    target: key.target,
                }],
                serial_order: vec![],
                outcome: reason,
                steps: 0,
            });
        }
        self.seen.clear();
    }
}

/// Per-target commutation data computed lazily by [`DporCtx`].
struct TargetCtx {
    /// Per solo step: the step is clean (no locks held, no lock event, no
    /// spawn, no RCU read-side edge) and every access is write-aware non-conflicting with the
    /// target and with every thread the shared set names.
    ok: Vec<bool>,
    /// For each step `j` with `ok[j]`: the smallest `m` such that every
    /// step in `[m, j]` is ok (the start of the contiguous ok-run).
    run_start: Vec<usize>,
    /// The smallest `m` such that every step in `[m, len)` is ok.
    tail_start: usize,
    /// Whether the persistent-set rule may fire for this target at all:
    /// the target is an initial thread (its serial permutation exists) and
    /// the target's footprint commutes with every background thread's.
    persist_ok: bool,
}

/// Per-victim DPOR context for count-1 plan generation.
///
/// A count-1 plan `[(v, p) → T]` runs the victim uninterrupted from the
/// initial state to point `p`, switches to `T`, and then resolves through
/// the enforcer's deterministic fallback (background threads first, then
/// the remaining initial order). The victim's pre-preemption prefix is
/// therefore *exactly* the stored `solo_first` projection, which lets two
/// rules fire soundly at generation time:
///
/// * **Sleep set** — if every victim step between an earlier generated
///   point `q` and `p` is clean and commutes (write-aware) with the target
///   and with every thread scheduled between the two possible positions of
///   that segment, then `[(v, p) → T]` and `[(v, q) → T]` are
///   Mazurkiewicz-equivalent; the earlier plan already covers the class.
/// * **Persistent set** — if every victim step *after* `p` commutes the
///   same way and the target's block commutes with the background threads,
///   the plan is equivalent to the serial permutation `[v, T, …]` explored
///   at count 0; the class already has its serial representative.
///
/// Victims without a `solo_first` projection (their serial run failed) get
/// no context and no DPOR pruning.
struct DporCtx<'a> {
    solo: &'a [StepRecord],
    /// Candidate point `(at, nth)` → index into the solo trace.
    pos: HashMap<(InstrAddr, u32), usize>,
    /// Clean and commuting with the target-independent shared set
    /// (background threads + initial threads resumed before the victim).
    base_ok: Vec<bool>,
    /// Observed background (spawned) threads.
    bg: Vec<ThreadSel>,
    conflicts: &'a crate::race::ConflictIndex,
    initial: &'a [ThreadSel],
    /// Lazily computed per-target data.
    targets: HashMap<ThreadSel, TargetCtx>,
}

impl<'a> DporCtx<'a> {
    fn new(
        program: &Program,
        k: &'a Knowledge,
        victim: ThreadSel,
        initial: &'a [ThreadSel],
    ) -> Option<Self> {
        let solo = k.solo_first.get(&victim)?.as_slice();
        let vpos = initial.iter().position(|&s| s == victim)?;
        let mut pos = HashMap::new();
        let mut counts: HashMap<InstrAddr, u32> = HashMap::new();
        for (i, rec) in solo.iter().enumerate() {
            if rec.accesses.is_empty() {
                continue;
            }
            let nth = *counts.entry(rec.at).and_modify(|c| *c += 1).or_insert(0);
            pos.insert((rec.at, nth), i);
        }
        // Threads whose blocks sit between a moved segment's two possible
        // positions regardless of target: spawned background threads (they
        // run first at the post-target boundary) and initial threads the
        // fallback resumes before the victim. IRQ handlers only run when
        // targeted, so they are excluded here and checked per target.
        let irqs: HashSet<ThreadSel> = program
            .irq_handlers
            .iter()
            .map(|&i| ThreadSel::first(i))
            .collect();
        let bg: Vec<ThreadSel> = k
            .sels
            .iter()
            .copied()
            .filter(|s| !initial.contains(s) && !irqs.contains(s))
            .collect();
        let shared: Vec<ThreadSel> = bg
            .iter()
            .copied()
            .chain(initial[..vpos].iter().copied())
            .collect();
        let base_ok: Vec<bool> = solo
            .iter()
            .map(|rec| {
                rec.locks_held.is_empty()
                    && rec.lock_event.is_none()
                    && rec.spawned.is_none()
                    && !k.rcu_edges.contains(&rec.at)
                    && rec.accesses.iter().all(|a| {
                        shared
                            .iter()
                            .all(|&s| !k.conflicts.may_conflict(a.addr, a.kind, rec.at, s))
                    })
            })
            .collect();
        Some(DporCtx {
            solo,
            pos,
            base_ok,
            bg,
            conflicts: &k.conflicts,
            initial,
            targets: HashMap::new(),
        })
    }

    fn target_ctx(&mut self, target: ThreadSel) -> &TargetCtx {
        if !self.targets.contains_key(&target) {
            let ok: Vec<bool> = self
                .solo
                .iter()
                .zip(&self.base_ok)
                .map(|(rec, &base)| {
                    base && rec
                        .accesses
                        .iter()
                        .all(|a| !self.conflicts.may_conflict(a.addr, a.kind, rec.at, target))
                })
                .collect();
            let mut run_start = vec![0usize; ok.len()];
            for j in 0..ok.len() {
                if ok[j] {
                    run_start[j] = if j > 0 && ok[j - 1] {
                        run_start[j - 1]
                    } else {
                        j
                    };
                }
            }
            let mut tail_start = ok.len();
            for j in (0..ok.len()).rev() {
                if ok[j] {
                    tail_start = j;
                } else {
                    break;
                }
            }
            let persist_ok = self.initial.contains(&target)
                && self
                    .bg
                    .iter()
                    .all(|&b| !self.conflicts.sels_may_conflict(target, b));
            self.targets.insert(
                target,
                TargetCtx {
                    ok,
                    run_start,
                    tail_start,
                    persist_ok,
                },
            );
        }
        &self.targets[&target]
    }

    /// Decides whether the count-1 candidate `[(victim, point at solo
    /// index `s_p`) → target]` is pruned, given the solo positions of the
    /// victim's already-generated points (`surv`, ascending).
    fn prune(&mut self, s_p: usize, surv: &[usize], target: ThreadSel) -> Option<NodeOutcome> {
        let tc = self.target_ctx(target);
        // Sleep set: the segment (q, s_p] commutes across everything that
        // separates the two preemption positions, so the plan re-creates
        // the interleaving already explored from the earlier point q.
        if tc.ok[s_p] {
            let lowest = tc.run_start[s_p];
            if let Some(&q) = surv.iter().rev().find(|&&q| q < s_p) {
                if q + 1 >= lowest {
                    return Some(NodeOutcome::PrunedSleepSet);
                }
            }
        }
        // Persistent set: everything after the point commutes away — the
        // plan collapses to the serial permutation [victim, target, …].
        if tc.persist_ok && s_p + 1 >= tc.tail_start {
            return Some(NodeOutcome::PrunedPersistent);
        }
        None
    }
}

/// The LIFS searcher for one program (slice).
///
/// All schedule execution goes through the shared VM-pool executor
/// ([`crate::exec`]): each preemption round's candidate schedules are
/// submitted as one batch and the results are folded into the knowledge
/// base in canonical submission order, so the search outcome — failing
/// schedule, statistics, tree — is bit-for-bit identical at any worker
/// count.
pub struct Lifs {
    program: Arc<Program>,
    config: LifsConfig,
    exec: Arc<Executor>,
}

impl Lifs {
    /// Creates a searcher executing on a private single-worker VM.
    #[must_use]
    pub fn new(program: Arc<Program>, config: LifsConfig) -> Self {
        Lifs::with_executor(program, config, Arc::new(Executor::new(1)))
    }

    /// Creates a searcher executing its schedule batches on `exec`.
    #[must_use]
    pub fn with_executor(program: Arc<Program>, config: LifsConfig, exec: Arc<Executor>) -> Self {
        Lifs {
            program,
            config,
            exec,
        }
    }

    /// Runs the search.
    #[must_use]
    pub fn search(&self) -> LifsOutput {
        // One stamping point for the deadline flag covers every early
        // return inside the search body.
        let mut out = self.search_inner();
        out.stats.deadline_fired = self.config.cancel.deadline_fired();
        out
    }

    fn search_inner(&self) -> LifsOutput {
        let mut stats = LifsStats::default();
        let mut tree = SearchTree::default();
        let mut knowledge = Knowledge {
            conflicts: crate::race::ConflictIndex::for_program(&self.program),
            rcu_edges: rcu_edges(&self.program),
            ..Knowledge::default()
        };
        let mut order = 0usize;

        let initial_sels = initial_sels(&self.program);
        for &s in &initial_sels {
            knowledge.note_sel(s);
        }
        // Hardware-IRQ handlers join the interleaving universe up front:
        // switching to one at a preemption point makes the enforcer inject
        // it (the paper's §4.6 future-work case).
        for &irq in &self.program.irq_handlers {
            knowledge.note_sel(ThreadSel::first(irq));
        }

        // Interleaving count 0: serial permutations, one batch. The fold
        // below replays the batch front to back, so "first failing schedule
        // wins" is preserved no matter which worker found it.
        let perms = permutations(&initial_sels);
        let jobs: Vec<ExecJob> = perms
            .iter()
            .map(|perm| self.job(Schedule::serial(perm.clone())))
            .collect();
        let results = self.run_batch(&jobs);
        for (perm, res) in perms.iter().zip(results) {
            let Some(out) = res else {
                // Cancelled mid-batch: the folded prefix is all we count.
                return LifsOutput {
                    failing: None,
                    stats,
                    tree,
                };
            };
            order += 1;
            stats.note_exec(&out);
            stats.schedules_executed += 1;
            stats.sim.add_run(out.run.steps, out.run.failure.is_some());
            let fresh = knowledge.absorb(&out.run, &out.sel_of);
            if !fresh {
                stats.pruned_equivalent += 1;
            }
            let failed = self.is_target_failure(&out.run);
            tree.nodes.push(SearchNode {
                order,
                interleavings: 0,
                plan: vec![],
                serial_order: perm.clone(),
                outcome: if failed {
                    NodeOutcome::Failure
                } else {
                    NodeOutcome::NoFailure
                },
                steps: out.run.steps,
            });
            // Remember solo traces (per-thread projections) from successful
            // serial runs. The permutation's first thread ran uninterrupted
            // from the initial state: its projection is the exact prediction
            // of a count-1 plan's pre-preemption prefix, which the DPOR
            // rules validate against.
            if out.run.failure.is_none() {
                store_solo(&mut knowledge, &out.run, &out.sel_of);
                store_solo_first(&mut knowledge, perm[0], &out.run, &out.sel_of);
            }
            if failed {
                stats.interleaving_count = 0;
                let schedule = Schedule::serial(perm.clone());
                return LifsOutput {
                    failing: Some(self.finish(schedule, out.run, out.sel_of, &knowledge)),
                    stats,
                    tree,
                };
            }
        }

        // Probe runs for hardware-IRQ handlers: a serial execution with the
        // handler injected at the end seeds the handler's memory footprint
        // (the user agent knows the handler's code from the disassembly
        // map, but conflict knowledge is dynamic). Each probe is expressed
        // as a serial schedule ending in the handler's selector — the
        // enforcer's fallback resolution injects the IRQ once the syscall
        // threads exit — so probes run through the executor like any batch.
        let irq_sels: Vec<ThreadSel> = self
            .program
            .irq_handlers
            .iter()
            .map(|&irq| ThreadSel::first(irq))
            .collect();
        let probe_jobs: Vec<ExecJob> = irq_sels
            .iter()
            .map(|&irq| {
                let mut probe_order = initial_sels.clone();
                probe_order.push(irq);
                self.job(Schedule::serial(probe_order))
            })
            .collect();
        let results = self.run_batch(&probe_jobs);
        for ((irq, job), res) in irq_sels.iter().zip(&probe_jobs).zip(results) {
            let Some(out) = res else {
                return LifsOutput {
                    failing: None,
                    stats,
                    tree,
                };
            };
            order += 1;
            stats.note_exec(&out);
            stats.schedules_executed += 1;
            stats.sim.add_run(out.run.steps, out.run.failure.is_some());
            knowledge.absorb(&out.run, &out.sel_of);
            if out.run.failure.is_none() {
                store_solo(&mut knowledge, &out.run, &out.sel_of);
            }
            let failed = self.is_target_failure(&out.run);
            tree.nodes.push(SearchNode {
                order,
                interleavings: 0,
                plan: vec![],
                serial_order: vec![*irq],
                outcome: if failed {
                    NodeOutcome::Failure
                } else {
                    NodeOutcome::NoFailure
                },
                steps: out.run.steps,
            });
            if failed {
                stats.interleaving_count = 0;
                // The c ≥ 1 phase never started: no prune log to flush.
                return LifsOutput {
                    failing: Some(self.finish(
                        job.schedule.clone(),
                        out.run,
                        out.sel_of,
                        &knowledge,
                    )),
                    stats,
                    tree,
                };
            }
        }

        // Interleaving counts 1..=max. Plans of length c are generated in
        // rounds: each round enumerates every not-yet-executed plan the
        // *current* knowledge base supports (depth-first, front to back),
        // executes the whole round as one batch, and folds the results in
        // canonical order. Knowledge grown by a round (race-steered paths
        // revealing new memory points) feeds the next round's generation;
        // a count is exhausted when a round generates nothing new.
        let mut prune_log = PruneLog::default();
        'counts: for c in 1..=self.config.max_interleavings {
            let mut plans_done: HashSet<PlanKey> = HashSet::new();
            loop {
                if self.config.cancel.is_cancelled() {
                    break 'counts;
                }
                let remaining = self
                    .config
                    .max_schedules
                    .saturating_sub(stats.schedules_executed);
                if remaining == 0 {
                    break 'counts;
                }
                let mut plans =
                    self.generate_plans(c as usize, &knowledge, &mut prune_log, &mut plans_done);
                if plans.is_empty() {
                    break; // This count is exhausted; move to c + 1.
                }
                let capped = plans.len() > remaining;
                plans.truncate(remaining);
                let jobs: Vec<ExecJob> = plans
                    .iter()
                    .map(|plan| self.job(plan_schedule(plan, &initial_sels)))
                    .collect();
                let results = self.run_until_failure(&jobs);
                let mut cancelled = false;
                for (plan, res) in plans.iter().zip(results) {
                    let Some(out) = res else {
                        cancelled = true;
                        break;
                    };
                    order += 1;
                    stats.note_exec(&out);
                    stats.schedules_executed += 1;
                    stats.sim.add_run(out.run.steps, out.run.failure.is_some());
                    let fresh = knowledge.absorb(&out.run, &out.sel_of);
                    if !fresh {
                        stats.pruned_equivalent += 1;
                    }
                    let failed = self.is_target_failure(&out.run);
                    tree.nodes.push(SearchNode {
                        order,
                        interleavings: c,
                        plan: describe(plan),
                        serial_order: vec![],
                        outcome: if failed {
                            NodeOutcome::Failure
                        } else if fresh {
                            NodeOutcome::NoFailure
                        } else {
                            NodeOutcome::PrunedEquivalent
                        },
                        steps: out.run.steps,
                    });
                    if failed {
                        stats.interleaving_count = c;
                        prune_log.flush(&mut stats, &mut tree, &mut order);
                        let schedule = plan_schedule(plan, &initial_sels);
                        return LifsOutput {
                            failing: Some(self.finish(schedule, out.run, out.sel_of, &knowledge)),
                            stats,
                            tree,
                        };
                    }
                }
                if cancelled || capped {
                    break 'counts;
                }
            }
        }

        prune_log.flush(&mut stats, &mut tree, &mut order);
        LifsOutput {
            failing: None,
            stats,
            tree,
        }
    }

    /// Wraps a schedule as an executor job for this searcher's program.
    fn job(&self, schedule: Schedule) -> ExecJob {
        ExecJob {
            program: Arc::clone(&self.program),
            schedule,
            enforce: self.config.enforce,
            shared_steps: None,
        }
    }

    /// Submits a batch that stops at the first target failure.
    fn run_until_failure(&self, jobs: &[ExecJob]) -> Vec<Option<ExecOutput>> {
        self.exec.run_until(jobs, &self.config.cancel, |o| {
            self.is_target_failure(&o.run)
        })
    }

    /// Alias of [`Lifs::run_until_failure`] for the c = 0 phases, which
    /// share the same first-failure-wins semantics.
    fn run_batch(&self, jobs: &[ExecJob]) -> Vec<Option<ExecOutput>> {
        self.run_until_failure(jobs)
    }

    /// Enumerates every not-yet-executed length-`c` plan the knowledge base
    /// supports, in the canonical depth-first front-to-back order.
    fn generate_plans(
        &self,
        c: usize,
        knowledge: &Knowledge,
        prune_log: &mut PruneLog,
        plans_done: &mut HashSet<PlanKey>,
    ) -> Vec<Vec<Preemption>> {
        let mut out = Vec::new();
        let mut stack: Vec<Vec<Preemption>> = vec![vec![]];
        while let Some(prefix) = stack.pop() {
            if prefix.len() == c {
                let key: PlanKey = prefix
                    .iter()
                    .map(|p| {
                        (
                            p.victim.prog.0,
                            p.victim.occurrence,
                            p.at.index,
                            p.nth,
                            p.target.prog.0,
                            p.target.occurrence,
                        )
                    })
                    .collect();
                if plans_done.insert(key) {
                    out.push(prefix);
                }
                continue;
            }
            // Extend the prefix: enumerate next preemptions in reverse so
            // the stack pops them front-to-back.
            let exts = self.extensions(knowledge, c, &prefix, prune_log);
            for ext in exts.into_iter().rev() {
                let mut next = prefix.clone();
                next.push(ext);
                stack.push(next);
            }
        }
        out
    }

    /// Whether a run's failure matches the reported failure signature.
    fn is_target_failure(&self, run: &RunResult) -> bool {
        match (&run.failure, &self.config.target) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(f), Some(t)) => t.matches(f, &self.program),
        }
    }

    /// Candidate next preemptions given a plan prefix.
    ///
    /// Pruning happens here, at generation time, and every rule preserves
    /// the first failing schedule: a pruned candidate is always
    /// Mazurkiewicz-equivalent to a plan *earlier* in the canonical
    /// generation order (or to a count-0 serial run), so its failure — if
    /// any — is discovered at the equivalent plan's slot instead.
    ///
    /// At [`PruneLevel::Conflict`] and above: a point whose accesses
    /// conflict with no other thread cannot change any conflict order
    /// (grey nodes of Figure 5), and a preemption after a thread's final
    /// memory access is equivalent to a serial order ("skip (eqv.)"
    /// nodes).
    ///
    /// At [`PruneLevel::Dpor`], count-1 plans additionally pass the
    /// sleep-set and persistent-set rules ([`DporCtx`]), validated against
    /// the victim's exact solo prediction. Each pruned candidate is
    /// counted once per knowledge version, and un-noted again if newer
    /// knowledge makes it generative.
    fn extensions(
        &self,
        k: &Knowledge,
        c: usize,
        prefix: &[Preemption],
        pruned: &mut PruneLog,
    ) -> Vec<Preemption> {
        let mut out = Vec::new();
        let sels = k.sels.clone();
        let conflict = self.config.prune >= PruneLevel::Conflict;
        // The refined point filter (commutative adds) is depth-independent.
        let dpor_static = self.config.prune >= PruneLevel::Dpor;
        // The sleep-set / persistent-set rules predict a plan's
        // pre-preemption prefix from the victim's solo trace. That
        // prediction is exact only for the first preemption of a count-1
        // plan (the victim runs uninterrupted from the initial state);
        // deeper plans race-steer the victim, so the rules stay off there.
        let dpor = dpor_static && c == 1;
        let initial = initial_sels(&self.program);
        for &victim in &sels {
            let Some(points) = k.mem_points.get(&victim) else {
                continue;
            };
            // Same-victim preemptions must move forward.
            let min_pos = prefix
                .iter()
                .filter(|p| p.victim == victim)
                .filter_map(|p| points.iter().position(|&(a, n)| a == p.at && n == p.nth))
                .map(|i| i + 1)
                .max()
                .unwrap_or(0);
            let last = points.last().copied();
            let mut dpor_ctx = if dpor {
                DporCtx::new(&self.program, k, victim, &initial)
            } else {
                None
            };
            // Solo positions of conflict-surviving points already emitted
            // for this victim — the sleep-set rule's backtrack anchors.
            let mut surv: Vec<usize> = Vec::new();
            // Set at the victim's first point after a spawn, lock event or
            // RCU read-side edge and taken by the first point from there on that passes the
            // conflict rules. A prefix preemption of this victim passed them
            // too, so an event before `min_pos` has had its point already.
            let mut after_sync = false;
            for &(at, nth) in points.iter().skip(min_pos) {
                after_sync |= k.after_sync.contains(&(victim, at, nth));
                let point_key = PruneKey {
                    victim,
                    at,
                    nth,
                    target: None,
                };
                if conflict {
                    if !k.conflicts_somewhere(victim, at, nth) {
                        pruned.note(point_key, k.version, NodeOutcome::PrunedNonConflicting);
                        continue;
                    }
                    if last == Some((at, nth)) {
                        pruned.note(point_key, k.version, NodeOutcome::PrunedEquivalent);
                        continue;
                    }
                }
                // The refined filter drops a point whose accesses meet other
                // threads only in commuting add/add pairs: preempting after
                // it is equivalent to preempting after the victim's previous
                // surviving point, which comes earlier in generation order.
                // That holds only when the victim neither spawned a thread,
                // nor took or dropped a lock, nor entered or left an RCU
                // read-side section in between: the spawned thread does not
                // exist at the earlier point, a target that needs the lock
                // runs (or blocks) differently there, and a `call_rcu`
                // callback waiting for the victim's grace period cannot run
                // before the unlock. So the first survivor after such an
                // event always stays. The
                // filter is as static and depth-independent as the footprint
                // test above, so it applies at every plan depth.
                let sync_first = std::mem::take(&mut after_sync);
                if dpor_static && !sync_first && !k.conflicts_somewhere_refined(victim, at, nth) {
                    pruned.note(point_key, k.version, NodeOutcome::PrunedNonConflicting);
                    continue;
                }
                pruned.unnote(&point_key);
                let solo_pos = dpor_ctx
                    .as_ref()
                    .and_then(|ctx| ctx.pos.get(&(at, nth)).copied());
                for &target in &sels {
                    if target == victim {
                        continue;
                    }
                    let pair_key = PruneKey {
                        victim,
                        at,
                        nth,
                        target: Some(target),
                    };
                    if dpor {
                        if let (Some(ctx), Some(p)) = (dpor_ctx.as_mut(), solo_pos) {
                            if let Some(reason) = ctx.prune(p, &surv, target) {
                                pruned.note(pair_key, k.version, reason);
                                continue;
                            }
                        }
                        // Generative this round: drop any sleep/persistent
                        // note recorded under older knowledge. Deeper
                        // rounds reuse the same pair as an extension of a
                        // prefix and must NOT unnote — the standalone
                        // count-1 plan stays pruned regardless.
                        pruned.unnote(&pair_key);
                    }
                    out.push(Preemption {
                        victim,
                        at,
                        nth,
                        target,
                    });
                }
                if let Some(p) = solo_pos {
                    // Generation order is the points-list order; only
                    // already-emitted points may anchor a sleep-set prune,
                    // so positions are recorded after the point is done.
                    let idx = surv.partition_point(|&q| q < p);
                    surv.insert(idx, p);
                }
            }
        }
        out
    }

    /// Assembles the [`FailingRun`], including pending-second races.
    fn finish(
        &self,
        schedule: Schedule,
        run: RunResult,
        sel_of: HashMap<ThreadId, ThreadSel>,
        knowledge: &Knowledge,
    ) -> FailingRun {
        let mut races = races_in_trace(&run.trace);
        // Critical-section order pairs join the test set; their flips are
        // planned over whole critical sections (§3.4 liveness).
        for r in crate::race::cs_order_races(&run.trace) {
            if !races.iter().any(|q| q.key() == r.key()) {
                races.push(r);
            }
        }
        let executed: HashSet<(ThreadSel, InstrAddr)> =
            run.trace.iter().map(|r| (sel_of[&r.tid], r.at)).collect();
        // Pending races: known racing pairs whose executed end is the
        // failing thread's *last memory access* while the other end is
        // still ahead of a suspended thread — Figure 6's `B17 ⇒ A12`,
        // where the read feeding the `BUG_ON` races with the `list_add`
        // the suspended thread A never reached. This is the one shape
        // whose counterfactual order is crisply determined: the failure
        // interrupted exactly that ordering, so flipping it (delaying the
        // failing thread until the pending instruction executes) is
        // meaningful. Pending ends deeper in any thread's unexecuted
        // future are not part of the failure-causing sequence.
        let failure_adjacent: Vec<InstrAddr> = run
            .failure
            .as_ref()
            .map(|f| {
                let mut adj = Vec::new();
                // The failing access itself, when it touches memory...
                if run
                    .trace
                    .iter()
                    .any(|r| r.at == f.at && !r.accesses.is_empty())
                {
                    adj.push(f.at);
                }
                // ...and the failing thread's last memory access before it.
                if let Some(prev) = run
                    .trace
                    .iter()
                    .rev()
                    .find(|r| r.tid == f.tid && r.at != f.at && !r.accesses.is_empty())
                {
                    adj.push(prev.at);
                }
                adj
            })
            .unwrap_or_default();
        for &(i, j) in &knowledge.known_pairs {
            for (done, pending) in [(i, j), (j, i)] {
                if !failure_adjacent.contains(&done) {
                    continue;
                }
                let done_evt = run.trace.iter().rev().find_map(|r| {
                    if r.at == done && r.accesses.iter().any(|_| true) {
                        Some(r.clone())
                    } else {
                        None
                    }
                });
                let Some(done_rec) = done_evt else { continue };
                // The pending end's thread.
                let Some(pend_final) = run.threads.iter().find(|f| f.sel.prog == pending.prog)
                else {
                    continue;
                };
                if executed.contains(&(pend_final.sel, pending)) {
                    continue; // Both executed: covered by races_in_trace.
                }
                // The instruction must still be ahead of the thread.
                let ahead = match pend_final.next {
                    Some(next) => next.prog == pending.prog && pending.index >= next.index,
                    None => false,
                };
                if !ahead {
                    continue;
                }
                let first_access = done_rec.accesses.first().copied();
                let Some(acc) = first_access else { continue };
                let pend_tid = run
                    .trace
                    .iter()
                    .map(|r| r.tid)
                    .find(|t| sel_of[t] == pend_final.sel)
                    .unwrap_or(done_rec.tid);
                let race = ObservedRace {
                    first: crate::race::AccessEvt {
                        seq: done_rec.seq,
                        tid: done_rec.tid,
                        at: done_rec.at,
                        addr: acc.addr,
                        is_write: acc.kind.is_write(),
                        locks: done_rec.locks_held.clone(),
                    },
                    second: RaceEnd::Pending {
                        tid: pend_tid,
                        at: pending,
                    },
                };
                if !races.iter().any(|r| r.key() == race.key()) {
                    races.push(race);
                }
            }
        }
        races.sort_by_key(ObservedRace::backward_key);
        let flip_index = Arc::new(FlipIndex::new(
            &run.trace,
            &sel_of,
            &run.threads,
            &knowledge.solo,
        ));
        FailingRun {
            program: Arc::clone(&self.program),
            schedule,
            trace: run.trace.clone(),
            failure: run.failure.clone().expect("failing run has a failure"),
            races,
            solo: knowledge.solo.clone(),
            finals: run.threads.clone(),
            sel_of_tid: sel_of,
            flip_index,
        }
    }
}

/// Initial thread selectors of a program, honouring duplicate programs.
#[must_use]
pub fn initial_sels(program: &Program) -> Vec<ThreadSel> {
    let mut counts: HashMap<ksim::ThreadProgId, u32> = HashMap::new();
    program
        .initial
        .iter()
        .map(|&p| {
            let occ = *counts.entry(p).and_modify(|c| *c += 1).or_insert(0);
            ThreadSel {
                prog: p,
                occurrence: occ,
            }
        })
        .collect()
}

/// The addresses of a program's `rcu_read_lock` and `rcu_read_unlock`
/// instructions.
fn rcu_edges(program: &Program) -> HashSet<InstrAddr> {
    let mut edges = HashSet::new();
    for (p, prog) in program.progs.iter().enumerate() {
        for (index, instr) in prog.instrs.iter().enumerate() {
            if matches!(instr, ksim::Instr::RcuReadLock | ksim::Instr::RcuReadUnlock) {
                edges.insert(InstrAddr {
                    prog: ksim::ThreadProgId(p as u16),
                    index,
                });
            }
        }
    }
    edges
}

fn permutations(sels: &[ThreadSel]) -> Vec<Vec<ThreadSel>> {
    if sels.len() <= 1 {
        return vec![sels.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &first) in sels.iter().enumerate() {
        let mut rest: Vec<ThreadSel> = sels.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            let mut perm = vec![first];
            perm.append(&mut tail);
            out.push(perm);
        }
    }
    out
}

fn describe(plan: &[Preemption]) -> Vec<PreemptionDesc> {
    plan.iter()
        .map(|p| PreemptionDesc {
            victim: p.victim,
            at: p.at,
            nth: p.nth,
            target: Some(p.target),
        })
        .collect()
}

fn plan_schedule(plan: &[Preemption], initial: &[ThreadSel]) -> Schedule {
    let points = plan
        .iter()
        .map(|p| SchedPoint {
            thread: p.victim,
            at: p.at,
            nth: p.nth,
            when: Anchor::After,
            switch_to: p.target,
        })
        .collect();
    // Fallback: the final preemption's target first, then the serial order.
    let mut fallback = Vec::new();
    if let Some(last) = plan.last() {
        fallback.push(last.target);
    }
    for &s in initial {
        if !fallback.contains(&s) {
            fallback.push(s);
        }
    }
    Schedule {
        start: plan
            .first()
            .map(|p| p.victim)
            .or_else(|| initial.first().copied()),
        points,
        fallback,
        segments: Vec::new(),
    }
}

/// Stores the first-running thread's projection of a serial run: `first`
/// executed uninterrupted from the initial state, so its projection
/// predicts a count-1 plan prefix exactly. The projection is identical in
/// every permutation that starts with `first`, so the first observation
/// sticks.
fn store_solo_first(
    k: &mut Knowledge,
    first: ThreadSel,
    run: &RunResult,
    sel_of: &HashMap<ThreadId, ThreadSel>,
) {
    if k.solo_first.contains_key(&first) {
        return;
    }
    let steps: Vec<StepRecord> = run
        .trace
        .iter()
        .filter(|rec| sel_of[&rec.tid] == first)
        .cloned()
        .collect();
    k.solo_first.insert(first, steps);
}

/// Stores per-thread projections of a serial run as solo traces.
fn store_solo(k: &mut Knowledge, run: &RunResult, sel_of: &HashMap<ThreadId, ThreadSel>) {
    let mut per: HashMap<ThreadSel, Vec<StepRecord>> = HashMap::new();
    for rec in &run.trace {
        per.entry(sel_of[&rec.tid]).or_default().push(rec.clone());
    }
    for (sel, steps) in per {
        let entry = k.solo.entry(sel).or_default();
        if steps.len() > entry.len() {
            *entry = steps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enforce;
    use ksim::builder::ProgramBuilder;
    use ksim::{Engine, FailureKind};

    /// The paper's Figure 1: `ptr_valid`/`ptr` multi-variable race, NULL
    /// deref only under `A1 ⇒ B1 ⇒ B2 ⇒ A2`.
    fn fig1_program() -> Arc<Program> {
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
        Arc::new(p.build().unwrap())
    }

    /// A run of hand-built steps: `(thread, instruction index, accesses
    /// memory)` in trace order.
    fn run_of(steps: &[(u32, usize, bool)]) -> RunResult {
        let mut trace = Trace::new();
        for (seq, &(tid, index, touches)) in steps.iter().enumerate() {
            trace.push(Arc::new(StepRecord {
                seq,
                tid: ThreadId(tid),
                at: InstrAddr {
                    prog: ksim::ThreadProgId(tid as u16),
                    index,
                },
                accesses: if touches {
                    vec![ksim::MemAccess {
                        addr: Addr(0x1000_0000 + 8 * index as u64),
                        kind: ksim::AccessKind::Write,
                    }]
                } else {
                    vec![]
                },
                branch_taken: None,
                lock_event: None,
                locks_held: vec![],
                spawned: None,
                next_pc: Some(index + 1),
            }));
        }
        RunResult {
            steps: trace.len(),
            trace,
            failure: None,
            triggered: vec![],
            forced: vec![],
            budget_exhausted: false,
            threads: vec![],
        }
    }

    /// `absorb` keeps the longest point list per thread and merges unseen
    /// points onto its tail, notes threads in first-seen order (a thread
    /// without memory accesses gets no points), and keys the signature on
    /// the trace length too.
    #[test]
    fn absorb_merges_point_lists_and_signs_runs() {
        let sel = |p| ThreadSel::first(ksim::ThreadProgId(p));
        let sel_of: HashMap<ThreadId, ThreadSel> =
            [(ThreadId(0), sel(0)), (ThreadId(1), sel(1))].into();
        let mut k = Knowledge::default();
        let points = |k: &Knowledge| -> Vec<usize> {
            k.mem_points[&sel(0)]
                .iter()
                .map(|(at, _)| at.index)
                .collect()
        };
        let first = run_of(&[(1, 9, false), (0, 1, true), (0, 2, true)]);
        assert!(k.absorb(&first, &sel_of));
        assert_eq!(k.sels, vec![sel(1), sel(0)]);
        assert!(!k.mem_points.contains_key(&sel(1)));
        // No conflicts and the same threads: only the length tells the
        // next run apart.
        let longer = run_of(&[(0, 3, true), (0, 4, true), (0, 5, true), (0, 6, false)]);
        assert!(k.absorb(&longer, &sel_of));
        assert_eq!(points(&k), [3, 4, 5], "a longer list replaces");
        assert!(!k.absorb(&first, &sel_of));
        assert_eq!(
            points(&k),
            [3, 4, 5, 1, 2],
            "unseen points merge at the tail"
        );
        k.absorb(&run_of(&[(0, 3, true), (0, 4, true)]), &sel_of);
        assert_eq!(
            points(&k),
            [3, 4, 5, 1, 2],
            "a stored prefix changes nothing"
        );
        assert_eq!(k.version, 4);
    }

    #[test]
    fn lifs_reproduces_fig1_with_one_interleaving() {
        let out = Lifs::new(fig1_program(), LifsConfig::default()).search();
        let failing = out.failing.expect("must reproduce");
        assert_eq!(failing.failure.kind, FailureKind::NullDeref);
        assert_eq!(out.stats.interleaving_count, 1);
        assert!(out.stats.schedules_executed >= 3); // 2 serial + ≥1 preempted
        assert!(!failing.races.is_empty());
    }

    #[test]
    fn serial_runs_come_first_and_do_not_fail() {
        let out = Lifs::new(fig1_program(), LifsConfig::default()).search();
        let serial: Vec<_> = out
            .tree
            .nodes
            .iter()
            .filter(|n| n.interleavings == 0)
            .collect();
        assert_eq!(serial.len(), 2);
        assert!(serial.iter().all(|n| n.outcome == NodeOutcome::NoFailure));
    }

    #[test]
    fn failing_sequence_replays_deterministically() {
        let out = Lifs::new(fig1_program(), LifsConfig::default()).search();
        let failing = out.failing.expect("must reproduce");
        // Re-enforce the failing schedule: same failure, same trace length.
        let mut e = Engine::new(fig1_program());
        let r = enforce::run(&mut e, &failing.schedule, &EnforceConfig::default());
        let f = r.failure.expect("replay fails too");
        assert_eq!(f.kind, failing.failure.kind);
        assert_eq!(f.at, failing.failure.at);
        assert_eq!(r.trace.len(), failing.trace.len());
    }

    #[test]
    fn por_prunes_candidates() {
        let mut cfg = LifsConfig {
            prune: PruneLevel::Conflict,
            ..LifsConfig::default()
        };
        let with_por = Lifs::new(fig1_program(), cfg.clone()).search();
        cfg.prune = PruneLevel::Off;
        let without = Lifs::new(fig1_program(), cfg).search();
        assert!(with_por.failing.is_some());
        assert!(without.failing.is_some());
        assert!(
            with_por.stats.schedules_executed <= without.stats.schedules_executed,
            "POR must not increase executed schedules"
        );
    }

    #[test]
    fn prune_levels_preserve_the_failing_schedule() {
        let mut found = Vec::new();
        for level in [PruneLevel::Off, PruneLevel::Conflict, PruneLevel::Dpor] {
            let cfg = LifsConfig {
                prune: level,
                ..LifsConfig::default()
            };
            let out = Lifs::new(fig1_program(), cfg).search();
            let failing = out.failing.expect("every level must reproduce");
            found.push((failing.schedule, failing.trace.len()));
        }
        assert_eq!(found[0], found[1], "off vs conflict diverged");
        assert_eq!(found[1], found[2], "conflict vs dpor diverged");
    }

    #[test]
    fn prune_level_parses_and_displays() {
        use std::str::FromStr;
        for (s, l) in [
            ("off", PruneLevel::Off),
            ("conflict", PruneLevel::Conflict),
            ("dpor", PruneLevel::Dpor),
        ] {
            assert_eq!(PruneLevel::from_str(s).unwrap(), l);
            assert_eq!(l.to_string(), s);
        }
        assert!(PruneLevel::from_str("banana").is_err());
        assert_eq!(PruneLevel::default(), PruneLevel::Dpor);
        assert!(PruneLevel::Dpor > PruneLevel::Conflict);
        assert!(PruneLevel::Conflict > PruneLevel::Off);
    }

    /// A failure requiring a kernel background thread (Figure 4-(c) shape):
    /// the syscall frees an object that the kworker it queued still uses —
    /// only when the kworker's store is delayed past the free.
    fn kworker_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("kworker-uaf");
        let slot = p.global("slot", 0);
        let w = {
            let mut w = p.kworker_thread("kworker");
            w.n("K1").load_global("r1", slot);
            w.n("K2").store_ind("r1", 0, 7u64); // write through slot
            w.ret();
            w.id()
        };
        {
            let mut a = p.syscall_thread("A", "ioctl");
            a.n("A1").alloc("r0", 8);
            a.n("A2").store_global_from(slot, "r0");
            a.n("A3").queue_work(w, None);
            a.n("A4").free("r0");
            a.ret();
        }
        Arc::new(p.build().unwrap())
    }

    #[test]
    fn lifs_handles_background_threads() {
        // Serial order A then kworker: K2 writes a freed object → actually
        // fails serially? A frees before K runs, so serial *does* fail —
        // LIFS reproduces at interleaving count 0.
        let out = Lifs::new(kworker_program(), LifsConfig::default()).search();
        let failing = out.failing.expect("must reproduce");
        assert_eq!(failing.failure.kind, FailureKind::UseAfterFree);
    }

    /// Background-thread failure that needs one preemption: the kworker
    /// crashes only when it runs inside the syscall's NULL window
    /// (`A2` nulls `ptr`, `A3` restores it).
    fn kworker_window_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("kworker-window");
        let obj = p.static_obj("obj", 8);
        let ptr = p.global_ptr("ptr", obj);
        let w = {
            let mut w = p.kworker_thread("kworker");
            w.n("K1").load_global("r1", ptr);
            w.n("K2").load_ind("r2", "r1", 0);
            w.ret();
            w.id()
        };
        {
            let mut a = p.syscall_thread("A", "ioctl");
            a.n("A1").load_global("r3", ptr); // remember the valid pointer
            a.n("A2").queue_work(w, None);
            a.n("A3").store_global(ptr, 0u64); // NULL window opens
            a.n("A4").store_global_from(ptr, "r3"); // window closes
            a.ret();
        }
        Arc::new(p.build().unwrap())
    }

    #[test]
    fn lifs_finds_window_race_with_kworker() {
        let out = Lifs::new(kworker_window_program(), LifsConfig::default()).search();
        let failing = out.failing.expect("must reproduce");
        assert!(out.stats.interleaving_count >= 1);
        assert_eq!(failing.failure.kind, FailureKind::NullDeref);
    }

    #[test]
    fn pending_races_are_reported() {
        // In fig1's failing run, A2's load of ptr races with B2's store;
        // additionally instructions past the failure must be representable.
        let out = Lifs::new(fig1_program(), LifsConfig::default()).search();
        let failing = out.failing.expect("must reproduce");
        // All races sorted backward.
        let keys: Vec<usize> = failing
            .races
            .iter()
            .map(ObservedRace::backward_key)
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn search_gives_up_within_bounds_when_no_failure_exists() {
        let mut p = ProgramBuilder::new("benign");
        let x = p.global("x", 0);
        {
            let mut a = p.syscall_thread("A", "w");
            a.fetch_add_global(x, 1u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "w");
            b.fetch_add_global(x, 1u64);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let out = Lifs::new(prog, LifsConfig::default()).search();
        assert!(out.failing.is_none());
        assert!(out.stats.schedules_executed > 0);
    }
}

#[cfg(test)]
mod target_tests {
    use super::*;
    use ksim::builder::{
        cond_reg,
        ProgramBuilder, //
    };
    use ksim::{
        CmpOp,
        FailureKind, //
    };

    /// A program that can fail two different ways; the failure target makes
    /// LIFS skip the wrong one and keep searching for the reported one.
    fn two_failure_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("two-failures");
        let flag = p.global("flag", 0);
        let obj = p.static_obj("obj", 8);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "x");
            a.func("path_a");
            a.n("A1").store_global(flag, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0); // NULL deref when B nulled ptr
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "y");
            b.func("path_b");
            let out = b.new_label();
            b.n("B1").load_global("r0", flag);
            b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
            // Either failure is reachable depending on the interleaving:
            // B2 nulls the pointer (→ A crashes), or B asserts on the flag.
            b.n("B2").store_global(ptr, 0u64);
            b.n("B3").load_global("r1", flag);
            b.bug_on_msg(cond_reg("r1", CmpOp::Eq, 1), "flag still set");
            b.place(out);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    #[test]
    fn search_without_target_stops_at_first_failure() {
        let out = Lifs::new(two_failure_program(), LifsConfig::default()).search();
        let run = out.failing.expect("some failure");
        // Whichever failure comes first in the search ends it.
        assert!(matches!(
            run.failure.kind,
            FailureKind::AssertionViolation | FailureKind::NullDeref
        ));
    }

    #[test]
    fn search_with_target_skips_other_failures() {
        for (kind, func) in [
            (FailureKind::NullDeref, "path_a"),
            (FailureKind::AssertionViolation, "path_b"),
        ] {
            let cfg = LifsConfig {
                target: Some(FailureTarget::in_func(kind, func)),
                ..LifsConfig::default()
            };
            let out = Lifs::new(two_failure_program(), cfg).search();
            let run = out
                .failing
                .unwrap_or_else(|| panic!("{kind:?} must reproduce"));
            assert_eq!(run.failure.kind, kind);
        }
    }

    #[test]
    fn target_func_mismatch_rejects() {
        let prog = two_failure_program();
        let t = FailureTarget::in_func(FailureKind::NullDeref, "wrong_func");
        let cfg = LifsConfig {
            target: Some(t),
            max_interleavings: 2,
            ..LifsConfig::default()
        };
        let out = Lifs::new(prog, cfg).search();
        assert!(out.failing.is_none());
    }

    fn prune_key(nth: u32) -> PruneKey {
        PruneKey {
            victim: ThreadSel::first(ksim::ThreadProgId(0)),
            at: ksim::InstrAddr {
                prog: ksim::ThreadProgId(0),
                index: 0,
            },
            nth,
            target: None,
        }
    }

    /// A flushed log counts each key once even when generation re-notes it
    /// every round at the same knowledge version.
    #[test]
    fn prune_log_dedups_same_version_renotes() {
        let mut log = PruneLog::default();
        for _ in 0..5 {
            log.note(prune_key(0), 1, NodeOutcome::PrunedNonConflicting);
        }
        let mut stats = LifsStats::default();
        let mut tree = SearchTree::default();
        let mut order = 0;
        log.flush(&mut stats, &mut tree, &mut order);
        assert_eq!(stats.pruned_nonconflicting, 1);
        assert_eq!(tree.nodes.len(), 1);
    }

    /// A re-note at a newer knowledge version updates the recorded reason
    /// in place — one tree node, counted under the latest reason only.
    #[test]
    fn prune_log_newer_version_updates_reason_in_place() {
        let mut log = PruneLog::default();
        log.note(prune_key(0), 1, NodeOutcome::PrunedNonConflicting);
        log.note(prune_key(0), 2, NodeOutcome::PrunedSleepSet);
        let mut stats = LifsStats::default();
        let mut tree = SearchTree::default();
        let mut order = 0;
        log.flush(&mut stats, &mut tree, &mut order);
        assert_eq!(stats.pruned_nonconflicting, 0);
        assert_eq!(stats.pruned_sleep_set, 1);
        assert_eq!(tree.nodes.len(), 1);
        assert_eq!(tree.nodes[0].outcome, NodeOutcome::PrunedSleepSet);
    }

    /// An unnoted key (the candidate became generative under newer
    /// knowledge) leaves no trace: not counted, no tree node — the
    /// executed schedule accounts for it instead. Other keys still flush,
    /// and flushing resets the log for the next round.
    #[test]
    fn prune_log_unnote_drops_the_pending_entry() {
        let mut log = PruneLog::default();
        log.note(prune_key(0), 1, NodeOutcome::PrunedNonConflicting);
        log.note(prune_key(1), 1, NodeOutcome::PrunedPersistent);
        log.unnote(&prune_key(0));
        let mut stats = LifsStats::default();
        let mut tree = SearchTree::default();
        let mut order = 0;
        log.flush(&mut stats, &mut tree, &mut order);
        assert_eq!(stats.pruned_nonconflicting, 0);
        assert_eq!(stats.pruned_persistent, 1);
        assert_eq!(tree.nodes.len(), 1);
        // The log is reusable after a flush: an unnoted key can be noted
        // again at a later version without being deduplicated away.
        log.note(prune_key(0), 3, NodeOutcome::PrunedSleepSet);
        log.flush(&mut stats, &mut tree, &mut order);
        assert_eq!(stats.pruned_sleep_set, 1);
        assert_eq!(tree.nodes.len(), 2);
    }

    /// Three threads shaped so both DPOR rules have something to prune:
    /// preempting A at `A2` toward B commutes with the already-emitted
    /// preemption at `A1` toward B (the step between them touches only
    /// `y`, which B never accesses) — the sleep-set rule's shape — while
    /// B's tail after `B1` is private, so preempting B at `B1` reproduces
    /// a serial order — the persistent-set rule's shape.
    fn sleepy_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("sleepy");
        let x = p.global("x", 0);
        let y = p.global("y", 0);
        let w = p.global("w", 0);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.n("A1").store_global(x, 1u64);
            a.n("A2").store_global(y, 1u64);
            a.n("A3").store_global(x, 2u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "reader_x");
            b.n("B1").load_global("r0", x);
            b.n("B2").store_global(w, 1u64);
            b.ret();
        }
        {
            let mut c = p.syscall_thread("C", "reader_y");
            c.n("C1").load_global("r0", y);
            c.ret();
        }
        Arc::new(p.build().unwrap())
    }

    /// The sleep-set and persistent-set rules fire at `dpor` and only at
    /// `dpor`, and strictly reduce the executed-schedule count without
    /// changing the (non-)failure outcome.
    #[test]
    fn dpor_sleep_and_persistent_rules_fire() {
        let run = |prune| {
            Lifs::new(
                sleepy_program(),
                LifsConfig {
                    prune,
                    ..LifsConfig::default()
                },
            )
            .search()
        };
        let conflict = run(PruneLevel::Conflict);
        let dpor = run(PruneLevel::Dpor);
        assert_eq!(conflict.stats.pruned_sleep_set, 0);
        assert_eq!(conflict.stats.pruned_persistent, 0);
        assert!(
            dpor.stats.pruned_sleep_set + dpor.stats.pruned_persistent > 0,
            "dpor rules never fired: {:?}",
            dpor.stats
        );
        assert!(dpor.stats.schedules_executed < conflict.stats.schedules_executed);
        assert_eq!(conflict.failing.is_none(), dpor.failing.is_none());
    }

    /// The first failing schedule and its races at `off` and at `dpor`.
    fn first_failing_at_off_and_dpor(program: &Arc<Program>) -> [(Schedule, Vec<ObservedRace>); 2] {
        [PruneLevel::Off, PruneLevel::Dpor].map(|prune| {
            let cfg = LifsConfig {
                prune,
                ..LifsConfig::default()
            };
            let run = Lifs::new(Arc::clone(program), cfg)
                .search()
                .failing
                .unwrap_or_else(|| panic!("no failure at {prune}"));
            (run.schedule, run.races)
        })
    }

    /// Syzkaller #5's shape: A queues the worker, then bumps a counter the
    /// worker bumps too (an add/add meeting only), then uses the object
    /// the worker frees. The class "worker runs before A's use" is first
    /// reached by preempting A after the counter, which the refined filter
    /// would merge into A's previous point, where the worker does not
    /// exist yet.
    #[test]
    fn dpor_keeps_the_first_point_after_a_spawn() {
        let mut p = ProgramBuilder::new("spawn-then-add");
        let stats = p.global("stats", 0);
        let obj = p.static_obj("obj", 8);
        let ptr = p.global_ptr("ptr", obj);
        let w = {
            let mut k = p.kworker_thread("kworker");
            k.n("K1").fetch_add_global(stats, 1u64);
            k.n("K2").load_global("r0", ptr);
            k.n("K3").free("r0");
            k.ret();
            k.id()
        };
        {
            let mut a = p.syscall_thread("A", "sendmsg");
            a.n("A1").queue_work(w, None);
            a.n("A2").fetch_add_global(stats, 1u64);
            a.n("A3").load_global("r1", ptr);
            a.n("A4").store_ind("r1", 0, 1u64);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let [off, dpor] = first_failing_at_off_and_dpor(&prog);
        assert_eq!(prog.instr_name(off.0.points[0].at), "A2");
        assert_eq!(off, dpor);
    }

    /// The lock-event twin: A takes `l` and then bumps a counter B bumps
    /// too. Preempting A right there makes B block on `l` after reading
    /// `flag`, so B's critical section runs after A's and sees `state`
    /// set: the assertion fires. Merged into an earlier point (before the
    /// lock), B would take `l` first and pass.
    #[test]
    fn dpor_keeps_the_first_point_after_a_lock_event() {
        let mut p = ProgramBuilder::new("lock-then-add");
        let stats = p.global("stats", 0);
        let flag = p.global("flag", 0);
        let state = p.global("state", 0);
        let l = p.lock("l");
        {
            let mut a = p.syscall_thread("A", "update");
            a.lock(l);
            a.n("A1").fetch_add_global(stats, 1u64);
            a.n("A2").store_global(flag, 1u64);
            a.n("A3").store_global(state, 1u64);
            a.unlock(l);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "check");
            let out = b.new_label();
            b.n("B1").load_global("r0", flag);
            b.n("B2").fetch_add_global(stats, 1u64);
            b.lock(l);
            b.n("B3").load_global("r1", state);
            b.unlock(l);
            b.jmp_if(cond_reg("r0", CmpOp::Ne, 0), out);
            b.bug_on(cond_reg("r1", CmpOp::Eq, 1));
            b.place(out);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let [off, dpor] = first_failing_at_off_and_dpor(&prog);
        assert_eq!(prog.instr_name(off.0.points[0].at), "A1");
        assert_eq!(off, dpor);
    }

    /// The RCU twin: A's `call_rcu` callback C waits for the grace period
    /// A's read-side section holds open, so C first exists as a runnable
    /// target at A's first point after `rcu_read_unlock`. That point only
    /// bumps a counter C bumps too; merged into A's previous point (inside
    /// the section, where C cannot run), the class "C frees before A's
    /// use" would first be reached one point later.
    #[test]
    fn dpor_keeps_the_first_point_after_an_rcu_unlock() {
        let mut p = ProgramBuilder::new("rcu-unlock-then-add");
        let stats = p.global("stats", 0);
        let obj = p.static_obj("obj", 8);
        let ptr = p.global_ptr("ptr", obj);
        let cb = {
            let mut c = p.rcu_thread("C");
            c.n("C1").fetch_add_global(stats, 1u64);
            c.n("C2").load_global("r0", ptr);
            c.n("C3").free("r0");
            c.ret();
            c.id()
        };
        {
            let mut a = p.syscall_thread("A", "sendmsg");
            a.rcu_read_lock();
            a.call_rcu(cb, None);
            a.n("A1").fetch_add_global(stats, 1u64);
            a.rcu_read_unlock();
            a.n("A2").fetch_add_global(stats, 1u64);
            a.n("A3").load_global("r1", ptr);
            a.n("A4").store_ind("r1", 0, 1u64);
            a.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let [off, dpor] = first_failing_at_off_and_dpor(&prog);
        assert_eq!(prog.instr_name(off.0.points[0].at), "A2");
        assert_eq!(off, dpor);
    }

    /// Two pending races at T0's last access before its assertion tie in
    /// the backward order, so the order `finish` finds them in is the
    /// order they are tested in. Every search of one program must find
    /// them in one order (a random-program property found this shape).
    #[test]
    fn tied_pending_races_come_out_in_one_order() {
        let mut p = ProgramBuilder::new("tied-pending");
        let v1 = p.global("v1", 0);
        let v2 = p.global("v2", 0);
        let v3 = p.global("v3", 0);
        let (l0, l1) = (p.lock("l0"), p.lock("l1"));
        let k = {
            let mut k = p.kworker_thread("K");
            k.load_global("r2", v1);
            k.bug_on(cond_reg("r2", CmpOp::Eq, 5));
            k.lock(l1);
            k.store_global(v2, 0u64);
            k.unlock(l1);
            k.load_global("r0", v1);
            k.ret();
            k.id()
        };
        {
            let mut t = p.syscall_thread("T0", "check");
            let skip = t.new_label();
            t.load_global("r1", v2);
            t.jmp_if(cond_reg("r1", CmpOp::Ne, 0), skip);
            t.store_global(v3, 3u64);
            t.place(skip);
            t.store_global(v2, 2u64);
            t.lock(l0);
            t.store_global(v2, 3u64);
            t.unlock(l0);
            t.load_global("r2", v2);
            t.bug_on(cond_reg("r2", CmpOp::Eq, 5));
            t.ret();
        }
        {
            let mut t = p.syscall_thread("T1", "update");
            t.queue_work(k, None);
            for val in [5u64, 1] {
                t.lock(l1);
                t.store_global(v2, val);
                t.unlock(l1);
            }
            t.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let races = || {
            Lifs::new(Arc::clone(&prog), LifsConfig::default())
                .search()
                .failing
                .expect("T0's assertion fires")
                .races
        };
        let first = races();
        let pending = first
            .iter()
            .filter(|r| matches!(r.second, RaceEnd::Pending { .. }))
            .count();
        assert!(pending >= 2, "only {pending} pending races: nothing ties");
        for _ in 0..8 {
            assert_eq!(races(), first);
        }
    }

    /// Sleep-set state survives `SnapshotForest` prefix restores: with the
    /// memo table and forest enabled, a `dpor` search is bit-identical at
    /// 1, 2, and 8 workers — same schedule count, same per-rule prune
    /// counters, same search-tree outcomes — even though batch fan-out
    /// executes victims' prefixes from restored snapshots in parallel.
    #[test]
    fn dpor_pruning_is_identical_across_forest_worker_counts() {
        let digest = |vms: usize| {
            let exec = Arc::new(crate::exec::Executor::with_config(
                crate::exec::ExecutorConfig {
                    vms,
                    os_threads: Some(vms),
                    memo: true,
                    ..crate::exec::ExecutorConfig::default()
                },
            ));
            let out = Lifs::with_executor(
                sleepy_program(),
                LifsConfig {
                    prune: PruneLevel::Dpor,
                    ..LifsConfig::default()
                },
                exec,
            )
            .search();
            let outcomes: Vec<NodeOutcome> =
                out.tree.nodes.iter().map(|n| n.outcome.clone()).collect();
            (
                out.stats.schedules_executed,
                out.stats.pruned_nonconflicting,
                out.stats.pruned_equivalent,
                out.stats.pruned_sleep_set,
                out.stats.pruned_persistent,
                out.failing.map(|r| r.schedule),
                outcomes,
            )
        };
        let serial = digest(1);
        assert!(
            serial.3 + serial.4 > 0,
            "dpor rules never fired under the forest executor"
        );
        for vms in [2usize, 8] {
            assert_eq!(serial, digest(vms), "diverged at {vms} workers");
        }
    }
}
