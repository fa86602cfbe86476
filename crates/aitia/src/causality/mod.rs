//! Causality Analysis (§3.4): pinpointing the root cause.
//!
//! Given the failure-causing instruction sequence from LIFS, Causality
//! Analysis pops each data race — **backward**, last race first — and
//! executes the kernel with exactly that race's interleaving order flipped
//! while all other orders are preserved:
//!
//! * the failure does **not** manifest → the race *contributes* to the
//!   failure → root cause set;
//! * the failure still manifests → the race is **benign** → excluded.
//!
//! This realizes the formal definition of a root cause — "if removed
//! (flipped in our test), it would prevent a failure from occurring" — and
//! is what rules every statistics counter and flag-bit race out of the
//! report without any pattern knowledge.
//!
//! A second backward pass discovers causality *between* root-cause races:
//! flipping R1 and observing that R2 never occurs (its instructions
//! disappeared behind a race-steered control flow) yields the edge R1 → R2.
//! Mutually-causal races conjoin; the condensed order is the causality
//! chain.
//!
//! Nested/surrounding races (Figure 7) are handled exactly as the paper
//! prescribes: a surrounding race cannot be flipped while preserving a race
//! nested inside it, so the nested race flips along; if the nested race is
//! itself causal, the surrounding race's verdict is **ambiguous**.

pub mod chain;
pub mod flip;
pub mod gain;
pub mod invariants;

use crate::{
    enforce::{
        EnforceConfig,
        RunOutcome, //
    },
    exec::{
        CancelToken,
        ExecJob,
        ExecOutput,
        Executor, //
    },
    lifs::FailingRun,
    race::ObservedRace,
    simtime::SimCost,
};
use chain::{
    build_chain,
    CausalityChain, //
};
use flip::{
    failure_averted,
    plan_flip,
    FlipPlan, //
};
use invariants::StaticProver;
use ksim::InstrAddr;
use std::sync::Arc;

/// How much intervention the analysis performs (`--causality-level`).
///
/// The level changes *which* and *how many* flips run, never the verdicts:
/// on a completed (deadline-free) analysis, chains, verdicts, and edges are
/// bit-identical across levels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CausalityLevel {
    /// Flip every observed race, submitted in canonical (backward) test
    /// order — the paper's §3.4 procedure, verbatim.
    Exhaustive,
    /// The default. Skip flips the static prover ([`invariants`])
    /// discharges — their races are Benign with a `"static-invariant"`
    /// provenance — and submit the remaining flips in descending
    /// information-gain order ([`gain`]), so a deadline leaves
    /// [`Verdict::Unverified`] only on the lowest-value races.
    #[default]
    Adaptive,
}

impl std::fmt::Display for CausalityLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CausalityLevel::Exhaustive => "exhaustive",
            CausalityLevel::Adaptive => "adaptive",
        })
    }
}

impl std::str::FromStr for CausalityLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exhaustive" => Ok(CausalityLevel::Exhaustive),
            "adaptive" => Ok(CausalityLevel::Adaptive),
            other => Err(format!(
                "unknown causality level `{other}` (expected `exhaustive` or `adaptive`)"
            )),
        }
    }
}

/// The verdict on one tested data race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Flipping the race averted the failure: it contributes.
    Causal,
    /// The failure still manifested: the race is benign.
    Benign,
    /// The race's contribution cannot be determined: either it surrounds a
    /// causal nested race (Figure 7 — flipping it necessarily flipped the
    /// nested race too), or the flip run was inconclusive (it livelocked
    /// until the step budget ran out) and its non-failure must not be read
    /// as "the failure was averted".
    Ambiguous,
    /// The race's flip was never executed — a deadline budget expired (or
    /// the analysis was cancelled) before its run could start. Distinct
    /// from [`Verdict::Ambiguous`]: no evidence run exists at all. A
    /// degraded analysis marks every un-flipped race `Unverified`, never
    /// `Benign` — absence of a flip is not evidence of harmlessness.
    Unverified,
}

/// One tested race with its verdict and the evidence run's key facts.
#[derive(Clone, Debug)]
pub struct TestedRace {
    /// The race.
    pub race: ObservedRace,
    /// The verdict.
    pub verdict: Verdict,
    /// Races that the flip necessarily reversed along with this one.
    pub flipped_with: Vec<(InstrAddr, InstrAddr)>,
    /// Races (by ordered key) that did not occur in the flip run —
    /// race-steered control-flow evidence.
    pub vanished: Vec<(InstrAddr, InstrAddr)>,
    /// Whether the flip's window had to grow to a whole critical section.
    pub cs_expanded: bool,
    /// Classification of the flip run (a [`RunOutcome::Timeout`] run
    /// forces an ambiguous verdict). `None`
    /// when the flip never executed — deadline expiry, cancellation, or a
    /// static benign proof — which forces [`Verdict::Unverified`] unless
    /// [`TestedRace::static_proof`] holds.
    pub outcome: Option<RunOutcome>,
    /// Whether the verdict rests on a static invariant proof
    /// ([`invariants`]) instead of a flip run. Only ever true for
    /// [`Verdict::Benign`] at [`CausalityLevel::Adaptive`].
    pub static_proof: bool,
}

impl TestedRace {
    /// Where this verdict came from, for per-link report provenance.
    #[must_use]
    pub fn provenance(&self) -> &'static str {
        if self.static_proof {
            return "static-invariant";
        }
        match (self.verdict, self.outcome) {
            (_, None) => "not executed (deadline)",
            (_, Some(out)) if out.is_inconclusive() => "inconclusive flip",
            _ => "executed flip",
        }
    }
}

/// Statistics of one analysis (the Causality Analysis columns of Tables 2
/// and 3).
#[derive(Clone, Debug, Default)]
pub struct CaStats {
    /// Schedules executed across both passes. Memo hits are counted here
    /// (and in [`CaStats::sim`]) exactly like executed schedules, so the
    /// diagnosis-facing statistics are invariant to memoization.
    pub schedules_executed: usize,
    /// Simulated cost.
    pub sim: SimCost,
    /// Flip runs answered from the cross-run memo table instead of a VM.
    pub memo_hits: usize,
    /// Flip runs skipped outright because the static prover
    /// ([`invariants`]) discharged the race as Benign. Unlike memo hits,
    /// skipped flips are *not* counted in [`CaStats::schedules_executed`]:
    /// no schedule (new or cached) was consulted at all.
    pub flips_skipped_static: usize,
    /// Flip jobs submitted out of canonical (backward) order by the
    /// information-gain scheduler ([`gain`]). Zero at
    /// [`CausalityLevel::Exhaustive`].
    pub flips_reordered: usize,
    /// Static proofs contradicted by their verification flip run — only
    /// countable under [`CausalityConfig::verify_static`], and always zero
    /// if the prover is sound.
    pub static_disagreements: usize,
    /// Whether a deadline on the analysis's token
    /// ([`CausalityConfig::cancel`]) had fired when the analysis ended,
    /// degrading un-flipped verdicts to [`Verdict::Unverified`]. A
    /// campaign's stages share one expiry, so a deadline LIFS observed
    /// counts here even when the analysis submitted no flip.
    pub deadline_fired: bool,
}

impl CaStats {
    /// Folds one executor output's memo accounting.
    fn note_exec(&mut self, out: &crate::exec::ExecOutput) {
        self.memo_hits += usize::from(out.memo_hit);
    }
}

/// Configuration of the analysis.
#[derive(Clone, Debug)]
pub struct CausalityConfig {
    /// Enforcement limits per run.
    pub enforce: EnforceConfig,
    /// Test races backward from the failure (§3.4). Disabling tests forward
    /// — the ablation showing why backward is the right direction.
    pub backward: bool,
    /// Flip critical sections as units (§3.4 liveness). Disabling is the
    /// ablation.
    pub cs_as_unit: bool,
    /// How much intervention to run: static proofs + gain ordering at
    /// [`CausalityLevel::Adaptive`] (the default), every flip in test order
    /// at [`CausalityLevel::Exhaustive`] (the paper's procedure).
    pub level: CausalityLevel,
    /// Debug agreement mode: still execute flips the static prover
    /// discharged and assert the run agrees (failure manifested). Costs the
    /// executions adaptivity saves — for soundness audits and the
    /// agreement gate in `tests/causality_golden.rs`, not production use.
    pub verify_static: bool,
    /// Cancellation root for the analysis's flip batches. The default is a
    /// fresh, never-cancelled token; a campaign deadline gives it the same
    /// expiry as the LIFS token, so an expired deadline stops in-flight
    /// batches.
    pub cancel: CancelToken,
}

impl Default for CausalityConfig {
    fn default() -> Self {
        CausalityConfig {
            enforce: EnforceConfig::default(),
            backward: true,
            cs_as_unit: true,
            level: CausalityLevel::default(),
            verify_static: false,
            cancel: CancelToken::new(),
        }
    }
}

/// The complete analysis result.
#[derive(Clone, Debug)]
pub struct CausalityResult {
    /// The causality chain — the root cause.
    pub chain: CausalityChain,
    /// Every tested race with its verdict.
    pub tested: Vec<TestedRace>,
    /// The root-cause races (chain members), in tested order.
    pub root_causes: Vec<ObservedRace>,
    /// Causality edges between root causes (indices into `root_causes`).
    pub edges: Vec<(usize, usize)>,
    /// Statistics.
    pub stats: CaStats,
}

impl CausalityResult {
    /// Races judged benign (excluded from the chain).
    #[must_use]
    pub fn benign(&self) -> Vec<&ObservedRace> {
        self.tested
            .iter()
            .filter(|t| t.verdict == Verdict::Benign)
            .map(|t| &t.race)
            .collect()
    }

    /// Races judged ambiguous.
    #[must_use]
    pub fn ambiguous(&self) -> Vec<&ObservedRace> {
        self.tested
            .iter()
            .filter(|t| t.verdict == Verdict::Ambiguous)
            .map(|t| &t.race)
            .collect()
    }

    /// Races left unverified (their flips never executed).
    #[must_use]
    pub fn unverified(&self) -> Vec<&ObservedRace> {
        self.tested
            .iter()
            .filter(|t| t.verdict == Verdict::Unverified)
            .map(|t| &t.race)
            .collect()
    }
}

/// The Causality Analysis driver.
///
/// Flip runs execute through the shared VM-pool executor ([`crate::exec`]):
/// each backward pass submits its flips as one batch and folds the results
/// back into canonical test-order slots, so verdicts — including Figure 7's
/// nested-race ambiguity resolution, which depends on the order verdicts
/// settle — are identical at any worker count *and* at any submission
/// order. The [`CausalityLevel::Adaptive`] level exploits exactly that
/// split: submission follows information gain while folding, verdicts, and
/// chains stay canonical.
pub struct CausalityAnalysis {
    config: CausalityConfig,
    exec: Arc<Executor>,
}

struct FlipOutcome {
    averted: bool,
    outcome: RunOutcome,
    /// Per race of the run (`run.races` order): whether it occurred in
    /// the flip run.
    occurred: Vec<bool>,
}

impl CausalityAnalysis {
    /// Creates an analysis executing on a private single-worker VM.
    #[must_use]
    pub fn new(config: CausalityConfig) -> Self {
        CausalityAnalysis::with_executor(config, Arc::new(Executor::new(1)))
    }

    /// Creates an analysis executing its flip batches on `exec`.
    #[must_use]
    pub fn with_executor(config: CausalityConfig, exec: Arc<Executor>) -> Self {
        CausalityAnalysis { config, exec }
    }

    /// Submission permutation for one batch: identity (canonical order) at
    /// the exhaustive level, descending gain at the adaptive level (ties
    /// keep canonical order). `positions[k]` is batch job `k`'s position in
    /// `order`, which maps positions to race indices — the shape both
    /// phase A and phase C share. Counts out-of-order submissions.
    fn submission(
        &self,
        positions: &[usize],
        order: &[usize],
        scores: Option<&[u64]>,
        stats: &mut CaStats,
    ) -> Vec<usize> {
        let Some(scores) = scores else {
            return (0..positions.len()).collect();
        };
        let by_job: Vec<u64> = positions.iter().map(|&p| scores[order[p]]).collect();
        let submit = gain::submission_order(&by_job);
        stats.flips_reordered += submit.iter().enumerate().filter(|&(k, &j)| k != j).count();
        submit
    }

    /// Runs the full analysis on a failing run.
    #[must_use]
    pub fn analyze(&self, run: &FailingRun) -> CausalityResult {
        let mut stats = CaStats::default();
        let cancel = self.config.cancel.clone();

        // Test order: backward (last race first) per the paper; forward is
        // the ablation. `run.races` is sorted ascending by backward key.
        let n = run.races.len();
        let mut order: Vec<usize> = (0..n).collect();
        if self.config.backward {
            order.reverse();
        }
        let adaptive = self.config.level == CausalityLevel::Adaptive;

        // Plans are pure per race; index by race so the static prover, the
        // gain scorer, and both phases can share one set.
        let plans_by_race: Vec<FlipPlan> = (0..n)
            .map(|i| plan_flip(run, &run.races[i], &run.races, self.config.cs_as_unit))
            .collect();

        // Static benign proofs (adaptive only): a race whose flip provably
        // still manifests the failure is Benign without a run — the proof
        // is the evidence, preserving the never-Benign-without-proof rule.
        let mut static_benign = vec![false; n];
        if adaptive {
            let prover = StaticProver::new(run);
            for (i, race) in run.races.iter().enumerate() {
                static_benign[i] = prover.prove_benign(race, self.config.cs_as_unit);
            }
            stats.flips_skipped_static = static_benign.iter().filter(|&&p| p).count();
        }

        // Gain scores decide batch submission order at the adaptive level.
        let scores = adaptive.then(|| gain::gain_scores(run, &plans_by_race));
        let watch = Watch::new(run);

        // Phase A: flip each race once — one batch over the pass, folded
        // back into test-order slots regardless of submission order.
        // verify_static keeps proved flips in the batch so their runs can
        // be audited against the proofs.
        let positions: Vec<usize> = (0..order.len())
            .filter(|&p| !static_benign[order[p]] || self.config.verify_static)
            .collect();
        let jobs: Vec<ExecJob> = positions
            .iter()
            .map(|&p| plans_by_race[order[p]].job(run, self.config.enforce))
            .collect();
        let submit = self.submission(&positions, &order, scores.as_deref(), &mut stats);
        let results = self.exec.run_batch_permuted(&jobs, &submit, &cancel);
        let mut outcomes: Vec<Option<FlipOutcome>> = (0..n).map(|_| None).collect();
        for (&p, res) in positions.iter().zip(results) {
            let i = order[p];
            // A hole means the batch was cut short (deadline or caller
            // cancellation) before this flip's turn came: its race stays
            // `None` → Unverified in phase B (unless statically proved).
            let Some(out) = res else { continue };
            stats.note_exec(&out);
            stats.schedules_executed += 1;
            stats.sim.add_run(out.run.steps, out.run.failure.is_some());
            let outcome = flip_outcome(run, &watch, &out);
            // Agreement audit: a proved flip's conclusive run must still
            // manifest the failure, exactly as the invariant promised.
            if static_benign[i] && !outcome.outcome.is_inconclusive() && outcome.averted {
                stats.static_disagreements += 1;
                debug_assert!(
                    false,
                    "static proof disagreed with the flip run for {:?}",
                    run.races[i].key()
                );
            }
            outcomes[i] = Some(outcome);
        }

        // Phase B: verdicts, resolving nested-race dependencies first.
        // Statically proved races enter settled: Benign by invariant proof.
        let mut verdicts: Vec<Option<Verdict>> = vec![None; run.races.len()];
        for (i, &proved) in static_benign.iter().enumerate() {
            if proved {
                verdicts[i] = Some(Verdict::Benign);
            }
        }
        let mut progress = true;
        while progress {
            progress = false;
            for i in 0..run.races.len() {
                if verdicts[i].is_some() {
                    continue;
                }
                let Some(outcome) = outcomes[i].as_ref() else {
                    // The flip never executed: no evidence either way. Never
                    // Benign — an un-flipped race must stay in the suspect
                    // set, not be silently excluded.
                    verdicts[i] = Some(Verdict::Unverified);
                    progress = true;
                    continue;
                };
                // An inconclusive (timed-out) run observed nothing: its lack
                // of a failure must not read as "averted" nor its silence
                // as "benign" — the verdict is ambiguous.
                if outcome.outcome.is_inconclusive() {
                    verdicts[i] = Some(Verdict::Ambiguous);
                    progress = true;
                    continue;
                }
                if !outcome.averted {
                    verdicts[i] = Some(Verdict::Benign);
                    progress = true;
                    continue;
                }
                // Averted. Ambiguous iff a nested race that was flipped
                // along is itself causal.
                let nested_keys: Vec<(InstrAddr, InstrAddr)> = plans_by_race[i]
                    .also_flipped
                    .iter()
                    .map(ObservedRace::key)
                    .collect();
                let nested_indices: Vec<usize> = run
                    .races
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| nested_keys.contains(&q.key()))
                    .map(|(j, _)| j)
                    .collect();
                if nested_indices.iter().any(|&j| verdicts[j].is_none()) {
                    continue; // Wait for the nested verdicts.
                }
                let nested_causal = nested_indices
                    .iter()
                    .any(|&j| verdicts[j] == Some(Verdict::Causal));
                // A nested race whose own flip never ran might be causal:
                // claiming this averted flip as Causal would over-attribute,
                // so the verdict degrades conservatively to Ambiguous.
                let nested_unknown = nested_indices
                    .iter()
                    .any(|&j| verdicts[j] == Some(Verdict::Unverified));
                verdicts[i] = Some(if nested_causal || nested_unknown {
                    Verdict::Ambiguous
                } else {
                    Verdict::Causal
                });
                progress = true;
            }
        }
        // Any remaining cycles (mutually nested, degenerate): ambiguous.
        for v in &mut verdicts {
            if v.is_none() {
                *v = Some(Verdict::Ambiguous);
            }
        }

        let tested: Vec<TestedRace> = order
            .iter()
            .map(|&i| {
                // A race with no flip outcome — deadline cut phase A short,
                // or a static proof skipped the run — has no run-evidence
                // fields, only its verdict (and its proof, when one exists).
                let Some(outcome) = outcomes[i].as_ref() else {
                    return TestedRace {
                        race: run.races[i].clone(),
                        verdict: verdicts[i].expect("phase B ran"),
                        flipped_with: Vec::new(),
                        vanished: Vec::new(),
                        cs_expanded: false,
                        outcome: None,
                        static_proof: static_benign[i],
                    };
                };
                let key = run.races[i].key();
                let vanished = run
                    .races
                    .iter()
                    .zip(&outcome.occurred)
                    .filter(|&(q, &occurred)| !occurred && q.key() != key)
                    .map(|(q, _)| q.key())
                    .collect();
                let plan = &plans_by_race[i];
                TestedRace {
                    race: run.races[i].clone(),
                    verdict: verdicts[i].expect("phase B ran"),
                    flipped_with: plan.also_flipped.iter().map(ObservedRace::key).collect(),
                    vanished,
                    cs_expanded: plan.cs_expanded,
                    outcome: Some(outcome.outcome),
                    static_proof: static_benign[i],
                }
            })
            .collect();

        // Phase C: causality edges between root causes — re-run each root
        // cause's flip (the paper's second pass) and record which other root
        // causes never occurred.
        let root_idx: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| verdicts[i] == Some(Verdict::Causal))
            .collect();
        let root_causes: Vec<ObservedRace> =
            root_idx.iter().map(|&i| run.races[i].clone()).collect();
        let root_jobs: Vec<ExecJob> = root_idx
            .iter()
            .map(|&i| plans_by_race[i].job(run, self.config.enforce))
            .collect();
        // Phase C reuses the same gain ordering for the re-runs; edges are
        // still extracted in canonical root order.
        let root_positions: Vec<usize> = (0..root_idx.len()).collect();
        let root_submit =
            self.submission(&root_positions, &root_idx, scores.as_deref(), &mut stats);
        let root_results = self
            .exec
            .run_batch_permuted(&root_jobs, &root_submit, &cancel);
        let mut edges = Vec::new();
        for (ri, res) in root_results.into_iter().enumerate() {
            // A hole (deadline mid-pass): no edges from the unexecuted
            // re-runs — the chain keeps its nodes but loses only ordering
            // evidence, which is degradation, not invention.
            let Some(out) = res else { continue };
            let plan = &plans_by_race[root_idx[ri]];
            stats.note_exec(&out);
            stats.schedules_executed += 1;
            stats.sim.add_run(out.run.steps, out.run.failure.is_some());
            let outcome = flip_outcome(run, &watch, &out);
            // An inconclusive re-run observed nothing: its empty `occurred`
            // set would manufacture a "vanished" edge to every other root
            // cause, so no edges are extracted from it.
            if outcome.outcome.is_inconclusive() {
                continue;
            }
            let flipped_along: Vec<(InstrAddr, InstrAddr)> =
                plan.also_flipped.iter().map(ObservedRace::key).collect();
            for (rj, &j) in root_idx.iter().enumerate() {
                if ri == rj {
                    continue;
                }
                if !outcome.occurred[j] && !flipped_along.contains(&run.races[j].key()) {
                    edges.push((ri, rj));
                }
            }
        }

        let failure_desc = describe_failure(run);
        let chain = build_chain(&root_causes, &edges, &run.program, &failure_desc);
        stats.deadline_fired = self.config.cancel.deadline_fired();
        CausalityResult {
            chain,
            tested,
            root_causes,
            edges,
            stats,
        }
    }
}

/// Interprets one flip run: was the original failure averted, how did the
/// run classify, and which of the known races occurred? Pure over the
/// execution output, so outcomes are independent of which pool worker
/// executed the run.
fn flip_outcome(run: &FailingRun, watch: &Watch, out: &ExecOutput) -> FlipOutcome {
    FlipOutcome {
        averted: failure_averted(&run.failure, &out.run),
        outcome: out.outcome,
        occurred: watch.occurred(&out.run.trace),
    }
}

/// The race-endpoint instructions of one failing run, watched for in its
/// flip runs. Built once per analysis: a race occurred in a flip run when
/// both its instructions executed there with at least one memory access.
struct Watch {
    /// Per thread program and instruction index: the instruction's slot,
    /// or `UNWATCHED`.
    slot: Vec<Vec<u32>>,
    /// Per race of the run: the slots of its two instructions.
    ends: Vec<(u32, u32)>,
    /// Number of distinct watched instructions.
    slots: usize,
}

const UNWATCHED: u32 = u32::MAX;

impl Watch {
    fn new(run: &FailingRun) -> Watch {
        let mut slot: Vec<Vec<u32>> = run
            .program
            .progs
            .iter()
            .map(|p| vec![UNWATCHED; p.instrs.len()])
            .collect();
        let mut slots = 0;
        let mut watch = |at: InstrAddr| {
            // An instruction outside the program never executes: it keeps
            // the sentinel, and its races never occur.
            let Some(s) = slot
                .get_mut(usize::from(at.prog.0))
                .and_then(|p| p.get_mut(at.index))
            else {
                return UNWATCHED;
            };
            if *s == UNWATCHED {
                *s = slots;
                slots += 1;
            }
            *s
        };
        let ends = run
            .races
            .iter()
            .map(|r| {
                let (a, b) = r.key();
                (watch(a), watch(b))
            })
            .collect();
        Watch {
            slot,
            ends,
            slots: slots as usize,
        }
    }

    /// Per race: whether it occurred in `trace`. The walk stops once every
    /// watched instruction has been seen.
    fn occurred(&self, trace: &ksim::Trace) -> Vec<bool> {
        let mut seen = vec![false; self.slots];
        let mut unseen = self.slots;
        for rec in trace {
            if unseen == 0 {
                break;
            }
            if rec.accesses().is_empty() {
                continue;
            }
            let at = rec.at();
            let s = self.slot[usize::from(at.prog.0)][at.index];
            if s != UNWATCHED && !seen[s as usize] {
                seen[s as usize] = true;
                unseen -= 1;
            }
        }
        let hit = |s: u32| s != UNWATCHED && seen[s as usize];
        self.ends.iter().map(|&(a, b)| hit(a) && hit(b)).collect()
    }
}

/// Renders the failure for the chain terminal (e.g. `BUG_ON()` or
/// `KASAN: use-after-free`).
#[must_use]
pub fn describe_failure(run: &FailingRun) -> String {
    let f = &run.failure;
    if f.kind == ksim::FailureKind::AssertionViolation && !f.message.is_empty() {
        format!("BUG_ON({})", f.message)
    } else {
        f.kind.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifs::{
        Lifs,
        LifsConfig, //
    };
    use ksim::builder::ProgramBuilder;
    use ksim::Program;

    /// The paper's Figure 1 program.
    fn fig1_program() -> Arc<Program> {
        let mut p = ProgramBuilder::new("fig1");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.func("writer_path");
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            b.func("clearer_path");
            let out = b.new_label();
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        Arc::new(p.build().unwrap())
    }

    fn analyze_fig1() -> (FailingRun, CausalityResult) {
        let run = Lifs::new(fig1_program(), LifsConfig::default())
            .search()
            .failing
            .expect("fig1 reproduces");
        let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        (run, result)
    }

    #[test]
    fn fig1_chain_has_two_causal_races() {
        let (_, result) = analyze_fig1();
        assert_eq!(
            result.chain.race_count(),
            2,
            "chain: {} tested: {:?}",
            result.chain,
            result
                .tested
                .iter()
                .map(|t| (t.race.key(), t.verdict))
                .collect::<Vec<_>>()
        );
        assert!(result.ambiguous().is_empty());
    }

    #[test]
    fn fig1_chain_is_ordered_a1b1_then_b2a2() {
        let (run, result) = analyze_fig1();
        let s = result.chain.to_string();
        // First link: the ptr_valid race (named A1/B1); second: the ptr race.
        assert!(s.contains("A1 ⇒ B1"), "{s}");
        assert_eq!(result.chain.nodes.len(), 2, "{s}");
        assert!(
            s.contains("NULL pointer dereference"),
            "terminal failure missing: {s}"
        );
        // The race-steered edge: flipping A1 ⇒ B1 makes the ptr race vanish.
        assert!(
            !result.edges.is_empty(),
            "expected a causality edge, races: {:?}",
            run.races.iter().map(ObservedRace::key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn benign_noise_races_are_excluded() {
        // Fig1 plus a statistics counter both threads bump — a benign race.
        let mut p = ProgramBuilder::new("fig1-noise");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        let stats_ctr = p.global("stats", 0);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.fetch_add_global(stats_ctr, 1u64);
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.fetch_add_global(stats_ctr, 1u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            let out = b.new_label();
            b.fetch_add_global(stats_ctr, 1u64);
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let run = Lifs::new(prog, LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
        // The counter races were observed...
        assert!(
            run.races.len() > 2,
            "noise races should be in the test set: {:?}",
            run.races.iter().map(ObservedRace::key).collect::<Vec<_>>()
        );
        // ...but never enter the chain.
        assert_eq!(result.chain.race_count(), 2, "chain: {}", result.chain);
        assert!(!result.benign().is_empty());
    }

    #[test]
    fn forward_ablation_still_terminates() {
        let run = Lifs::new(fig1_program(), LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let cfg = CausalityConfig {
            backward: false,
            ..CausalityConfig::default()
        };
        let result = CausalityAnalysis::new(cfg).analyze(&run);
        assert!(result.stats.schedules_executed > 0);
    }

    #[test]
    fn stats_count_both_passes() {
        let (run, result) = analyze_fig1();
        // Phase A: one run per race; phase C: one run per root cause.
        let expected = run.races.len() + result.root_causes.len();
        assert_eq!(result.stats.schedules_executed, expected);
    }

    #[test]
    fn timed_out_flip_is_ambiguous_not_causal() {
        // Reproduce normally, then analyze with a step budget so small every
        // flip run exhausts it: no flip observes anything, so no race may be
        // judged causal (nor benign) off a silent run.
        let run = Lifs::new(fig1_program(), LifsConfig::default())
            .search()
            .failing
            .expect("fig1 reproduces");
        let cfg = CausalityConfig {
            enforce: EnforceConfig { step_budget: 1 },
            ..CausalityConfig::default()
        };
        let result = CausalityAnalysis::new(cfg).analyze(&run);
        assert!(!result.tested.is_empty());
        for t in &result.tested {
            assert_eq!(t.outcome, Some(RunOutcome::Timeout));
            assert_eq!(t.verdict, Verdict::Ambiguous, "race {:?}", t.race.key());
        }
        assert!(result.root_causes.is_empty());
        assert!(result.edges.is_empty());
        assert_eq!(result.chain.race_count(), 0);
    }

    /// Fig1 plus prologue noise counters both threads bump — the shape the
    /// static prover is built for.
    fn fig1_noise_run() -> FailingRun {
        let mut p = ProgramBuilder::new("fig1-noise");
        let obj = p.static_obj("obj", 8);
        let ptr_valid = p.global("ptr_valid", 0);
        let ptr = p.global_ptr("ptr", obj);
        let c0 = p.global("stats[0]", 0);
        let c1 = p.global("stats[1]", 0);
        {
            let mut a = p.syscall_thread("A", "writer");
            a.fetch_add_global(c0, 1u64);
            a.fetch_add_global(c1, 4u64);
            a.n("A1").store_global(ptr_valid, 1u64);
            a.n("A2").load_global("r0", ptr);
            a.load_ind("r1", "r0", 0);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "clearer");
            let out = b.new_label();
            b.fetch_add_global(c0, 1u64);
            b.fetch_add_global(c1, 2u64);
            b.n("B1").load_global("r0", ptr_valid);
            b.jmp_if(ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 0), out);
            b.n("B2").store_global(ptr, 0u64);
            b.place(out);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        Lifs::new(prog, LifsConfig::default())
            .search()
            .failing
            .expect("reproduces")
    }

    fn analyze_at(run: &FailingRun, level: CausalityLevel, verify: bool) -> CausalityResult {
        let cfg = CausalityConfig {
            level,
            verify_static: verify,
            ..CausalityConfig::default()
        };
        CausalityAnalysis::new(cfg).analyze(run)
    }

    #[test]
    fn adaptive_skips_flips_but_verdicts_and_chain_are_identical() {
        let run = fig1_noise_run();
        let ex = analyze_at(&run, CausalityLevel::Exhaustive, false);
        let ad = analyze_at(&run, CausalityLevel::Adaptive, false);
        // Identical diagnosis...
        assert_eq!(ex.chain.to_string(), ad.chain.to_string());
        assert_eq!(ex.root_causes, ad.root_causes);
        assert_eq!(ex.edges, ad.edges);
        let verdicts = |r: &CausalityResult| {
            r.tested
                .iter()
                .map(|t| (t.race.key(), t.verdict))
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(&ex), verdicts(&ad));
        // ...from strictly fewer executions.
        assert!(ad.stats.flips_skipped_static > 0, "noise flips should skip");
        assert_eq!(
            ad.stats.schedules_executed + ad.stats.flips_skipped_static,
            ex.stats.schedules_executed,
        );
        assert_eq!(ex.stats.flips_skipped_static, 0);
        assert_eq!(ex.stats.flips_reordered, 0);
    }

    #[test]
    fn static_proof_provenance_and_agreement_mode() {
        let run = fig1_noise_run();
        let ad = analyze_at(&run, CausalityLevel::Adaptive, false);
        let proved: Vec<_> = ad.tested.iter().filter(|t| t.static_proof).collect();
        assert!(!proved.is_empty());
        for t in &proved {
            assert_eq!(t.verdict, Verdict::Benign);
            assert_eq!(t.outcome, None, "skipped flips never ran");
            assert_eq!(t.provenance(), "static-invariant");
        }
        // Debug agreement mode executes every proved flip and audits it.
        let verified = analyze_at(&run, CausalityLevel::Adaptive, true);
        assert_eq!(verified.stats.static_disagreements, 0);
        assert_eq!(
            verified.stats.schedules_executed,
            analyze_at(&run, CausalityLevel::Exhaustive, false)
                .stats
                .schedules_executed,
            "verify mode runs the full exhaustive batch"
        );
        for t in verified.tested.iter().filter(|t| t.static_proof) {
            assert_eq!(t.verdict, Verdict::Benign);
            assert!(t.outcome.is_some(), "verify mode executed the flip");
            assert_eq!(t.provenance(), "static-invariant");
        }
    }

    #[test]
    fn adaptive_reorders_submission_without_changing_fig1() {
        // Plain fig1 has no provable noise: adaptivity must degrade to the
        // same executions, possibly reordered, with the identical chain.
        let run = Lifs::new(fig1_program(), LifsConfig::default())
            .search()
            .failing
            .expect("reproduces");
        let ex = analyze_at(&run, CausalityLevel::Exhaustive, false);
        let ad = analyze_at(&run, CausalityLevel::Adaptive, false);
        assert_eq!(ex.chain.to_string(), ad.chain.to_string());
        assert_eq!(ex.stats.schedules_executed, ad.stats.schedules_executed);
    }

    #[test]
    fn causality_level_parses_and_rejects() {
        use std::str::FromStr;
        assert_eq!(
            CausalityLevel::from_str("exhaustive").unwrap(),
            CausalityLevel::Exhaustive
        );
        assert_eq!(
            CausalityLevel::from_str("adaptive").unwrap(),
            CausalityLevel::Adaptive
        );
        assert!(CausalityLevel::from_str("eager").is_err());
        assert_eq!(CausalityLevel::Adaptive.to_string(), "adaptive");
        assert_eq!(CausalityLevel::default(), CausalityLevel::Adaptive);
    }

    #[test]
    fn describe_failure_formats_bug_on() {
        let mut p = ProgramBuilder::new("bug");
        let g = p.global("x", 1);
        {
            let mut a = p.syscall_thread("A", "b");
            a.load_global("r0", g);
            a.bug_on_msg(
                ksim::builder::cond_reg("r0", ksim::CmpOp::Eq, 1),
                "list_contains",
            );
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "w");
            b.store_global(g, 1u64);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let out = Lifs::new(prog, LifsConfig::default()).search();
        let run = out.failing.expect("serial run fails");
        assert_eq!(describe_failure(&run), "BUG_ON(list_contains)");
    }
}
