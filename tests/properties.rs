//! Property-based tests over the substrate and the algorithms.
//!
//! Random programs are generated from a small grammar (stores, loads,
//! counters, branches, locks and assertions over a handful of globals
//! across two or three threads, which may queue a kworker with ops of its
//! own) and the core invariants are checked:
//!
//! * engine determinism — the same schedule always yields the same trace;
//! * snapshot/restore — a restored engine replays identically;
//! * LIFS soundness — a reported failing schedule really fails on replay;
//! * Causality Analysis soundness — flipping a root-cause race averts the
//!   failure; benign races never enter the chain;
//! * race detection sanity — lock-protected conflicting accesses never
//!   count as races.
//!
//! One plain test holds the memoization gate on the Table 2 corpus:
//! re-diagnosis with the memo table gives the same diagnoses for at least
//! 40% fewer VM executions.

use aitia_bench::experiments::diagnose_program;
use aitia_repro::aitia::{
    causality::flip,
    enforce::{
        self,
        EnforceConfig, //
    },
    races_in_trace, CancelToken, CausalityAnalysis, CausalityConfig, CausalityLevel, ExecJob,
    Executor, ExecutorConfig, Lifs, LifsConfig, PruneLevel, Schedule, Substrate, ThreadSel,
    Verdict,
};
use aitia_repro::corpus;
use aitia_repro::ksim::{
    builder::{
        cond_reg,
        ProgramBuilder,
        ThreadBuilder, //
    },
    CmpOp, Engine, GlobalId, LockId, Program, ThreadProgId,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One generated instruction of the random-program grammar. `Assert` is
/// `BUG_ON(var == val)`, the failure a search can reproduce; `QueueWork`
/// queues the program's kworker, which runs [`GenSpec::worker`].
#[derive(Clone, Debug)]
enum GenOp {
    Store { var: u8, val: u8 },
    Load { var: u8 },
    FetchAdd { var: u8 },
    GuardedStore { guard: u8, var: u8, val: u8 },
    Locked { lock: u8, var: u8, val: u8 },
    Assert { var: u8, val: u8 },
    QueueWork,
}

/// A generated program: syscall threads, and the ops of the kworker their
/// `QueueWork` ops spawn (built only when some thread queues it).
#[derive(Clone, Debug)]
struct GenSpec {
    threads: Vec<Vec<GenOp>>,
    worker: Vec<GenOp>,
}

/// The ops of every thread, the kworker's included (it queues nothing).
fn common_ops() -> Vec<BoxedStrategy<GenOp>> {
    vec![
        (0u8..4, 0u8..8)
            .prop_map(|(var, val)| GenOp::Store { var, val })
            .boxed(),
        (0u8..4).prop_map(|var| GenOp::Load { var }).boxed(),
        (0u8..4).prop_map(|var| GenOp::FetchAdd { var }).boxed(),
        (0u8..4, 0u8..4, 0u8..8)
            .prop_map(|(guard, var, val)| GenOp::GuardedStore { guard, var, val })
            .boxed(),
        (0u8..2, 0u8..4, 0u8..8)
            .prop_map(|(lock, var, val)| GenOp::Locked { lock, var, val })
            .boxed(),
        (0u8..4, 1u8..8)
            .prop_map(|(var, val)| GenOp::Assert { var, val })
            .boxed(),
    ]
}

/// A syscall thread's op: one of [`common_ops`], or `QueueWork`.
fn gen_op() -> Union<GenOp> {
    let mut ops = common_ops();
    ops.push(Just(GenOp::QueueWork).boxed());
    Union::new(ops)
}

fn gen_program() -> impl Strategy<Value = GenSpec> {
    (
        prop::collection::vec(prop::collection::vec(gen_op(), 1..8), 2..4),
        prop::collection::vec(Union::new(common_ops()), 1..6),
    )
        .prop_map(|(threads, worker)| GenSpec { threads, worker })
}

/// Appends `op` to a thread under construction.
fn emit(
    t: &mut ThreadBuilder<'_>,
    op: &GenOp,
    vars: &[GlobalId],
    locks: &[LockId],
    worker: Option<ThreadProgId>,
) {
    match op {
        GenOp::Store { var, val } => {
            t.store_global(vars[*var as usize], u64::from(*val));
        }
        GenOp::Load { var } => {
            t.load_global("r0", vars[*var as usize]);
        }
        GenOp::FetchAdd { var } => {
            t.fetch_add_global(vars[*var as usize], 1u64);
        }
        GenOp::GuardedStore { guard, var, val } => {
            let skip = t.new_label();
            t.load_global("r1", vars[*guard as usize]);
            t.jmp_if(cond_reg("r1", CmpOp::Ne, 0), skip);
            t.store_global(vars[*var as usize], u64::from(*val));
            t.place(skip);
        }
        GenOp::Locked { lock, var, val } => {
            t.lock(locks[*lock as usize]);
            t.store_global(vars[*var as usize], u64::from(*val));
            t.unlock(locks[*lock as usize]);
        }
        GenOp::Assert { var, val } => {
            t.load_global("r2", vars[*var as usize]);
            t.bug_on(cond_reg("r2", CmpOp::Eq, u64::from(*val)));
        }
        GenOp::QueueWork => {
            t.queue_work(worker.expect("the kworker is built when queued"), None);
        }
    }
}

fn build(spec: &GenSpec) -> Arc<Program> {
    let mut p = ProgramBuilder::new("generated");
    let vars: Vec<_> = (0..4).map(|i| p.global(&format!("v{i}"), 0)).collect();
    let locks: Vec<_> = (0..2).map(|i| p.lock(&format!("l{i}"))).collect();
    let queued = spec
        .threads
        .iter()
        .flatten()
        .any(|op| matches!(op, GenOp::QueueWork));
    let worker = queued.then(|| {
        let mut k = p.kworker_thread("K");
        for op in &spec.worker {
            emit(&mut k, op, &vars, &locks, None);
        }
        k.ret();
        k.id()
    });
    for (ti, ops) in spec.threads.iter().enumerate() {
        let mut t = p.syscall_thread(&format!("T{ti}"), "gen");
        for op in ops {
            emit(&mut t, op, &vars, &locks, worker);
        }
        t.ret();
    }
    Arc::new(p.build().expect("generated programs are well-formed"))
}

fn serial_schedule(program: &Program) -> Schedule {
    let sels = program
        .initial
        .iter()
        .map(|&p| ThreadSel::first(p))
        .collect();
    Schedule::serial(sels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same schedule yields the same trace, twice.
    #[test]
    fn engine_is_deterministic(spec in gen_program()) {
        let program = build(&spec);
        let schedule = serial_schedule(&program);
        let mut e1 = Engine::new(Arc::clone(&program));
        let mut e2 = Engine::new(Arc::clone(&program));
        let r1 = enforce::run(&mut e1, &schedule, &EnforceConfig::default());
        let r2 = enforce::run(&mut e2, &schedule, &EnforceConfig::default());
        prop_assert_eq!(r1.trace, r2.trace);
        prop_assert_eq!(r1.failure, r2.failure);
    }

    /// A snapshot taken before a run restores to an identical replay.
    #[test]
    fn snapshot_restore_replays(spec in gen_program()) {
        let program = build(&spec);
        let schedule = serial_schedule(&program);
        let mut e = Engine::new(Arc::clone(&program));
        let snap = e.snapshot();
        let r1 = enforce::run(&mut e, &schedule, &EnforceConfig::default());
        e.restore(&snap);
        let r2 = enforce::run(&mut e, &schedule, &EnforceConfig::default());
        prop_assert_eq!(r1.trace, r2.trace);
    }

    /// Lock-protected conflicting accesses never appear as data races.
    #[test]
    fn locked_accesses_never_race(spec in gen_program()) {
        // Restrict to locked stores on one variable plus arbitrary reads,
        // in the kworker too.
        let locked = |ops: &[GenOp]| -> Vec<GenOp> {
            ops.iter()
                .map(|op| match op {
                    GenOp::Store { var, val } | GenOp::GuardedStore { var, val, .. } => {
                        GenOp::Locked { lock: 0, var: *var, val: *val }
                    }
                    GenOp::FetchAdd { var } => GenOp::Locked { lock: 0, var: *var, val: 1 },
                    GenOp::Locked { var, val, .. } => GenOp::Locked { lock: 0, var: *var, val: *val },
                    other => other.clone(),
                })
                .collect()
        };
        let locked_only = GenSpec {
            threads: spec.threads.iter().map(|ops| locked(ops)).collect(),
            worker: locked(&spec.worker),
        };
        let program = build(&locked_only);
        let mut e = Engine::new(Arc::clone(&program));
        let _ = enforce::run(&mut e, &serial_schedule(&program), &EnforceConfig::default());
        for race in races_in_trace(e.trace()) {
            // Reads may still race with... nothing: every write is locked,
            // so any conflicting pair has its write inside a critical
            // section; a read outside can still be concurrent with it only
            // if the read's thread never took the lock. Verify no
            // write-write races at all.
            let both_write = race.first.is_write
                && matches!(&race.second,
                    aitia_repro::aitia::RaceEnd::Executed(a) if a.is_write);
            prop_assert!(!both_write, "write-write race under a common lock");
        }
    }

    /// If LIFS reproduces a failure, replaying its schedule fails
    /// identically, and Causality Analysis produces a chain whose flips all
    /// avert the failure.
    #[test]
    fn lifs_and_causality_are_sound(spec in gen_program()) {
        let program = build(&spec);
        let out = Lifs::new(Arc::clone(&program), LifsConfig {
            max_interleavings: 2,
            max_schedules: 3_000,
            ..LifsConfig::default()
        }).search();
        if let Some(run) = out.failing {
            // Replay determinism.
            let mut e = Engine::new(Arc::clone(&program));
            let replay = enforce::run(&mut e, &run.schedule, &EnforceConfig::default());
            let rf = replay.failure.as_ref().expect("replay fails");
            prop_assert_eq!(rf.kind, run.failure.kind);
            prop_assert_eq!(rf.at, run.failure.at);

            // Causality soundness.
            let result = CausalityAnalysis::new(CausalityConfig::default()).analyze(&run);
            for benign in result.benign() {
                prop_assert!(!result.chain.contains(benign.first.at, benign.second.at()));
            }
            for race in &result.root_causes {
                let plan = flip::plan_flip(&run, race, &run.races, true);
                let mut e = Engine::new(Arc::clone(&program));
                let res = enforce::run(&mut e, &plan.schedule, &EnforceConfig::default());
                prop_assert!(
                    !res.outcome().is_inconclusive(),
                    "root-cause flip replay was inconclusive"
                );
                prop_assert!(
                    flip::failure_averted(&run.failure, &res),
                    "root-cause flip did not avert"
                );
            }
        }
    }
}

/// What the executor's canonical-order fold promises to keep invariant in
/// one full diagnosis: the LIFS schedule count, the failing schedule, and
/// (when it fails) the chain, verdicts, and Causality Analysis schedule
/// count.
type DiagnosisDigest = (
    usize,
    Option<Schedule>,
    Option<(String, Vec<Verdict>, usize)>,
);

/// A memo-on pool on `substrate` that really spawns `vms` OS threads even
/// on a small host, so the invariance checks exercise true concurrency
/// everywhere.
fn threaded_pool(vms: usize, substrate: &Substrate) -> Arc<Executor> {
    memo_pool(vms, true, substrate)
}

/// [`threaded_pool`] with the memo table and checkpoint restores
/// switchable. Pools handed one `substrate` share its
/// memo entries and checkpoints, so a property that passes one substrate
/// to every run of a case answers the later runs warm, as a re-diagnosis
/// would. `memo: false` reuses nothing: it is the oracle every
/// memoization property compares against.
fn memo_pool(vms: usize, memo: bool, substrate: &Substrate) -> Arc<Executor> {
    Arc::new(Executor::with_config(ExecutorConfig {
        vms,
        os_threads: Some(vms),
        memo,
        substrate: substrate.clone(),
        ..ExecutorConfig::default()
    }))
}

/// One full diagnosis (LIFS + Causality Analysis) through a shared pool of
/// `vms` workers.
fn diagnose_at(program: &Arc<Program>, vms: usize, substrate: &Substrate) -> DiagnosisDigest {
    diagnose_with(program, vms, true, substrate)
}

/// [`diagnose_at`] with memoization switchable.
fn diagnose_with(
    program: &Arc<Program>,
    vms: usize,
    memo: bool,
    substrate: &Substrate,
) -> DiagnosisDigest {
    let exec = memo_pool(vms, memo, substrate);
    let out = Lifs::with_executor(
        Arc::clone(program),
        LifsConfig {
            max_interleavings: 2,
            max_schedules: 2_000,
            ..LifsConfig::default()
        },
        Arc::clone(&exec),
    )
    .search();
    let schedule = out.failing.as_ref().map(|r| r.schedule.clone());
    let analysis = out.failing.map(|run| {
        let result =
            CausalityAnalysis::with_executor(CausalityConfig::default(), exec).analyze(&run);
        let verdicts: Vec<Verdict> = result.tested.iter().map(|t| t.verdict).collect();
        (
            result.chain.to_string(),
            verdicts,
            result.stats.schedules_executed,
        )
    });
    (out.stats.schedules_executed, schedule, analysis)
}

proptest! {
    // Each case diagnoses three times (worker counts 1, 2, 8); keep the
    // case count small.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The whole pipeline is deterministic in the pool size: chains,
    /// verdicts, failing schedules, and schedule counts are identical at
    /// 1, 2, and 8 workers. The wide pools run on the serial run's
    /// substrate, so they also answer from its memo entries.
    #[test]
    fn diagnosis_is_identical_across_worker_counts(spec in gen_program()) {
        let program = build(&spec);
        let substrate = Substrate::default();
        let serial = diagnose_at(&program, 1, &substrate);
        for vms in [2usize, 8] {
            let pooled = diagnose_at(&program, vms, &substrate);
            prop_assert_eq!(&serial, &pooled, "diverged at {} workers", vms);
        }
    }
}

proptest! {
    // Each case diagnoses four times (memo-off baseline plus memo-on at
    // three worker counts); keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Memoization is invisible to diagnosis: with the memo table and the
    /// snapshot forest enabled, chains, verdicts, failing schedules, and
    /// schedule counts match a memo-disabled run at 1, 2, and 8 workers —
    /// even though the memo side shares one substrate across its runs, so
    /// the 2- and 8-worker runs answer repeated schedules from entries and
    /// checkpoints the 1-worker run stored.
    #[test]
    fn memoized_diagnosis_is_bit_identical_to_memo_off(spec in gen_program()) {
        let program = build(&spec);
        let substrate = Substrate::default();
        let baseline = diagnose_with(&program, 1, false, &substrate);
        for vms in [1usize, 2, 8] {
            let memoized = diagnose_with(&program, vms, true, &substrate);
            prop_assert_eq!(&baseline, &memoized, "diverged at {} workers", vms);
        }
    }
}

/// The memoization gate over Table 2 at scale 0.05, on the re-diagnosis
/// workload the cross-run table exists for: two passes over one set of
/// programs, each pass on a fresh single-worker pool, with memo off and
/// then on. Every pass must give the same diagnoses on both sides, and the
/// memo side must pay at least 40% fewer VM executions.
#[test]
fn memoized_rediagnosis_saves_forty_percent_of_vm_executions() {
    let side = |memo: bool| {
        // One substrate for both passes: the second answers from what the
        // first stored.
        let substrate = Substrate::default();
        let bugs = corpus::cves();
        // One program per bug, shared by both passes: the memo table keys
        // on program identity.
        let progs: Vec<_> = bugs.iter().map(|b| b.program_scaled(0.05)).collect();
        let mut digests = Vec::new();
        let mut runs = 0;
        for _pass in 0..2 {
            let exec = Arc::new(Executor::with_config(ExecutorConfig {
                vms: 1,
                memo,
                substrate: substrate.clone(),
                ..ExecutorConfig::default()
            }));
            for (bug, prog) in bugs.iter().zip(&progs) {
                let o = diagnose_program(
                    bug,
                    Arc::clone(prog),
                    &exec,
                    bug.lifs_config().prune,
                    CausalityConfig::default(),
                )
                .unwrap_or_else(|| panic!("{} did not reproduce", bug.id));
                let verdicts: Vec<_> = o.result.tested.iter().map(|t| t.verdict).collect();
                digests.push(format!(
                    "{} chain={} verdicts={verdicts:?} sched={:?} steps={} lifs={} ca={}",
                    o.id,
                    o.result.chain,
                    o.run.schedule,
                    o.run.trace.len(),
                    o.lifs.schedules_executed,
                    o.result.stats.schedules_executed,
                ));
            }
            runs += exec.stats().runs;
        }
        (digests, runs)
    };
    let (baseline, baseline_runs) = side(false);
    let (memoized, memoized_runs) = side(true);
    assert_eq!(baseline, memoized, "memoization changed a diagnosis");
    assert!(
        5 * memoized_runs <= 3 * baseline_runs,
        "memo on paid {memoized_runs} VM executions against memo off's {baseline_runs}: \
         under the gate's 40% reduction"
    );
}

/// What DPOR pruning must keep invariant across levels: the first failing
/// schedule and the full downstream diagnosis (chain, verdicts, Causality
/// Analysis schedule count). LIFS schedule counts are deliberately
/// excluded — executing fewer schedules is the point of pruning.
type PruneDigest = (Option<Schedule>, Option<(String, Vec<Verdict>, usize)>);

/// [`diagnose_with`] at an explicit prune level, reduced to the
/// count-free digest.
fn diagnose_pruned(
    program: &Arc<Program>,
    vms: usize,
    memo: bool,
    prune: PruneLevel,
    substrate: &Substrate,
) -> PruneDigest {
    let exec = memo_pool(vms, memo, substrate);
    let out = Lifs::with_executor(
        Arc::clone(program),
        LifsConfig {
            max_interleavings: 2,
            max_schedules: 2_000,
            prune,
            ..LifsConfig::default()
        },
        Arc::clone(&exec),
    )
    .search();
    let schedule = out.failing.as_ref().map(|r| r.schedule.clone());
    let analysis = out.failing.map(|run| {
        let result =
            CausalityAnalysis::with_executor(CausalityConfig::default(), exec).analyze(&run);
        let verdicts: Vec<Verdict> = result.tested.iter().map(|t| t.verdict).collect();
        (
            result.chain.to_string(),
            verdicts,
            result.stats.schedules_executed,
        )
    });
    (schedule, analysis)
}

proptest! {
    // Each case diagnoses seven times (off baseline plus two levels at
    // three worker counts); keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// DPOR pruning is invisible to diagnosis: `conflict` and `dpor` yield
    /// the same first failing schedule and a bit-identical chain, verdict
    /// list, and Causality Analysis schedule count as the unpruned `off`
    /// search, at 1, 2, and 8 workers. Every pruned plan is equivalent to
    /// one explored earlier in canonical order, so the first survivor is
    /// the first failure.
    #[test]
    fn prune_levels_agree_on_diagnosis(spec in gen_program()) {
        let program = build(&spec);
        let substrate = Substrate::default();
        let baseline = diagnose_pruned(&program, 1, true, PruneLevel::Off, &substrate);
        for level in [PruneLevel::Conflict, PruneLevel::Dpor] {
            for vms in [1usize, 2, 8] {
                let pruned = diagnose_pruned(&program, vms, true, level, &substrate);
                prop_assert_eq!(
                    &baseline,
                    &pruned,
                    "diverged at {:?} / {} workers",
                    level,
                    vms
                );
            }
        }
    }
}

proptest! {
    // Each case diagnoses five times; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Prune-level agreement holds without the memo table and snapshot
    /// forest too — and mixing memo-off `off` against memo-on `dpor`
    /// proves a memo hit feeds the sleep-set machinery the same step
    /// records a real execution would.
    #[test]
    fn prune_levels_agree_without_memoization(spec in gen_program()) {
        let program = build(&spec);
        let substrate = Substrate::default();
        let baseline = diagnose_pruned(&program, 1, false, PruneLevel::Off, &substrate);
        for memo in [false, true] {
            for vms in [1usize, 2, 8] {
                let pruned = diagnose_pruned(&program, vms, memo, PruneLevel::Dpor, &substrate);
                prop_assert_eq!(
                    &baseline,
                    &pruned,
                    "diverged at memo={} / {} workers",
                    memo,
                    vms
                );
            }
        }
    }
}

/// What the causality levels must keep invariant: the failing schedule and
/// everything the diagnosis *says* — chain and per-race verdicts. The
/// Causality Analysis schedule count is deliberately excluded: executing
/// fewer flips is the point of the adaptive level.
type CausalityDigest = (Option<Schedule>, Option<(String, Vec<Verdict>)>);

/// [`diagnose_with`] at explicit prune and causality levels, reduced to
/// the flip-count-free digest.
fn diagnose_causal(
    program: &Arc<Program>,
    vms: usize,
    memo: bool,
    prune: PruneLevel,
    level: CausalityLevel,
    substrate: &Substrate,
) -> CausalityDigest {
    let exec = memo_pool(vms, memo, substrate);
    let out = Lifs::with_executor(
        Arc::clone(program),
        LifsConfig {
            max_interleavings: 2,
            max_schedules: 2_000,
            prune,
            ..LifsConfig::default()
        },
        Arc::clone(&exec),
    )
    .search();
    let schedule = out.failing.as_ref().map(|r| r.schedule.clone());
    let analysis = out.failing.map(|run| {
        let result = CausalityAnalysis::with_executor(
            CausalityConfig {
                level,
                ..CausalityConfig::default()
            },
            exec,
        )
        .analyze(&run);
        let verdicts: Vec<Verdict> = result.tested.iter().map(|t| t.verdict).collect();
        (result.chain.to_string(), verdicts)
    });
    (schedule, analysis)
}

proptest! {
    // Each case diagnoses twelve times (exhaustive baseline plus adaptive
    // at three worker counts, per prune level); keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The adaptive causality level is invisible to diagnosis: static
    /// benign proofs and gain-ordered flip submission yield the same
    /// chain and verdict list as the exhaustive level, at every prune
    /// level and worker count.
    #[test]
    fn causality_levels_agree_on_diagnosis(spec in gen_program()) {
        let program = build(&spec);
        let substrate = Substrate::default();
        for prune in [PruneLevel::Off, PruneLevel::Conflict, PruneLevel::Dpor] {
            let baseline = diagnose_causal(
                &program, 1, true, prune, CausalityLevel::Exhaustive, &substrate,
            );
            for vms in [1usize, 2, 8] {
                let adaptive = diagnose_causal(
                    &program, vms, true, prune, CausalityLevel::Adaptive, &substrate,
                );
                prop_assert_eq!(
                    &baseline,
                    &adaptive,
                    "diverged at {:?} / {} workers",
                    prune,
                    vms
                );
            }
        }
    }
}

proptest! {
    // Each case diagnoses four times; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Causality-level agreement holds without the memo table and
    /// snapshot forest too — and mixing memo-off exhaustive against
    /// memo-on adaptive proves a skipped flip is equivalent whether the
    /// executed baseline answered it from a VM or from the table.
    #[test]
    fn causality_levels_agree_without_memoization(spec in gen_program()) {
        let program = build(&spec);
        let substrate = Substrate::default();
        let baseline = diagnose_causal(
            &program, 1, false, PruneLevel::Conflict, CausalityLevel::Exhaustive, &substrate,
        );
        for memo in [false, true] {
            for vms in [1usize, 2, 8] {
                let adaptive = diagnose_causal(
                    &program, vms, memo, PruneLevel::Conflict, CausalityLevel::Adaptive,
                    &substrate,
                );
                prop_assert_eq!(
                    &baseline,
                    &adaptive,
                    "diverged at memo={} / {} workers",
                    memo,
                    vms
                );
            }
        }
    }
}

/// True when `out` is a contiguous `Some` prefix: no `Some` after the
/// first `None`.
fn contiguous_prefix<T>(out: &[Option<T>]) -> bool {
    let first_none = out.iter().position(Option::is_none).unwrap_or(out.len());
    out[first_none..].iter().all(Option::is_none)
}

/// The serial schedule of `program` as a batch of `n` identical jobs.
fn repeated_jobs(program: &Arc<Program>, n: usize) -> Vec<ExecJob> {
    let job = ExecJob {
        program: Arc::clone(program),
        schedule: serial_schedule(program),
        enforce: EnforceConfig::default(),
        shared_steps: None,
    };
    vec![job; n]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A `CancelToken` fired after `c` executed jobs mid-`run_until` still
    /// yields a contiguous `Some` prefix — no holes — at 1, 2, and 8
    /// workers; cancelling before the first job yields all `None`.
    #[test]
    fn cancelled_run_until_keeps_a_contiguous_prefix(
        spec in gen_program(),
        c in 0usize..6,
    ) {
        let program = build(&spec);
        let jobs = repeated_jobs(&program, 6);
        let substrate = Substrate::default();
        for vms in [1usize, 2, 8] {
            let exec = threaded_pool(vms, &substrate);
            let cancel = CancelToken::new();
            if c == 0 {
                cancel.cancel();
            }
            let executed = AtomicUsize::new(0);
            let out = exec.run_until(&jobs, &cancel, |_| {
                if executed.fetch_add(1, Ordering::SeqCst) + 1 >= c {
                    cancel.cancel();
                }
                false
            });
            prop_assert_eq!(out.len(), jobs.len());
            prop_assert!(contiguous_prefix(&out), "hole in results at {} workers", vms);
            if c == 0 {
                prop_assert!(
                    out.iter().all(Option::is_none),
                    "cancel-before-first-job still executed a job at {} workers",
                    vms
                );
            }
        }
    }

    /// Mid-batch cancellation composes with memoization: a memo-on batch
    /// of identical jobs (so later jobs, and every job of the wider pools'
    /// batches on the same substrate, are memo hits) cancelled after `c`
    /// completions still yields a contiguous prefix, and every completed
    /// output — executed or served from the table — is bit-identical to
    /// the memo-off uncancelled baseline at the same index.
    #[test]
    fn cancelled_memoized_batch_matches_memo_off_prefix(
        spec in gen_program(),
        c in 0usize..6,
    ) {
        let program = build(&spec);
        let jobs = repeated_jobs(&program, 6);
        let substrate = Substrate::default();
        let baseline = memo_pool(1, false, &substrate).run_batch(&jobs, &CancelToken::new());
        for vms in [1usize, 2, 8] {
            let exec = memo_pool(vms, true, &substrate);
            let cancel = CancelToken::new();
            if c == 0 {
                cancel.cancel();
            }
            let executed = AtomicUsize::new(0);
            let out = exec.run_until(&jobs, &cancel, |_| {
                if executed.fetch_add(1, Ordering::SeqCst) + 1 >= c {
                    cancel.cancel();
                }
                false
            });
            prop_assert!(contiguous_prefix(&out), "hole in results at {} workers", vms);
            for (got, want) in out.iter().zip(&baseline) {
                let Some(got) = got else { break };
                let want = want.as_ref().expect("uncancelled baseline completes");
                prop_assert_eq!(&got.run.trace, &want.run.trace);
                prop_assert_eq!(&got.run.failure, &want.run.failure);
                prop_assert_eq!(got.run.steps, want.run.steps);
            }
        }
    }
}

/// Round-batched LIFS keeps "first failing schedule wins": several serial
/// permutations fail here, and at any worker count the search must report
/// the front-to-back first one and count exactly the schedules up to it.
#[test]
fn lifs_batches_stop_at_first_failing_schedule() {
    // A publishes a pointer two consumers dereference: every permutation
    // where B or C runs before A crashes, so the batch of serial
    // permutations holds multiple failures and a racing worker could
    // finish a later one first.
    let mut p = ProgramBuilder::new("first-fail");
    let obj = p.static_obj("obj", 8);
    let real = p.global_ptr("storage", obj);
    let ptr = p.global("ptr", 0);
    {
        let mut a = p.syscall_thread("A", "publish");
        a.load_global("r0", real);
        a.store_global_from(ptr, "r0");
        a.ret();
    }
    for name in ["B", "C"] {
        let mut t = p.syscall_thread(name, "consume");
        t.load_global("r1", ptr);
        t.load_ind("r2", "r1", 0);
        t.ret();
    }
    let program = Arc::new(p.build().expect("builds"));
    let substrate = Substrate::default();
    let outputs: Vec<_> = [1usize, 8]
        .into_iter()
        .map(|vms| {
            let out = Lifs::with_executor(
                Arc::clone(&program),
                LifsConfig::default(),
                threaded_pool(vms, &substrate),
            )
            .search();
            (
                out.stats.schedules_executed,
                out.stats.interleaving_count,
                out.failing.expect("a serial permutation fails").schedule,
            )
        })
        .collect();
    assert_eq!(outputs[0], outputs[1], "pool size changed the outcome");
    let (schedules, interleavings, _) = &outputs[0];
    assert_eq!(*interleavings, 0, "a serial permutation fails");
    // Permutations are submitted front to back; the fold stops at the
    // first failing one, so later failing permutations are never counted.
    let all_perms = 6;
    assert!(
        *schedules < all_perms,
        "expected an early stop, executed {schedules}"
    );
}

proptest! {
    // Each case runs seven small batches; keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A pooled executor returns the same run for the same job at 1, 2,
    /// and 8 workers, with and without memoization. The memo-on pools
    /// share one substrate, so all but the first answer their batch from
    /// the table. The name's fault axis is historical: the executor no
    /// longer simulates VM faults.
    #[test]
    fn pooled_runs_are_identical_across_workers_memo_and_faults(spec in gen_program()) {
        let program = build(&spec);
        let jobs = repeated_jobs(&program, 3);
        let substrate = Substrate::default();
        let base = memo_pool(1, false, &substrate).run_batch(&jobs, &CancelToken::new());
        for memo in [false, true] {
            for vms in [1usize, 2, 8] {
                let out = memo_pool(vms, memo, &substrate).run_batch(&jobs, &CancelToken::new());
                prop_assert_eq!(out.len(), base.len());
                for (got, want) in out.iter().zip(&base) {
                    match (got, want) {
                        (None, None) => {}
                        (Some(got), Some(want)) => {
                            prop_assert_eq!(&got.run.trace, &want.run.trace);
                            prop_assert_eq!(&got.run.failure, &want.run.failure);
                            prop_assert_eq!(got.run.steps, want.run.steps);
                            // The 1-worker memo-on pool stored every
                            // output, so the wider pools on its substrate
                            // must run warm.
                            if memo && vms > 1 {
                                prop_assert!(got.memo_hit, "cold at {} workers", vms);
                            }
                        }
                        _ => prop_assert!(
                            false,
                            "completion mismatch at memo={} / {} workers",
                            memo,
                            vms
                        ),
                    }
                }
            }
        }
    }
}

proptest! {
    // Each case diagnoses six times (a baseline plus five matrix cells);
    // keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full diagnoses match the 1-worker memo-off reference digest across
    /// prune levels × memoization × worker counts. The memo-on cells share
    /// one substrate, so each answers from what the cells before it stored.
    #[test]
    fn diagnosis_digest_is_invariant_across_prune_memo_and_workers(spec in gen_program()) {
        let program = build(&spec);
        let substrate = Substrate::default();
        let baseline = diagnose_causal(
            &program, 1, false, PruneLevel::Off, CausalityLevel::Exhaustive, &substrate,
        );
        for (prune, memo, vms) in [
            (PruneLevel::Off, true, 2usize),
            (PruneLevel::Conflict, false, 1),
            (PruneLevel::Conflict, true, 8),
            (PruneLevel::Dpor, true, 2),
            (PruneLevel::Dpor, false, 8),
        ] {
            let cell = diagnose_causal(
                &program, vms, memo, prune, CausalityLevel::Exhaustive, &substrate,
            );
            prop_assert_eq!(
                &baseline,
                &cell,
                "diverged at {:?} / memo={} / {} workers",
                prune,
                memo,
                vms
            );
        }
    }
}
