//! One diagnosis split at its layer boundaries, and the re-timing of the
//! pure analysis functions on its failing run.
//!
//! A diagnosis here is what `Manager::diagnose` does for a single slice:
//! `Lifs::search`, then `CausalityAnalysis::analyze`, then `report::render`,
//! all on one executor.

use crate::check::Tally;
use crate::host::{
    ratio,
    secs, //
};
use crate::metrics::Metrics;
use crate::trace::Tracer;
use aitia::causality::{
    chain::build_chain,
    describe_failure,
    flip::plan_flip,
    gain::gain_scores,
    invariants::StaticProver, //
};
use aitia::{
    CausalityAnalysis,
    CausalityConfig,
    CausalityResult,
    ConflictIndex,
    ExecStats,
    Executor,
    ExecutorConfig,
    FailingRun,
    Journal,
    Lifs,
    LifsConfig,
    Substrate, //
};
use ksim::Program;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A substrate shared with nothing, so a diagnosis on it starts cold as a
/// separate `diagnose` process would.
pub fn cold_substrate() -> Substrate {
    Substrate::private(8192, 256)
}

/// An executor of `vms` workers on `substrate`, journaling to `journal`.
pub fn executor(vms: usize, substrate: Substrate, journal: Option<Arc<Journal>>) -> Arc<Executor> {
    Arc::new(Executor::with_config(ExecutorConfig {
        vms,
        substrate,
        journal,
        ..ExecutorConfig::default()
    }))
}

pub struct Diagnosed {
    pub failing: FailingRun,
    pub result: CausalityResult,
    pub report: String,
}

/// Diagnoses `program` on `exec`; `None` when LIFS does not reproduce.
pub fn diagnose(
    program: &Arc<Program>,
    lifs: &LifsConfig,
    causality: &CausalityConfig,
    exec: &Arc<Executor>,
) -> Option<Diagnosed> {
    let failing = Lifs::with_executor(Arc::clone(program), lifs.clone(), Arc::clone(exec))
        .search()
        .failing?;
    let result =
        CausalityAnalysis::with_executor(causality.clone(), Arc::clone(exec)).analyze(&failing);
    let report = aitia::report::render(program, &failing, &result);
    Some(Diagnosed {
        failing,
        result,
        report,
    })
}

/// [`diagnose`] with one span per layer call under a `diagnose` span for
/// `request`, adding each layer's wall and self time to `m`.
pub fn diagnose_traced(
    program: &Arc<Program>,
    lifs: &LifsConfig,
    causality: &CausalityConfig,
    exec: &Arc<Executor>,
    tracer: &mut Tracer,
    request: usize,
    m: &mut Metrics,
) -> Option<Diagnosed> {
    let e = Some(exec.as_ref());
    let (out, _) = tracer.span("diagnose", request, None, e, |tracer, root| {
        let (searched, t) = tracer.span("lifs.search", request, Some(root), e, |_, _| {
            Lifs::with_executor(Arc::clone(program), lifs.clone(), Arc::clone(exec)).search()
        });
        m.add("lifs.wall_s", secs(t.wall));
        m.add("lifs.self_s", secs(t.self_time()));
        m.add("exec.busy_s", secs(t.exec_busy));
        let s = &searched.stats;
        m.add("lifs.schedules", s.schedules_executed as f64);
        let pruned = s.pruned_nonconflicting
            + s.pruned_equivalent
            + s.pruned_sleep_set
            + s.pruned_persistent;
        m.add("lifs.pruned", pruned as f64);
        let failing = searched.failing?;
        let (result, t) = tracer.span("ca.analyze", request, Some(root), e, |_, _| {
            CausalityAnalysis::with_executor(causality.clone(), Arc::clone(exec)).analyze(&failing)
        });
        m.add("ca.wall_s", secs(t.wall));
        m.add("ca.self_s", secs(t.self_time()));
        m.add("exec.busy_s", secs(t.exec_busy));
        m.add("ca.flips", result.stats.schedules_executed as f64);
        m.add("ca.static_skips", result.stats.flips_skipped_static as f64);
        m.add("ca.chain_races", result.chain.race_count() as f64);
        let (report, t) = tracer.span("report.render", request, Some(root), None, |_, _| {
            aitia::report::render(program, &failing, &result)
        });
        m.add("report.render_s", secs(t.wall));
        Some(Diagnosed {
            failing,
            result,
            report,
        })
    });
    out
}

/// Adds an executor's counters to the `exec.*` metrics (the hit ratios
/// are finished by [`finish`]).
pub fn add_exec(m: &mut Metrics, s: &ExecStats) {
    m.add("exec.runs", s.runs as f64);
    m.add("exec.steps", s.steps_executed as f64);
    m.add("exec.batches", s.batches as f64);
    m.add("exec.memo_hits", s.memo_hits as f64);
    m.add("exec.memo_lookups", (s.memo_hits + s.memo_misses) as f64);
    m.add("exec.snapshot_hits", s.snapshot_hits as f64);
    m.add(
        "exec.snapshot_lookups",
        (s.snapshot_hits + s.snapshot_misses) as f64,
    );
}

/// Re-times the pure analysis functions on a diagnosis's failing run,
/// and replays its failing schedule on a freshly booted engine (which
/// must fail again). `adaptive` re-times the static prover and gain
/// ordering, which only the adaptive causality level calls.
pub fn retime(
    d: &Diagnosed,
    lifs: &LifsConfig,
    adaptive: bool,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let run = &d.failing;
    let t = Instant::now();
    let plans: Vec<_> = run
        .races
        .iter()
        .map(|race| plan_flip(run, race, &run.races, true))
        .collect();
    m.add("ca.plan_flip_s", secs(t.elapsed()));
    if adaptive {
        let t = Instant::now();
        let prover = StaticProver::new(run);
        let proved = run
            .races
            .iter()
            .filter(|r| prover.prove_benign(r, true))
            .count();
        black_box(proved);
        m.add("ca.prove_s", secs(t.elapsed()));
        let t = Instant::now();
        black_box(gain_scores(run, &plans));
        m.add("ca.gain_s", secs(t.elapsed()));
    }
    let t = Instant::now();
    let chain = build_chain(
        &d.result.root_causes,
        &d.result.edges,
        &run.program,
        &describe_failure(run),
    );
    m.add("ca.chain_s", secs(t.elapsed()));
    tally.check(chain.to_string() == d.result.chain.to_string(), || {
        format!("{}: rebuilt chain differs", run.program.name)
    });

    let t = Instant::now();
    black_box(aitia::races_in_trace(&run.trace));
    m.add("race.races_in_trace_s", secs(t.elapsed()));
    let t = Instant::now();
    black_box(ConflictIndex::for_program(&run.program));
    m.add("race.conflict_index_s", secs(t.elapsed()));
    m.add("race.trace_steps", run.trace.len() as f64);
    m.add("race.races", run.races.len() as f64);

    let mut engine = ksim::Engine::new(Arc::clone(&run.program));
    let t = Instant::now();
    let replay = aitia::enforce::run(&mut engine, &run.schedule, &lifs.enforce);
    m.add("enforce.replay_s", secs(t.elapsed()));
    m.add("enforce.steps", replay.steps as f64);
    tally.check(replay.failure.is_some(), || {
        format!(
            "{}: failing schedule did not fail on replay",
            run.program.name
        )
    });
}

/// Turns the raw sums into the printed ratios and the split of
/// `attributed_wall` (the wall time the layer spans were taken over).
pub fn finish(m: &mut Metrics, attributed_wall: f64) {
    let memo = ratio(m.take("exec.memo_hits"), m.take("exec.memo_lookups"));
    m.set("exec.memo_hit_ratio", memo);
    let snap = ratio(
        m.take("exec.snapshot_hits"),
        m.take("exec.snapshot_lookups"),
    );
    m.set("exec.snapshot_hit_ratio", snap);
    let steps = m.take("enforce.steps");
    m.set("ksim.steps_per_s", ratio(steps, m.get("enforce.replay_s")));
    let chain_races = m.take("ca.chain_races");
    m.set("ca.causal_ratio", ratio(chain_races, m.get("ca.flips")));
    let parts = [
        ("split.lifs_self", "lifs.self_s"),
        ("split.ca_self", "ca.self_s"),
        ("split.exec_busy", "exec.busy_s"),
        ("split.report_render", "report.render_s"),
    ];
    let mut attributed = 0.0;
    for (split, layer) in parts {
        let share = ratio(m.get(layer), attributed_wall);
        attributed += share;
        m.set(split, share);
    }
    m.set(
        "split.remainder",
        if attributed_wall > 0.0 {
            1.0 - attributed
        } else {
            0.0
        },
    );
}
