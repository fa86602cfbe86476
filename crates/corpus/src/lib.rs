//! `corpus` — the paper's 22 real-world kernel concurrency bugs, modeled.
//!
//! Each bug of the paper's evaluation (Table 2: ten CVEs; Table 3: twelve
//! Syzkaller-reported bugs) is modeled as a `ksim` program reproducing the
//! bug's *race structure*: the racing variables and their correlation
//! (single-variable, tightly correlated multi-variable, or loosely
//! correlated multi-variable), race-steered control flows, involvement of
//! kernel background threads, the interleaving count required to manifest,
//! and the failure class. Models are documented against the public analyses
//! (CVE reports, syzkaller dashboard entries, and the kernel patches the
//! paper cites).
//!
//! Every model also carries:
//!
//! * a calibrated [`noise::NoiseSpec`] injecting benign races and private
//!   memory traffic, so the conciseness experiment (§5.2) is meaningful;
//! * a [`khist::ExecHistory`] generator standing in for the Syzkaller
//!   trace + coredump input (§4.2);
//! * the paper's reported numbers ([`PaperRow`]) for paper-vs-measured
//!   comparison in `EXPERIMENTS.md`.

//! # Example
//!
//! ```
//! // Reproduce and diagnose a Table 2 CVE with its calibrated noise
//! // scaled down for a quick run.
//! let bug = corpus::cves()
//!     .into_iter()
//!     .find(|b| b.id == "CVE-2017-2671")
//!     .unwrap();
//! let run = aitia::Lifs::new(bug.program_scaled(0.05), bug.lifs_config())
//!     .search()
//!     .failing
//!     .expect("reproduces");
//! assert_eq!(run.failure.kind, bug.kind);
//! ```

#![warn(missing_docs)]

pub mod cve;
pub mod figures;
pub mod generate;
pub mod noise;
pub mod syz;

use aitia::lifs::{
    FailureTarget,
    LifsConfig, //
};
use khist::{
    ExecHistory,
    FailureInfo,
    InvokeSource,
    KthreadEvent,
    KthreadKind,
    ReportedContext,
    SyscallRecord, //
};
use ksim::{
    FailureKind,
    Program,
    ThreadKind, //
};
use noise::NoiseSpec;
use std::sync::Arc;

/// Multi-variable classification of a bug (Tables 2/3; §2.1–§2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultiVar {
    /// A single racing variable.
    No,
    /// Multiple, tightly correlated variables (MUVI's assumption holds).
    Tight,
    /// Multiple, loosely correlated variables (the asterisked rows).
    Loose,
}

impl MultiVar {
    /// Whether the bug involves more than one racing variable.
    #[must_use]
    pub fn is_multi(self) -> bool {
        !matches!(self, MultiVar::No)
    }
}

/// The paper's reported measurements for one bug.
#[derive(Clone, Copy, Debug)]
pub struct PaperRow {
    /// LIFS elapsed seconds.
    pub lifs_time_s: f64,
    /// LIFS schedules.
    pub lifs_schedules: usize,
    /// Interleaving count at reproduction.
    pub interleavings: u32,
    /// Causality Analysis elapsed seconds.
    pub ca_time_s: f64,
    /// Causality Analysis schedules.
    pub ca_schedules: usize,
    /// Races in the chain (Table 3 only; `None` for Table 2 rows).
    pub chain_races: Option<usize>,
}

/// One modeled bug.
pub struct BugModel {
    /// Identifier (`"CVE-2017-15649"` or `"#4"`).
    pub id: &'static str,
    /// Kernel subsystem (the table column).
    pub subsystem: &'static str,
    /// Failure description (the Table 3 "bug type" column).
    pub bug_type: &'static str,
    /// Multi-variable classification.
    pub multi_variable: MultiVar,
    /// The failure class the model manifests.
    pub kind: FailureKind,
    /// The kernel function the crash report points at.
    pub target_func: Option<&'static str>,
    /// Expected chain length (races in the causality chain).
    pub expected_chain_races: usize,
    /// Expected interleaving count.
    pub expected_interleavings: u32,
    /// Whether a kernel background thread participates.
    pub kthread: Option<KthreadKind>,
    /// The paper's reported numbers.
    pub paper: PaperRow,
    /// The racing system calls (the modeled trace's concurrent entries).
    pub syscalls: &'static [&'static str],
    /// Names of the racing *global* variables (for the MUVI correlation
    /// experiment; heap objects are omitted).
    pub racing_vars: &'static [&'static str],
    /// Calibrated noise for bench-scale runs.
    pub default_noise: NoiseSpec,
    /// Program builder.
    pub build: fn(NoiseSpec) -> Program,
    /// One-paragraph description of the real bug and the model.
    pub doc: &'static str,
}

impl BugModel {
    /// Builds the program with explicit noise.
    #[must_use]
    pub fn program(&self, spec: NoiseSpec) -> Arc<Program> {
        Arc::new((self.build)(spec))
    }

    /// Builds the program with noise scaled by `f` (tests use small scales).
    #[must_use]
    pub fn program_scaled(&self, f: f64) -> Arc<Program> {
        self.program(self.default_noise.scaled(f))
    }

    /// The LIFS configuration for this bug, with the failure target taken
    /// from the modeled crash report.
    #[must_use]
    pub fn lifs_config(&self) -> LifsConfig {
        // Leak and watchdog reports blame the whole run, not a faulting
        // instruction, so they match by kind alone.
        let by_kind_only = matches!(self.kind, FailureKind::MemoryLeak | FailureKind::HungTask);
        let target = Some(match self.target_func {
            Some(f) if !by_kind_only => FailureTarget::in_func(self.kind, f),
            _ => FailureTarget::kind(self.kind),
        });
        LifsConfig {
            target,
            ..LifsConfig::default()
        }
    }

    /// A modeled Syzkaller execution history for this bug: the concurrent
    /// syscalls (plus the background thread, when one participates), the
    /// fd-closure calls, and the crash-report extract.
    #[must_use]
    pub fn history(&self) -> ExecHistory {
        let mut h = ExecHistory::new();
        let mut open = SyscallRecord {
            ts: 0,
            dur: 10,
            task: 1,
            name: "open".into(),
            args: vec![],
            fd: Some(3),
            ret: 3,
        };
        open.args.push(0);
        h.push_syscall(open);
        // The two (or one) racing syscalls, overlapping in time.
        let prog_names: Vec<&'static str> = self.syscalls.to_vec();
        let mut ts = 1000;
        for (i, name) in prog_names.iter().enumerate() {
            h.push_syscall(SyscallRecord {
                ts: ts + (i as u64) * 20,
                dur: 300,
                task: 1 + i as u32,
                name: (*name).to_string(),
                args: vec![i as u64],
                fd: Some(3),
                ret: 0,
            });
        }
        ts += 400;
        if let Some(kind) = self.kthread {
            h.push_kthread(KthreadEvent {
                ts: ts - 250,
                dur: 200,
                kind,
                work: 42,
                source: InvokeSource::Syscall { task: 1 },
                func: self.target_func.unwrap_or("worker_fn").to_string(),
            });
        }
        let mut contexts: Vec<ReportedContext> = prog_names
            .iter()
            .enumerate()
            .map(|(i, n)| ReportedContext::Task {
                task: 1 + i as u32,
                syscall: Some((*n).to_string()),
            })
            .collect();
        if self.kthread.is_some() {
            contexts.push(ReportedContext::Kthread {
                desc: "kworker/1:2".into(),
            });
        }
        h.set_failure(FailureInfo {
            symptom: format!("{} in {}", self.kind, self.target_func.unwrap_or("unknown")),
            location: self.target_func.unwrap_or("unknown").to_string(),
            ts,
            contexts,
        });
        h
    }
}

/// A profiling workload for the MUVI correlation experiment (§2.2/§5.3):
/// the bug's program extended with regular-usage threads that reflect how
/// the racing variables are accessed system-wide. Tightly correlated
/// variables gain a thread touching them *together* (the rest of the kernel
/// also accesses them as a pair); loosely correlated variables gain one
/// thread per variable touching it *alone* (most kernel paths use only one
/// of the two — the defining property of looseness).
#[must_use]
pub fn profile_program(bug: &BugModel, spec: NoiseSpec) -> Arc<Program> {
    use ksim::instr::{
        AddrExpr,
        Instr,
        InstrMeta,
        Reg,
        ThreadProgId, //
    };
    let mut prog = (bug.build)(spec);
    let gid_of = |p: &Program, name: &str| {
        p.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| ksim::GlobalId(i as u32))
    };
    let vars: Vec<ksim::GlobalId> = bug
        .racing_vars
        .iter()
        .filter_map(|v| gid_of(&prog, v))
        .collect();
    let add_thread = |prog: &mut Program, name: &str, uses: &[ksim::GlobalId]| {
        let mut instrs = Vec::new();
        for _rep in 0..20 {
            for &g in uses {
                instrs.push(Instr::Load {
                    dst: Reg(0),
                    addr: AddrExpr::Global(g),
                });
            }
        }
        instrs.push(Instr::Ret);
        let n = instrs.len();
        let id = ThreadProgId(prog.progs.len() as u16);
        prog.progs.push(ksim::program::ThreadProg {
            name: name.to_string(),
            kind: ThreadKind::Syscall {
                name: "read".into(),
            },
            instrs,
            meta: vec![InstrMeta::default(); n],
            reg_count: 1,
        });
        prog.initial.push(id);
    };
    match bug.multi_variable {
        MultiVar::Tight => {
            // System-wide, the pair travels together.
            add_thread(&mut prog, "usage", &vars);
        }
        MultiVar::Loose => {
            // System-wide, each variable is mostly used alone.
            for (i, &v) in vars.iter().enumerate() {
                add_thread(&mut prog, &format!("usage{i}"), &[v]);
            }
        }
        MultiVar::No => {}
    }
    Arc::new(prog)
}

/// A [`aitia::manager::SliceResolver`] over the whole corpus: a slice
/// resolves to every bug whose racing system calls it contains, in corpus
/// order.
pub struct CorpusResolver {
    /// Noise scale applied to resolved programs.
    pub scale: f64,
}

impl aitia::manager::SliceResolver for CorpusResolver {
    fn resolve(&self, slice: &khist::Slice) -> Vec<Arc<Program>> {
        let slice_calls: Vec<&str> = slice
            .threads
            .iter()
            .filter_map(|t| match t {
                khist::Entry::Syscall(s) => Some(s.name.as_str()),
                khist::Entry::Kthread(_) => None,
            })
            .collect();
        let has_kthread = slice
            .threads
            .iter()
            .any(|t| matches!(t, khist::Entry::Kthread(_)));
        all_bugs()
            .into_iter()
            .filter(|bug| {
                bug.kthread.is_some() == has_kthread
                    && bug.syscalls.len() == slice_calls.len()
                    && bug.syscalls.iter().all(|c| slice_calls.contains(c))
            })
            .map(|bug| bug.program_scaled(self.scale))
            .collect()
    }
}

/// The ten CVE bugs of Table 2.
#[must_use]
pub fn cves() -> Vec<BugModel> {
    cve::all()
}

/// The twelve Syzkaller bugs of Table 3.
#[must_use]
pub fn syzkaller() -> Vec<BugModel> {
    syz::all()
}

/// All 22 bugs.
#[must_use]
pub fn all_bugs() -> Vec<BugModel> {
    let mut v = cves();
    v.extend(syzkaller());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_22_bugs() {
        assert_eq!(cves().len(), 10);
        assert_eq!(syzkaller().len(), 12);
        assert_eq!(all_bugs().len(), 22);
    }

    #[test]
    fn all_programs_validate_and_run_serially_clean() {
        for bug in all_bugs() {
            let prog = bug.program(NoiseSpec::silent());
            prog.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", bug.id));
        }
    }

    #[test]
    fn multi_variable_split_matches_paper() {
        // Table 2: 6 of 10 involve multiple variables.
        let multi2 = cves()
            .iter()
            .filter(|b| b.multi_variable.is_multi())
            .count();
        assert_eq!(multi2, 6);
        // Table 3: 6 of 12 multi-variable, 3 of them loosely correlated.
        let t3 = syzkaller();
        let multi3 = t3.iter().filter(|b| b.multi_variable.is_multi()).count();
        let loose3 = t3
            .iter()
            .filter(|b| b.multi_variable == MultiVar::Loose)
            .count();
        assert_eq!(multi3, 6);
        assert_eq!(loose3, 3);
    }

    #[test]
    fn histories_slice_to_at_most_three_threads() {
        for bug in all_bugs() {
            let h = bug.history();
            let slices = khist::slices(&h);
            assert!(!slices.is_empty(), "{}: no slices", bug.id);
            for s in &slices {
                assert!(s.width() <= khist::MAX_SLICE_THREADS);
            }
            if bug.kthread.is_some() {
                assert!(
                    slices.iter().any(|s| s
                        .threads
                        .iter()
                        .any(|t| matches!(t, khist::Entry::Kthread(_)))),
                    "{}: kthread missing from slices",
                    bug.id
                );
            }
        }
    }

    #[test]
    fn kthread_split_matches_table3() {
        // Table 3: eight bugs are two-syscall races, four involve a kernel
        // background thread.
        let with_kthread = syzkaller().iter().filter(|b| b.kthread.is_some()).count();
        assert_eq!(with_kthread, 4);
    }
}

#[cfg(test)]
mod resolver_tests {
    use super::*;

    #[test]
    fn profile_programs_add_usage_threads_for_multi_bugs() {
        for bug in all_bugs() {
            let base = bug.program(NoiseSpec::silent());
            let profile = profile_program(&bug, NoiseSpec::silent());
            match bug.multi_variable {
                MultiVar::No => {
                    assert_eq!(profile.initial.len(), base.initial.len(), "{}", bug.id);
                }
                MultiVar::Tight => {
                    assert_eq!(
                        profile.initial.len(),
                        base.initial.len() + 1,
                        "{}: one co-usage thread",
                        bug.id
                    );
                }
                MultiVar::Loose => {
                    assert!(
                        profile.initial.len() > base.initial.len(),
                        "{}: solo-usage threads",
                        bug.id
                    );
                }
            }
            profile
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", bug.id));
        }
    }

    #[test]
    fn resolver_finds_each_bugs_own_program() {
        use aitia::journal::program_digest;
        use aitia::manager::SliceResolver;
        let resolver = CorpusResolver { scale: 0.0 };
        for bug in all_bugs() {
            let own = program_digest(&bug.program_scaled(0.0));
            let found = khist::slices(&bug.history())
                .iter()
                .flat_map(|s| resolver.resolve(s))
                .any(|p| program_digest(&p) == own);
            // Several bugs share syscall signatures, so a slice also
            // resolves to siblings — LIFS's failure target picks among them.
            assert!(found, "{}: own program not resolved", bug.id);
        }
    }
}
