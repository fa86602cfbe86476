//! Calibrated benign-race noise.
//!
//! Real kernel executions are dominated by memory traffic that has nothing
//! to do with the failure: statistics counters updated racily on purpose
//! (§2.3), flag bits, and large amounts of thread-private work. The paper's
//! conciseness experiment (§5.2) quantifies exactly this — an average of
//! 9592.8 memory-accessing instructions and 108.4 individual data races per
//! failed execution, against 3.0 races in the final chain.
//!
//! This module injects that traffic into bug models deterministically:
//!
//! * **shared counters** (`fetch_add` on globals touched by several
//!   threads) — genuine benign data races that LIFS must consider as
//!   preemption candidates and Causality Analysis must test and discard;
//! * **flag bits** (racy `fetch_add` by powers of two, modeling
//!   different-bit flag updates);
//! * **private work loops** (loads/stores over a thread-private buffer) —
//!   bulk memory traffic that partial-order reduction prunes away.
//!
//! All placement is seeded; the same spec always produces the same program.

use ksim::{
    builder::{
        cond_reg,
        ProgramBuilder,
        ThreadBuilder, //
    },
    CmpOp, GlobalId,
};
use rand::{
    Rng,
    SeedableRng, //
};
use rand_chacha::ChaCha8Rng;

/// Noise sizing for one bug model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseSpec {
    /// Number of shared statistics counters declared.
    pub shared_counters: usize,
    /// Shared-counter updates emitted per burst call.
    pub burst: usize,
    /// Iterations of the private work loop per thread.
    pub private_work: usize,
    /// Deterministic seed.
    pub seed: u64,
}

/// The largest noise scale any entry point accepts: 100× the paper
/// calibration. CVE-2019-11486 already stops reproducing at 50, and a
/// built program grows linearly with the scale (at 1e12 building one asks
/// for a 16 TB allocation, which aborts the process), so a larger scale
/// could only exhaust memory or saturate [`NoiseSpec::scaled`].
pub const MAX_SCALE: f64 = 100.0;

/// Checks a user-supplied noise scale: greater than 0 (or, with `zero_ok`,
/// equal to 0, which generated bugs read as silent) and at most
/// [`MAX_SCALE`]. NaN and infinities fail. The error completes a sentence
/// that names the value, e.g. `--scale must be …`.
///
/// # Errors
///
/// When `scale` is out of range.
pub fn check_scale(scale: f64, zero_ok: bool) -> Result<(), String> {
    let floor_ok = if zero_ok { scale >= 0.0 } else { scale > 0.0 };
    if floor_ok && scale <= MAX_SCALE {
        Ok(())
    } else {
        let floor = if zero_ok { "at least" } else { "greater than" };
        Err(format!(
            "must be a finite number {floor} 0 and at most {MAX_SCALE}"
        ))
    }
}

impl NoiseSpec {
    /// A spec with everything scaled by `f` (tests run at small scale,
    /// benches at calibration scale).
    #[must_use]
    pub fn scaled(&self, f: f64) -> NoiseSpec {
        let s = |v: usize| ((v as f64 * f).round() as usize).max(if v > 0 { 1 } else { 0 });
        NoiseSpec {
            shared_counters: s(self.shared_counters),
            burst: s(self.burst),
            private_work: s(self.private_work),
            seed: self.seed,
        }
    }

    /// No noise at all.
    #[must_use]
    pub fn silent() -> NoiseSpec {
        NoiseSpec {
            shared_counters: 0,
            burst: 0,
            private_work: 0,
            seed: 0,
        }
    }
}

impl Default for NoiseSpec {
    fn default() -> Self {
        NoiseSpec {
            shared_counters: 24,
            burst: 12,
            private_work: 200,
            seed: 0xA171A,
        }
    }
}

/// The noise injector: declares counters up front, then emits bursts into
/// thread builders at the points a bug model chooses.
///
/// Counters come from two disjoint pools. **Prologue** bursts
/// ([`Noise::burst_pre`]) must be emitted before a thread's first racing
/// instruction and **epilogue** bursts ([`Noise::burst_post`]) after its
/// last. The discipline keeps every benign race geometrically independent
/// of the bug races: a prologue/epilogue noise race can never *surround* a
/// root-cause race (paper Figure 7), so flipping it neither averts the
/// failure nor raises a spurious ambiguity verdict — it is judged benign,
/// exactly like the kernel's statistics counters.
pub struct Noise {
    rng: ChaCha8Rng,
    counters_pre: Vec<GlobalId>,
    counters_post: Vec<GlobalId>,
    spec: NoiseSpec,
    next_private: u32,
}

impl Noise {
    /// Declares the shared counters on the program and returns the injector.
    #[must_use]
    pub fn setup(p: &mut ProgramBuilder, spec: NoiseSpec) -> Noise {
        let n_pre = spec.shared_counters - spec.shared_counters / 3;
        let counters_pre = (0..n_pre)
            .map(|i| p.global(&format!("stats[{i}]"), 0))
            .collect();
        let counters_post = (n_pre..spec.shared_counters)
            .map(|i| p.global(&format!("stats[{i}]"), 0))
            .collect();
        Noise {
            rng: ChaCha8Rng::seed_from_u64(spec.seed),
            counters_pre,
            counters_post,
            spec,
            next_private: 0,
        }
    }

    fn burst_from(&mut self, t: &mut ThreadBuilder<'_>, pool: usize) {
        let n = self.spec.burst;
        self.burst_from_n(t, pool, n);
    }

    fn burst_from_n(&mut self, t: &mut ThreadBuilder<'_>, pool: usize, n: usize) {
        let counters = if pool == 0 {
            &self.counters_pre
        } else {
            &self.counters_post
        };
        if counters.is_empty() {
            return;
        }
        for _ in 0..n {
            let c = counters[self.rng.gen_range(0..counters.len())];
            // Mix plain counter bumps with flag-bit style updates.
            let inc: u64 = if self.rng.gen_bool(0.25) {
                1u64 << self.rng.gen_range(0..8)
            } else {
                1
            };
            t.fetch_add_global(c, inc);
        }
    }

    /// Emits one prologue burst of benign-race counter updates. Only valid
    /// *before* the thread's first racing instruction.
    pub fn burst_pre(&mut self, t: &mut ThreadBuilder<'_>) {
        self.burst_from(t, 0);
    }

    /// Emits one epilogue burst of benign-race counter updates. Only valid
    /// *after* the thread's last racing instruction.
    pub fn burst_post(&mut self, t: &mut ThreadBuilder<'_>) {
        self.burst_from(t, 1);
    }

    /// A prologue burst with an explicit instruction count — some bugs have
    /// heavily asymmetric benign traffic (the paper's #11 reproduces within
    /// 15 schedules yet its diagnosis tests 627, so one side must carry far
    /// more counter updates than the other).
    pub fn burst_pre_n(&mut self, t: &mut ThreadBuilder<'_>, n: usize) {
        self.burst_from_n(t, 0, n);
    }

    /// Emits a private work loop (bulk non-conflicting memory traffic):
    /// allocates a thread-private buffer and sweeps it `private_work` times.
    ///
    /// Registers `r13`/`r14` are reserved as the loop counter and buffer
    /// pointer.
    pub fn private_work(&mut self, t: &mut ThreadBuilder<'_>) {
        let n = self.spec.private_work;
        if n == 0 {
            return;
        }
        self.next_private += 1;
        // A static scratch buffer: its address is stable across runs, so
        // schedule exploration recognizes the traffic as thread-private no
        // matter which schedules it has observed.
        let buf = t.scratch_buffer(&format!("scratch{}", self.next_private), 8);
        t.load_global("r14", buf);
        t.mov("r13", 0u64);
        let top = t.new_label();
        let done = t.new_label();
        t.place(top);
        t.jmp_if(cond_reg("r13", CmpOp::Ge, n as u64), done);
        t.fetch_add_ind("r14", 0, 1u64);
        t.op("r13", ksim::instr::BinOp::Add, "r13", 1u64);
        t.jmp(top);
        t.place(done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitia::{
        CausalityAnalysis,
        CausalityConfig,
        Lifs,
        LifsConfig, //
    };
    use std::sync::Arc;

    /// Noise around a real bug must not change the diagnosis.
    #[test]
    fn noise_does_not_change_the_chain() {
        let build = |spec: NoiseSpec| {
            let mut p = ProgramBuilder::new("fig1-noise");
            let mut noise = Noise::setup(&mut p, spec);
            let obj = p.static_obj("obj", 8);
            let ptr_valid = p.global("ptr_valid", 0);
            let ptr = p.global_ptr("ptr", obj);
            {
                let mut a = p.syscall_thread("A", "writer");
                noise.burst_pre(&mut a);
                a.n("A1").store_global(ptr_valid, 1u64);
                a.n("A2").load_global("r0", ptr);
                a.load_ind("r1", "r0", 0);
                noise.burst_post(&mut a);
                a.ret();
            }
            {
                let mut b = p.syscall_thread("B", "clearer");
                noise.burst_pre(&mut b);
                let out = b.new_label();
                b.n("B1").load_global("r0", ptr_valid);
                b.jmp_if(cond_reg("r0", CmpOp::Eq, 0), out);
                b.n("B2").store_global(ptr, 0u64);
                b.place(out);
                b.ret();
            }
            Arc::new(p.build().unwrap())
        };
        let diagnose = |spec| {
            let run = Lifs::new(build(spec), LifsConfig::default())
                .search()
                .failing
                .expect("reproduces");
            CausalityAnalysis::new(CausalityConfig::default()).analyze(&run)
        };
        let quiet = diagnose(NoiseSpec::silent());
        let noisy = diagnose(NoiseSpec {
            shared_counters: 6,
            burst: 4,
            private_work: 0,
            seed: 7,
        });
        assert_eq!(quiet.chain.race_count(), noisy.chain.race_count());
        assert!(noisy.tested.len() > quiet.tested.len());
        assert!(!noisy.benign().is_empty());
    }

    #[test]
    fn private_work_is_pruned_by_por() {
        let mut p = ProgramBuilder::new("private");
        let spec = NoiseSpec {
            shared_counters: 0,
            burst: 0,
            private_work: 20,
            seed: 1,
        };
        let mut noise = Noise::setup(&mut p, spec);
        let x = p.global("x", 0);
        {
            let mut a = p.syscall_thread("A", "w");
            noise.private_work(&mut a);
            a.store_global(x, 1u64);
            a.ret();
        }
        {
            let mut b = p.syscall_thread("B", "r");
            b.load_global("r0", x);
            b.ret();
        }
        let prog = Arc::new(p.build().unwrap());
        let out = Lifs::new(prog, LifsConfig::default()).search();
        // No failure exists; the private loop points are pruned.
        assert!(out.failing.is_none());
        assert!(out.stats.pruned_nonconflicting > 0);
    }

    #[test]
    fn scaled_spec_shrinks() {
        let spec = NoiseSpec::default().scaled(0.5);
        assert_eq!(spec.shared_counters, 12);
        assert_eq!(spec.burst, 6);
        assert_eq!(spec.private_work, 100);
        let tiny = NoiseSpec::default().scaled(0.0001);
        assert_eq!(tiny.burst, 1, "nonzero fields stay nonzero");
    }

    #[test]
    fn check_scale_admits_exactly_zero_to_max() {
        for ok in [1e-9, 1.0, MAX_SCALE] {
            assert!(check_scale(ok, false).is_ok(), "{ok}");
        }
        for bad in [0.0, -1.0, 101.0, 1e12, f64::INFINITY, f64::NAN] {
            assert!(check_scale(bad, false).is_err(), "{bad}");
        }
        assert!(check_scale(0.0, true).is_ok(), "0 is silent where allowed");
        assert!(check_scale(-0.5, true).is_err());
    }

    #[test]
    fn noise_is_deterministic() {
        let build = || {
            let mut p = ProgramBuilder::new("det");
            let mut n = Noise::setup(&mut p, NoiseSpec::default());
            {
                let mut a = p.syscall_thread("A", "w");
                n.burst_pre(&mut a);
                n.burst_post(&mut a);
                a.ret();
            }
            p.build().unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.progs[0].instrs, b.progs[0].instrs);
    }
}
