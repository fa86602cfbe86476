//! Supervision primitives for `campaignd`: deficit-round-robin fair-share
//! VM-slot allocation, seeded-jittered retry backoff, and panic-isolating
//! execution of untrusted campaign work.

use std::panic::{
    catch_unwind,
    AssertUnwindSafe, //
};
use std::time::Duration;

/// Deficit-round-robin fair sharing of one VM pool across concurrent
/// campaigns.
///
/// The pool holds `total` slots and up to `claimants` campaigns compete
/// for them. Each grant accrues `total` units of credit into an
/// accumulator and takes `accumulator / claimants` slots (at least one,
/// at most the free count), paying `claimants` units per slot taken. Over
/// any window of `claimants` consecutive grants the widths sum to
/// `total` — e.g. an 8-slot pool split three ways grants widths 2, 3, 3
/// — without ever granting zero (a campaign never starves) and without
/// fractional slots. A campaign holds its width for its whole lifetime;
/// diagnoses are worker-count-invariant, so the width never changes the
/// result, only the simulated cost.
#[derive(Debug)]
pub struct FairShare {
    total: usize,
    claimants: usize,
    free: usize,
    accumulator: usize,
}

impl FairShare {
    /// A pool of `total_vms` slots shared by up to `max_inflight`
    /// concurrent campaigns. Both are clamped to at least 1.
    #[must_use]
    pub fn new(total_vms: usize, max_inflight: usize) -> FairShare {
        let total = total_vms.max(1);
        FairShare {
            total,
            claimants: max_inflight.max(1),
            free: total,
            accumulator: 0,
        }
    }

    /// Slots currently unclaimed.
    #[must_use]
    pub fn free(&self) -> usize {
        self.free
    }

    /// Total slots in the pool.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total
    }

    /// Claims a width for one campaign, or `None` when the pool is
    /// exhausted (the caller blocks until a [`FairShare::release`]).
    pub fn grant(&mut self) -> Option<usize> {
        if self.free == 0 {
            return None;
        }
        self.accumulator += self.total;
        let ideal = self.accumulator / self.claimants;
        let width = ideal.max(1).min(self.free);
        // Pay for the slots actually taken; a grant clamped by `free`
        // keeps its unspent credit for the next round.
        self.accumulator = self.accumulator.saturating_sub(width * self.claimants);
        self.free -= width;
        Some(width)
    }

    /// Returns a campaign's slots to the pool.
    pub fn release(&mut self, width: usize) {
        self.free = (self.free + width).min(self.total);
    }
}

/// Deterministic, seeded-jittered, clamped exponential backoff for
/// re-queued jobs.
///
/// The delay for `(job, attempt)` is `min(base << attempt, max)` jittered
/// down by up to half via a hash of `(seed, job, attempt)` — so delays
/// are reproducible for a fixed seed (tests), differ across jobs (no
/// thundering herd), never busy-spin (at least 1 ms and at least half the
/// exponential step), and never sleep unbounded (clamped to `max_ms`).
#[derive(Clone, Copy, Debug)]
pub struct RetryBackoff {
    /// First-retry delay in milliseconds (clamped to at least 1).
    pub base_ms: u64,
    /// Delay ceiling in milliseconds (clamped to at least `base_ms`).
    pub max_ms: u64,
    /// Jitter seed; fixed seed ⇒ reproducible delays.
    pub seed: u64,
}

impl Default for RetryBackoff {
    fn default() -> Self {
        RetryBackoff {
            base_ms: 50,
            max_ms: 5_000,
            seed: 0xA17A,
        }
    }
}

impl RetryBackoff {
    /// The delay before retry number `attempt` (1-based: the first retry
    /// passes 1) of job `job`.
    #[must_use]
    pub fn delay(&self, job: u64, attempt: u32) -> Duration {
        let base = self.base_ms.max(1);
        let max = self.max_ms.max(base);
        let shift = attempt.saturating_sub(1).min(20);
        let step = base.saturating_mul(1 << shift).min(max);
        let lo = (step / 2).max(1);
        let span = step - lo;
        let jitter = if span == 0 {
            0
        } else {
            splitmix64(self.seed ^ job.rotate_left(17) ^ (u64::from(attempt) << 40)) % (span + 1)
        };
        Duration::from_millis((lo + jitter).min(max))
    }
}

/// SplitMix64 — a tiny deterministic mixer; good enough jitter with zero
/// dependencies.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs campaign work with panic isolation: a panic anywhere inside `f`
/// (resolver, LIFS, causality, enforcement) becomes an `Err` with the
/// panic message instead of taking down the daemon. The supervisor counts
/// the fault and either re-queues or dead-letters the job.
///
/// # Errors
///
/// Returns the panic payload rendered as a string when `f` panics.
pub fn supervised<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_share_splits_eight_slots_three_ways_as_2_3_3() {
        let mut fs = FairShare::new(8, 3);
        let a = fs.grant().unwrap();
        let b = fs.grant().unwrap();
        let c = fs.grant().unwrap();
        let mut widths = [a, b, c];
        widths.sort_unstable();
        assert_eq!(widths, [2, 3, 3]);
        assert_eq!(fs.free(), 0);
        assert!(fs.grant().is_none(), "an exhausted pool grants nothing");
        fs.release(b);
        assert_eq!(fs.free(), b);
    }

    #[test]
    fn fair_share_never_grants_zero_and_never_overcommits() {
        for total in 1..=16usize {
            for claimants in 1..=12usize {
                let mut fs = FairShare::new(total, claimants);
                let mut granted = 0;
                while let Some(w) = fs.grant() {
                    assert!(w >= 1, "zero-width grant at {total}/{claimants}");
                    granted += w;
                }
                assert!(
                    granted <= total,
                    "overcommit: {granted} > {total} with {claimants} claimants"
                );
            }
        }
    }

    #[test]
    fn fair_share_more_claimants_than_slots_degrades_to_width_one() {
        let mut fs = FairShare::new(2, 8);
        assert_eq!(fs.grant(), Some(1));
        assert_eq!(fs.grant(), Some(1));
        assert_eq!(fs.grant(), None);
    }

    #[test]
    fn backoff_is_deterministic_clamped_and_varies_across_jobs() {
        let b = RetryBackoff {
            base_ms: 50,
            max_ms: 1_000,
            seed: 7,
        };
        for job in 0..32u64 {
            for attempt in 1..=12u32 {
                let d = b.delay(job, attempt);
                assert_eq!(d, b.delay(job, attempt), "deterministic");
                assert!(d >= Duration::from_millis(1), "never busy-spins");
                assert!(d <= Duration::from_millis(1_000), "never unbounded");
            }
        }
        // Jitter separates jobs at the same attempt (no thundering herd).
        let delays: std::collections::BTreeSet<_> = (0..16u64).map(|job| b.delay(job, 4)).collect();
        assert!(delays.len() > 1, "all jobs share one delay: no jitter");
        // Exponential growth until the clamp.
        assert!(b.delay(3, 6) >= b.delay(3, 1));
    }

    #[test]
    fn backoff_degenerate_knobs_are_clamped_not_panicking() {
        let b = RetryBackoff {
            base_ms: 0,
            max_ms: 0,
            seed: 0,
        };
        let d = b.delay(1, 30);
        assert!(d >= Duration::from_millis(1) && d <= Duration::from_millis(1));
    }

    #[test]
    fn supervised_catches_panics_with_their_message() {
        assert_eq!(supervised(|| 42), Ok(42));
        let err = supervised(|| -> u32 { panic!("boom {}", 7) }).unwrap_err();
        assert!(err.contains("boom 7"), "got: {err}");
    }
}
