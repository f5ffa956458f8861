//! Wall-clock calibration primitives for the kernel lab.
//!
//! This file is the only place in `crates/bench` that touches
//! `std::time::Instant` directly (see the R10 allow entry in
//! `lint.toml`): auto-scaling iteration counts needs raw elapsed time
//! before any trace sink exists, and the measured numbers flow only
//! into the artifact's `meta` section — never into the logical stream.

#[expect(clippy::disallowed_types, reason = "R10: timing loop; readings go to meta only")]
use std::time::Instant;

/// Ceiling on calibrated iterations per timed repeat; a kernel fast
/// enough to hit it gets timed in bulk rather than spinning forever.
const MAX_ITERS: u64 = 1 << 24;

/// Seconds per iteration over `iters` back-to-back calls of `f`.
#[expect(clippy::disallowed_types, reason = "R10: timing loop; readings go to meta only")]
pub(crate) fn time_iters(f: &mut dyn FnMut(), iters: u64) -> f64 {
    let iters = iters.max(1);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() / iters as f64
}

/// Picks an iteration count so one timed repeat of `f` spends roughly
/// `target_s` wall seconds: probes with a doubling loop until the
/// probe itself is long enough to trust (at least 1/50 of the target),
/// then scales. Never returns 0.
pub(crate) fn calibrate_iters(f: &mut dyn FnMut(), target_s: f64) -> u64 {
    let floor = (target_s / 50.0).max(1e-6);
    let mut iters = 1u64;
    loop {
        let per_iter = time_iters(f, iters);
        if per_iter * iters as f64 >= floor || iters >= MAX_ITERS {
            return ((target_s / per_iter.max(1e-9)).ceil() as u64).clamp(1, MAX_ITERS);
        }
        iters = iters.saturating_mul(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_a_noop_is_fast_and_finite() {
        let mut noop = || {};
        let per_iter = time_iters(&mut noop, 100);
        assert!(per_iter.is_finite() && per_iter >= 0.0);
    }

    #[test]
    fn calibration_scales_iters_to_the_budget() {
        // A ~50µs kernel against a 5ms budget needs on the order of
        // 100 iterations — grant slack for scheduler noise, but the
        // count must be neither 1 nor the ceiling.
        let mut spin = || {
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            assert!(acc > 0);
        };
        let iters = calibrate_iters(&mut spin, 5e-3);
        assert!(iters > 1, "budget should require several iterations, got {iters}");
        assert!(iters < MAX_ITERS);
    }

    #[test]
    fn calibration_never_returns_zero() {
        // A closure far slower than the 1ns budget: even one iteration
        // overshoots the target, so the count must clamp to 1.
        let mut slow = || {
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_add(i ^ (i << 7));
            }
            assert!(acc > 0);
        };
        assert_eq!(calibrate_iters(&mut slow, 1e-9), 1);
    }
}
