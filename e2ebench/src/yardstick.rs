//! A yardstick for the host's clock.
//!
//! The shared host this benchmark runs on changes speed for minutes at a
//! time: the same code and seeds ran `building` at 39–41 sim-s/s for six
//! runs and at 51–56 sim-s/s for the next four (see `README.md`, *Host
//! noise*). Timing the program alone cannot tell such a change from a change
//! to the program, so a run also times one round of fixed work of the
//! benchmark's own before every pass, and `sim_rate` is reported at the
//! host speed where a round takes [`REFERENCE_S`]. The yardstick shares no
//! code with the program: a change to the program moves `sim_rate` and
//! leaves the yardstick alone.
//!
//! A round is a chain of dependent integer multiply-adds. It follows the
//! core's clock and little else: timed between `building` passes for eight
//! minutes, it spread 2.9% where the passes spread 20.1%. So it adds little
//! noise of its own, and it leaves in `sim_rate` the part of a slowdown
//! that comes from contention for the caches rather than from the clock.

use std::hint::black_box;
use std::time::Instant;

/// Multiply-add steps per round.
const STEPS: u64 = 37_500_000;
/// Host seconds of one round at the reference speed: about what a round
/// takes on the 2-vCPU Intel Xeon KVM guest of `README.md` when that host
/// runs fast.
pub const REFERENCE_S: f64 = 0.05;

/// Host seconds one round takes now.
pub fn time() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for i in 0..black_box(STEPS) {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i ^ (x >> 17));
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}
