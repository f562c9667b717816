//! Statistics collection for experiment harnesses.
//!
//! Two collectors cover everything the reproduction measures:
//!
//! * [`Summary`] — streaming count/mean/standard deviation/min/max via
//!   Welford's algorithm (numerically stable, O(1) memory); it lives in
//!   `aroma-telemetry`, whose summary instrument records into it, and is
//!   re-exported here,
//! * [`RateMeter`] — event counts over simulated time windows, used for
//!   throughput series.
//!
//! Both are plain values (no interior mutability): each simulated world owns
//! its collectors, so a parallel sweep shares no cache lines on the hot path.

use crate::time::{SimDuration, SimTime};
use serde::Serialize;

pub use aroma_telemetry::Summary;

/// Counts events against the simulated clock and reports rates.
#[derive(Clone, Debug, Default, Serialize)]
pub struct RateMeter {
    units: f64,
    started: Option<SimTime>,
    last: Option<SimTime>,
}

impl RateMeter {
    /// Fresh meter; the window opens at the first recorded event.
    pub fn new() -> Self {
        RateMeter::default()
    }

    /// Record one event of `units` size (bytes, frames, …) at time `t`.
    pub fn record(&mut self, t: SimTime, units: f64) {
        self.started.get_or_insert(t);
        self.units += units;
        if Some(t) > self.last {
            self.last = Some(t);
        }
    }

    /// Units per second over the window from the first to the last event
    /// (0 until the window has a nonzero length).
    pub fn rate(&self) -> f64 {
        let window = match (self.started, self.last) {
            (Some(s), Some(l)) => l.saturating_since(s),
            _ => SimDuration::ZERO,
        };
        let secs = window.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.units / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_empty_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn summary_default_matches_new() {
        // Regression: a derived Default zeroed min/max, so the first sample
        // could never replace them and all-positive data reported min 0.0.
        let mut s = Summary::default();
        s.record(5.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
        let empty = Summary::default();
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn rate_meter_measures_units_per_second() {
        let mut m = RateMeter::new();
        m.record(SimTime::from_nanos(0), 100.0);
        m.record(SimTime::ZERO + SimDuration::from_secs(2), 300.0);
        assert!((m.rate() - 200.0).abs() < 1e-9); // 400 units / 2 s
    }

    #[test]
    fn rate_meter_degenerate_window_is_zero() {
        let mut m = RateMeter::new();
        m.record(SimTime::from_nanos(5), 10.0);
        assert_eq!(m.rate(), 0.0); // zero-length window
        assert_eq!(RateMeter::new().rate(), 0.0); // never opened
    }
}
