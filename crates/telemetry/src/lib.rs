//! # aroma-telemetry — structured tracing + metrics for the Aroma/LPC stack
//!
//! The LPC analysis engine classifies issues layer by layer; this crate is
//! the measurement substrate that gives those classifications *evidence*.
//! It provides, behind a single [`Telemetry`] handle:
//!
//! * a bounded **ring-buffer trace sink** — fixed capacity allocated up
//!   front, no allocation on the hot path, drop-oldest overwrite with a
//!   dropped-events counter ([`Snapshot::trace_dropped`]),
//! * a **metrics registry** — counters, gauges and streaming [`Summary`]
//!   instruments, each addressed by a static name and registered on first
//!   touch,
//! * **event-loop self-profiling** — wall-time per handler type, so perf
//!   work has a baseline ([`Snapshot::profile`], sorted hottest-first).
//!
//! Disabled mode is the [`Telemetry::Off`] enum variant: every recording
//! method is `#[inline]` and hits a no-op match arm, so an uninstrumented
//! run pays nothing (verified by `lpc-bench`'s `telemetry` Criterion bench).
//! The substrates call [`Telemetry`]'s methods directly; there is no
//! recorder trait to implement.
//!
//! **Determinism contract:** trace events and metrics carry *simulated* time
//! only (`t_nanos`), so for a fixed seed the trace and metric sections of a
//! [`Snapshot`] are bit-identical across runs. Wall-clock measurements are
//! confined to the profile section, which [`Snapshot::deterministic_eq`]
//! deliberately excludes.
//!
//! This crate is a dependency leaf (std only): `aroma-sim` re-exports it as
//! `aroma_sim::telemetry` and adds JSON rendering there, so every substrate
//! crate reaches it through the path it already has. [`Summary`] lives here
//! for the same reason and is re-exported as `aroma_sim::stats::Summary`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

/// The five layers of the LPC model, used to tag trace events so a snapshot
/// can be sliced the same way the analysis engine slices issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Everything outside the system boundary (spectrum, rooms, people).
    Environment,
    /// Hardware and physical I/O (radio, display).
    Physical,
    /// System resources and protocols (MAC, transport, pipelines).
    Resource,
    /// Services and abstract state (leases, sessions).
    Abstract,
    /// User intent and experience (surprise, frustration).
    Intentional,
}

impl Layer {
    /// Stable lowercase label, used as the JSON value.
    pub fn label(&self) -> &'static str {
        match self {
            Layer::Environment => "environment",
            Layer::Physical => "physical",
            Layer::Resource => "resource",
            Layer::Abstract => "abstract",
            Layer::Intentional => "intentional",
        }
    }
}

/// One structured trace event. Plain data, `Copy`, fixed size — the ring
/// buffer stores these inline so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    /// Simulated time in nanoseconds (or a step index for substrates without
    /// a simulated clock, e.g. the user simulator).
    pub t_nanos: u64,
    /// LPC layer the event belongs to.
    pub layer: Layer,
    /// Static event name, dot-separated by convention (`"mac.retry"`).
    pub name: &'static str,
    /// Node / entity id, 0 when not applicable.
    pub node: u32,
    /// First event-specific argument (meaning depends on `name`).
    pub a: i64,
    /// Second event-specific argument.
    pub b: i64,
}

/// Fixed-capacity drop-oldest ring of [`TraceEvent`]s.
#[derive(Clone, Debug)]
struct Ring {
    slots: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    #[inline]
    fn push(&mut self, ev: TraceEvent) {
        if self.capacity == 0 {
            return; // tracing disabled, metrics-only recorder
        }
        if self.slots.len() < self.capacity {
            self.slots.push(ev);
        } else {
            // Overwrite the oldest event and count it as dropped.
            self.slots[self.next] = ev;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Events oldest → newest.
    fn in_order(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }
}

/// Streaming summary statistics: count, mean, sample standard deviation,
/// min and max in O(1) memory (Welford's algorithm, numerically stable).
///
/// The summary instrument records into one of these, and substrates keep
/// them directly in their stats structs (`aroma_sim::stats` re-exports it).
#[derive(Clone, Debug)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

// A derived `Default` would zero `min`/`max`, whereas the sentinels must be
// ±INFINITY for `record` to work; structs that `#[derive(Default)]` around a
// `Summary` (NetStats, ExecReport) depend on this delegating to `new()`.
impl Default for Summary {
    fn default() -> Self {
        Summary::new()
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 for an empty summary).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator; 0 below two samples).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

/// Name → slot registry for one instrument kind. Registration order is
/// first-touch order, which is deterministic for a deterministic run and is
/// preserved in snapshots.
#[derive(Clone, Debug)]
struct Slots<T> {
    names: Vec<&'static str>,
    values: Vec<T>,
    index: HashMap<&'static str, usize>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            names: Vec::new(),
            values: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// The slot for `name`, registered with `init` on first touch.
    #[inline]
    fn slot(&mut self, name: &'static str, init: impl FnOnce() -> T) -> &mut T {
        let i = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.values.len();
                self.names.push(name);
                self.values.push(init());
                self.index.insert(name, i);
                i
            }
        };
        &mut self.values[i]
    }

    /// `(name, value)` pairs in registration order.
    fn iter(&self) -> impl Iterator<Item = (&'static str, &T)> {
        self.names.iter().copied().zip(&self.values)
    }
}

/// The live recorder state behind [`Telemetry::On`]. Boxed so the `Off`
/// variant stays one machine word.
#[derive(Clone, Debug)]
pub struct Active {
    ring: Ring,
    counters: Slots<u64>,
    gauges: Slots<f64>,
    summaries: Slots<Summary>,
    profile: Slots<(u64, u64)>, // (calls, total wall nanos)
}

impl Active {
    fn new(cfg: &TelemetryConfig) -> Self {
        Active {
            ring: Ring::new(cfg.ring_capacity),
            counters: Slots::new(),
            gauges: Slots::new(),
            summaries: Slots::new(),
            profile: Slots::new(),
        }
    }
}

/// Recorder configuration.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Trace ring capacity in events; `0` disables tracing (metrics-only).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 4096,
        }
    }
}

impl TelemetryConfig {
    /// Metrics only, no trace ring.
    pub fn metrics_only() -> Self {
        TelemetryConfig { ring_capacity: 0 }
    }
}

/// A recorder that is either absent (`Off`, the default — every call inlines
/// to a no-op) or live (`On`). The instrumented substrates call its methods
/// directly.
#[derive(Clone, Debug, Default)]
pub enum Telemetry {
    /// No recording; all methods are no-ops.
    #[default]
    Off,
    /// Live recording into the boxed [`Active`] state.
    On(Box<Active>),
}

impl Telemetry {
    /// Live recorder with the given configuration.
    pub fn enabled(cfg: TelemetryConfig) -> Self {
        Telemetry::On(Box::new(Active::new(&cfg)))
    }

    /// Append a structured trace event.
    #[inline]
    pub fn event(
        &mut self,
        t_nanos: u64,
        layer: Layer,
        name: &'static str,
        node: u32,
        a: i64,
        b: i64,
    ) {
        if let Telemetry::On(act) = self {
            act.ring.push(TraceEvent {
                t_nanos,
                layer,
                name,
                node,
                a,
                b,
            });
        }
    }

    /// Add `delta` to the named counter (registering it on first use).
    #[inline]
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if let Telemetry::On(act) = self {
            *act.counters.slot(name, || 0) += delta;
        }
    }

    /// Set the named gauge (registering it on first use).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        if let Telemetry::On(act) = self {
            *act.gauges.slot(name, || 0.0) = value;
        }
    }

    /// Record one observation into the named summary.
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: f64) {
        if let Telemetry::On(act) = self {
            act.summaries.slot(name, Summary::new).record(value);
        }
    }

    /// Charge `wall_nanos` of wall-clock time to `handler` (self-profiling).
    #[inline]
    pub fn profile(&mut self, handler: &'static str, wall_nanos: u64) {
        if let Telemetry::On(act) = self {
            let (calls, nanos) = act.profile.slot(handler, || (0, 0));
            *calls += 1;
            *nanos += wall_nanos;
        }
    }

    /// Snapshot the recorder; `None` when disabled.
    pub fn snapshot(&self) -> Option<Snapshot> {
        match self {
            Telemetry::Off => None,
            Telemetry::On(act) => Some(Snapshot::of(act)),
        }
    }

    /// Whether this recorder is live (lets callers skip expensive argument
    /// construction when disabled). Recorders are per-subsystem and never
    /// merged directly; combine their [`Snapshot`]s with [`Snapshot::absorb`].
    #[inline]
    pub fn is_on(&self) -> bool {
        matches!(self, Telemetry::On(_))
    }
}

/// Snapshot of one summary instrument.
#[derive(Clone, Debug, PartialEq)]
pub struct SummarySnap {
    /// Instrument name.
    pub name: &'static str,
    /// Observation count.
    pub count: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Sample standard deviation (n−1; 0 below two samples).
    pub std_dev: f64,
    /// Smallest observation, `None` when empty.
    pub min: Option<f64>,
    /// Largest observation, `None` when empty.
    pub max: Option<f64>,
}

/// Wall-clock profile of one event-handler type.
#[derive(Clone, Debug, PartialEq)]
pub struct HandlerStat {
    /// Handler name (event kind).
    pub name: &'static str,
    /// Invocations.
    pub calls: u64,
    /// Total wall-clock nanoseconds across invocations.
    pub total_nanos: u64,
    /// Mean wall-clock nanoseconds per invocation.
    pub mean_nanos: f64,
}

/// Immutable snapshot of a recorder: the trace ring, every metric and the
/// handler profile (sorted hottest first).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counters in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges in registration order.
    pub gauges: Vec<(&'static str, f64)>,
    /// Summary instruments in registration order.
    pub summaries: Vec<SummarySnap>,
    /// Trace ring contents, oldest → newest.
    pub trace: Vec<TraceEvent>,
    /// Events overwritten because the ring was full.
    pub trace_dropped: u64,
    /// Handler wall-time profile, sorted by total time descending.
    pub profile: Vec<HandlerStat>,
}

impl Snapshot {
    fn of(act: &Active) -> Snapshot {
        let summaries = act
            .summaries
            .iter()
            .map(|(name, s)| SummarySnap {
                name,
                count: s.count(),
                mean: s.mean(),
                std_dev: s.std_dev(),
                min: s.min(),
                max: s.max(),
            })
            .collect();
        let mut profile: Vec<HandlerStat> = act
            .profile
            .iter()
            .map(|(name, &(calls, nanos))| HandlerStat {
                name,
                calls,
                total_nanos: nanos,
                mean_nanos: if calls == 0 {
                    0.0
                } else {
                    nanos as f64 / calls as f64
                },
            })
            .collect();
        profile.sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(b.name)));
        Snapshot {
            counters: act.counters.iter().map(|(n, &v)| (n, v)).collect(),
            gauges: act.gauges.iter().map(|(n, &v)| (n, v)).collect(),
            summaries,
            trace: act.ring.in_order(),
            trace_dropped: act.ring.dropped,
            profile,
        }
    }

    /// Value of a counter, 0 when never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Value of a gauge, `None` when never registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Summary instrument by name.
    pub fn summary(&self, name: &str) -> Option<&SummarySnap> {
        self.summaries.iter().find(|s| s.name == name)
    }

    /// Equality over the deterministic sections only: trace and metrics are
    /// pure functions of the seed, the wall-clock profile is not.
    pub fn deterministic_eq(&self, other: &Snapshot) -> bool {
        self.counters == other.counters
            && self.gauges == other.gauges
            && self.summaries == other.summaries
            && self.trace == other.trace
            && self.trace_dropped == other.trace_dropped
    }

    /// Fold another snapshot into this one: its metrics are appended (names
    /// kept, sections concatenated) and its trace events merged in
    /// timestamp order. Used to combine per-subsystem recorders
    /// (network, sessions, user-sim) into one experiment-level snapshot.
    pub fn absorb(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.summaries.extend(other.summaries);
        self.trace.extend(other.trace);
        // Stable sort keeps same-timestamp events in concatenation order,
        // which is deterministic because absorb order is code-defined.
        self.trace.sort_by_key(|ev| ev.t_nanos);
        self.trace_dropped += other.trace_dropped;
        self.profile.extend(other.profile);
        self.profile
            .sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(b.name)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: &mut Telemetry, t_nanos: u64, name: &'static str) {
        t.event(t_nanos, Layer::Resource, name, 1, 0, 0);
    }

    #[test]
    fn off_recorder_is_inert() {
        let mut t = Telemetry::Off;
        t.event(1, Layer::Resource, "x", 1, 0, 0);
        t.count("c", 1);
        t.gauge("g", 1.0);
        t.observe("s", 1.0);
        t.profile("h", 10);
        assert!(!t.is_on());
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Telemetry::enabled(TelemetryConfig { ring_capacity: 3 });
        for i in 0..5u64 {
            ev(&mut t, i, "e");
        }
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.trace_dropped, 2);
        let ts: Vec<u64> = snap.trace.iter().map(|e| e.t_nanos).collect();
        assert_eq!(ts, vec![2, 3, 4]); // oldest two overwritten
    }

    #[test]
    fn zero_capacity_ring_ignores_events() {
        let mut t = Telemetry::enabled(TelemetryConfig::metrics_only());
        ev(&mut t, 1, "e");
        let snap = t.snapshot().unwrap();
        assert!(snap.trace.is_empty());
        assert_eq!(snap.trace_dropped, 0);
    }

    #[test]
    fn counters_gauges_and_instruments() {
        let mut t = Telemetry::enabled(TelemetryConfig::default());
        t.count("net.retries", 2);
        t.count("net.retries", 3);
        t.gauge("queue.depth", 7.0);
        t.gauge("queue.depth", 4.0);
        t.observe("svc.time", 1.0);
        t.observe("svc.time", 3.0);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counter("net.retries"), 5);
        assert_eq!(snap.counter("absent"), 0);
        assert_eq!(snap.gauge("queue.depth"), Some(4.0));
        let s = snap.summary("svc.time").unwrap();
        assert_eq!(s.count, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, Some(1.0));
        assert_eq!(s.max, Some(3.0));
        assert!((s.std_dev - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn profile_sorts_hottest_first_and_is_excluded_from_determinism() {
        let mut a = Telemetry::enabled(TelemetryConfig::default());
        a.profile("cool", 10);
        a.profile("hot", 100);
        a.profile("hot", 100);
        let snap = a.snapshot().unwrap();
        assert_eq!(snap.profile[0].name, "hot");
        assert_eq!(snap.profile[0].calls, 2);
        assert_eq!(snap.profile[0].total_nanos, 200);

        let mut b = Telemetry::enabled(TelemetryConfig::default());
        b.profile("hot", 999); // different wall time, same deterministic part
        assert!(snap.deterministic_eq(&b.snapshot().unwrap()));
    }

    #[test]
    fn absorb_merges_sections_and_orders_trace() {
        let mut a = Telemetry::enabled(TelemetryConfig::default());
        a.count("a", 1);
        ev(&mut a, 5, "late");
        let mut b = Telemetry::enabled(TelemetryConfig::default());
        b.count("b", 2);
        ev(&mut b, 3, "early");
        let mut snap = a.snapshot().unwrap();
        snap.absorb(b.snapshot().unwrap());
        assert_eq!(snap.counter("a"), 1);
        assert_eq!(snap.counter("b"), 2);
        let names: Vec<_> = snap.trace.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["early", "late"]);
    }
}
