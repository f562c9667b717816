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
//!   touch; a name's slot is found by the name's address, so a hot-path
//!   call neither hashes nor compares its text (two names with equal text
//!   still share one slot),
//! * **self-profiling** — wall time per handler type, so perf work has a
//!   baseline ([`Snapshot::profile`], sorted hottest first). A rare stage
//!   (the VNC render, encode and chunk) charges each call with
//!   [`Telemetry::profile`]. The network's event loop, which runs every
//!   event, counts each event exactly, times its whole run and one event
//!   in 32, and adds the per-kind split it estimates from that sample to
//!   its snapshot with [`Snapshot::extend_profile`].
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
use std::hash::{BuildHasherDefault, Hash, Hasher};

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

/// A static name's identity in the slot index: the address and length of
/// its text. Equal keys are the same slice, so a hit needs no text
/// comparison; a prefix slice at the same address has a different length
/// and so a different key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct NameAddr {
    ptr: usize,
    len: usize,
}

impl NameAddr {
    fn of(name: &'static str) -> Self {
        NameAddr {
            ptr: name.as_ptr() as usize,
            len: name.len(),
        }
    }
}

impl Hash for NameAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // One word: the length lands in the top bits, which user-space
        // addresses leave clear. Equality still compares both fields.
        state.write_usize(self.ptr ^ self.len.rotate_right(16));
    }
}

/// One multiply per word. The keys are addresses of names compiled into
/// the program, never input from outside it, so the slot index needs no
/// protection against crafted collisions.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    /// The product's high half is mixed from every input bit; rotate it
    /// into the low bits, which pick the bucket.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// Name → slot registry for one instrument kind. Registration order is
/// first-touch order, which is deterministic for a deterministic run and is
/// preserved in snapshots.
///
/// `index` finds a slot by the name's address ([`NameAddr`]). A name seen
/// at a new address is looked up by text in `names` once, and its address
/// is remembered, so every address of one text maps to one slot.
#[derive(Clone, Debug)]
struct Slots<T> {
    names: Vec<&'static str>,
    values: Vec<T>,
    index: HashMap<NameAddr, usize, BuildHasherDefault<AddrHasher>>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            names: Vec::new(),
            values: Vec::new(),
            index: HashMap::default(),
        }
    }

    /// The slot for `name`, registered with `init` on first touch.
    #[inline]
    fn slot(&mut self, name: &'static str, init: impl FnOnce() -> T) -> &mut T {
        let addr = NameAddr::of(name);
        let i = match self.index.get(&addr) {
            Some(&i) => i,
            None => self.find_or_register(name, addr, init),
        };
        &mut self.values[i]
    }

    /// First touch of `name` at this address: the slot of an equal text,
    /// or a new one.
    #[cold]
    fn find_or_register(
        &mut self,
        name: &'static str,
        addr: NameAddr,
        init: impl FnOnce() -> T,
    ) -> usize {
        let i = match self.names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.values.push(init());
                self.values.len() - 1
            }
        };
        self.index.insert(addr, i);
        i
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
    /// Invocations; exact for every entry.
    pub calls: u64,
    /// Total wall-clock nanoseconds across invocations. Measured for a
    /// stage charged with [`Telemetry::profile`]; an estimate for the
    /// network's event kinds (`MacTick`, `TxEnd`, …): the kind's sampled
    /// mean times its exact `calls`, scaled so that the kinds and the
    /// queue pops sum to the event loop's measured wall time.
    pub total_nanos: u64,
    /// Mean wall-clock nanoseconds per invocation, `total_nanos / calls`:
    /// an estimate wherever `total_nanos` is one, and 0 (never NaN) for a
    /// handler that ran but was never timed.
    pub mean_nanos: f64,
}

impl HandlerStat {
    /// `calls` invocations that took `total_nanos` between them; the mean
    /// is 0 when there were none.
    pub fn new(name: &'static str, calls: u64, total_nanos: u64) -> Self {
        HandlerStat {
            name,
            calls,
            total_nanos,
            mean_nanos: if calls == 0 {
                0.0
            } else {
                total_nanos as f64 / calls as f64
            },
        }
    }
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
        let mut snap = Snapshot {
            counters: act.counters.iter().map(|(n, &v)| (n, v)).collect(),
            gauges: act.gauges.iter().map(|(n, &v)| (n, v)).collect(),
            summaries,
            trace: act.ring.in_order(),
            trace_dropped: act.ring.dropped,
            profile: Vec::new(),
        };
        snap.extend_profile(
            act.profile
                .iter()
                .map(|(name, &(calls, nanos))| HandlerStat::new(name, calls, nanos)),
        );
        snap
    }

    /// Add handler entries to the profile, which stays sorted hottest
    /// first (ties by name).
    pub fn extend_profile(&mut self, entries: impl IntoIterator<Item = HandlerStat>) {
        self.profile.extend(entries);
        self.profile
            .sort_by(|a, b| b.total_nanos.cmp(&a.total_nanos).then(a.name.cmp(b.name)));
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
        self.extend_profile(other.profile);
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
    fn extended_profile_stays_hottest_first_and_a_call_free_mean_is_zero() {
        let mut t = Telemetry::enabled(TelemetryConfig::default());
        t.profile("vnc.render", 50);
        let mut snap = t.snapshot().unwrap();
        snap.extend_profile([
            HandlerStat::new("TxEnd", 4, 100),
            HandlerStat::new("Fault", 1, 0),
            HandlerStat::new("idle", 0, 0),
        ]);
        let profile: Vec<_> = snap
            .profile
            .iter()
            .map(|h| (h.name, h.calls, h.total_nanos, h.mean_nanos))
            .collect();
        assert_eq!(
            profile,
            vec![
                ("TxEnd", 4, 100, 25.0),
                ("vnc.render", 1, 50, 50.0),
                ("Fault", 1, 0, 0.0),
                ("idle", 0, 0, 0.0),
            ]
        );
    }

    static NAME: &str = "disc.repl.appends";

    /// A copy of `NAME` at another address, as a name built at run time
    /// would be.
    fn leaked_copy() -> &'static str {
        let copy: &'static str = String::from(NAME).leak();
        assert_ne!(copy.as_ptr(), NAME.as_ptr());
        copy
    }

    #[test]
    fn equal_text_shares_a_slot_and_a_prefix_is_its_own_name() {
        let copy = leaked_copy();
        // Same address as NAME, shorter length.
        let prefix: &'static str = &NAME[..9];
        assert_eq!((prefix.as_ptr(), prefix), (NAME.as_ptr(), "disc.repl"));

        let mut t = Telemetry::enabled(TelemetryConfig::default());
        t.count(NAME, 1);
        t.count(copy, 2);
        t.count(prefix, 4);
        t.count(NAME, 8);
        // First touch by the prefix: snapshots list it first.
        t.gauge(prefix, 3.0);
        t.gauge(copy, 1.0);
        t.gauge(NAME, 2.0);
        t.observe(copy, 1.0);
        t.observe(NAME, 3.0);
        t.observe(prefix, 5.0);
        t.profile(copy, 10);
        t.profile(NAME, 20);
        t.profile(prefix, 1);
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.counters, vec![(NAME, 11), (prefix, 4)]);
        assert_eq!(snap.gauges, vec![(prefix, 3.0), (NAME, 2.0)]);
        let summaries: Vec<_> = snap
            .summaries
            .iter()
            .map(|s| (s.name, s.count, s.mean))
            .collect();
        assert_eq!(summaries, vec![(NAME, 2, 2.0), (prefix, 1, 5.0)]);
        let profile: Vec<_> = snap
            .profile
            .iter()
            .map(|h| (h.name, h.calls, h.total_nanos))
            .collect();
        assert_eq!(profile, vec![(NAME, 2, 30), (prefix, 1, 1)]);
    }

    #[test]
    fn alternating_a_name_with_its_copy_is_deterministic_eq_to_the_name_alone() {
        let copy = leaked_copy();
        let mut alternating = Telemetry::enabled(TelemetryConfig::default());
        let mut literal = Telemetry::enabled(TelemetryConfig::default());
        for i in 0..6u64 {
            let name = if i % 2 == 0 { NAME } else { copy };
            alternating.count(name, i);
            alternating.gauge(name, i as f64);
            alternating.observe(name, i as f64);
            literal.count(NAME, i);
            literal.gauge(NAME, i as f64);
            literal.observe(NAME, i as f64);
        }
        let (a, b) = (alternating.snapshot().unwrap(), literal.snapshot().unwrap());
        assert!(a.deterministic_eq(&b));
        assert_eq!(a.counters, vec![(NAME, 15)]);
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
