//! Discovery-registry scaling benchmark: the data behind
//! `BENCH_disc.json` (appended by `repro bench --discovery` /
//! `scripts/bench.sh --discovery`).
//!
//! Measures the lease table every registrar applies its operations to —
//! the `BTreeMap`-backed `ServiceRegistry` — at 10^4, 10^5, and 10^6 live
//! leases: register and renew throughput (ops/sec) and template-lookup
//! throughput with the p50/p99 per-lookup latency.
//!
//! Numbers are hardware-honest: wall-clock `Instant` timing, recorded
//! alongside `available_parallelism`, and the document is *appended* to
//! `BENCH_disc.json` so the trajectory accumulates across engine changes.
//! Lookups here are template scans (the protocol's `lookup_live` path).

use aroma_discovery::codec::{ServiceId, ServiceItem, Template};
use aroma_discovery::registry::ServiceRegistry;
use aroma_sim::report::Json;
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;
use std::time::Instant;

/// Lease-table sizes the full sweep measures.
pub const SCALES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// Quick-mode sizes (what the test suite and `--quick` runs use).
pub const QUICK_SCALES: [usize; 2] = [10_000, 100_000];
/// Distinct service kinds; one lookup matches `leases / KINDS` rows.
const KINDS: usize = 100;

/// The table's numbers at one scale.
pub struct EnginePoint {
    /// Registrations per wall-clock second (filling the table).
    pub register_ops_per_sec: f64,
    /// Renewals per wall-clock second (uniform sample over live ids).
    pub renew_ops_per_sec: f64,
    /// Template lookups per wall-clock second.
    pub lookup_ops_per_sec: f64,
    /// Median per-lookup latency, microseconds.
    pub lookup_p50_us: f64,
    /// 99th-percentile per-lookup latency, microseconds.
    pub lookup_p99_us: f64,
    /// Rows the measured template matched (sanity: `leases / KINDS`).
    pub rows_per_lookup: usize,
}

impl EnginePoint {
    fn json(&self) -> Json {
        Json::obj(vec![
            ("register_ops_per_sec", Json::from(self.register_ops_per_sec)),
            ("renew_ops_per_sec", Json::from(self.renew_ops_per_sec)),
            ("lookup_ops_per_sec", Json::from(self.lookup_ops_per_sec)),
            ("lookup_p50_us", Json::from(self.lookup_p50_us)),
            ("lookup_p99_us", Json::from(self.lookup_p99_us)),
            ("rows_per_lookup", Json::from(self.rows_per_lookup)),
        ])
    }
}

fn item(i: usize) -> ServiceItem {
    ServiceItem {
        id: ServiceId(i as u64 + 1),
        kind: format!("kind/{:02}", i % KINDS),
        attributes: Vec::new(),
        provider: i as u32,
        proxy: Bytes::from_static(b"proxy"),
    }
}

/// Percentile of a sorted latency vector, in microseconds.
fn pct_us(sorted_nanos: &[u64], p: usize) -> f64 {
    if sorted_nanos.is_empty() {
        return 0.0;
    }
    let idx = (sorted_nanos.len() - 1) * p / 100;
    sorted_nanos[idx] as f64 / 1_000.0
}

/// Drive a fresh table through the fill / renew / lookup phases.
fn measure(leases: usize, lookups: usize) -> EnginePoint {
    let mut table = ServiceRegistry::new(SimDuration::from_secs(7_200));
    let now = SimTime::from_nanos(1);
    let requested = SimDuration::from_secs(3_600);

    let t = Instant::now();
    for i in 0..leases {
        table.register(now, item(i), requested);
    }
    let register_secs = t.elapsed().as_secs_f64();

    // Renew a uniform stride so every renewal hits a live id without the
    // loop cost being dominated by rng; cap the sample at 200k.
    let renews = leases.min(200_000);
    let stride = (leases / renews).max(1);
    let t = Instant::now();
    for r in 0..renews {
        table.renew(now, ServiceId(((r * stride) % leases) as u64 + 1));
    }
    let renew_secs = t.elapsed().as_secs_f64();

    // Lookups rotate through the kinds so the scan never warms one
    // sub-range of the id space only.
    let mut rows_per_lookup = 0usize;
    let mut lat = Vec::with_capacity(lookups);
    let t = Instant::now();
    for l in 0..lookups {
        let template = Template::of_kind(&format!("kind/{:02}", l % KINDS));
        let t1 = Instant::now();
        rows_per_lookup = table.lookup_live(now, &template).len();
        lat.push(t1.elapsed().as_nanos() as u64);
    }
    let lookup_secs = t.elapsed().as_secs_f64();
    lat.sort_unstable();

    EnginePoint {
        register_ops_per_sec: leases as f64 / register_secs.max(1e-9),
        renew_ops_per_sec: renews as f64 / renew_secs.max(1e-9),
        lookup_ops_per_sec: lookups as f64 / lookup_secs.max(1e-9),
        lookup_p50_us: pct_us(&lat, 50),
        lookup_p99_us: pct_us(&lat, 99),
        rows_per_lookup,
    }
}

/// Measure the table at `leases` live leases.
pub fn scale_point(leases: usize, lookups: usize) -> (String, Json) {
    (
        format!("leases_{leases}"),
        Json::obj(vec![
            ("leases", Json::from(leases)),
            ("lookups_timed", Json::from(lookups)),
            ("flat", measure(leases, lookups).json()),
        ]),
    )
}

/// Run the discovery scaling sweep and return the `BENCH_disc.json`
/// entry. `quick` drops the 10^6 point and times fewer lookups.
pub fn run(quick: bool) -> Json {
    let scales: &[usize] = if quick { &QUICK_SCALES } else { &SCALES };
    let lookups = if quick { 60 } else { 200 };
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut fields = vec![
        ("engine".to_string(), Json::from("flat-btree")),
        ("available_parallelism".to_string(), Json::from(parallelism)),
        ("quick".to_string(), Json::from(quick)),
    ];
    for &leases in scales {
        fields.push(scale_point(leases, lookups));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_the_document_renders() {
        // A deliberately tiny point: the real scales run in release mode
        // via `scripts/bench.sh --discovery`; this pins the flat-only JSON
        // shape cheaply for the debug suite.
        let (name, json) = scale_point(2_000, 10);
        assert_eq!(name, "leases_2000");
        let Json::Obj(fields) = &json else { panic!("scale point is an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["leases", "lookups_timed", "flat"]);
        let text = json.render();
        assert!(text.contains("lookup_p99_us"));
        assert!(text.contains("\"rows_per_lookup\":20"));
        assert!(!text.contains("shard"), "no sharded arm: {text}");
    }

    #[test]
    fn percentiles_come_from_the_sorted_tail() {
        let lat: Vec<u64> = (1..=100).map(|v| v * 1_000).collect();
        assert!((pct_us(&lat, 99) - 99.0).abs() < 1e-9);
        assert!((pct_us(&lat, 50) - 50.0).abs() < 1e-9);
        assert_eq!(pct_us(&[], 99), 0.0);
    }
}
