//! Telemetry overhead bench (DESIGN.md §10): the same E2 density run with
//! the recorder off (the default — every recording call is a no-op match
//! arm the optimiser deletes), metrics-only, and with the full trace ring.
//!
//! The acceptance bar is off ≈ absent: since `Telemetry::Off` *is* the
//! absent recorder (the network always carries the enum field), the "off"
//! group is the baseline, and the enabled groups show what turning the
//! instruments on actually costs.
//!
//! Every iteration, the calibrating one included, runs the same fixed
//! set of seeds, so two runs of the bench (or of two builds) average the
//! same simulations whatever iteration count the budget allows.

use criterion::{criterion_group, criterion_main, Criterion};
use lpc_bench::scenarios::{run_density_traced, secs, ChannelPlan};
use aroma_net::RateAdaptation;
use aroma_sim::telemetry::TelemetryConfig;
use std::hint::black_box;

/// The seeds one iteration runs.
const SEEDS: [u64; 4] = [1, 2, 3, 4];

fn bench_telemetry(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry");
    g.sample_size(10);
    for (name, config) in [
        ("density_8_pairs_recorder_off", None),
        ("density_8_pairs_metrics_only", Some(TelemetryConfig::metrics_only())),
        ("density_8_pairs_full_trace", Some(TelemetryConfig::default())),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                SEEDS.map(|seed| {
                    black_box(run_density_traced(
                        8,
                        ChannelPlan::AllCochannel,
                        RateAdaptation::SnrBased,
                        1000,
                        secs(1),
                        seed,
                        config,
                    ))
                })
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_telemetry);
criterion_main!(benches);
