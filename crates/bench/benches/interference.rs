//! E2 bench: density runs, including the fixed-rate-vs-adaptive ablation
//! (DESIGN.md §5).
//!
//! Every iteration, the warm-up one included, runs the same fixed set of
//! seeds, so two runs of the bench (or of two builds) average the same
//! simulations whatever iteration count the budget allows. The runs
//! collide often, so they exercise both the bounded and the exact
//! reception path.

use aroma_net::{Rate, RateAdaptation};
use criterion::{criterion_group, criterion_main, Criterion};
use lpc_bench::scenarios::{run_density, secs, ChannelPlan};
use std::hint::black_box;

/// The seeds one iteration runs.
const SEEDS: [u64; 4] = [1, 2, 3, 4];

fn bench_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("interference/e2");
    g.sample_size(10);
    let (cochannel, adaptive) = (ChannelPlan::AllCochannel, RateAdaptation::SnrBased);
    let runs = [
        ("cochannel_1_pairs", 1, cochannel, adaptive),
        ("cochannel_4_pairs", 4, cochannel, adaptive),
        ("cochannel_8_pairs", 8, cochannel, adaptive),
        ("spread_8_pairs", 8, ChannelPlan::OrthogonalSpread, adaptive),
        // Ablation: fixed 11 Mbps vs adaptive under contention.
        (
            "ablation_fixed11_8_pairs",
            8,
            cochannel,
            RateAdaptation::Fixed(Rate::R11),
        ),
    ];
    for (name, pairs, plan, adapt) in runs {
        g.bench_function(name, |b| {
            b.iter(|| {
                SEEDS.map(|seed| black_box(run_density(pairs, plan, adapt, 1000, secs(1), seed)))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_density);
criterion_main!(benches);
