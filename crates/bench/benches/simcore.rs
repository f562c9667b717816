//! Microbenchmarks of the DES core: event-queue throughput, RNG, sweep.

use aroma_sim::{EventQueue, SimDuration, SimRng};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// A delay from the mix the network schedules on the `building` workload:
/// 15% at the same instant, 72% 16 µs–1 ms, 12% 1 ms–1 s, 1% 1–16 s.
fn network_delay(rng: &mut SimRng) -> SimDuration {
    let (lo, hi) = match rng.below(100) {
        0..15 => return SimDuration::ZERO,
        15..87 => (16_000, 1_000_000),
        87..99 => (1_000_000, 1_000_000_000),
        _ => (1_000_000_000, 16_000_000_000),
    };
    SimDuration::from_nanos(lo + rng.below(hi - lo))
}

/// A network-sized event: a tie key (rank in the top byte, then a node
/// id) and a 40-byte body, 48 bytes in all.
type NetEvent = (u64, [u64; 5]);

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore/event_queue");
    // What a network does: hold `n` events pending, and per iteration pop
    // the next one and schedule another with a delay from the measured mix.
    for &n in &[64usize, 1_000, 10_000] {
        g.bench_function(format!("hold_{n}"), |b| {
            let mut rng = SimRng::new(233);
            let mut q: EventQueue<NetEvent> = EventQueue::keyed(|&(key, _)| key);
            for _ in 0..n {
                let key = rng.below(7) << 56 | rng.below(64);
                q.schedule_in(network_delay(&mut rng), (key, [0; 5]));
            }
            b.iter(|| {
                let (_, ev) = q.pop().expect("the queue holds n events");
                q.schedule_in(network_delay(&mut rng), black_box(ev));
            })
        });
    }
    // Fill with uniform random times, then drain.
    for &n in &[1_000usize, 10_000] {
        g.bench_function(format!("schedule_pop_{n}"), |b| {
            b.iter_batched(
                EventQueue::<u64>::new,
                |mut q| {
                    let mut rng = SimRng::new(1);
                    for i in 0..n {
                        q.schedule_in(SimDuration::from_nanos(rng.below(1_000_000)), i as u64);
                    }
                    while let Some(ev) = q.pop() {
                        black_box(ev);
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore/rng");
    g.bench_function("next_u64", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| black_box(rng.next_u64_raw()))
    });
    g.bench_function("normal", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| black_box(rng.normal()))
    });
    g.bench_function("below_1000", |b| {
        let mut rng = SimRng::new(7);
        b.iter(|| black_box(rng.below(1000)))
    });
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let params: Vec<u64> = (0..64).collect();
    c.bench_function("simcore/sweep_64x_spin", |b| {
        b.iter(|| {
            aroma_sim::sweep::run(&params, |_, &p| {
                // A small deterministic workload per point.
                let mut acc = p;
                for _ in 0..10_000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                acc
            })
        })
    });
}

criterion_group!(benches, bench_event_queue, bench_rng, bench_sweep);
criterion_main!(benches);
