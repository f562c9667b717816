//! Property-based tests for the simulation core.

use aroma_sim::report::Json;
use aroma_sim::stats::{Histogram, Summary};
use aroma_sim::{EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// scheduling order, and the clock never runs backwards.
    #[test]
    fn event_queue_pops_chronologically(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            prop_assert_eq!(q.now(), t);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Same-instant events preserve scheduling (FIFO) order.
    #[test]
    fn event_queue_stable_at_equal_times(groups in prop::collection::vec((0u64..100, 1usize..8), 1..40)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for &(t, k) in &groups {
            for _ in 0..k {
                q.schedule_at(SimTime::from_nanos(t), seq);
                expected.push((t, seq));
                seq += 1;
            }
        }
        expected.sort_by_key(|&(t, s)| (t, s));
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            got.push((t.as_nanos(), e));
        }
        prop_assert_eq!(got, expected);
    }

    /// The tie key only orders ties: whenever no two events share an
    /// instant, a keyed queue pops exactly what a FIFO queue pops, with
    /// schedules (some at the current instant) interleaved with pops.
    #[test]
    fn keyed_queue_matches_fifo_at_distinct_times(
        ops in prop::collection::vec((0u64..2_000, any::<u64>(), 0usize..3), 1..200),
    ) {
        let mut fifo: EventQueue<(usize, u64)> = EventQueue::new();
        let mut keyed: EventQueue<(usize, u64)> = EventQueue::keyed(|&(_, key)| key);
        let mut used = std::collections::BTreeSet::new();
        for (i, &(delay, key, pops)) in ops.iter().enumerate() {
            let mut t = fifo.now().as_nanos() + delay;
            while !used.insert(t) {
                t += 1;
            }
            fifo.schedule_at(SimTime::from_nanos(t), (i, key));
            keyed.schedule_at(SimTime::from_nanos(t), (i, key));
            for _ in 0..pops {
                prop_assert_eq!(fifo.pop(), keyed.pop());
            }
        }
        while let Some(want) = fifo.pop() {
            prop_assert_eq!(Some(want), keyed.pop());
        }
        prop_assert_eq!(keyed.pop(), None);
    }

    /// Summary::merge is equivalent to recording all observations into one
    /// collector, for any split point.
    #[test]
    fn summary_merge_associative(xs in prop::collection::vec(-1e6f64..1e6, 2..200), split_frac in 0.0f64..1.0) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = Summary::new();
        for &x in &xs { whole.record(x); }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..split] { a.record(x); }
        for &x in &xs[split..] { b.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-5 * (1.0 + whole.variance().abs()));
    }

    /// Merging *default*-constructed summaries matches sequential recording
    /// on every statistic including the extrema — either side may be empty
    /// (split 0 or len). Guards the manual `Default` impl: a derived one
    /// zeroed `min`/`max` and the merged extrema came out 0.0.
    #[test]
    fn summary_merge_from_defaults_matches_sequential(
        xs in prop::collection::vec(-1e6f64..1e6, 0..200),
        split_frac in 0.0f64..=1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = Summary::default();
        for &x in &xs { whole.record(x); }
        let mut a = Summary::default();
        let mut b = Summary::default();
        for &x in &xs[..split] { a.record(x); }
        for &x in &xs[split..] { b.record(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert_eq!(a.min(), whole.min());
        prop_assert_eq!(a.max(), whole.max());
        prop_assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        prop_assert!((a.variance() - whole.variance()).abs() <= 1e-5 * (1.0 + whole.variance().abs()));
    }

    /// Histogram quantiles are monotone in q and bounded by the range.
    #[test]
    fn histogram_quantiles_monotone(xs in prop::collection::vec(-10.0f64..110.0, 1..300)) {
        let mut h = Histogram::new(0.0, 100.0, 20);
        for &x in &xs { h.record(x); }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let vals: Vec<f64> = qs.iter().map(|&q| h.quantile(q).unwrap()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9, "quantiles not monotone: {vals:?}");
        }
        prop_assert!(vals[0] >= 0.0 - 1e-9);
        prop_assert!(*vals.last().unwrap() <= 100.0 + 1e-9);
    }

    /// The JSON emitter always produces syntactically balanced output with
    /// escaped control characters (checked with a tiny scanner).
    #[test]
    fn json_emitter_is_well_formed(s in "\\PC*", n in -1e9f64..1e9) {
        let j = Json::obj(vec![
            ("label", Json::Str(s.clone())),
            ("value", Json::Num(n)),
            ("list", Json::Arr(vec![Json::Str(s), Json::Null])),
        ]);
        let out = j.render();
        // No raw control characters may appear.
        prop_assert!(out.chars().all(|c| (c as u32) >= 0x20));
        // Quotes/braces balance when we strip escaped sequences.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut chars = out.chars();
        while let Some(c) = chars.next() {
            if in_str {
                match c {
                    '\\' => { let _ = chars.next(); }
                    '"' => in_str = false,
                    _ => {}
                }
            } else {
                match c {
                    '"' => in_str = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' => depth -= 1,
                    _ => {}
                }
                prop_assert!(depth >= 0);
            }
        }
        prop_assert_eq!(depth, 0);
        prop_assert!(!in_str);
    }

    /// Forked RNG streams with distinct labels do not collide on their first
    /// 8 outputs (uncorrelated streams).
    #[test]
    fn rng_forks_are_distinct(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let parent = SimRng::new(seed);
        let mut fa = parent.fork(a);
        let mut fb = parent.fork(b);
        let va: Vec<u64> = (0..8).map(|_| fa.next_u64_raw()).collect();
        let vb: Vec<u64> = (0..8).map(|_| fb.next_u64_raw()).collect();
        prop_assert_ne!(va, vb);
    }

    /// below(n) is always in range.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..64 {
            prop_assert!(r.below(n) < n);
        }
    }

    /// Airtime is monotone: more bits never takes less time; a faster rate
    /// never takes more time.
    #[test]
    fn airtime_monotone(bits in 1u64..1_000_000, rate in 1_000u64..100_000_000) {
        let t = SimDuration::for_bits(bits, rate);
        prop_assert!(SimDuration::for_bits(bits + 1, rate) >= t);
        prop_assert!(SimDuration::for_bits(bits, rate + 1) <= t);
    }
}
