//! Differential test of `EventQueue` against an ordered reference model:
//! a `BTreeMap` on `(time, key, seq)` plus a clock. Random interleavings of
//! every queue operation must agree with the model after each step, with
//! delays that straddle the queue's bucket edges (powers of two) and tie
//! keys laid out like the network's (rank in the top byte, then an id).

use aroma_sim::{EventQueue, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One queue operation; delays are relative to the clock. `peek_time`,
/// `len`, `is_empty` and `now` are compared after every operation.
#[derive(Clone, Debug)]
enum Op {
    At(u64, u64),
    In(u64, u64),
    Now(u64),
    Pop,
    /// Fast-forward by this delay, but no later than the earliest pending
    /// event.
    FastForward(u64),
}

/// The reference: pending events in `(time, key, seq)` order.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(u64, u64, u64), u32>,
    now: u64,
    seq: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, key: u64, id: u32) {
        self.pending.insert((at, key, self.seq), id);
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, u32)> {
        let ((time, _, _), id) = self.pending.pop_first()?;
        self.now = self.now.max(time);
        Some((time, id))
    }

    fn peek_time(&self) -> Option<u64> {
        self.pending.keys().next().map(|&(time, _, _)| time)
    }
}

/// Delays at and around every bucket edge up to 2^48, plus uniform ones.
fn delay() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        (1u32..=48, 0u64..3).prop_map(|(k, d)| (1u64 << k) - 1 + d),
        0u64..1 << 40,
    ]
}

/// A network-style tie key from a small set: rank 0–6, id 0–3.
fn key() -> impl Strategy<Value = u64> {
    (0u64..7, 0u64..4).prop_map(|(rank, id)| rank << 56 | id)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (delay(), key()).prop_map(|(d, k)| Op::At(d, k)),
        (delay(), key()).prop_map(|(d, k)| Op::In(d, k)),
        key().prop_map(Op::Now),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        delay().prop_map(Op::FastForward),
    ]
}

/// Where the clock starts: zero, anywhere, or just below bit 63 so that
/// delays carry into the top bucket.
fn start() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..1 << 62, Just((1u64 << 63) - (1 << 47))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_queue_matches_ordered_model(
        start in start(),
        ops in prop::collection::vec(op(), 1..400),
    ) {
        let mut q: EventQueue<(u64, u32)> = EventQueue::keyed(|&(key, _)| key);
        let mut model = Model::default();
        q.fast_forward(SimTime::from_nanos(start));
        model.now = start;
        for (id, op) in ops.into_iter().enumerate() {
            let id = id as u32;
            match op {
                Op::At(d, key) => {
                    q.schedule_at(SimTime::from_nanos(model.now + d), (key, id));
                    model.schedule(model.now + d, key, id);
                }
                Op::In(d, key) => {
                    q.schedule_in(SimDuration::from_nanos(d), (key, id));
                    model.schedule(model.now + d, key, id);
                }
                Op::Now(key) => {
                    q.schedule_now((key, id));
                    model.schedule(model.now, key, id);
                }
                Op::Pop => {
                    let got = q.pop().map(|(t, (_, id))| (t.as_nanos(), id));
                    prop_assert_eq!(got, model.pop());
                }
                Op::FastForward(d) => {
                    let to = model.peek_time().map_or(model.now + d, |t| t.min(model.now + d));
                    q.fast_forward(SimTime::from_nanos(to));
                    model.now = model.now.max(to);
                }
            }
            prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), model.peek_time());
            prop_assert_eq!(q.len(), model.pending.len());
            prop_assert_eq!(q.is_empty(), model.pending.is_empty());
            prop_assert_eq!(q.now().as_nanos(), model.now);
        }
        while let Some(want) = model.pop() {
            prop_assert_eq!(q.pop().map(|(t, (_, id))| (t.as_nanos(), id)), Some(want));
            prop_assert_eq!(q.now().as_nanos(), model.now);
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }
}
