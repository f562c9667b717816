//! Deterministic future-event list.
//!
//! The queue is the heart of the discrete-event engine: substrates schedule
//! typed events at future instants and drain them in chronological order.
//! Two properties matter for reproducibility and are guaranteed here:
//!
//! 1. **Stable ordering** — events scheduled for the same instant pop in the
//!    order they were scheduled (FIFO tie-break by a monotone sequence
//!    number), so a run never depends on heap internals.
//! 2. **Monotonic time** — popping never moves time backwards; scheduling in
//!    the past is a programming error and panics in debug builds (clamped to
//!    `now` in release, with a counter so harnesses can assert on it).
//!
//! Cancellation uses lazy deletion: `cancel` marks the [`EventId`] and the
//! entry is dropped when it reaches the top, which keeps schedule/cancel at
//! O(log n) amortised without tombstone scans. A `pending` id set tracks
//! exactly which events are still in the heap, so cancelling an id that
//! already fired (or was already cancelled) is a true no-op: it returns
//! `false` and leaves no tombstone behind.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for the queue's own sequence numbers: one multiply by an odd
/// constant, a bijection whose low bits (the bucket index) stay distinct
/// for consecutive keys. The keys are a counter the queue issues itself,
/// never input from outside, so SipHash's collision resistance buys
/// nothing here.
#[derive(Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the event queue hashes only u64 sequence numbers");
    }

    #[inline]
    fn write_u64(&mut self, seq: u64) {
        self.0 = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A set of sequence numbers.
type SeqSet = HashSet<u64, BuildHasherDefault<SeqHasher>>;

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

// Order by (time, seq); the heap stores `Reverse` so the earliest pops first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A future-event list with a built-in simulation clock.
///
/// `E` is the substrate's event type. The queue owns the clock: `pop`
/// advances `now()` to the popped event's timestamp.
///
/// ```
/// use aroma_sim::{EventQueue, SimDuration, SimTime};
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule_in(SimDuration::from_millis(5), "later");
/// q.schedule_in(SimDuration::from_millis(1), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t, SimTime::from_nanos(1_000_000));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// Ids cancelled while still buried in the heap (purged on surfacing).
    cancelled: SeqSet,
    /// Ids currently live in the heap: scheduled, not yet fired or cancelled.
    pending: SeqSet,
    now: SimTime,
    next_seq: u64,
    late_schedules: u64,
    scheduled_total: u64,
    popped_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            cancelled: SeqSet::default(),
            pending: SeqSet::default(),
            now: SimTime::ZERO,
            next_seq: 0,
            late_schedules: 0,
            scheduled_total: 0,
            popped_total: 0,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events: scheduled, not yet fired or cancelled.
    /// Exact — cancelled events buried in the heap are not counted.
    #[inline]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when no live events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events delivered by `pop` over the queue's lifetime.
    #[inline]
    pub fn popped_total(&self) -> u64 {
        self.popped_total
    }

    /// How many schedule requests targeted the past and were clamped to
    /// `now` (always zero in a correct substrate; asserted by tests).
    #[inline]
    pub fn late_schedules(&self) -> u64 {
        self.late_schedules
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a bug in the caller; debug builds panic,
    /// release builds clamp to `now` and count it in [`late_schedules`].
    ///
    /// [`late_schedules`]: EventQueue::late_schedules
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        let at = if at < self.now {
            debug_assert!(false, "scheduled event in the past: {at} < {}", self.now);
            self.late_schedules += 1;
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        self.pending.insert(seq);
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            payload,
        }));
        EventId(seq)
    }

    /// Schedule `payload` after a relative delay from `now`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedule `payload` to fire immediately (at the current instant, after
    /// everything already queued for this instant).
    #[inline]
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule_at(self.now, payload)
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (scheduled, not yet
    /// fired or cancelled) and is now guaranteed never to be delivered.
    /// Cancelling an id that already fired, was already cancelled, or was
    /// never issued is a harmless O(1) no-op returning `false` — it leaves
    /// no tombstone behind, so ids may be cancelled defensively after their
    /// event may have fired (the model checker's clock-advance does exactly
    /// that).
    pub fn cancel(&mut self, id: EventId) -> bool {
        if self.pending.remove(&id.0) {
            // Still buried in the heap: lazy-delete when it surfaces.
            self.cancelled.insert(id.0);
            true
        } else {
            false
        }
    }

    /// Timestamp of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the next live event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue time went backwards");
        self.pending.remove(&entry.seq);
        // `max` keeps the clock monotone even if a release-mode
        // `fast_forward` jumped over a still-pending earlier event.
        self.now = self.now.max(entry.time);
        self.popped_total += 1;
        Some((entry.time, entry.payload))
    }

    /// Advance the clock to `at` without delivering events.
    ///
    /// Events scheduled at *exactly* `at` are not skipped: they stay
    /// pending and fire (FIFO among themselves) when popped, with the clock
    /// already at their timestamp — `fast_forward(t)` followed by `pop()`
    /// of a `t`-event is well-defined and deterministic. Only events
    /// strictly earlier than `at` count as skipped work: their presence
    /// panics in debug builds (a substrate must never silently skip
    /// scheduled work) and is ignored in release builds, where `now` still
    /// advances and the late events deliver with their original (now past)
    /// timestamps.
    pub fn fast_forward(&mut self, at: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= at),
            "fast_forward would skip pending events"
        );
        if at > self.now {
            self.now = at;
        }
    }

    /// Drop all pending events and reset the cancellation set (the clock is
    /// left where it is; a simulation never rewinds).
    pub fn clear_pending(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
        self.pending.clear();
    }

    fn skip_cancelled(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        while let Some(Reverse(e)) = self.heap.peek() {
            if self.cancelled.remove(&e.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> EventQueue<u32> {
        EventQueue::new()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = q();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_advances_clock() {
        let mut q = q();
        q.schedule_in(SimDuration::from_millis(2), 1);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop().unwrap();
        assert_eq!(q.now(), SimTime::from_nanos(2_000_000));
    }

    #[test]
    fn schedule_relative_to_current_time() {
        let mut q = q();
        q.schedule_in(SimDuration::from_nanos(10), 1);
        q.pop().unwrap();
        q.schedule_in(SimDuration::from_nanos(10), 2);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_nanos(), 20);
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = q();
        let keep = q.schedule_at(SimTime::from_nanos(10), 1);
        let drop_ = q.schedule_at(SimTime::from_nanos(5), 2);
        assert!(q.cancel(drop_));
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 1);
        assert!(q.pop().is_none());
        let _ = keep;
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q = q();
        assert!(!q.cancel(EventId(999)));
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q = q();
        let id = q.schedule_at(SimTime::from_nanos(5), 1);
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = q();
        let a = q.schedule_at(SimTime::from_nanos(1), 1);
        q.schedule_at(SimTime::from_nanos(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = q();
        let head = q.schedule_at(SimTime::from_nanos(1), 1);
        q.schedule_at(SimTime::from_nanos(9), 2);
        q.cancel(head);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(9)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.pop().unwrap();
        q.schedule_at(SimTime::from_nanos(5), 2);
    }

    #[test]
    fn cancel_after_fire_is_a_clean_noop() {
        let mut q = q();
        let id = q.schedule_at(SimTime::from_nanos(5), 1);
        let later = q.schedule_at(SimTime::from_nanos(9), 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 1)));
        // The id already fired: cancellation must refuse, and must not
        // poison the id space (no tombstone that could swallow a later
        // event or distort `len`).
        assert!(!q.cancel(id));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(9), 2)));
        let _ = later;
    }

    #[test]
    fn cancel_after_fire_then_reschedule_keeps_counts_exact() {
        let mut q = q();
        let id = q.schedule_at(SimTime::from_nanos(1), 1);
        q.pop().unwrap();
        assert!(!q.cancel(id));
        assert!(!q.cancel(id), "still false on repeat");
        q.schedule_at(SimTime::from_nanos(2), 2);
        assert_eq!(q.len(), 1, "fired-then-cancelled id must not be counted");
        assert_eq!(q.pop().map(|(_, e)| e), Some(2));
        assert!(q.is_empty());
    }

    #[test]
    fn fast_forward_to_exactly_pending_timestamp_is_allowed() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(100), 1);
        q.schedule_at(SimTime::from_nanos(100), 2);
        // Equal timestamps are not "skipped work": the clock may land on
        // them, and they then fire FIFO at the (now current) instant.
        q.fast_forward(SimTime::from_nanos(100));
        assert_eq!(q.now(), SimTime::from_nanos(100));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_nanos(100), 2)));
        assert_eq!(q.now(), SimTime::from_nanos(100));
    }

    #[test]
    fn fast_forward_tie_events_keep_fifo_with_schedule_now() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(50), 1);
        q.fast_forward(SimTime::from_nanos(50));
        // An event scheduled "now" at the fast-forwarded instant queues
        // behind everything already pending at that instant.
        q.schedule_now(2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "skip pending events")]
    fn fast_forward_strictly_past_pending_panics_in_debug() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(100), 1);
        q.fast_forward(SimTime::from_nanos(101));
    }

    #[test]
    fn fast_forward_over_cancelled_events_is_allowed() {
        let mut q = q();
        let id = q.schedule_at(SimTime::from_nanos(10), 1);
        q.cancel(id);
        // The only earlier event is cancelled: not skipped work.
        q.fast_forward(SimTime::from_nanos(20));
        assert_eq!(q.now(), SimTime::from_nanos(20));
        assert!(q.pop().is_none());
    }

    #[test]
    fn fast_forward_moves_clock() {
        let mut q = q();
        q.fast_forward(SimTime::from_nanos(500));
        assert_eq!(q.now().as_nanos(), 500);
        // moving backwards is ignored
        q.fast_forward(SimTime::from_nanos(100));
        assert_eq!(q.now().as_nanos(), 500);
    }

    #[test]
    fn lifetime_counters_track_activity() {
        let mut q = q();
        q.schedule_in(SimDuration::from_nanos(1), 1);
        q.schedule_in(SimDuration::from_nanos(2), 2);
        q.pop();
        assert_eq!(q.scheduled_total(), 2);
        assert_eq!(q.popped_total(), 1);
        assert_eq!(q.late_schedules(), 0);
    }

    #[test]
    fn clear_pending_empties_queue() {
        let mut q = q();
        q.schedule_in(SimDuration::from_nanos(1), 1);
        q.clear_pending();
        assert!(q.pop().is_none());
    }
}
