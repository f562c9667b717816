//! Deterministic future-event list.
//!
//! The queue is the heart of the discrete-event engine: substrates schedule
//! typed events at future instants and drain them in chronological order.
//! Two properties matter for reproducibility and are guaranteed here:
//!
//! 1. **Stable ordering** — events pop in `(time, key, seq)` order. The
//!    `key` is the event type's tie key ([`EventQueue::keyed`]), so the
//!    order of same-instant events is a property of the events, not of when
//!    each was scheduled; events with equal keys (every event of a queue
//!    built with [`EventQueue::new`]) pop in the order they were scheduled
//!    (FIFO by a monotone sequence number). A run never depends on heap
//!    internals.
//! 2. **Monotonic time** — popping never moves time backwards; scheduling in
//!    the past is a programming error and panics in debug builds (clamped to
//!    `now` in release).
//!
//! Events cannot be cancelled: a substrate that no longer wants an event
//! ignores it when it fires (the network tags timers with an epoch for
//! exactly that).

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    key: u64,
    seq: u64,
    payload: E,
}

// Order by (time, key, seq); the heap stores `Reverse` so the earliest pops
// first.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
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
        (self.time, self.key, self.seq).cmp(&(other.time, other.key, other.seq))
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
    now: SimTime,
    next_seq: u64,
    key: fn(&E) -> u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue with the clock at `t = 0`; same-instant events pop in
    /// the order they were scheduled.
    pub fn new() -> Self {
        Self::keyed(|_| 0)
    }

    /// Empty queue whose same-instant events pop in ascending `key` order,
    /// and in the order they were scheduled among equal keys.
    ///
    /// ```
    /// use aroma_sim::{EventQueue, SimTime};
    ///
    /// let mut q: EventQueue<u32> = EventQueue::keyed(|&e| u64::from(e % 10));
    /// let t = SimTime::from_nanos(5);
    /// for e in [13, 21, 11, 23] {
    ///     q.schedule_at(t, e);
    /// }
    /// let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    /// assert_eq!(order, [21, 11, 13, 23]);
    /// ```
    pub fn keyed(key: fn(&E) -> u64) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            key,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events: scheduled, not yet fired.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `payload` at absolute time `at`.
    ///
    /// Scheduling in the past is a bug in the caller; debug builds panic,
    /// release builds clamp to `now`.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        let at = if at < self.now {
            debug_assert!(false, "scheduled event in the past: {at} < {}", self.now);
            self.now
        } else {
            at
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            key: (self.key)(&payload),
            seq,
            payload,
        }));
    }

    /// Schedule `payload` after a relative delay from `now`.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, payload: E) {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedule `payload` to fire at the current instant: after every event
    /// already queued for this instant with a smaller or equal key, before
    /// those with a larger one.
    #[inline]
    pub fn schedule_now(&mut self, payload: E) {
        self.schedule_at(self.now, payload)
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "event queue time went backwards");
        // `max` keeps the clock monotone even if a release-mode
        // `fast_forward` jumped over a still-pending earlier event.
        self.now = self.now.max(entry.time);
        Some((entry.time, entry.payload))
    }

    /// Advance the clock to `at` without delivering events.
    ///
    /// Events scheduled at *exactly* `at` are not skipped: they stay
    /// pending and fire (in tie order among themselves) when popped, with
    /// the clock already at their timestamp — `fast_forward(t)` followed
    /// by `pop()` of a `t`-event is well-defined and deterministic. Only
    /// events strictly earlier than `at` count as skipped work: their
    /// presence panics in debug builds (a substrate must never silently
    /// skip scheduled work) and is ignored in release builds, where `now`
    /// still advances and the late events deliver with their original (now
    /// past) timestamps.
    pub fn fast_forward(&mut self, at: SimTime) {
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= at),
            "fast_forward would skip pending events"
        );
        if at > self.now {
            self.now = at;
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = q();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.pop().unwrap();
        q.schedule_at(SimTime::from_nanos(5), 2);
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
    fn fast_forward_moves_clock() {
        let mut q = q();
        q.fast_forward(SimTime::from_nanos(500));
        assert_eq!(q.now().as_nanos(), 500);
        // moving backwards is ignored
        q.fast_forward(SimTime::from_nanos(100));
        assert_eq!(q.now().as_nanos(), 500);
    }
}
