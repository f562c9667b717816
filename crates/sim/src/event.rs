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
//!    (FIFO by a monotone sequence number). A run never depends on queue
//!    internals.
//! 2. **Monotonic time** — popping never moves time backwards; scheduling in
//!    the past is a programming error and panics in debug builds (clamped to
//!    `now` in release).
//!
//! Events cannot be cancelled: a substrate that no longer wants an event
//! ignores it when it fires (the network tags timers with an epoch for
//! exactly that).
//!
//! # Layout: a monotone radix queue
//!
//! Each pending event lives in a slot of a slab, written once when it is
//! scheduled and moved out once when it pops; freed slots are reused
//! through a free list. `base` is the instant at which the queue last
//! opened a bucket, and it is never after `now`. An event at `base` waits
//! in `due`, a small heap on `(key, seq)` that orders same-instant ties.
//! Any later event is chained, through its slot's link, into bucket `i`,
//! where `i` is the highest bit at which its time differs from `base`.
//! Every time in bucket `i` shares `base`'s bits above `i` and sets bit
//! `i`, so it is earlier than every time in a bucket above `i`; the lowest
//! non-empty bucket therefore holds the earliest pending time, which each
//! bucket keeps. When `due` runs dry, `pop` opens that bucket: its
//! earliest time becomes `base`, and each of its events lands in `due` or
//! in a lower bucket. So an event is re-filed only a few times between
//! its schedule and its pop, instead of moving once per heap level, and
//! the pop order is exactly the `(time, key, seq)` order.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The end of a chain: no slot.
const NIL: u32 = u32::MAX;

/// Buckets, one per bit of a `u64` instant.
const BUCKETS: usize = 64;

/// A pending event's order and its link: the next slot of its bucket's
/// chain, or of the free list once the event has popped.
#[derive(Debug, Clone, Copy)]
struct Slot {
    time: SimTime,
    key: u64,
    seq: u64,
    next: u32,
}

/// The head of a chain of slots whose times first differ from `base` at
/// one bit, and the earliest of those times.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    earliest: SimTime,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        earliest: SimTime::MAX,
    };
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
    /// Each pending event's order and link, indexed like `payloads`.
    slots: Vec<Slot>,
    /// Each pending event; `None` in a free slot.
    payloads: Vec<Option<E>>,
    /// The first free slot, chained through [`Slot::next`].
    free: u32,
    /// Pending events.
    len: usize,
    /// The events at `base`, earliest `(key, seq)` first.
    due: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Bucket `i` chains the events whose time first differs from `base`
    /// at bit `i`.
    buckets: [Bucket; BUCKETS],
    /// Bit `i` set when bucket `i` is not empty.
    occupied: u64,
    /// The instant of the last opened bucket; never after `now`, and never
    /// after a pending event.
    base: SimTime,
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
            slots: Vec::new(),
            payloads: Vec::new(),
            free: NIL,
            len: 0,
            due: BinaryHeap::new(),
            buckets: [Bucket::EMPTY; BUCKETS],
            occupied: 0,
            base: SimTime::ZERO,
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
        self.len
    }

    /// True when no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        let slot = Slot {
            time: at,
            key: (self.key)(&payload),
            seq: self.next_seq,
            next: NIL,
        };
        self.next_seq += 1;
        let index = if self.free == NIL {
            let index = u32::try_from(self.slots.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event queue is full");
            self.slots.push(slot);
            self.payloads.push(Some(payload));
            index
        } else {
            let index = self.free;
            let i = index as usize;
            self.free = self.slots[i].next;
            self.slots[i] = slot;
            self.payloads[i] = Some(payload);
            index
        };
        self.len += 1;
        self.file(index);
    }

    /// Put the pending event in slot `index` into `due` when it is at
    /// `base`, or else at the head of its bucket's chain.
    #[inline]
    fn file(&mut self, index: u32) {
        let slot = &mut self.slots[index as usize];
        let differ = slot.time.as_nanos() ^ self.base.as_nanos();
        if differ == 0 {
            self.due.push(Reverse((slot.key, slot.seq, index)));
            return;
        }
        let i = (63 - differ.leading_zeros()) as usize;
        let bucket = &mut self.buckets[i];
        slot.next = bucket.head;
        bucket.head = index;
        bucket.earliest = bucket.earliest.min(slot.time);
        self.occupied |= 1 << i;
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
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        if !self.due.is_empty() {
            return Some(self.base);
        }
        if self.occupied == 0 {
            return None;
        }
        Some(self.buckets[self.occupied.trailing_zeros() as usize].earliest)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let index = match self.due.pop() {
            Some(Reverse((_, _, index))) => index,
            None => self.open()?,
        };
        let i = index as usize;
        let payload = self.payloads[i]
            .take()
            .expect("a pending slot holds its event");
        self.slots[i].next = self.free;
        self.free = index;
        self.len -= 1;
        let time = self.base;
        debug_assert!(time >= self.now, "event queue time went backwards");
        // `max` keeps the clock monotone even if a release-mode
        // `fast_forward` jumped over a still-pending earlier event.
        self.now = self.now.max(time);
        Some((time, payload))
    }

    /// Open the lowest non-empty bucket, `i`: its earliest time becomes
    /// `base`, and each of its events lands in `due` or in a lower bucket,
    /// since it shares the new `base`'s bits from `i` up. Returns the slot
    /// of the event to pop next (taken out of `due` when the bucket held
    /// more than one), or `None` when no event is pending.
    fn open(&mut self) -> Option<u32> {
        if self.occupied == 0 {
            return None;
        }
        let i = self.occupied.trailing_zeros() as usize;
        let Bucket { head, earliest } = std::mem::replace(&mut self.buckets[i], Bucket::EMPTY);
        self.occupied &= !(1 << i);
        self.base = earliest;
        let mut next = self.slots[head as usize].next;
        if next == NIL {
            // The bucket's only event is the earliest: no tie to order.
            return Some(head);
        }
        self.file(head);
        while next != NIL {
            let index = next;
            next = self.slots[index as usize].next;
            self.file(index);
        }
        self.due.pop().map(|Reverse((_, _, index))| index)
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
