//! CSMA/CA MAC: timing constants, per-node state machine data, and the
//! binary-exponential backoff and countdown arithmetic.
//!
//! The state machine itself is driven by the event loop in [`crate::network`];
//! this module holds the pure parts so they can be unit-tested in isolation.

use crate::frame::Frame;
use aroma_sim::{SimDuration, SimRng, SimTime};
use std::collections::VecDeque;

/// MAC timing and retry parameters (802.11b DSSS values by default).
#[derive(Clone, Copy, Debug)]
pub struct MacConfig {
    /// Slot time.
    pub slot: SimDuration,
    /// Short interframe space (data → ACK gap).
    pub sifs: SimDuration,
    /// Distributed interframe space (idle wait before backoff countdown).
    pub difs: SimDuration,
    /// Minimum contention window (slots − 1; CW is drawn from `0..=cw`).
    pub cw_min: u32,
    /// Maximum contention window.
    pub cw_max: u32,
    /// Maximum retransmissions of a unicast frame before it is dropped.
    pub retry_limit: u32,
    /// Transmit queue capacity per node; frames beyond this are dropped at
    /// enqueue (counted, reported).
    pub queue_cap: usize,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            cw_min: 31,
            cw_max: 1023,
            retry_limit: 7,
            queue_cap: 64,
        }
    }
}

impl MacConfig {
    /// Contention window for the given retry attempt (0 = first try):
    /// CWmin doubling per retry, capped at CWmax.
    pub fn cw_for_attempt(&self, attempt: u32) -> u32 {
        let cw = (self.cw_min + 1)
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .saturating_sub(1);
        cw.min(self.cw_max)
    }

    /// Draw a backoff slot count for the given attempt.
    pub fn draw_backoff(&self, attempt: u32, rng: &mut SimRng) -> u32 {
        let cw = self.cw_for_attempt(attempt);
        rng.below(cw as u64 + 1) as u32
    }
}

/// Where a node's MAC is in its contention cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MacState {
    /// Nothing to send.
    Idle,
    /// Contending: waiting for an idle medium and DIFS, then counting down
    /// `remaining` backoff slots.
    Contending {
        /// Slots left before transmission, as of `counted_at`.
        remaining: u32,
        /// The last slot boundary the countdown handled; `None` until DIFS
        /// ends, and again after a busy medium froze the countdown.
        counted_at: Option<SimTime>,
    },
    /// A frame of ours is on the air.
    Transmitting,
    /// Unicast data sent; waiting for the ACK.
    WaitAck {
        /// Sequence number the ACK must match.
        seq: u16,
    },
}

/// Phase carried by a MAC tick event so a fired timer knows what it was
/// armed for (stale ticks are filtered by generation, see `MacNode::gen`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickPhase {
    /// Re-check the medium after it was busy.
    Poll,
    /// DIFS elapsed; begin/resume slot countdown.
    AfterDifs,
    /// A countdown tick at a slot boundary: the countdown's end, or a wake
    /// where the medium may have turned busy (the idle slots before it are
    /// folded in without an event each).
    Slot,
}

/// The first slot boundary of a running countdown at or after `t` (strictly
/// after `t` when `strictly`), if it comes before the countdown's last
/// boundary. The countdown handled boundary `at` with `remaining` slots to
/// go, so its boundaries fall every `slot` after `at`, and the tick already
/// scheduled at the last one, `at + remaining × slot`, covers that boundary
/// and ends the countdown.
pub fn countdown_boundary(
    at: SimTime,
    remaining: u32,
    slot: SimDuration,
    t: SimTime,
    strictly: bool,
) -> Option<SimTime> {
    let since = t.saturating_since(at).as_nanos();
    let slot_ns = slot.as_nanos();
    let k = if strictly {
        since / slot_ns + 1
    } else {
        since.div_ceil(slot_ns)
    };
    (k > 0 && k < u64::from(remaining)).then(|| at + slot * k)
}

/// A queued outgoing frame with bookkeeping.
#[derive(Clone, Debug)]
pub struct TxJob {
    /// The frame (seq filled at enqueue).
    pub frame: Frame,
    /// When the application handed it to the MAC (for latency stats).
    pub enqueued_at: SimTime,
    /// Retransmissions so far.
    pub retries: u32,
}

/// Per-node MAC state owned by the network core.
#[derive(Debug)]
pub struct MacNode {
    /// Current state.
    pub state: MacState,
    /// Outgoing frame queue (head is in service).
    pub queue: VecDeque<TxJob>,
    /// Generation counter: bumped whenever the contention cycle restarts so
    /// stale tick/timeout events can be recognised and ignored.
    pub gen: u64,
    /// Next MAC sequence number.
    pub next_seq: u16,
    /// Frames dropped at enqueue because the queue was full.
    pub queue_drops: u64,
}

impl MacNode {
    /// Fresh idle MAC.
    pub fn new() -> Self {
        MacNode {
            state: MacState::Idle,
            queue: VecDeque::new(),
            gen: 0,
            next_seq: 0,
            queue_drops: 0,
        }
    }

    /// Allocate the next sequence number (wrapping).
    pub fn alloc_seq(&mut self) -> u16 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// Invalidate outstanding tick/timeout events and return the new
    /// generation to stamp on freshly scheduled ones.
    pub fn bump_gen(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }
}

impl Default for MacNode {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Address, FrameKind, NodeId};
    use bytes::Bytes;

    #[test]
    fn default_timing_is_80211b() {
        let c = MacConfig::default();
        assert_eq!(c.slot.as_micros(), 20);
        assert_eq!(c.sifs.as_micros(), 10);
        assert_eq!(c.difs.as_micros(), 50);
        assert_eq!(c.cw_min, 31);
        assert_eq!(c.cw_max, 1023);
    }

    #[test]
    fn cw_doubles_and_caps() {
        let c = MacConfig::default();
        assert_eq!(c.cw_for_attempt(0), 31);
        assert_eq!(c.cw_for_attempt(1), 63);
        assert_eq!(c.cw_for_attempt(2), 127);
        assert_eq!(c.cw_for_attempt(5), 1023);
        assert_eq!(c.cw_for_attempt(20), 1023); // saturates, no overflow
        assert_eq!(c.cw_for_attempt(40), 1023); // shl overflow guarded
    }

    #[test]
    fn backoff_draw_within_window() {
        let c = MacConfig::default();
        let mut rng = SimRng::new(5);
        for attempt in 0..3 {
            let cw = c.cw_for_attempt(attempt);
            for _ in 0..200 {
                assert!(c.draw_backoff(attempt, &mut rng) <= cw);
            }
        }
    }

    #[test]
    fn seq_allocation_wraps() {
        let mut m = MacNode::new();
        m.next_seq = u16::MAX;
        assert_eq!(m.alloc_seq(), u16::MAX);
        assert_eq!(m.alloc_seq(), 0);
    }

    #[test]
    fn countdown_boundaries_lie_on_the_slot_grid() {
        let slot = SimDuration::from_micros(20);
        let at = SimTime::from_nanos(1_000_000);
        let us = |n: u64| at + SimDuration::from_micros(n);
        // Strictly after: a start on a boundary wakes at the next one.
        assert_eq!(countdown_boundary(at, 5, slot, at, true), Some(us(20)));
        assert_eq!(countdown_boundary(at, 5, slot, us(20), true), Some(us(40)));
        assert_eq!(countdown_boundary(at, 5, slot, us(21), true), Some(us(40)));
        // At or after: a boundary counts, the handled one does not.
        assert_eq!(countdown_boundary(at, 5, slot, us(20), false), Some(us(20)));
        assert_eq!(countdown_boundary(at, 5, slot, us(21), false), Some(us(40)));
        assert_eq!(countdown_boundary(at, 5, slot, at, false), None);
        // The last boundary (here +100 µs) belongs to the end tick.
        assert_eq!(countdown_boundary(at, 5, slot, us(79), true), Some(us(80)));
        assert_eq!(countdown_boundary(at, 5, slot, us(80), true), None);
        assert_eq!(countdown_boundary(at, 5, slot, us(81), false), None);
        assert_eq!(countdown_boundary(at, 1, slot, at, true), None);
    }

    #[test]
    fn gen_bump_invalidates() {
        let mut m = MacNode::new();
        let g1 = m.bump_gen();
        let g2 = m.bump_gen();
        assert!(g2 > g1);
    }

    #[test]
    fn txjob_carries_frame() {
        let j = TxJob {
            frame: Frame {
                src: NodeId(0),
                dst: Address::Broadcast,
                kind: FrameKind::Data,
                seq: 9,
                payload: Bytes::from_static(b"x"),
            },
            enqueued_at: SimTime::ZERO,
            retries: 0,
        };
        assert_eq!(j.frame.seq, 9);
    }
}
