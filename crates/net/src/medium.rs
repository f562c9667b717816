//! The shared radio medium: who is on the air, and what each receiver hears.
//!
//! Keeps the set of in-flight (and recently finished) transmissions so that,
//! when a frame ends, the receiver's SINR can be integrated over every
//! overlapping transmission — co-channel or partially overlapping channels —
//! using the propagation model from `aroma-env`. Carrier sense queries run
//! against the same bookkeeping, so hidden terminals (out of CS range but in
//! interference range of the receiver) arise naturally.

use crate::frame::{Frame, NodeId};
use crate::phy::{Rate, CS_THRESHOLD_DBM};
use aroma_env::radio::{dbm_to_mw, Channel, RadioEnvironment};
use aroma_env::space::Point;
use aroma_sim::SimTime;

/// Identifier of one transmission on the medium.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxId(pub u64);

/// One transmission, in flight or recently completed.
#[derive(Clone, Debug)]
pub struct Transmission {
    /// Identifier.
    pub id: TxId,
    /// Transmitting node.
    pub src: NodeId,
    /// Its position at transmit time.
    pub src_pos: Point,
    /// Its channel.
    pub channel: Channel,
    /// Transmit power, dBm.
    pub tx_dbm: f64,
    /// PHY rate of the body.
    pub rate: Rate,
    /// First energy on the air.
    pub start: SimTime,
    /// Last energy on the air.
    pub end: SimTime,
    /// The frame being carried.
    pub frame: Frame,
}

/// Bookkeeping for the shared medium.
#[derive(Debug, Default)]
pub struct Medium {
    /// Transmissions whose `end` has not yet been processed, plus a recent
    /// tail kept for interference integration.
    txs: Vec<Transmission>,
    next_id: u64,
    /// Carrier-sense watermark: every transmission in `txs[..sensed_floor]`
    /// had ended by `sensed_at`, the latest carrier-sense instant, so a
    /// query at or after that instant can skip them. `txs` only grows at
    /// the end between prunes, which keeps the prefix valid.
    sensed_floor: usize,
    sensed_at: SimTime,
}

impl Medium {
    /// Empty medium.
    pub fn new() -> Self {
        Medium::default()
    }

    /// Register a transmission; returns its id.
    pub fn begin(&mut self, mut tx: Transmission) -> TxId {
        let id = TxId(self.next_id);
        self.next_id += 1;
        tx.id = id;
        self.txs.push(tx);
        id
    }

    /// Fetch a transmission by id (it may already have ended).
    pub fn get(&self, id: TxId) -> Option<&Transmission> {
        self.txs.iter().find(|t| t.id == id)
    }

    /// Drop transmissions that ended before `horizon` (they can no longer
    /// overlap anything in flight).
    pub fn prune(&mut self, horizon: SimTime) {
        self.txs.retain(|t| t.end >= horizon);
        self.sensed_floor = 0;
    }

    /// Number of retained transmissions (pruned ones excluded).
    pub fn retained(&self) -> usize {
        self.txs.len()
    }

    /// Is the medium busy for a listener at `pos` on `channel` at `now`?
    ///
    /// True when any in-flight transmission delivers energy above the
    /// carrier-sense threshold, weighted by spectral overlap. The listener's
    /// own transmission (if any) also counts — a radio cannot decrement
    /// backoff while its own PA is on.
    pub fn busy_for(
        &mut self,
        env: &RadioEnvironment,
        listener: NodeId,
        pos: Point,
        channel: Channel,
        now: SimTime,
    ) -> Option<SimTime> {
        if now < self.sensed_at {
            self.sensed_floor = 0;
        }
        self.sensed_at = now;
        while self
            .txs
            .get(self.sensed_floor)
            .is_some_and(|t| t.end <= now)
        {
            self.sensed_floor += 1;
        }
        let mut latest: Option<SimTime> = None;
        for t in &self.txs[self.sensed_floor..] {
            // A transmission starting at this very instant is not sensible
            // yet (zero propagation delay would otherwise serialise slot
            // collisions out of existence — the slot-granularity collisions
            // CSMA/CA actually suffers from).
            if t.start >= now || t.end <= now {
                continue;
            }
            let sensed = if t.src == listener {
                f64::INFINITY // own transmission: certainly busy
            } else {
                let overlap = channel.overlap(t.channel);
                if overlap <= 0.0 {
                    continue;
                }
                env.received_dbm(t.tx_dbm, t.src.key(), t.src_pos, listener.key(), pos)
                    + 10.0 * overlap.log10()
            };
            if sensed >= CS_THRESHOLD_DBM && Some(t.end) > latest {
                latest = Some(t.end);
            }
        }
        latest
    }

    /// SINR (dB) for receiving transmission `of` at `listener`.
    ///
    /// Interference integrates every other transmission overlapping the
    /// frame in time, weighted by spectral overlap and by the fraction of
    /// the frame it covered — the standard additive-interference
    /// approximation.
    pub fn sinr_for(
        &self,
        env: &RadioEnvironment,
        of: TxId,
        listener: NodeId,
        pos: Point,
    ) -> Option<f64> {
        let wanted = self.get(of)?;
        let signal_dbm = env.received_dbm(
            wanted.tx_dbm,
            wanted.src.key(),
            wanted.src_pos,
            listener.key(),
            pos,
        );
        let dur = (wanted.end - wanted.start).as_secs_f64().max(1e-12);
        let mut interferers: Vec<(f64, f64)> = Vec::new();
        for t in &self.txs {
            if t.id == of || t.src == listener {
                continue;
            }
            let ov_start = t.start.max(wanted.start);
            let ov_end = t.end.min(wanted.end);
            if ov_end <= ov_start {
                continue;
            }
            let spectral = wanted.channel.overlap(t.channel);
            if spectral <= 0.0 {
                continue;
            }
            let time_frac = (ov_end - ov_start).as_secs_f64() / dur;
            let p_dbm = env.received_dbm(t.tx_dbm, t.src.key(), t.src_pos, listener.key(), pos);
            interferers.push((p_dbm, spectral * time_frac.min(1.0)));
        }
        Some(env.sinr_db(signal_dbm, &interferers))
    }

    /// Was `listener` itself transmitting at any point during `[start, end)`?
    /// (Half-duplex radios cannot receive while transmitting.)
    pub fn was_transmitting(&self, listener: NodeId, start: SimTime, end: SimTime) -> bool {
        self.txs
            .iter()
            .any(|t| t.src == listener && t.start < end && t.end > start)
    }

    /// Linear interference power (mW) present at `pos` on `channel` at `now`
    /// — used by diagnostics and tests.
    pub fn interference_mw(
        &self,
        env: &RadioEnvironment,
        listener: NodeId,
        pos: Point,
        channel: Channel,
        now: SimTime,
    ) -> f64 {
        self.txs
            .iter()
            .filter(|t| t.src != listener && t.start <= now && t.end > now)
            .map(|t| {
                let ov = channel.overlap(t.channel);
                dbm_to_mw(env.received_dbm(t.tx_dbm, t.src.key(), t.src_pos, listener.key(), pos))
                    * ov
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Address, FrameKind};
    use bytes::Bytes;

    fn env() -> RadioEnvironment {
        RadioEnvironment {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        }
    }

    fn tx(src: u32, x: f64, ch: Channel, start_ns: u64, end_ns: u64) -> Transmission {
        Transmission {
            id: TxId(0),
            src: NodeId(src),
            src_pos: Point::new(x, 0.0),
            channel: ch,
            tx_dbm: 15.0,
            rate: Rate::R2,
            start: SimTime::from_nanos(start_ns),
            end: SimTime::from_nanos(end_ns),
            frame: Frame {
                src: NodeId(src),
                dst: Address::Broadcast,
                kind: FrameKind::Data,
                seq: 0,
                payload: Bytes::new(),
            },
        }
    }

    #[test]
    fn begin_assigns_monotone_ids() {
        let mut m = Medium::new();
        let a = m.begin(tx(1, 0.0, Channel::CH6, 0, 100));
        let b = m.begin(tx(2, 5.0, Channel::CH6, 0, 100));
        assert!(b.0 > a.0);
        assert!(m.get(a).is_some());
        assert!(m.get(TxId(99)).is_none());
    }

    #[test]
    fn nearby_cochannel_tx_is_sensed() {
        let mut m = Medium::new();
        m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        let busy = m.busy_for(
            &env(),
            NodeId(2),
            Point::new(5.0, 0.0),
            Channel::CH6,
            SimTime::from_nanos(500),
        );
        assert_eq!(busy, Some(SimTime::from_nanos(1_000_000)));
    }

    #[test]
    fn distant_tx_is_not_sensed() {
        let mut m = Medium::new();
        m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        // At n=3.0 path loss, 15 dBm at ~500 m is far below −82 dBm.
        let busy = m.busy_for(
            &env(),
            NodeId(2),
            Point::new(500.0, 0.0),
            Channel::CH6,
            SimTime::from_nanos(500),
        );
        assert_eq!(busy, None);
    }

    #[test]
    fn orthogonal_channel_is_not_sensed() {
        let mut m = Medium::new();
        m.begin(tx(1, 0.0, Channel::CH1, 0, 1_000_000));
        let busy = m.busy_for(
            &env(),
            NodeId(2),
            Point::new(2.0, 0.0),
            Channel::CH6,
            SimTime::from_nanos(500),
        );
        assert_eq!(busy, None);
    }

    #[test]
    fn own_transmission_always_busy() {
        let mut m = Medium::new();
        m.begin(tx(1, 0.0, Channel::CH1, 0, 1_000_000));
        // Even on an orthogonal channel, your own PA blinds you.
        let busy = m.busy_for(
            &env(),
            NodeId(1),
            Point::new(0.0, 0.0),
            Channel::CH11,
            SimTime::from_nanos(10),
        );
        assert!(busy.is_some());
    }

    #[test]
    fn ended_tx_not_busy() {
        let mut m = Medium::new();
        m.begin(tx(1, 0.0, Channel::CH6, 0, 100));
        let busy = m.busy_for(
            &env(),
            NodeId(2),
            Point::new(2.0, 0.0),
            Channel::CH6,
            SimTime::from_nanos(100),
        );
        assert_eq!(busy, None);
    }

    #[test]
    fn sinr_clean_link_is_high() {
        let mut m = Medium::new();
        let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        let sinr = m
            .sinr_for(&env(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        assert!(sinr > 20.0, "clean 5 m link should be strong: {sinr}");
    }

    #[test]
    fn overlapping_tx_degrades_sinr() {
        let mut m = Medium::new();
        let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        let clean = m
            .sinr_for(&env(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        m.begin(tx(3, 10.0, Channel::CH6, 0, 1_000_000));
        let jammed = m
            .sinr_for(&env(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        assert!(jammed < clean - 10.0, "{clean} -> {jammed}");
    }

    #[test]
    fn partial_time_overlap_scales_interference() {
        let mut m = Medium::new();
        let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        m.begin(tx(3, 10.0, Channel::CH6, 900_000, 1_900_000)); // 10% overlap
        let slight = m
            .sinr_for(&env(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        let mut m2 = Medium::new();
        let id2 = m2.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        m2.begin(tx(3, 10.0, Channel::CH6, 0, 1_000_000)); // full overlap
        let full = m2
            .sinr_for(&env(), id2, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        assert!(slight > full, "partial {slight} vs full {full}");
    }

    #[test]
    fn adjacent_channel_interference_is_attenuated() {
        let co = {
            let mut m = Medium::new();
            let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
            m.begin(tx(3, 10.0, Channel::CH6, 0, 1_000_000));
            m.sinr_for(&env(), id, NodeId(2), Point::new(5.0, 0.0)).unwrap()
        };
        let adj = {
            let mut m = Medium::new();
            let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
            m.begin(tx(3, 10.0, Channel::new(8), 0, 1_000_000));
            m.sinr_for(&env(), id, NodeId(2), Point::new(5.0, 0.0)).unwrap()
        };
        assert!(adj > co, "adjacent-channel should hurt less: {adj} vs {co}");
    }

    #[test]
    fn half_duplex_detection() {
        let mut m = Medium::new();
        m.begin(tx(7, 0.0, Channel::CH6, 100, 200));
        assert!(m.was_transmitting(NodeId(7), SimTime::from_nanos(150), SimTime::from_nanos(300)));
        assert!(!m.was_transmitting(NodeId(7), SimTime::from_nanos(200), SimTime::from_nanos(300)));
        assert!(!m.was_transmitting(NodeId(8), SimTime::from_nanos(150), SimTime::from_nanos(300)));
    }

    #[test]
    fn prune_removes_stale_transmissions() {
        let mut m = Medium::new();
        m.begin(tx(1, 0.0, Channel::CH6, 0, 100));
        m.begin(tx(2, 0.0, Channel::CH6, 0, 10_000));
        m.prune(SimTime::from_nanos(5_000));
        assert_eq!(m.retained(), 1);
    }

    #[test]
    fn interference_power_sums_sources() {
        let mut m = Medium::new();
        let e = env();
        let p = Point::new(5.0, 0.0);
        let t = SimTime::from_nanos(50);
        assert_eq!(m.interference_mw(&e, NodeId(9), p, Channel::CH6, t), 0.0);
        m.begin(tx(1, 0.0, Channel::CH6, 0, 100));
        let one = m.interference_mw(&e, NodeId(9), p, Channel::CH6, t);
        m.begin(tx(2, 10.0, Channel::CH6, 0, 100));
        let two = m.interference_mw(&e, NodeId(9), p, Channel::CH6, t);
        assert!(two > one && one > 0.0);
    }
}
