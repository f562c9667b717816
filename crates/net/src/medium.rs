//! The shared radio medium: who is on the air, and what each receiver hears.
//!
//! Keeps the set of in-flight transmissions, plus the finished ones that
//! overlap them, so that, when a frame ends, the receiver's SINR can be
//! integrated over every overlapping transmission — co-channel or partially
//! overlapping channels — using the propagation model from `aroma-env`.
//! Carrier sense queries run against the same bookkeeping, so hidden
//! terminals (out of CS range but in interference range of the receiver)
//! arise naturally. Every received power comes from the network's
//! [`LinkTable`], which computes each link's path loss once per geometry.
//!
//! A receiver first asks [`Medium::sinr_bounds`] for an interval on its
//! SINR: the wanted signal, how many transmissions interfere and the
//! strongest of them, all link-table lookups and comparisons. Only when
//! that interval cannot settle the loss draw does it ask
//! [`Medium::sinr_for`], which converts every power to mW and sums the
//! weighted interference. Both walk the same interferers.

use crate::frame::{Frame, NodeId};
use crate::links::{interference_mw, LinkTable};
use crate::phy::{Rate, CS_THRESHOLD_DBM};
use aroma_env::radio::Channel;
use aroma_env::space::Point;
use aroma_sim::{SimDuration, SimTime};

/// Identifier of one transmission on the medium, in registration order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
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

/// Does a listener at `pos` on `channel` sense `t`? True when `t` delivers
/// energy above the carrier-sense threshold, weighted by spectral overlap,
/// and always for the listener's own transmission — a radio cannot
/// decrement backoff while its own PA is on. Carrier sense
/// ([`Medium::busy_for`]) and the network's backoff wakes share it.
pub fn senses(
    links: &mut LinkTable,
    t: &Transmission,
    listener: NodeId,
    pos: Point,
    channel: Channel,
) -> bool {
    if t.src == listener {
        return true;
    }
    links
        .overlap_db(channel, t.channel)
        .is_some_and(|overlap_db| {
            links.received_dbm(t.tx_dbm, t.src, t.src_pos, listener, pos) + overlap_db
                >= CS_THRESHOLD_DBM
        })
}

/// Bookkeeping for the shared medium.
#[derive(Debug, Default)]
pub struct Medium {
    /// Registered transmissions in id order: every one that has not ended,
    /// plus the ended ones that overlap them (kept for interference
    /// integration and half-duplex checks).
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

    /// Fetch a transmission by id (it may already have ended). Ids are
    /// handed out in registration order and pruning keeps that order, so
    /// this is a binary search.
    pub fn get(&self, id: TxId) -> Option<&Transmission> {
        let i = self.txs.binary_search_by_key(&id, |t| t.id).ok()?;
        Some(&self.txs[i])
    }

    /// Registered transmissions that start at or after `now` (an ACK is
    /// registered a SIFS before it starts).
    pub fn starting_from(&self, now: SimTime) -> impl Iterator<Item = &Transmission> {
        self.txs.iter().filter(move |t| t.start >= now)
    }

    /// Drop every transmission that can no longer matter at `now` or later:
    /// the horizon is the earliest start of any transmission with
    /// `end >= now` (`>=` keeps those whose same-instant end is not handled
    /// yet), and a transmission that ended before it overlaps none of them,
    /// nor anything registered later. Every SINR, half-duplex and
    /// carrier-sense answer from then on is unchanged.
    pub fn prune(&mut self, now: SimTime) {
        let horizon = self
            .txs
            .iter()
            .filter(|t| t.end >= now)
            .map(|t| t.start)
            .min()
            .unwrap_or(now);
        self.txs.retain(|t| t.end >= horizon);
        self.sensed_floor = 0;
    }

    /// Number of retained transmissions (pruned ones excluded).
    pub fn retained(&self) -> usize {
        self.txs.len()
    }

    /// Is the medium busy for a listener at `pos` on `channel` at `now`?
    /// Returns the latest end of the in-flight transmissions it [`senses`].
    pub fn busy_for(
        &mut self,
        links: &mut LinkTable,
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
            if t.start >= now || t.end <= now || Some(t.end) <= latest {
                continue;
            }
            if senses(links, t, listener, pos, channel) {
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
    /// approximation. The terms are summed in place, in registration order.
    pub fn sinr_for(
        &self,
        links: &mut LinkTable,
        of: TxId,
        listener: NodeId,
        pos: Point,
    ) -> Option<f64> {
        let wanted = self.get(of)?;
        let signal_dbm =
            links.received_dbm(wanted.tx_dbm, wanted.src, wanted.src_pos, listener, pos);
        let dur = (wanted.end - wanted.start).as_secs_f64().max(1e-12);
        let mut interference = 0.0;
        for (t, spectral, overlap) in self.interferers(wanted, listener) {
            let time_frac = overlap.as_secs_f64() / dur;
            let p_dbm = links.received_dbm(t.tx_dbm, t.src, t.src_pos, listener, pos);
            interference += interference_mw(p_dbm, spectral * time_frac.min(1.0));
        }
        Some(links.sinr_db(signal_dbm, interference))
    }

    /// An interval `(lo, hi)` that holds [`Medium::sinr_for`]'s answer for
    /// the same arguments, from the link table's received powers alone (no
    /// dBm–mW conversion, see [`LinkTable::sinr_bounds`]): the wanted
    /// signal, how many transmissions interfere and the strongest of them.
    /// `None` exactly when `sinr_for` is.
    pub fn sinr_bounds(
        &self,
        links: &mut LinkTable,
        of: TxId,
        listener: NodeId,
        pos: Point,
    ) -> Option<(f64, f64)> {
        let wanted = self.get(of)?;
        let signal_dbm =
            links.received_dbm(wanted.tx_dbm, wanted.src, wanted.src_pos, listener, pos);
        let (mut count, mut strongest_dbm) = (0, f64::NEG_INFINITY);
        for (t, ..) in self.interferers(wanted, listener) {
            let p_dbm = links.received_dbm(t.tx_dbm, t.src, t.src_pos, listener, pos);
            count += 1;
            // Once NaN, `strongest_dbm` stays NaN.
            if p_dbm > strongest_dbm || p_dbm.is_nan() {
                strongest_dbm = p_dbm;
            }
        }
        Some(links.sinr_bounds(signal_dbm, count, strongest_dbm))
    }

    /// The transmissions that interfere with `wanted` at `listener`, in
    /// registration order, each with its spectral overlap and how long it
    /// overlaps `wanted`: every one but `wanted` itself and the listener's
    /// own that shares both time and spectrum with it. [`Medium::sinr_for`]
    /// and [`Medium::sinr_bounds`] walk exactly these.
    fn interferers<'a>(
        &'a self,
        wanted: &'a Transmission,
        listener: NodeId,
    ) -> impl Iterator<Item = (&'a Transmission, f64, SimDuration)> + 'a {
        self.txs.iter().filter_map(move |t| {
            if t.id == wanted.id || t.src == listener {
                return None;
            }
            let ov_start = t.start.max(wanted.start);
            let ov_end = t.end.min(wanted.end);
            if ov_end <= ov_start {
                return None;
            }
            let spectral = wanted.channel.overlap(t.channel);
            if spectral <= 0.0 {
                return None;
            }
            Some((t, spectral, ov_end - ov_start))
        })
    }

    /// Was `listener` itself transmitting at any point during `[start, end)`?
    /// (Half-duplex radios cannot receive while transmitting.)
    pub fn was_transmitting(&self, listener: NodeId, start: SimTime, end: SimTime) -> bool {
        self.txs
            .iter()
            .any(|t| t.src == listener && t.start < end && t.end > start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Address, FrameKind};
    use aroma_env::radio::RadioEnvironment;
    use bytes::Bytes;

    /// A table that knows no nodes: every link is computed directly.
    fn links() -> LinkTable {
        LinkTable::new(RadioEnvironment {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        })
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
            &mut links(),
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
            &mut links(),
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
            &mut links(),
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
            &mut links(),
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
            &mut links(),
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
            .sinr_for(&mut links(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        assert!(sinr > 20.0, "clean 5 m link should be strong: {sinr}");
    }

    #[test]
    fn overlapping_tx_degrades_sinr() {
        let mut m = Medium::new();
        let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        let clean = m
            .sinr_for(&mut links(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        m.begin(tx(3, 10.0, Channel::CH6, 0, 1_000_000));
        let jammed = m
            .sinr_for(&mut links(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        assert!(jammed < clean - 10.0, "{clean} -> {jammed}");
    }

    #[test]
    fn partial_time_overlap_scales_interference() {
        let mut m = Medium::new();
        let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        m.begin(tx(3, 10.0, Channel::CH6, 900_000, 1_900_000)); // 10% overlap
        let slight = m
            .sinr_for(&mut links(), id, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        let mut m2 = Medium::new();
        let id2 = m2.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
        m2.begin(tx(3, 10.0, Channel::CH6, 0, 1_000_000)); // full overlap
        let full = m2
            .sinr_for(&mut links(), id2, NodeId(2), Point::new(5.0, 0.0))
            .unwrap();
        assert!(slight > full, "partial {slight} vs full {full}");
    }

    #[test]
    fn adjacent_channel_interference_is_attenuated() {
        let co = {
            let mut m = Medium::new();
            let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
            m.begin(tx(3, 10.0, Channel::CH6, 0, 1_000_000));
            m.sinr_for(&mut links(), id, NodeId(2), Point::new(5.0, 0.0))
                .unwrap()
        };
        let adj = {
            let mut m = Medium::new();
            let id = m.begin(tx(1, 0.0, Channel::CH6, 0, 1_000_000));
            m.begin(tx(3, 10.0, Channel::new(8), 0, 1_000_000));
            m.sinr_for(&mut links(), id, NodeId(2), Point::new(5.0, 0.0))
                .unwrap()
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
    fn prune_keeps_what_overlaps_the_unfinished() {
        let mut m = Medium::new();
        let old = m.begin(tx(1, 0.0, Channel::CH6, 0, 100));
        let overlap = m.begin(tx(2, 0.0, Channel::CH6, 4_000, 6_000));
        let ending = m.begin(tx(3, 0.0, Channel::CH6, 5_000, 8_000));
        let live = m.begin(tx(4, 0.0, Channel::CH6, 7_000, 10_000));
        // At 8 µs the earliest start among `end >= now` is 5 µs: the
        // transmission that ended at 6 µs overlaps it and stays.
        m.prune(SimTime::from_nanos(8_000));
        assert_eq!(m.retained(), 3);
        assert!(m.get(old).is_none());
        assert!(m.get(overlap).is_some() && m.get(ending).is_some());
        // Past 8 µs only the live one and what overlaps it remain.
        m.prune(SimTime::from_nanos(8_001));
        assert_eq!(m.retained(), 2);
        assert!(m.get(overlap).is_none());
        assert_eq!(m.get(live).map(|t| t.src), Some(NodeId(4)));
        // Nothing unfinished: everything goes.
        m.prune(SimTime::from_nanos(10_001));
        assert_eq!(m.retained(), 0);
    }
}
