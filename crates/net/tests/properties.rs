//! Property-based tests for the WLAN simulator: end-to-end payload
//! integrity and conservation laws over random small topologies.

use aroma_env::radio::{Channel, RadioEnvironment};
use aroma_env::space::Point;
use aroma_net::links::LinkTable;
use aroma_net::medium::{Medium, Transmission, TxId};
use aroma_net::phy::CS_THRESHOLD_DBM;
use aroma_net::{
    Address, Frame, FrameKind, MacConfig, NetApp, NetCtx, Network, NodeConfig, NodeId, Rate,
};
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeSet;

#[derive(Default)]
struct Recorder {
    received: Vec<(NodeId, Vec<u8>)>,
}
impl NetApp for Recorder {
    fn on_packet(&mut self, _ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        self.received.push((from, payload.to_vec()));
    }
}

struct ScriptedSender {
    dst: NodeId,
    payloads: Vec<Vec<u8>>,
    accepted: usize,
    completed: usize,
    failed: usize,
}
impl NetApp for ScriptedSender {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        for p in &self.payloads {
            if ctx.send(Address::Node(self.dst), Bytes::from(p.clone())) {
                self.accepted += 1;
            }
        }
    }
    fn on_sent(&mut self, _ctx: &mut NetCtx<'_>, _to: Address) {
        self.completed += 1;
    }
    fn on_send_failed(&mut self, _ctx: &mut NetCtx<'_>, _to: NodeId, _p: &Bytes) {
        self.failed += 1;
    }
}

fn quiet() -> RadioEnvironment {
    RadioEnvironment {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Payload integrity and ordering: everything delivered arrived intact,
    /// in send order, and delivered + failed = accepted after quiescence.
    #[test]
    fn delivery_integrity(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..12),
        distance in 1.0f64..30.0,
        seed in any::<u64>(),
    ) {
        let mut net = Network::new(quiet(), MacConfig::default(), seed);
        let rx = net.add_node(
            NodeConfig::at(Point::new(distance, 0.0)),
            Box::new(Recorder::default()),
        );
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(ScriptedSender {
                dst: rx,
                payloads: payloads.clone(),
                accepted: 0,
                completed: 0,
                failed: 0,
            }),
        );
        net.run_for(SimDuration::from_secs(5));
        let recv = net.app_as::<Recorder>(rx).unwrap();
        let send = net.app_as::<ScriptedSender>(tx).unwrap();

        // Conservation.
        prop_assert_eq!(send.completed + send.failed, send.accepted);
        // At close range everything gets through.
        prop_assert_eq!(send.failed, 0, "clean {}m link dropped frames", distance);
        prop_assert_eq!(recv.received.len(), payloads.len());
        // Integrity + FIFO order (single MAC queue).
        for (got, sent) in recv.received.iter().zip(&payloads) {
            prop_assert_eq!(&got.1, sent);
            prop_assert_eq!(got.0, tx);
        }
    }

    /// Attaching the telemetry recorder neither perturbs the simulation
    /// nor breaks determinism: the same seed gives the same deliveries as
    /// the recorder-off run and byte-identical traces and metrics across
    /// repeats (wall-clock profile excluded).
    #[test]
    fn traced_runs_are_seed_stable(
        n_payloads in 1usize..10,
        distance in 1.0f64..25.0,
        seed in any::<u64>(),
    ) {
        use aroma_sim::telemetry::TelemetryConfig;
        let run = |attach: bool| {
            let mut net = Network::new(quiet(), MacConfig::default(), seed);
            if attach {
                net.attach_telemetry(TelemetryConfig::default());
            }
            let rx = net.add_node(
                NodeConfig::at(Point::new(distance, 0.0)),
                Box::new(Recorder::default()),
            );
            net.add_node(
                NodeConfig::at(Point::new(0.0, 0.0)),
                Box::new(ScriptedSender {
                    dst: rx,
                    payloads: vec![vec![0xA5u8; 64]; n_payloads],
                    accepted: 0,
                    completed: 0,
                    failed: 0,
                }),
            );
            net.run_for(SimDuration::from_secs(3));
            let delivered = net.app_as::<Recorder>(rx).unwrap().received.len();
            (delivered, net.telemetry_snapshot())
        };
        let (d0, off) = run(false);
        let (d1, s1) = run(true);
        let (d2, s2) = run(true);
        prop_assert!(off.is_none());
        prop_assert_eq!(d0, d1);
        prop_assert_eq!(d1, d2);
        let (s1, s2) = (s1.unwrap(), s2.unwrap());
        prop_assert!(s1.deterministic_eq(&s2));
        prop_assert_eq!(s1.counter("net.rx.delivered"), d1 as u64);
    }

    /// In fault-free worlds of several senders contending for one receiver,
    /// every `AckTimeout` event that fires is a real timeout: one is armed
    /// only when no ACK is coming or the ACK was lost.
    #[test]
    fn every_ack_timeout_event_is_a_real_timeout(
        senders in prop::collection::vec((0.0f64..30.0, 0.0f64..30.0, 1usize..8), 1..5),
        seed in any::<u64>(),
    ) {
        use aroma_sim::telemetry::TelemetryConfig;
        let mut net = Network::new(quiet(), MacConfig::default(), seed);
        net.attach_telemetry(TelemetryConfig::metrics_only());
        let rx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(Recorder::default()),
        );
        for &(x, y, n) in &senders {
            net.add_node(
                NodeConfig::at(Point::new(x, y)),
                Box::new(ScriptedSender {
                    dst: rx,
                    payloads: vec![vec![0x3Cu8; 200]; n],
                    accepted: 0,
                    completed: 0,
                    failed: 0,
                }),
            );
        }
        net.run_for(SimDuration::from_secs(3));
        let snap = net.telemetry_snapshot().unwrap();
        let events = snap
            .profile
            .iter()
            .find(|h| h.name == "AckTimeout")
            .map_or(0, |h| h.calls);
        prop_assert_eq!(events, snap.counter("net.mac.ack_timeouts"));
    }

    /// Broadcast reaches every in-range node exactly once; no duplicates
    /// are ever delivered.
    #[test]
    fn broadcast_exactly_once(n_receivers in 1usize..6, seed in any::<u64>()) {
        let mut net = Network::new(quiet(), MacConfig::default(), seed);
        let mut rxs = Vec::new();
        for i in 0..n_receivers {
            rxs.push(net.add_node(
                NodeConfig::at(Point::new(2.0 + i as f64, 1.0)),
                Box::new(Recorder::default()),
            ));
        }
        struct OneBroadcast;
        impl NetApp for OneBroadcast {
            fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.send(Address::Broadcast, Bytes::from_static(b"hello"));
            }
        }
        net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(OneBroadcast));
        net.run_for(SimDuration::from_secs(1));
        for rx in rxs {
            let r = net.app_as::<Recorder>(rx).unwrap();
            prop_assert_eq!(r.received.len(), 1, "node {} got {} copies", rx, r.received.len());
        }
    }

    /// Channel isolation: traffic on channel 1 is never delivered to a node
    /// listening on channel 11.
    #[test]
    fn orthogonal_channels_isolate(seed in any::<u64>(), dist in 1.0f64..20.0) {
        let mut net = Network::new(quiet(), MacConfig::default(), seed);
        let rx = net.add_node(
            NodeConfig::at_on(Point::new(dist, 0.0), Channel::CH11),
            Box::new(Recorder::default()),
        );
        struct Shouter;
        impl NetApp for Shouter {
            fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
                for _ in 0..5 {
                    ctx.send(Address::Broadcast, Bytes::from_static(b"ch1"));
                }
            }
        }
        net.add_node(
            NodeConfig::at_on(Point::new(0.0, 0.0), Channel::CH1),
            Box::new(Shouter),
        );
        net.run_for(SimDuration::from_secs(1));
        prop_assert_eq!(net.app_as::<Recorder>(rx).unwrap().received.len(), 0);
    }
}

/// Carrier sense by a full scan of every retained transmission, each power
/// straight from `RadioEnvironment`: the reference for `Medium::busy_for`,
/// which skips a watermarked prefix and reads its powers from a link table.
fn busy_reference(
    txs: &[Transmission],
    env: &RadioEnvironment,
    listener: NodeId,
    pos: Point,
    channel: Channel,
    now: SimTime,
) -> Option<SimTime> {
    txs.iter()
        .filter(|t| t.start < now && now < t.end)
        .filter(|t| {
            let overlap = channel.overlap(t.channel);
            t.src == listener
                || overlap > 0.0
                    && env.received_dbm(t.tx_dbm, t.src.key(), t.src_pos, listener.key(), pos)
                        + 10.0 * overlap.log10()
                        >= CS_THRESHOLD_DBM
        })
        .map(|t| t.end)
        .max()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `busy_for` answers exactly what a full scan of every transmission
    /// ever registered answers, over random transmissions (short and long,
    /// on overlapping channels, some starting later than the clock),
    /// non-decreasing query times and interleaved prunes. Nodes at home
    /// are where the link table places them, so their links come from the
    /// table; elsewhere the table computes them directly.
    #[test]
    fn busy_for_matches_full_scan(
        ops in prop::collection::vec(
            (0u8..10, 0u32..6, 0.0f64..80.0, 1u8..=11, 0u64..3_000, 1u64..40_000, any::<bool>()),
            1..300,
        ),
    ) {
        let env = quiet();
        let home = |node: u32| Point::new(f64::from(node) * 13.0, 0.0);
        let mut links = LinkTable::new(env.clone());
        for node in 0..6 {
            links.add_node(home(node));
        }
        let mut medium = Medium::new();
        let mut mirror: Vec<Transmission> = Vec::new();
        let mut now = SimTime::ZERO;
        for (kind, node, x, ch, dt, len, at_home) in ops {
            now += SimDuration::from_nanos(dt);
            let pos = if at_home { home(node) } else { Point::new(x, 0.0) };
            let (src, channel) = (NodeId(node), Channel::new(ch));
            match kind {
                0..=5 => {
                    // Data frames start now, ACKs a SIFS later.
                    let start = now + SimDuration::from_nanos(if kind == 0 { 10_000 } else { 0 });
                    let mut tx = Transmission {
                        id: TxId(0),
                        src,
                        src_pos: pos,
                        channel,
                        tx_dbm: 15.0,
                        rate: Rate::R2,
                        start,
                        end: start + SimDuration::from_nanos(len),
                        frame: Frame {
                            src,
                            dst: Address::Broadcast,
                            kind: FrameKind::Data,
                            seq: 0,
                            payload: Bytes::new(),
                        },
                    };
                    tx.id = medium.begin(tx.clone());
                    mirror.push(tx);
                }
                6..=8 => {
                    let want = busy_reference(&mirror, &env, src, pos, channel, now);
                    prop_assert_eq!(medium.busy_for(&mut links, src, pos, channel, now), want);
                }
                _ => medium.prune(now),
            }
        }
    }

    /// Pruning at every frame end loses nothing a later query needs: at
    /// each end, in end order as the network handles them (same-instant
    /// ends included), `sinr_for` and `was_transmitting` answer bit for bit
    /// what a never-pruned mirror answers, for every listener. The pruned
    /// medium reads its powers from a link table that knows the six nodes
    /// (senders at home hit it), the mirror from a table that knows none,
    /// and both SINRs must equal `sinr_reference` over every transmission.
    /// `sinr_bounds` must agree between the two and hold that SINR: the
    /// random channels give partial spectral overlaps, and the bounds and
    /// `sinr_for` must walk the same interferers.
    #[test]
    fn sinr_and_half_duplex_match_a_never_pruned_mirror(
        ops in prop::collection::vec(
            (any::<bool>(), 0u32..6, 0.0f64..60.0, 1u8..=11, 0u64..400, 1u64..40, any::<bool>()),
            1..150,
        ),
    ) {
        let env = RadioEnvironment::default();
        let home = |node: u32| Point::new(f64::from(node) * 7.0, 3.0);
        let (mut links, mut direct) = (LinkTable::new(env.clone()), LinkTable::new(env.clone()));
        for node in 0..6 {
            links.add_node(home(node));
        }
        let (mut medium, mut mirror) = (Medium::new(), Medium::new());
        let mut all: Vec<Transmission> = Vec::new();
        let mut ends = BTreeSet::new();
        let mut now = SimTime::ZERO;
        let ack = SimDuration::from_micros(300);
        // End every frame due by `until`, checking each against the mirror
        // and then pruning as `TxEnd` does.
        let mut end_frames = |medium: &mut Medium,
                              mirror: &Medium,
                              all: &[Transmission],
                              ends: &mut BTreeSet<(SimTime, TxId)>,
                              until: SimTime| {
            while let Some((end, id)) = ends.pop_first() {
                if end > until {
                    ends.insert((end, id));
                    break;
                }
                let t = mirror.get(id).unwrap();
                assert_eq!(medium.get(id).map(|m| m.end), Some(end));
                for node in 0..6 {
                    let (rx, pos) = (NodeId(node), home(node));
                    let (got, want) = (
                        medium.sinr_for(&mut links, t.id, rx, pos),
                        mirror.sinr_for(&mut direct, t.id, rx, pos),
                    );
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
                    let reference = sinr_reference(all, &env, t, rx, pos);
                    assert_eq!(got.map(f64::to_bits), Some(reference.to_bits()));
                    // The bounds walk the same interferers, and hold the SINR.
                    let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
                    let bounds = medium.sinr_bounds(&mut links, t.id, rx, pos);
                    assert_eq!(
                        bounds.map(bits),
                        mirror.sinr_bounds(&mut direct, t.id, rx, pos).map(bits)
                    );
                    let (lo, hi) = bounds.unwrap();
                    assert!(lo <= reference && reference <= hi, "{lo} <= {reference} <= {hi}");
                    assert_eq!(
                        medium.was_transmitting(rx, t.start, t.end),
                        mirror.was_transmitting(rx, t.start, t.end)
                    );
                    assert_eq!(
                        medium.was_transmitting(rx, end, end + ack),
                        mirror.was_transmitting(rx, end, end + ack)
                    );
                }
                medium.prune(end);
            }
        };
        for (is_ack, node, x, ch, dt, len, at_home) in ops {
            let target = now + SimDuration::from_micros(dt);
            end_frames(&mut medium, &mirror, &all, &mut ends, target);
            now = target;
            // Data frames start now, ACKs a SIFS later; lengths are whole
            // 10-µs steps so that ends often coincide.
            let start = now + SimDuration::from_micros(if is_ack { 10 } else { 0 });
            let (src, channel) = (NodeId(node), Channel::new(ch));
            let mut tx = Transmission {
                id: TxId(0),
                src,
                src_pos: if at_home { home(node) } else { Point::new(x, 0.0) },
                channel,
                tx_dbm: 15.0,
                rate: Rate::R2,
                start,
                end: start + SimDuration::from_micros(len * 10),
                frame: Frame {
                    src,
                    dst: Address::Broadcast,
                    kind: FrameKind::Data,
                    seq: 0,
                    payload: Bytes::new(),
                },
            };
            let id = medium.begin(tx.clone());
            prop_assert_eq!(mirror.begin(tx.clone()), id);
            ends.insert((tx.end, id));
            tx.id = id;
            all.push(tx);
        }
        end_frames(&mut medium, &mirror, &all, &mut ends, SimTime::MAX);
        // Once every frame has ended, the next prune empties the medium.
        medium.prune(SimTime::MAX);
        prop_assert_eq!(medium.retained(), 0);
    }
}

/// `Medium::sinr_for` straight from `RadioEnvironment`: every other
/// transmission in `txs` that overlaps `wanted`, each power from
/// `received_dbm`, collected and handed to `sinr_db`.
fn sinr_reference(
    txs: &[Transmission],
    env: &RadioEnvironment,
    wanted: &Transmission,
    listener: NodeId,
    pos: Point,
) -> f64 {
    let power =
        |t: &Transmission| env.received_dbm(t.tx_dbm, t.src.key(), t.src_pos, listener.key(), pos);
    let dur = (wanted.end - wanted.start).as_secs_f64().max(1e-12);
    let interferers: Vec<(f64, f64)> = txs
        .iter()
        .filter(|t| t.id != wanted.id && t.src != listener)
        .filter_map(|t| {
            let (ov_start, ov_end) = (t.start.max(wanted.start), t.end.min(wanted.end));
            let spectral = wanted.channel.overlap(t.channel);
            (ov_end > ov_start && spectral > 0.0).then(|| {
                let time_frac = (ov_end - ov_start).as_secs_f64() / dur;
                (power(t), spectral * time_frac.min(1.0))
            })
        })
        .collect();
    env.sinr_db(power(wanted), &interferers)
}

/// The event loop's `Instant::now` reads (`Network::run_events` around
/// each run, `Network::dispatch_timed` around each sampled event) are
/// waived with `lint:allow(sim-wall-clock)` on the claim that their nanos
/// feed ONLY the snapshot's handler profile, which `deterministic_eq`
/// excludes. Pin that claim: two traced runs of the same seed record real
/// (and almost surely different) wall-clock handler timings, yet must
/// compare `deterministic_eq` — and the profile must actually be
/// populated, with more events than one sampling stride, so the waived
/// sites are known to be on the profile-only path this test pins.
#[test]
fn traced_profile_never_reaches_deterministic_sections() {
    use aroma_sim::telemetry::TelemetryConfig;
    let run = || {
        let mut net = Network::new(quiet(), MacConfig::default(), 42);
        net.attach_telemetry(TelemetryConfig::default());
        let rx = net.add_node(
            NodeConfig::at(Point::new(5.0, 0.0)),
            Box::new(Recorder::default()),
        );
        net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(ScriptedSender {
                dst: rx,
                payloads: vec![vec![0x5Au8; 64]; 8],
                accepted: 0,
                completed: 0,
                failed: 0,
            }),
        );
        net.run_for(SimDuration::from_secs(2));
        net.telemetry_snapshot().expect("telemetry attached")
    };
    let (a, b) = (run(), run());
    let events: u64 = a.profile.iter().map(|p| p.calls).sum();
    assert!(
        events > 32,
        "dispatch profiling counted {events} events, too few for a timed sample — the waiver's premise is gone"
    );
    assert!(
        a.deterministic_eq(&b),
        "wall-clock profiling leaked into a deterministic_eq-compared section"
    );
}
