//! The event-driven backoff countdown against the per-slot loop it
//! replaced, the link table against the direct computation it replaced,
//! the event loop's sampled self-profile against timing every event, and
//! bounds-first reception against the exact SINR and PER it skips.
//! `Core::per_slot` replays that loop: it also ticks every counting node
//! at each of its slot boundaries, so every tick folds in no skipped slot.
//! With it off, only a countdown's end and its wakes tick.
//! `LinkTable::direct` computes every link's path loss afresh at every
//! query, `LoopProfile::every_event` times every event, and
//! `Core::exact_reception` decides every reception the exact way. Each
//! reference must simulate the same run, event for event.

use super::*;
use crate::traffic::{CountingSink, PoissonSource, SaturatedSource};
use aroma_env::space::{Material, Wall};
use aroma_sim::faults::{random_storm, StormConfig};

/// Random worlds the differential test runs, each in both modes.
const WORLDS: u64 = 100;

/// Every random world runs until this instant.
const HORIZON: SimTime = SimTime::from_nanos(300_000_000);

/// Everything a run must reproduce: the MAC trace and every metric, the
/// traffic counters and the fault plane's counters.
struct Run {
    snapshot: Snapshot,
    stats: String,
    faults: String,
    mac_ticks: u64,
}

fn traced(env: RadioEnvironment, cfg: MacConfig, seed: u64, per_slot: bool) -> Network {
    let mut net = Network::new(env, cfg, seed);
    net.core.per_slot = per_slot;
    net.attach_telemetry(TelemetryConfig {
        ring_capacity: 1 << 16,
    });
    net
}

fn finish(net: &Network) -> Run {
    let snapshot = net.telemetry_snapshot().expect("telemetry attached");
    let mac_ticks = snapshot
        .profile
        .iter()
        .find(|p| p.name == "MacTick")
        .map_or(0, |p| p.calls);
    Run {
        stats: format!("{:?}", net.stats()),
        faults: format!("{:?}", net.fault_stats()),
        mac_ticks,
        snapshot,
    }
}

fn assert_same(fast: &Run, slow: &Run, what: &str) {
    assert_eq!(fast.stats, slow.stats, "{what}: traffic counters differ");
    assert_eq!(fast.faults, slow.faults, "{what}: fault counters differ");
    assert!(
        fast.snapshot.deterministic_eq(&slow.snapshot),
        "{what}: MAC trace or metrics differ"
    );
}

/// Random world `seed`, run to [`HORIZON`].
fn random_world(seed: u64, reference: fn(&mut Core)) -> Run {
    let mut net = build_world(seed, reference);
    net.run_until(HORIZON);
    finish(&net)
}

/// Random world `seed`, traced and not yet run: 3–24 nodes on channels
/// 1/3/6/8/11 in a 120 × 60 m hall (so some are hidden from each other)
/// with 0–3 walls, with or without shadowing; sinks and unicast, broadcast
/// and saturated sources; about a third of the nodes walk, re-sampled every
/// 2 to 250 slots; half the worlds get a fault storm; and the default, a
/// 9-µs-slot or a small-CW MAC timing. `reference` switches a reference
/// mode on.
fn build_world(seed: u64, reference: fn(&mut Core)) -> Network {
    let mut rng = SimRng::new(seed);
    let cfg = match rng.below(3) {
        0 => MacConfig::default(),
        1 => MacConfig {
            slot: SimDuration::from_micros(9),
            difs: SimDuration::from_micros(28),
            ..MacConfig::default()
        },
        _ => MacConfig {
            cw_min: 3,
            cw_max: 15,
            ..MacConfig::default()
        },
    };
    let place =
        |rng: &mut SimRng| Point::new(rng.uniform_range(0.0, 120.0), rng.uniform_range(0.0, 60.0));
    let materials = [Material::Drywall, Material::Brick, Material::Concrete];
    let env = RadioEnvironment {
        shadowing_sigma_db: if rng.chance(0.5) { 0.0 } else { 6.0 },
        shadowing_seed: rng.next_u64_raw(),
        walls: (0..rng.below(4))
            .map(|_| {
                let (a, b) = (place(&mut rng), place(&mut rng));
                Wall::new(a, b, materials[rng.below(3) as usize])
            })
            .collect(),
        ..RadioEnvironment::default()
    };
    let mut net = traced(env, cfg, seed, false);
    reference(&mut net.core);
    let n = 3 + rng.below(22) as u32;
    for i in 0..n {
        let channel = Channel::new([1, 3, 6, 8, 11][rng.below(5) as usize]);
        let mut nc = NodeConfig::at_on(place(&mut rng), channel);
        if rng.chance(0.3) {
            let start = SimTime::from_nanos(rng.below(HORIZON.as_nanos()));
            let walk = SimDuration::from_micros(100 + rng.below(40_000));
            let mut path = MobilityPath::line(nc.pos, place(&mut rng), start, walk);
            path.update_period = cfg.slot * (2 + rng.below(249));
            nc = nc.moving(path);
        }
        let peer = Address::Node(NodeId((i + 1 + rng.below(u64::from(n) - 1) as u32) % n));
        let bytes = 20 + rng.below(1_400) as usize;
        let app: Box<dyn NetApp> = match rng.below(5) {
            0 => Box::new(CountingSink::default()),
            1 => Box::new(PoissonSource::new(
                peer,
                bytes,
                rng.uniform_range(50.0, 2_000.0),
            )),
            2 => Box::new(PoissonSource::new(
                Address::Broadcast,
                bytes,
                rng.uniform_range(20.0, 500.0),
            )),
            3 => Box::new(SaturatedSource::new(peer, bytes)),
            _ => Box::new(SaturatedSource::new(Address::Broadcast, bytes)),
        };
        net.add_node(nc, app);
    }
    if rng.chance(0.5) {
        let storm = StormConfig {
            episodes: 1 + rng.below(8) as usize,
            min_len: SimDuration::from_millis(1),
            max_len: SimDuration::from_millis(30),
            ..StormConfig::default()
        };
        net.attach_faults(&random_storm(&mut rng, HORIZON, n, &storm));
    }
    net
}

#[test]
fn event_driven_countdown_matches_the_per_slot_loop() {
    let (mut fast_ticks, mut slow_ticks) = (0, 0);
    for seed in 0..WORLDS {
        let fast = random_world(seed, |_| {});
        let slow = random_world(seed, |core| core.per_slot = true);
        assert_same(&fast, &slow, &format!("world {seed}"));
        fast_ticks += fast.mac_ticks;
        slow_ticks += slow.mac_ticks;
    }
    // The countdown really skips slots: far fewer ticks than the loop.
    assert!(
        fast_ticks * 3 < slow_ticks,
        "{fast_ticks} countdown ticks against {slow_ticks} per-slot ticks"
    );
}

#[test]
fn link_table_matches_the_direct_computation() {
    for seed in 0..WORLDS {
        let table = random_world(seed, |_| {});
        let direct = random_world(seed, |core| core.links.direct = true);
        assert_same(&table, &direct, &format!("world {seed}"));
    }
}

#[test]
fn bounded_reception_matches_the_exact_decision() {
    let mut settled = [0; 3];
    for seed in 0..WORLDS {
        let mut net = build_world(seed, |_| {});
        net.run_until(HORIZON);
        for (total, n) in settled.iter_mut().zip(net.core.settled) {
            *total += n;
        }
        let bounded = finish(&net);
        let exact = random_world(seed, |core| core.exact_reception = true);
        assert_same(&bounded, &exact, &format!("world {seed}"));
    }
    // Certain losses, certain survivals and receptions left to the exact
    // path all turned up, so the comparison covered each.
    assert!(
        settled.iter().all(|&n| n > 0),
        "[lost, survived, exact] = {settled:?}"
    );
}

/// Each event kind's `(name, calls)`, by name.
fn calls(run: &Run) -> Vec<(&'static str, u64)> {
    let mut calls: Vec<_> = run
        .snapshot
        .profile
        .iter()
        .map(|h| (h.name, h.calls))
        .collect();
    calls.sort();
    calls
}

/// `net.run_until(until)`, and the host nanoseconds it took.
fn timed_run(net: &mut Network, until: SimTime) -> u64 {
    // lint:allow(sim-wall-clock): the bound the profile is checked against; no simulated output reads it
    let start = std::time::Instant::now();
    net.run_until(until);
    start.elapsed().as_nanos() as u64
}

#[test]
fn sampled_profile_counts_every_event_and_stays_within_the_run() {
    for seed in 0..WORLDS {
        let mut net = build_world(seed, |_| {});
        let wall = timed_run(&mut net, HORIZON);
        let sampled = finish(&net);
        let every = random_world(seed, |core| core.profile.every_event = true);
        let what = format!("world {seed}");
        assert_same(&sampled, &every, &what);
        assert_eq!(
            calls(&sampled),
            calls(&every),
            "{what}: event counts differ"
        );
        let total: u64 = sampled.snapshot.profile.iter().map(|h| h.total_nanos).sum();
        assert!(
            total <= wall,
            "{what}: handlers estimated at {total} ns of a {wall}-ns run"
        );
        for h in &sampled.snapshot.profile {
            assert!(h.mean_nanos.is_finite(), "{what}: {h:?}");
        }
    }
}

#[test]
fn attaching_telemetry_mid_run_counts_only_later_events() {
    let mid = SimTime::from_nanos(HORIZON.as_nanos() / 3);
    for seed in 0..10 {
        let mut whole = build_world(seed, |_| {});
        whole.run_until(mid);
        let before = calls(&finish(&whole));
        whole.run_until(HORIZON);
        let both = finish(&whole);

        let mut late = build_world(seed, |_| {});
        late.run_until(mid);
        late.attach_telemetry(TelemetryConfig::default());
        let wall = timed_run(&mut late, HORIZON);
        let after = finish(&late);

        let earlier = |name| before.iter().find(|b| b.0 == name).map_or(0, |b| b.1);
        let expected: Vec<_> = calls(&both)
            .into_iter()
            .map(|(name, n)| (name, n - earlier(name)))
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(calls(&after), expected, "world {seed}");
        let total: u64 = after.snapshot.profile.iter().map(|h| h.total_nanos).sum();
        assert!(total <= wall, "world {seed}: {total} ns of a {wall}-ns run");
    }
}

#[test]
fn a_run_too_short_to_sample_reads_zero_nanos() {
    let mut net = traced(quiet(), MacConfig::default(), 7, false);
    net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(OneBroadcast));
    net.add_node(
        NodeConfig::at(Point::new(5.0, 0.0)),
        Box::new(CountingSink::default()),
    );
    net.run_until(SimTime::from_nanos(5_000_000));
    let run = finish(&net);
    let events: u64 = run.snapshot.profile.iter().map(|h| h.calls).sum();
    assert!(
        events > 0 && events < u64::from(PROFILE_STRIDE),
        "{events} events"
    );
    for h in &run.snapshot.profile {
        assert_eq!((h.total_nanos, h.mean_nanos), (0, 0.0), "{h:?}");
    }
}

#[test]
fn handlers_split_the_loop_by_sampled_means_and_leave_the_pops_out() {
    let kind = |name| KIND_NAMES.iter().position(|&n| n == name).unwrap();
    let (fault, tx_end, mac_tick) = (kind("Fault"), kind("TxEnd"), kind("MacTick"));
    let mut profile = LoopProfile::new();
    profile.calls[tx_end] = 10;
    profile.calls[mac_tick] = 28;
    profile.calls[fault] = 2; // never timed
    profile.samples[tx_end] = 1;
    profile.sampled_nanos[tx_end] = 40;
    profile.samples[mac_tick] = 1;
    profile.sampled_nanos[mac_tick] = 10;
    // Pops average 2.5 ns: 100 ns over 40 events. The estimates sum to
    // 400 + 280 + 100 = 780 ns, half the loop's measured 1,560.
    profile.pop_nanos = 5;
    profile.loop_nanos = 1_560;
    let entries: Vec<_> = profile
        .handlers()
        .map(|h| (h.name, h.calls, h.total_nanos, h.mean_nanos))
        .collect();
    assert_eq!(
        entries,
        vec![
            ("Fault", 2, 0, 0.0),
            ("TxEnd", 10, 800, 80.0),
            ("MacTick", 28, 560, 20.0),
        ]
    );
}

/// Broadcasts one frame from `on_start` (and again after a restart).
struct OneBroadcast;

impl NetApp for OneBroadcast {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        ctx.send(Address::Broadcast, Bytes::from_static(b"countdown"));
    }
}

fn quiet() -> RadioEnvironment {
    RadioEnvironment {
        shadowing_sigma_db: 0.0,
        ..RadioEnvironment::default()
    }
}

/// Start instants (µs) of every data frame `node` put on the air.
fn transmissions(run: &Run, node: NodeId) -> Vec<u64> {
    run.snapshot
        .trace
        .iter()
        .filter(|e| e.name == "mac.state.transmitting" && e.node == node.0)
        .map(|e| e.t_nanos / 1_000)
        .collect()
}

/// A transmission of 255 µs from `src` at `x` metres, registered now.
fn register(net: &mut Network, src: NodeId, x: f64, start_us: u64) {
    let start = SimTime::from_nanos(start_us * 1_000);
    net.core.begin(Transmission {
        id: TxId(0),
        src,
        src_pos: Point::new(x, 0.0),
        channel: Channel::CH6,
        tx_dbm: 15.0,
        rate: Rate::R2,
        start,
        end: start + SimDuration::from_micros(255),
        frame: Frame {
            src,
            dst: Address::Node(NodeId(0)),
            kind: FrameKind::Ack,
            seq: 0,
            payload: Bytes::new(),
        },
    });
}

/// Node 0 broadcasts from t = 0: a poll at 0 and DIFS up to 50 µs, where
/// its countdown starts. It may walk and a fault schedule may be attached;
/// at 45 µs `setup` may shape the world, and the countdown is pinned at 10
/// slots, so it would end at 250 µs.
fn pinned_countdown(
    per_slot: bool,
    walk: Option<MobilityPath>,
    faults: Option<FaultSchedule>,
    setup: impl Fn(&mut Network),
) -> Run {
    let mut net = traced(quiet(), MacConfig::default(), 7, per_slot);
    let mut nc = NodeConfig::at(Point::new(0.0, 0.0));
    nc.mobility = walk;
    let node = net.add_node(nc, Box::new(OneBroadcast));
    net.add_node(
        NodeConfig::at(Point::new(5.0, 0.0)),
        Box::new(CountingSink::default()),
    );
    net.add_node(
        NodeConfig::at(Point::new(400.0, 0.0)),
        Box::new(CountingSink::default()),
    );
    if let Some(schedule) = faults {
        net.attach_faults(&schedule);
    }
    net.run_until(SimTime::from_nanos(45_000));
    net.core.node(node).mac.state = MacState::Contending {
        remaining: 10,
        counted_at: None,
    };
    setup(&mut net);
    net.run_until(SimTime::from_nanos(5_000_000));
    finish(&net)
}

#[test]
fn ack_registered_before_the_countdown_but_starting_after_it_wakes_it() {
    // At 45 µs node 1 registers an ACK that starts at 55 µs. The countdown
    // starts at 50 µs with the ACK not yet on the air; its first boundary
    // after 55 µs is 70 µs, where the ACK freezes it until 310 µs. Then
    // DIFS, and the 10 slots left: on the air at 560 µs, not 250 µs.
    let ack = |net: &mut Network| register(net, NodeId(1), 5.0, 55);
    let fast = pinned_countdown(false, None, None, ack);
    let slow = pinned_countdown(true, None, None, ack);
    assert_same(&fast, &slow, "pending ACK");
    assert_eq!(transmissions(&fast, NodeId(0)), vec![560]);
}

#[test]
fn moving_into_carrier_sense_range_mid_countdown_wakes_it() {
    // At 45 µs node 2, out of range 400 m away, starts a frame that ends
    // at 300 µs. Node 0 walks next to it at 101 µs; the position is
    // re-sampled at 130 µs, a boundary, where the frame freezes the
    // countdown with 7 slots left. Resumed after 300 µs + DIFS: 490 µs.
    let far = |net: &mut Network| register(net, NodeId(2), 400.0, 45);
    let walk = || {
        Some(MobilityPath {
            waypoints: vec![
                (SimTime::from_nanos(100_000), Point::new(0.0, 0.0)),
                (SimTime::from_nanos(101_000), Point::new(395.0, 0.0)),
            ],
            update_period: SimDuration::from_micros(130),
        })
    };
    let fast = pinned_countdown(false, walk(), None, far);
    let slow = pinned_countdown(true, walk(), None, far);
    assert_same(&fast, &slow, "walk into range");
    assert_eq!(transmissions(&fast, NodeId(0)), vec![490]);
    // Standing still, the far frame is never sensed.
    let still = pinned_countdown(false, None, None, far);
    assert_eq!(transmissions(&still, NodeId(0)), vec![250]);
}

#[test]
fn moving_into_range_of_a_registered_ack_wakes_it() {
    // At 60 µs, mid-countdown, node 2 (out of range) registers an ACK that
    // starts at 75 µs. Node 0 walks next to it at 66 µs, re-sampled at
    // 70 µs: still idle there, but the ACK, now sensed, freezes the
    // countdown at 90 µs with 9 slots left until it ends at 330 µs. With
    // DIFS: on the air at 560 µs.
    let late_ack = |net: &mut Network| {
        net.run_until(SimTime::from_nanos(60_000));
        register(net, NodeId(2), 400.0, 75);
    };
    let walk = || {
        Some(MobilityPath {
            waypoints: vec![
                (SimTime::from_nanos(65_000), Point::new(0.0, 0.0)),
                (SimTime::from_nanos(66_000), Point::new(395.0, 0.0)),
            ],
            update_period: SimDuration::from_micros(70),
        })
    };
    let fast = pinned_countdown(false, walk(), None, late_ack);
    let slow = pinned_countdown(true, walk(), None, late_ack);
    assert_same(&fast, &slow, "walk into range of an ACK");
    assert_eq!(transmissions(&fast, NodeId(0)), vec![560]);
}

#[test]
fn crash_mid_countdown_retires_its_ticks() {
    // Node 0 loses power at 100 µs, mid-countdown, and is back at 200 µs.
    // Its restarted app sends again, so a new DIFS ends at 250 µs, the
    // instant the dead countdown's end tick was due: that stale tick must
    // not transmit, and only the new countdown's frame goes out.
    let crash = || {
        Some(
            FaultSchedule::builder(3)
                .crash_restart(100_000, 200_000, 0)
                .build(),
        )
    };
    // The crash also takes the node off the counting list.
    let counting = |net: &mut Network| {
        net.run_until(SimTime::from_nanos(60_000));
        assert_eq!(net.core.counting, vec![NodeId(0)]);
        net.run_until(SimTime::from_nanos(150_000));
        assert!(net.core.counting.is_empty());
    };
    let fast = pinned_countdown(false, None, crash(), counting);
    let slow = pinned_countdown(true, None, crash(), counting);
    assert_same(&fast, &slow, "crash");
    let sent = transmissions(&fast, NodeId(0));
    assert_eq!(sent.len(), 1, "one frame, from the new countdown: {sent:?}");
    assert!(sent[0] >= 250, "{sent:?}");
    assert_eq!(fast.faults, slow.faults);
    assert!(fast.faults.contains("node_crashes: 1"), "{}", fast.faults);
}
