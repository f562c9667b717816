//! Shape test for the paper's E2 concern: "there are many wireless devices
//! operating in the 2.4 GHz radio band, and the effect of a high
//! concentration of these devices needs to be studied."
//!
//! As co-channel device density grows, per-pair goodput must collapse and
//! contention indicators (ACK timeouts) must rise.

use aroma_env::radio::{Channel, RadioEnvironment};
use aroma_env::space::Point;
use aroma_net::traffic::{CountingSink, SaturatedSource};
use aroma_net::{Address, MacConfig, Network, NodeConfig, NodeId};
use aroma_sim::telemetry::TelemetryConfig;
use aroma_sim::SimDuration;

/// `pairs` saturated sender→receiver pairs around a circle, all
/// co-channel; returns the network and the receivers.
fn density_net(pairs: usize, seed: u64) -> (Network, Vec<NodeId>) {
    let env = RadioEnvironment {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    };
    let mut net = Network::new(env, MacConfig::default(), seed);
    let mut sinks = Vec::new();
    for i in 0..pairs {
        let angle = i as f64 / pairs as f64 * std::f64::consts::TAU;
        let (s, c) = angle.sin_cos();
        // Receivers clustered near the centre, senders on a 5 m circle:
        // interferer paths are comparable to signal paths, so simultaneous
        // transmissions genuinely collide (no capture escape hatch).
        let rx = net.add_node(
            NodeConfig::at_on(Point::new(1.0 * c, 1.0 * s), Channel::CH6),
            Box::new(CountingSink::default()),
        );
        sinks.push(rx);
        net.add_node(
            NodeConfig::at_on(Point::new(5.0 * c, 5.0 * s), Channel::CH6),
            Box::new(SaturatedSource::new(Address::Node(rx), 1000)),
        );
    }
    (net, sinks)
}

/// Run [`density_net`] for 1 s, return (aggregate goodput bps, per-pair
/// goodput bps, ack timeouts).
fn run_density(pairs: usize, seed: u64) -> (f64, f64, u64) {
    let (mut net, sinks) = density_net(pairs, seed);
    net.run_for(SimDuration::from_secs(1));
    let total: u64 = sinks
        .iter()
        .map(|&rx| net.app_as::<CountingSink>(rx).unwrap().bytes)
        .sum();
    let agg_bps = total as f64 * 8.0;
    (
        agg_bps,
        agg_bps / pairs as f64,
        net.stats().total_ack_timeouts(),
    )
}

#[test]
fn per_pair_goodput_collapses_with_density() {
    let (_, solo, timeouts_1) = run_density(1, 42);
    let (_, at8, timeouts_8) = run_density(8, 42);
    assert!(
        at8 < solo / 4.0,
        "8 co-channel pairs should see <1/4 of solo per-pair goodput: solo {solo}, at8 {at8}"
    );
    assert!(
        timeouts_8 > timeouts_1,
        "contention must produce more ACK timeouts ({timeouts_1} -> {timeouts_8})"
    );
}

/// A sender's `AckTimeout` is armed only when no ACK is coming (the data
/// frame was lost, the receiver could not answer, or the ACK itself was
/// lost), so in a fault-free run every one that fires is a real timeout:
/// the handler's call count equals the timeout counter.
#[test]
fn every_ack_timeout_event_is_a_real_timeout() {
    let (mut net, _) = density_net(8, 42);
    net.attach_telemetry(TelemetryConfig::metrics_only());
    net.run_for(SimDuration::from_secs(1));
    let snap = net.telemetry_snapshot().expect("telemetry attached");
    let timeouts = snap.counter("net.mac.ack_timeouts");
    assert!(timeouts > 0, "8 co-channel pairs must collide");
    assert!(snap.counter("net.mac.tx_completed") > 0);
    let events = snap
        .profile
        .iter()
        .find(|h| h.name == "AckTimeout")
        .map_or(0, |h| h.calls);
    assert_eq!(events, timeouts, "AckTimeout events that were no-ops");
}

#[test]
fn aggregate_goodput_saturates_not_scales() {
    let (agg1, _, _) = run_density(1, 7);
    let (agg8, _, _) = run_density(8, 7);
    // The channel is shared: 8 pairs cannot carry 8x the traffic of one.
    assert!(
        agg8 < agg1 * 3.0,
        "aggregate should saturate: 1 pair {agg1}, 8 pairs {agg8}"
    );
}

#[test]
fn orthogonal_channels_relieve_contention() {
    // Two pairs on the same channel vs on channels 1 and 11.
    let run = |ch_a: Channel, ch_b: Channel| -> f64 {
        let env = RadioEnvironment {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        };
        let mut net = Network::new(env, MacConfig::default(), 11);
        let rx_a = net.add_node(
            NodeConfig::at_on(Point::new(0.0, 0.0), ch_a),
            Box::new(CountingSink::default()),
        );
        net.add_node(
            NodeConfig::at_on(Point::new(3.0, 0.0), ch_a),
            Box::new(SaturatedSource::new(Address::Node(rx_a), 1000)),
        );
        let rx_b = net.add_node(
            NodeConfig::at_on(Point::new(0.0, 4.0), ch_b),
            Box::new(CountingSink::default()),
        );
        net.add_node(
            NodeConfig::at_on(Point::new(3.0, 4.0), ch_b),
            Box::new(SaturatedSource::new(Address::Node(rx_b), 1000)),
        );
        net.run_for(SimDuration::from_secs(1));
        (net.app_as::<CountingSink>(rx_a).unwrap().bytes
            + net.app_as::<CountingSink>(rx_b).unwrap().bytes) as f64
            * 8.0
    };
    let cochannel = run(Channel::CH6, Channel::CH6);
    let orthogonal = run(Channel::CH1, Channel::CH11);
    assert!(
        orthogonal > cochannel * 1.5,
        "channel separation should raise aggregate goodput: co {cochannel}, orth {orthogonal}"
    );
}
