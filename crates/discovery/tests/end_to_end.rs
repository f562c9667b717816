//! End-to-end discovery over the simulated WLAN: the paper's resource-layer
//! dependency — "the ability to automatically discover the projector service
//! is implemented using Jini and relies on having a Jini lookup service
//! present" — exercised with and without that lookup service.

use aroma_discovery::apps::{ClientApp, ProviderApp, ProviderState, RegistrarApp};
use aroma_discovery::{ClusterConfig, ReplicatedRegistrarApp};
use aroma_discovery::codec::{EventKind, Msg, ServiceId, ServiceItem, Template};
use aroma_env::radio::RadioEnvironment;
use aroma_env::space::Point;
use aroma_net::{Address, MacConfig, NetApp, NetCtx, Network, NodeConfig, NodeId};
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;

fn quiet() -> RadioEnvironment {
    RadioEnvironment {
        shadowing_sigma_db: 0.0,
        ..Default::default()
    }
}

fn projector_item(id: u64) -> ServiceItem {
    ServiceItem {
        id: ServiceId(id),
        kind: "projector/display".into(),
        attributes: vec![("room".into(), "A-101".into())],
        provider: 0, // filled by the provider app at start
        proxy: Bytes::from_static(b"vnc-endpoint"),
    }
}

struct World {
    net: Network,
    registrar: NodeId,
    provider: NodeId,
    client: NodeId,
}

fn world(seed: u64, subscribe: bool) -> World {
    let mut net = Network::new(quiet(), MacConfig::default(), seed);
    let registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(5))),
    );
    let provider = net.add_node(
        NodeConfig::at(Point::new(4.0, 0.0)),
        Box::new(ProviderApp::new(projector_item(1), 30_000)),
    );
    let client_app = if subscribe {
        ClientApp::new(Template::of_kind("projector/display")).with_subscription()
    } else {
        ClientApp::new(Template::of_kind("projector/display"))
    };
    let client = net.add_node(NodeConfig::at(Point::new(0.0, 4.0)), Box::new(client_app));
    World {
        net,
        registrar,
        provider,
        client,
    }
}

#[test]
fn client_finds_the_projector() {
    let mut w = world(1, false);
    w.net.run_for(SimDuration::from_secs(3));
    let client = w.net.app_as::<ClientApp>(w.client).unwrap();
    assert!(client.discovered_at.is_some(), "client never found registrar");
    let t = client.service_found_at.expect("service never found");
    assert!(
        t < SimTime::ZERO + SimDuration::from_secs(2),
        "time-to-service too long: {t}"
    );
    assert_eq!(client.found.len(), 1);
    assert_eq!(client.found[0].id, ServiceId(1));
    assert_eq!(client.found[0].provider, w.provider.0);
    assert_eq!(client.found[0].attr("room"), Some("A-101"));
    let provider = w.net.app_as::<ProviderApp>(w.provider).unwrap();
    assert_eq!(provider.state, ProviderState::Registered);
}

#[test]
fn without_lookup_service_nothing_is_found() {
    // Same world, but the registrar is dead from the start — the paper's
    // "relies on having a Jini lookup service present" made falsifiable.
    let mut w = world(2, false);
    w.net
        .app_as_mut::<RegistrarApp>(w.registrar)
        .unwrap()
        .crash();
    w.net.run_for(SimDuration::from_secs(3));
    let client = w.net.app_as::<ClientApp>(w.client).unwrap();
    assert!(client.discovered_at.is_none());
    assert!(client.service_found_at.is_none());
    assert!(client.found.is_empty());
    let provider = w.net.app_as::<ProviderApp>(w.provider).unwrap();
    assert_eq!(provider.state, ProviderState::Discovering);
    assert!(provider.rediscoveries > 2, "provider should keep trying");
}

#[test]
fn leases_are_renewed_and_services_survive() {
    let mut w = world(3, false);
    // Lease max is 5 s; run 12 s: at least two renewals must have happened
    // and the registration must still be live.
    w.net.run_for(SimDuration::from_secs(12));
    let provider = w.net.app_as::<ProviderApp>(w.provider).unwrap();
    assert!(
        provider.renewals_completed >= 2,
        "renewals: {}",
        provider.renewals_completed
    );
    let reg = w.net.app_as::<RegistrarApp>(w.registrar).unwrap();
    assert_eq!(reg.registry.len(), 1, "registration lapsed despite renewals");
}

#[test]
fn registrar_crash_loses_soft_state_and_provider_recovers() {
    let mut w = world(4, false);
    w.net.run_for(SimDuration::from_secs(2));
    assert_eq!(
        w.net
            .app_as::<RegistrarApp>(w.registrar)
            .unwrap()
            .registry
            .len(),
        1
    );
    // Crash, run past the renew interval so the provider notices, restart.
    w.net
        .app_as_mut::<RegistrarApp>(w.registrar)
        .unwrap()
        .crash();
    w.net.run_for(SimDuration::from_secs(1));
    w.net
        .app_as_mut::<RegistrarApp>(w.registrar)
        .unwrap()
        .restart();
    w.net.run_for(SimDuration::from_secs(8));
    let reg = w.net.app_as::<RegistrarApp>(w.registrar).unwrap();
    assert_eq!(
        reg.registry.len(),
        1,
        "provider should re-register after the registrar restart"
    );
    let provider = w.net.app_as::<ProviderApp>(w.provider).unwrap();
    assert!(
        provider.registrations_completed >= 2,
        "expected a re-registration, got {}",
        provider.registrations_completed
    );
    assert_eq!(provider.state, ProviderState::Registered);
}

#[test]
fn subscriber_sees_registration_events() {
    let mut net = Network::new(quiet(), MacConfig::default(), 5);
    let registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(5))),
    );
    // Client first, so its subscription is in place before the provider
    // registers (provider starts discovering at the same time; give the
    // client a head start by making the provider's item register later via
    // network timing — in practice discovery races are fine because the
    // client also polls lookups).
    let client = net.add_node(
        NodeConfig::at(Point::new(0.0, 4.0)),
        Box::new(ClientApp::new(Template::of_kind("projector/display")).with_subscription()),
    );
    let _provider = net.add_node(
        NodeConfig::at(Point::new(4.0, 0.0)),
        Box::new(ProviderApp::new(projector_item(7), 2_000)),
    );
    net.run_for(SimDuration::from_secs(4));
    let c = net.app_as::<ClientApp>(client).unwrap();
    assert!(c.service_found_at.is_some());
    // The provider renews (lease 2 s max 5 s → granted 2 s), so no Expired
    // events; stop the world instead: crash the registrar is overkill —
    // simply assert we got the Registered event if our subscription beat the
    // registration, or found it via lookup otherwise.
    let got_registered_event = c
        .events
        .iter()
        .any(|(_, k, id)| *k == EventKind::Registered && *id == ServiceId(7));
    assert!(
        got_registered_event || !c.found.is_empty(),
        "neither event nor lookup found the service"
    );
    let _ = registrar;
}

/// A provider that registers once, `after` its start, straight at a known
/// registrar, and never renews.
struct OneShotRegister {
    registrar: NodeId,
    item: ServiceItem,
    lease_ms: u64,
    after: SimDuration,
}

impl NetApp for OneShotRegister {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        ctx.set_timer(self.after, 0);
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, _token: u64) {
        let mut item = self.item.clone();
        item.provider = ctx.node().0;
        ctx.send(
            Address::Node(self.registrar),
            Msg::Register {
                item,
                lease_ms: self.lease_ms,
            }
            .encode(),
        );
    }
}

#[test]
fn lease_expiry_fires_event_to_subscriber() {
    // A provider that dies (simulated by never renewing).
    let mut net = Network::new(quiet(), MacConfig::default(), 6);
    let registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(5))),
    );
    let client = net.add_node(
        NodeConfig::at(Point::new(0.0, 4.0)),
        Box::new(ClientApp::new(Template::any()).with_subscription()),
    );
    net.add_node(
        NodeConfig::at(Point::new(4.0, 0.0)),
        Box::new(OneShotRegister {
            registrar,
            item: projector_item(9),
            lease_ms: 800,
            after: SimDuration::ZERO,
        }),
    );
    net.run_for(SimDuration::from_secs(4));
    let reg = net.app_as::<RegistrarApp>(registrar).unwrap();
    assert_eq!(reg.registry.len(), 0, "800 ms lease must have lapsed");
    let c = net.app_as::<ClientApp>(client).unwrap();
    assert!(
        c.events
            .iter()
            .any(|(_, k, id)| *k == EventKind::Expired && *id == ServiceId(9)),
        "subscriber missed the Expired event: {:?}",
        c.events
    );
}

#[test]
fn lookup_reply_respects_mtu_with_truncation_flag() {
    use aroma_discovery::codec::Msg;
    use aroma_net::{NetApp, NetCtx};

    // Register many fat services directly, then issue one lookup and check
    // the reply was MTU-packed and flagged truncated.
    struct BulkRegister {
        registrar: NodeId,
        count: u64,
    }
    impl NetApp for BulkRegister {
        fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
            for i in 0..self.count {
                let item = ServiceItem {
                    id: ServiceId(100 + i),
                    kind: "printer".into(),
                    attributes: vec![(
                        "description".into(),
                        "x".repeat(120), // fat attribute
                    )],
                    provider: ctx.node().0,
                    proxy: Bytes::from(vec![0u8; 64]),
                };
                ctx.send(
                    aroma_net::Address::Node(self.registrar),
                    Msg::Register {
                        item,
                        lease_ms: 60_000,
                    }
                    .encode(),
                );
            }
        }
    }

    let mut net = Network::new(quiet(), MacConfig::default(), 7);
    let registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(60))),
    );
    let client = net.add_node(
        NodeConfig::at(Point::new(0.0, 4.0)),
        Box::new(ClientApp::new(Template::of_kind("printer"))),
    );
    net.add_node(
        NodeConfig::at(Point::new(4.0, 0.0)),
        Box::new(BulkRegister {
            registrar,
            count: 20,
        }),
    );
    net.run_for(SimDuration::from_secs(5));
    let reg = net.app_as::<RegistrarApp>(registrar).unwrap();
    assert_eq!(reg.registry.len(), 20);
    let c = net.app_as::<ClientApp>(client).unwrap();
    assert!(!c.found.is_empty(), "client found nothing");
    assert!(
        c.found.len() < 20,
        "a 1500-byte MTU cannot carry 20 fat items: got {}",
        c.found.len()
    );
}

/// One-slot MAC queues: a registration that fans out notifications to
/// several subscribers can hand the MAC at most one frame — the rest must
/// be dropped, *counted*, and visible in telemetry, while the transition
/// is still encoded exactly once for the whole batch. Runs `registrar` as
/// node 0 with four subscribers and a registrant that sends three
/// registrations back-to-back once every subscription has landed; returns
/// the network after 5 s and the subscribers.
fn fan_out_into_full_queues(registrar: Box<dyn aroma_net::NetApp>) -> (Network, Vec<NodeId>) {
    use aroma_sim::telemetry::TelemetryConfig;

    let mut net = Network::new(
        quiet(),
        MacConfig {
            queue_cap: 1,
            ..Default::default()
        },
        11,
    );
    net.attach_telemetry(TelemetryConfig::default());
    let registrar = net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), registrar);
    assert_eq!(registrar, NodeId(0));
    let subscribers: Vec<NodeId> = (0..4)
        .map(|i| {
            net.add_node(
                NodeConfig::at(Point::new(0.0, 2.0 + i as f64)),
                Box::new(
                    ClientApp::new(Template::of_kind("projector/display")).with_subscription(),
                ),
            )
        })
        .collect();
    // The registrant's own one-slot queue may refuse the later sends;
    // any registration that lands fans out to four subscribers.
    struct LateRegistrant {
        registrar: NodeId,
    }
    impl aroma_net::NetApp for LateRegistrant {
        fn on_start(&mut self, ctx: &mut aroma_net::NetCtx<'_>) {
            ctx.set_timer(SimDuration::from_secs(2), 1);
        }
        fn on_timer(&mut self, ctx: &mut aroma_net::NetCtx<'_>, _token: u64) {
            for id in [9u64, 10, 11] {
                let mut item = projector_item(id);
                item.provider = ctx.node().0;
                ctx.send(
                    aroma_net::Address::Node(self.registrar),
                    aroma_discovery::codec::Msg::Register {
                        item,
                        lease_ms: 30_000,
                    }
                    .encode(),
                );
            }
        }
    }
    net.add_node(
        NodeConfig::at(Point::new(4.0, 0.0)),
        Box::new(LateRegistrant { registrar }),
    );
    net.run_for(SimDuration::from_secs(5));
    (net, subscribers)
}

/// The registrar's `events_dropped` / `event_encodings` counters after
/// [`fan_out_into_full_queues`]: drops happened, telemetry agrees with the
/// app, and the batch was not re-encoded per subscriber.
fn assert_drops_audible_and_encoded_once(
    net: &Network,
    subscribers: &[NodeId],
    events_dropped: u64,
    event_encodings: u64,
) {
    assert!(
        events_dropped > 0,
        "a 1-slot MAC queue cannot absorb a 4-subscriber fan-out"
    );
    let delivered: usize = subscribers
        .iter()
        .map(|&s| net.app_as::<ClientApp>(s).unwrap().events.len())
        .sum();
    let attempts = events_dropped + delivered as u64;
    assert!(
        event_encodings < attempts,
        "{} encodings for {} notification attempts — the batch is re-encoding per subscriber",
        event_encodings,
        attempts
    );
    let snap = net.telemetry_snapshot().expect("telemetry attached");
    let dropped_counter = snap
        .counters
        .iter()
        .find(|(name, _)| *name == "disc.events_dropped")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(
        dropped_counter, events_dropped,
        "telemetry counter disagrees with the app counter"
    );
}

#[test]
fn full_mac_queue_drops_events_audibly_and_encodes_once() {
    let (net, subscribers) =
        fan_out_into_full_queues(Box::new(RegistrarApp::new(SimDuration::from_secs(5))));
    let reg = net.app_as::<RegistrarApp>(NodeId(0)).unwrap();
    assert_drops_audible_and_encoded_once(&net, &subscribers, reg.events_dropped, reg.event_encodings);
}

#[test]
fn replicated_registrar_drops_events_audibly_and_encodes_once() {
    // A one-member cluster commits on its own append, so the same
    // registrations fan out through the replicated registrar's notifier.
    let cluster = ClusterConfig::of(vec![0]);
    let (net, subscribers) = fan_out_into_full_queues(Box::new(ReplicatedRegistrarApp::new(cluster)));
    let reg = net.app_as::<ReplicatedRegistrarApp>(NodeId(0)).unwrap();
    assert!(!reg.replica().unwrap().table().is_empty(), "the registration committed");
    assert_drops_audible_and_encoded_once(&net, &subscribers, reg.events_dropped, reg.event_encodings);
}

/// A registrar that records the instant of every timer callback.
struct TimerCounting {
    inner: RegistrarApp,
    fired_at: Vec<SimTime>,
}

impl NetApp for TimerCounting {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.inner.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        self.inner.on_packet(ctx, from, payload);
    }
    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        self.fired_at.push(ctx.now());
        self.inner.on_timer(ctx, token);
    }
    fn on_sent(&mut self, ctx: &mut NetCtx<'_>, to: Address) {
        self.inner.on_sent(ctx, to);
    }
    fn on_send_failed(&mut self, ctx: &mut NetCtx<'_>, to: NodeId, payload: &Bytes) {
        self.inner.on_send_failed(ctx, to, payload);
    }
    fn on_crash(&mut self, ctx: &mut NetCtx<'_>) {
        self.inner.on_crash(ctx);
    }
    fn on_restart(&mut self, ctx: &mut NetCtx<'_>) {
        self.inner.on_restart(ctx);
    }
}

/// The registrar keeps one expiry timer: renewals do not pile up timers
/// (each used to arm one more, and each firing re-armed itself, so the
/// timer callbacks per second grew for as long as leases were renewed),
/// and a lease that is not renewed still lapses at exactly its grant
/// instant plus the granted lease — also one granted after a later
/// expiry was already armed.
#[test]
fn registrar_keeps_one_expiry_timer_and_lapses_on_time() {
    use aroma_sim::telemetry::TelemetryConfig;
    let mut net = Network::new(quiet(), MacConfig::default(), 29);
    let registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(TimerCounting {
            inner: RegistrarApp::new(SimDuration::from_secs(10)),
            fired_at: Vec::new(),
        }),
    );
    for i in 0..6 {
        let angle = i as f64;
        net.add_node(
            NodeConfig::at(Point::new(4.0 * angle.cos(), 4.0 * angle.sin())),
            Box::new(ProviderApp::new(projector_item(10 + i), 8_000)),
        );
    }
    // Registered longest lease first, so each later grant expires before
    // the timer already armed.
    for (i, lease_ms) in [9_000, 5_000, 2_000].into_iter().enumerate() {
        net.add_node(
            NodeConfig::at(Point::new(-3.0, i as f64)),
            Box::new(OneShotRegister {
                registrar,
                item: projector_item(90 + i as u64),
                lease_ms,
                after: SimDuration::ZERO,
            }),
        );
    }
    net.attach_telemetry(TelemetryConfig { ring_capacity: 1 << 16 });
    net.run_for(SimDuration::from_secs(90));

    let app = net.app_as::<TimerCounting>(registrar).unwrap();
    let in_window = |from_s: u64, to_s: u64| {
        let (lo, hi) = (
            SimTime::ZERO + SimDuration::from_secs(from_s),
            SimTime::ZERO + SimDuration::from_secs(to_s),
        );
        app.fired_at.iter().filter(|&&t| lo <= t && t < hi).count()
    };
    let (first, last) = (in_window(0, 30), in_window(60, 90));
    assert!(last > 0, "no expiry timer fired in the last 30 s");
    assert!(
        last <= first,
        "expiry timers pile up: {first} callbacks in the first 30 s, {last} in the last"
    );
    assert!(app.inner.renewals > 60, "only {} renewals", app.inner.renewals);
    assert_eq!(app.inner.registry.len(), 6, "a renewed lease lapsed");

    let snap = net.telemetry_snapshot().expect("telemetry attached");
    assert_eq!(snap.trace_dropped, 0);
    let lapses: Vec<u64> = snap
        .trace
        .iter()
        .filter(|e| e.name == "lease.expire")
        .map(|e| e.t_nanos)
        .collect();
    let mut due: Vec<u64> = snap
        .trace
        .iter()
        .filter(|e| e.name == "lease.grant" && e.a >= 90)
        .map(|e| e.t_nanos + SimDuration::from_millis(e.b as u64).as_nanos())
        .collect();
    due.sort_unstable();
    assert_eq!(due.len(), 3, "every one-shot registration was granted");
    assert_eq!(lapses, due, "each one-shot lease lapses at its grant instant plus its lease");
}

/// A fault-plane crash cancels the registrar's pending timers and loses
/// its table; a lease granted after the restart, expiring later than the
/// cancelled timer was armed for, must still get a timer of its own.
#[test]
fn registrar_restarted_by_the_fault_plane_still_expires_leases() {
    use aroma_sim::faults::FaultSchedule;
    use aroma_sim::telemetry::TelemetryConfig;
    let mut net = Network::new(quiet(), MacConfig::default(), 37);
    let registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(10))),
    );
    for (i, (lease_ms, after_s)) in [(9_000, 0), (8_000, 3)].into_iter().enumerate() {
        net.add_node(
            NodeConfig::at(Point::new(3.0, i as f64)),
            Box::new(OneShotRegister {
                registrar,
                item: projector_item(70 + i as u64),
                lease_ms,
                after: SimDuration::from_secs(after_s),
            }),
        );
    }
    // Down from 1 s to 2 s: the first lease and its timer (armed for
    // about 9 s) are gone before the second registers at 3 s.
    let schedule = FaultSchedule::builder(1)
        .crash_restart(
            SimDuration::from_secs(1).as_nanos(),
            SimDuration::from_secs(2).as_nanos(),
            registrar.0,
        )
        .build();
    net.attach_faults(&schedule);
    net.attach_telemetry(TelemetryConfig::default());
    net.run_for(SimDuration::from_secs(14));

    let reg = net.app_as::<RegistrarApp>(registrar).unwrap();
    assert_eq!(reg.registrations, 2);
    assert_eq!(reg.registry.len(), 0, "the lease granted after the restart never lapsed");
    let snap = net.telemetry_snapshot().expect("telemetry attached");
    let grant = snap
        .trace
        .iter()
        .find(|e| e.name == "lease.grant" && e.a == 71)
        .expect("the second registration was granted");
    let lapse = snap
        .trace
        .iter()
        .find(|e| e.name == "lease.expire")
        .expect("a lease lapsed");
    assert_eq!(lapse.t_nanos, grant.t_nanos + SimDuration::from_millis(grant.b as u64).as_nanos());
}
