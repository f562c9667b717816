//! `building`: the paper's whole Smart-Projector path over a contended WLAN.
//!
//! Several rooms, spaced far enough apart that co-channel rooms do not hear
//! each other, on channels 1/6/11. Each room holds a `RegistrarApp`, a
//! `SmartProjectorApp`, presenters taking turns at the projector,
//! lease-renewing `ProviderApp` appliances, polling `ClientApp`s and
//! open-loop `PoissonSource` sensors sending to the registrar. Presenters
//! are staggered so each finds the projector free: time-to-projecting then
//! measures the stack, not the queue for the projector.
//!
//! Per pass:
//! * ttp — per presenter session, `projecting_at - start_after` (E5);
//! * ttr — per slide change on a wall that already shows the presenter, the
//!   time until the projector completes an update carrying the new slide;
//! * attempted/failed — presenter sessions, and those never reaching
//!   `Phase::Presenting`.

use crate::layers::{self, Repl};
use crate::probe::{run_span, Probe, SharedTracer, Tracer};
use crate::stats::{mix, Digest};
use crate::Pass;
use aroma_discovery::apps::{ClientApp, ProviderApp, RegistrarApp};
use aroma_discovery::codec::{ServiceId, ServiceItem, Template};
use aroma_env::radio::Channel;
use aroma_env::space::Point;
use aroma_net::traffic::PoissonSource;
use aroma_net::{Address, MacConfig, Network, NodeConfig, NodeId};
use aroma_sim::telemetry::TelemetryConfig;
use aroma_sim::{SimDuration, SimRng};
use aroma_vnc::SlideDeck;
use bytes::Bytes;
use lpc_bench::scenarios::clean_env;
use smart_projector::laptop::Phase;
use smart_projector::session::SessionPolicy;
use smart_projector::{AcquireOrder, PresenterLaptopApp, PresenterScript, SmartProjectorApp};
use std::time::Instant;

/// Rooms in the building.
pub const ROOMS: usize = 8;
/// Presenters taking turns in each room: 144 sessions per pass.
pub const PRESENTERS: usize = 18;
/// Lease-renewing appliances per room.
pub const APPLIANCES: usize = 24;
/// Polling lookup clients per room.
pub const CLIENTS: usize = 2;
/// Open-loop sensors per room, each sending [`SENSOR_BYTES`]-byte frames
/// at [`SENSOR_FPS`].
pub const SENSORS: usize = 8;
pub const SENSOR_FPS: f64 = 10.0;
pub const SENSOR_BYTES: usize = 100;
/// Lease each appliance asks for (renewed at half of it).
pub const APPLIANCE_LEASE_MS: u64 = 8_000;
/// Simulated seconds per pass.
pub const HORIZON_S: f64 = 90.0;
/// Initial capacity of a traced pass's span log, per room: a room records
/// about 33 000 spans a pass, most of them sensor frames.
const SPANS_PER_ROOM: usize = 36_000;

const SCREEN: (usize, usize) = (320, 240);
const ROOM_SIZE: (f64, f64) = (10.0, 8.0);
/// Co-channel rooms sit three spacings apart: 450 m puts each other's
/// frames below the noise floor.
const ROOM_SPACING_M: f64 = 150.0;
const CHANNELS: [Channel; 3] = [Channel::CH1, Channel::CH6, Channel::CH11];
const APPLIANCE_KINDS: [&str; 4] = [
    "appliance/lamp",
    "appliance/blind",
    "appliance/thermostat",
    "appliance/speaker",
];
/// The first turn starts once the projector and appliances have registered.
const WARMUP_S: f64 = 2.0;
/// Slack left between one presenter's release and the next one's arrival:
/// longer than the presenter's 2 s acquire retry, so one late presenter
/// cannot push every later turn into a busy projector.
const TURN_MARGIN_S: f64 = 2.6;
/// Slide changes closer than this to the end of a presentation are not
/// refresh samples: the wall may legitimately never show them.
const REFRESH_WINDOW_S: f64 = 0.5;
/// Presenters page through slides this fast, so each pass yields several
/// hundred refresh samples.
const SLIDE_PERIOD_S: (f64, f64) = (0.6, 1.0);
/// The last presenter changes no slide this close to the end of the pass,
/// so the wall has caught up when the pass checks it (a refresh takes at
/// most one 10 fps pull plus the transfer).
const FINAL_QUIET_S: f64 = 0.3;

/// One presenter's script.
#[derive(Clone, Debug)]
pub struct Presenter {
    pub pos: Point,
    pub start_after_s: f64,
    pub present_for_s: f64,
    pub slide_period_s: f64,
    pub order: AcquireOrder,
}

/// One room of the building.
#[derive(Clone, Debug)]
pub struct Room {
    pub name: String,
    pub channel: Channel,
    pub registrar: Point,
    pub projector: Point,
    pub presenters: Vec<Presenter>,
    /// Position and service kind of each appliance.
    pub appliances: Vec<(Point, &'static str)>,
    pub clients: Vec<Point>,
    pub sensors: Vec<Point>,
}

/// The whole building, a pure function of the seed.
#[derive(Clone, Debug)]
pub struct Spec {
    pub seed: u64,
    pub rooms: Vec<Room>,
}

impl Spec {
    pub fn generate(seed: u64) -> Spec {
        Spec::sized(seed, ROOMS, PRESENTERS)
    }

    /// A building of `rooms` rooms with `presenters` turns each (smaller
    /// sizes serve the tests).
    pub fn sized(seed: u64, rooms: usize, presenters: usize) -> Spec {
        let mut rng = SimRng::new(mix(seed, 0xB11D));
        let slot = (HORIZON_S - WARMUP_S) / presenters as f64;
        let rooms = (0..rooms)
            .map(|r| {
                let origin = Point::new(r as f64 * ROOM_SPACING_M, 0.0);
                let inside = |rng: &mut SimRng| {
                    Point::new(
                        origin.x + rng.uniform_range(0.5, ROOM_SIZE.0 - 0.5),
                        origin.y + rng.uniform_range(0.5, ROOM_SIZE.1 - 0.5),
                    )
                };
                let presenters = (0..presenters)
                    .map(|i| {
                        let last = i + 1 == presenters;
                        let start = WARMUP_S + i as f64 * slot + rng.uniform_range(0.0, 0.4);
                        let present_for = if last {
                            HORIZON_S
                        } else {
                            slot - TURN_MARGIN_S + rng.uniform_range(-0.2, 0.2)
                        };
                        let slide_period_s = loop {
                            let p = rng.uniform_range(SLIDE_PERIOD_S.0, SLIDE_PERIOD_S.1);
                            if !last || HORIZON_S % p >= FINAL_QUIET_S {
                                break p;
                            }
                        };
                        Presenter {
                            pos: inside(&mut rng),
                            start_after_s: start,
                            present_for_s: present_for,
                            slide_period_s,
                            // Turns alternate the acquire order. A seeded coin
                            // would let the two orders' shares, and with them
                            // the ttp median, vary from seed to seed.
                            order: if i % 2 == 0 {
                                AcquireOrder::ProjectionFirst
                            } else {
                                AcquireOrder::ControlFirst
                            },
                        }
                    })
                    .collect();
                let appliances = (0..APPLIANCES)
                    .map(|_| {
                        let kind =
                            APPLIANCE_KINDS[rng.below(APPLIANCE_KINDS.len() as u64) as usize];
                        (inside(&mut rng), kind)
                    })
                    .collect();
                let clients = (0..CLIENTS).map(|_| inside(&mut rng)).collect();
                let sensors = (0..SENSORS).map(|_| inside(&mut rng)).collect();
                Room {
                    name: format!("R-{}", 101 + r),
                    channel: CHANNELS[r % CHANNELS.len()],
                    registrar: Point::new(
                        origin.x + ROOM_SIZE.0 / 2.0,
                        origin.y + ROOM_SIZE.1 / 2.0,
                    ),
                    projector: Point::new(
                        origin.x + ROOM_SIZE.0 - 0.3,
                        origin.y + ROOM_SIZE.1 / 2.0,
                    ),
                    presenters,
                    appliances,
                    clients,
                    sensors,
                }
            })
            .collect();
        Spec { seed, rooms }
    }
}

/// Node ids of one built room.
struct RoomIds {
    registrar: NodeId,
    projector: NodeId,
    presenters: Vec<NodeId>,
}

/// Build the building's network; a tracer attaches telemetry and span
/// recording.
fn build(spec: &Spec, tracer: Option<&SharedTracer>) -> (Network, Vec<RoomIds>) {
    let mut net = Network::new(clean_env(), MacConfig::default(), spec.seed);
    if tracer.is_some() {
        net.attach_telemetry(TelemetryConfig::metrics_only());
    }
    let mut ids = Vec::new();
    for (r, room) in spec.rooms.iter().enumerate() {
        let at = |p: Point| NodeConfig::at_on(p, room.channel);
        let registrar = net.add_node(
            at(room.registrar),
            Probe::new(RegistrarApp::new(SimDuration::from_secs(30)), tracer),
        );
        let projector = net.add_node(
            at(room.projector),
            Probe::new(
                SmartProjectorApp::new(
                    SCREEN.0,
                    SCREEN.1,
                    SessionPolicy::ManualRelease,
                    &room.name,
                ),
                tracer,
            ),
        );
        let presenters: Vec<NodeId> = room
            .presenters
            .iter()
            .map(|p| {
                let script = PresenterScript {
                    start_after: SimDuration::from_secs_f64(p.start_after_s),
                    present_for: SimDuration::from_secs_f64(p.present_for_s),
                    order: p.order,
                    ..Default::default()
                };
                let app = PresenterLaptopApp::new(
                    script,
                    SCREEN.0,
                    SCREEN.1,
                    Box::new(SlideDeck::new(p.slide_period_s)),
                );
                net.add_node(at(p.pos), Probe::new(app, tracer))
            })
            .collect();
        for (k, &(pos, kind)) in room.appliances.iter().enumerate() {
            let item = ServiceItem {
                id: ServiceId(1_000_000 + (r * 1_000 + k) as u64),
                kind: kind.into(),
                attributes: vec![("room".into(), room.name.clone())],
                provider: 0,
                proxy: Bytes::from_static(b"appliance-proxy"),
            };
            net.add_node(
                at(pos),
                Probe::new(ProviderApp::new(item, APPLIANCE_LEASE_MS), tracer),
            );
        }
        for &pos in &room.clients {
            let client = ClientApp::new(Template::of_kind(APPLIANCE_KINDS[0])).polling();
            net.add_node(at(pos), Probe::new(client, tracer));
        }
        for &pos in &room.sensors {
            let sensor = PoissonSource::new(Address::Node(registrar), SENSOR_BYTES, SENSOR_FPS);
            net.add_node(at(pos), Probe::new(sensor, tracer));
        }
        ids.push(RoomIds {
            registrar,
            projector,
            presenters,
        });
    }
    (net, ids)
}

/// Build the world, run it for [`HORIZON_S`], check it and measure it.
pub fn pass(spec: &Spec, traced: bool) -> Pass {
    let t0 = Instant::now();
    let tracer = traced.then(|| Tracer::shared(spec.rooms.len() * SPANS_PER_ROOM));
    let (mut net, ids) = build(spec, tracer.as_ref());
    let setup_s = t0.elapsed().as_secs_f64();

    let host_s = run_span(&mut net, tracer.as_ref(), HORIZON_S);

    let mut pass = Pass {
        setup_s,
        host_s,
        sim_s: HORIZON_S,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    let (mut sessions, mut servers) = ((0, 0, 0), (0, 0, 0));
    for (room, rid) in spec.rooms.iter().zip(&ids) {
        let projector = net
            .app_as::<Probe<SmartProjectorApp>>(rid.projector)
            .expect("projector probe");
        let walls = &projector.content_at;
        for (p, &node) in room.presenters.iter().zip(&rid.presenters) {
            let lap = &net
                .app_as::<Probe<PresenterLaptopApp>>(node)
                .expect("laptop probe")
                .app;
            pass.attempted += 1;
            digest.word(lap.projecting_at.map_or(u64::MAX, |t| t.as_nanos()));
            digest.word(lap.denials as u64).word(lap.commands_ok as u64);
            let (up, bytes, misses) = (
                lap.vnc.updates_sent,
                lap.vnc.stream_bytes_sent,
                lap.vnc.pool_stats().1,
            );
            servers = (servers.0 + up, servers.1 + bytes, servers.2 + misses);
            let Some(at) = lap.projecting_at else {
                pass.failed += 1;
                continue;
            };
            let at = at.as_secs_f64();
            pass.ttp.push(at - p.start_after_s);
            // Refresh samples: slide changes after the presenter's first
            // frame reached the wall and before the presentation ends. The
            // previous presenter left the wall seconds before this one came.
            let end = (at + p.present_for_s).min(HORIZON_S) - REFRESH_WINDOW_S;
            let Some(first) = walls
                .iter()
                .map(|t| t.as_secs_f64())
                .find(|&t| t >= p.start_after_s)
            else {
                continue;
            };
            let mut flip = ((first / p.slide_period_s).floor() + 1.0) * p.slide_period_s;
            while flip < end {
                if let Some(shown) = walls.iter().map(|t| t.as_secs_f64()).find(|&t| t > flip) {
                    pass.ttr.push(shown - flip);
                }
                flip += p.slide_period_s;
            }
        }
        let last = *rid.presenters.last().expect("rooms have presenters");
        let lap = &net
            .app_as::<Probe<PresenterLaptopApp>>(last)
            .expect("laptop probe")
            .app;
        let proj = &projector.app;
        if lap.phase != Phase::Presenting || proj.projected_digest() != Some(lap.screen_digest()) {
            pass.problems.push(format!(
                "room {}: projector shows {:?}, current presenter ({:?}) shows {:016x}",
                room.name,
                proj.projected_digest(),
                lap.phase,
                lap.screen_digest()
            ));
        }
        let (ps, cs) = (
            &proj.projection_sessions.stats,
            &proj.control_sessions.stats,
        );
        sessions.0 += ps.acquisitions + cs.acquisitions;
        sessions.1 += ps.refusals + cs.refusals;
        sessions.2 += ps.hijacks + cs.hijacks;
        let reg = &net
            .app_as::<Probe<RegistrarApp>>(rid.registrar)
            .expect("registrar probe")
            .app;
        digest
            .word(proj.projected_digest().unwrap_or(0))
            .word(proj.grants)
            .word(proj.denials)
            .word(walls.len() as u64)
            .word(walls.last().map_or(0, |t| t.as_nanos()))
            .word(reg.lookups_served)
            .word(reg.registrations)
            .word(reg.renewals);
    }
    let stats = net.stats();
    digest
        .word(stats.delivered_frames)
        .word(stats.total_tx_attempts())
        .word(stats.total_ack_timeouts());
    for x in pass.ttp.iter().chain(&pass.ttr) {
        digest.f64(*x);
    }
    pass.digest = digest.value();

    if let Some(t) = &tracer {
        let t = t.borrow();
        pass.layers = layers::metrics(&layers::Inputs {
            run_ns: t.run_ns,
            app_ns: Some(t.app_ns()),
            probe_ns: t.probe_ns,
            snapshot: net.telemetry_snapshot().expect("telemetry attached"),
            frames_delivered: stats.delivered_frames + stats.wired_frames,
            vnc_servers: Some(servers),
            sessions,
            repl: Repl::default(),
        });
        if let Err(e) = t.write_tsv("building", spec.seed) {
            pass.problems.push(e);
        }
    }
    pass
}
