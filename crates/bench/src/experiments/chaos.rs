//! E9 (extension) — chaos walkthrough: the smart-projector scenario under a
//! scripted fault storm.
//!
//! The paper's hidden-dependency analysis asks what happens when a layer the
//! user never sees fails underneath a working application. Here the full
//! scenario — federated registrar pair, smart projector, presenter laptop,
//! plus a polling lookup client — runs while a deterministic
//! [`FaultSchedule`] kills the primary registrar process, crash-restarts the
//! projector adapter mid-presentation, and opens a burst-loss window on the
//! channel. Every client is self-healing, so the interesting output is not
//! *whether* the scenario survives but *how long* each layer takes to
//! recover, measured from the telemetry trace:
//!
//! * **abstract / discovery** — registrar process kill → first successful
//!   `lookup_live` reply (served by the standby after failover).
//! * **abstract / sessions** — adapter crash → first post-crash session
//!   acquire. The restarted adapter mints tokens from a fresh incarnation
//!   stream, so the presenter's old tokens are refused (not hijacked) and it
//!   re-acquires.
//! * **resource / vnc** — burst-loss onset → first completed update
//!   delivery after the burst clears (the viewer may also drop to coarse
//!   encoding in between; quality restoration is reported separately).
//!
//! Everything is scripted and seeded, so the report is bit-reproducible:
//! same seed + same schedule ⇒ identical JSON.

use super::{ExperimentOutput, RunOpts};
use aroma_discovery::apps::{ClientApp, ProviderApp, RegistrarApp};
use aroma_discovery::codec::{Msg, ServiceId, ServiceItem, Template};
use aroma_discovery::{ClusterConfig, ReplicatedRegistrarApp};
use aroma_env::space::Point;
use aroma_net::{Address, MacConfig, NetApp, NetCtx, Network, NodeConfig, NodeId};
use aroma_sim::faults::FaultSchedule;
use aroma_sim::report::{fmt_f, Table};
use aroma_sim::telemetry::{Snapshot, TelemetryConfig, TraceEvent};
use aroma_sim::SimDuration;
use aroma_vnc::SlideDeck;
use bytes::Bytes;
use smart_projector::laptop::{PresenterLaptopApp, PresenterScript};
use smart_projector::session::SessionPolicy;
use smart_projector::SmartProjectorApp;

use crate::scenarios::clean_env;

/// The scripted storm, in seconds of simulated time. Constants rather than
/// parameters: E9 is a *walkthrough* of one reproducible storm, not a sweep.
pub mod storm {
    /// Primary registrar process killed (soft state lost)…
    pub const REGISTRAR_KILL_S: u64 = 10;
    /// …and restarted much later — recovery must come from the standby.
    pub const REGISTRAR_RESTART_S: u64 = 38;
    /// Projector adapter loses power mid-presentation…
    pub const PROJECTOR_CRASH_S: u64 = 18;
    /// …and reboots two seconds later with a fresh token incarnation.
    pub const PROJECTOR_RESTART_S: u64 = 20;
    /// Channel burst-loss window start (e.g. a microwave two rooms over).
    pub const BURST_START_S: u64 = 28;
    /// Channel burst-loss window end.
    pub const BURST_END_S: u64 = 31;
    /// Frame loss probability inside the window.
    pub const BURST_LOSS: f64 = 0.85;
    /// Total horizon: long enough for every layer to recover.
    pub const HORIZON_S: u64 = 42;
    /// Per-layer recovery deadline, measured from fault onset.
    pub const DEADLINE_S: u64 = 10;
}

/// One per-layer recovery measurement extracted from the trace.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// LPC layer label ("abstract", "resource", …).
    pub layer: &'static str,
    /// The injected fault.
    pub fault: &'static str,
    /// Fault onset, seconds.
    pub injected_s: f64,
    /// First healthy event at/after the qualifying instant, seconds.
    pub recovered_s: Option<f64>,
    /// Deadline (from onset) this recovery is held to, seconds.
    pub deadline_s: f64,
}

impl Recovery {
    /// Time-to-recover, seconds.
    pub fn ttr_s(&self) -> Option<f64> {
        self.recovered_s.map(|r| r - self.injected_s)
    }

    /// Did recovery happen inside the deadline?
    pub fn met(&self) -> bool {
        self.ttr_s().is_some_and(|t| t <= self.deadline_s)
    }
}

/// Everything one chaos run yields: the recovery rows, the self-healing
/// end-state counters, and the raw telemetry snapshot.
pub struct ChaosRun {
    /// Per-layer recovery measurements, report order.
    pub recoveries: Vec<Recovery>,
    /// Presenter re-acquisitions after the adapter restart.
    pub reacquisitions: u32,
    /// Adapter incarnation after the storm (1 = restarted once).
    pub incarnation: u32,
    /// Lookup-client failovers to the standby registrar.
    pub client_rediscoveries: u64,
    /// Viewer drops to coarse encoding during the burst.
    pub degradations: u64,
    /// Viewer restorations to full quality afterwards.
    pub quality_recoveries: u64,
    /// Session hijacks across the whole storm (must be zero).
    pub hijacks: u64,
    /// Commands the presenter landed successfully.
    pub commands_ok: u32,
    /// The run's telemetry snapshot (metrics + full trace).
    pub snapshot: Snapshot,
}

const S: u64 = 1_000_000_000;

/// First event named `name` at or after `from_nanos` that satisfies `pred`,
/// as seconds.
fn first_after(
    trace: &[TraceEvent],
    name: &str,
    from_nanos: u64,
    pred: impl Fn(&TraceEvent) -> bool,
) -> Option<f64> {
    trace
        .iter()
        .find(|e| e.name == name && e.t_nanos >= from_nanos && pred(e))
        .map(|e| e.t_nanos as f64 / S as f64)
}

/// Run the chaos walkthrough once at `seed`.
pub fn chaos_run(seed: u64) -> ChaosRun {
    let schedule = FaultSchedule::builder(seed)
        .process_kill_restart(
            storm::REGISTRAR_KILL_S * S,
            storm::REGISTRAR_RESTART_S * S,
            0, // primary registrar, added first below
        )
        .crash_restart(
            storm::PROJECTOR_CRASH_S * S,
            storm::PROJECTOR_RESTART_S * S,
            2, // projector adapter
        )
        .burst_loss(storm::BURST_START_S * S, storm::BURST_END_S * S, storm::BURST_LOSS)
        .build();

    let mut net = Network::new(clean_env(), MacConfig::default(), seed);
    // The default 4096-event ring is sized for short traces; 42 s of MAC
    // state transitions alone is ~7k events, and a dropped window would eat
    // the very recovery timestamps this experiment reports.
    net.attach_telemetry(TelemetryConfig {
        ring_capacity: 32_768,
    });
    net.attach_faults(&schedule);

    // Federated registrar pair: the standby mirrors every registration, so
    // failover needs no re-registration round to serve live lookups.
    let primary = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(30)).federated_with(NodeId(1))),
    );
    let standby = net.add_node(
        NodeConfig::at(Point::new(0.5, 0.5)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(30)).federated_with(NodeId(0))),
    );
    let projector = net.add_node(
        NodeConfig::at(Point::new(3.0, 0.0)),
        Box::new(SmartProjectorApp::new(
            320,
            240,
            SessionPolicy::ManualRelease,
            "A-101",
        )),
    );
    let laptop = net.add_node(
        NodeConfig::at(Point::new(1.0, 3.0)),
        Box::new(PresenterLaptopApp::new(
            PresenterScript {
                present_for: SimDuration::from_secs(storm::HORIZON_S),
                ..Default::default()
            },
            320,
            240,
            Box::new(SlideDeck::new(8.0)),
        )),
    );
    let client = net.add_node(
        NodeConfig::at(Point::new(2.0, 2.0)),
        Box::new(ClientApp::new(Template::of_kind("projector/display")).polling()),
    );
    debug_assert_eq!((primary, projector), (NodeId(0), NodeId(2)));
    // The building cable the mirrors travel over — without it the standby
    // never hears about the primary's registrations.
    net.add_wired_link(primary, standby, SimDuration::from_millis(1), 10_000_000);
    // The session managers record into their own (non-perturbing) recorders;
    // their traces are absorbed into the network snapshot after the run so
    // `session.acquire` carries the session-layer recovery timestamp.
    {
        let proj = net.app_as_mut::<SmartProjectorApp>(projector).unwrap();
        proj.projection_sessions
            .attach_telemetry(TelemetryConfig::default());
        proj.control_sessions
            .attach_telemetry(TelemetryConfig::default());
    }

    net.run_for(SimDuration::from_secs(storm::HORIZON_S));

    let mut snapshot = net.telemetry_snapshot().expect("telemetry attached");
    {
        let proj = net.app_as::<SmartProjectorApp>(projector).unwrap();
        for s in [
            proj.projection_sessions.telemetry_snapshot(),
            proj.control_sessions.telemetry_snapshot(),
        ]
        .into_iter()
        .flatten()
        {
            snapshot.absorb(s);
        }
    }
    let trace = &snapshot.trace;
    let recoveries = vec![
        Recovery {
            layer: "abstract",
            fault: "registrar process kill -> standby failover",
            injected_s: storm::REGISTRAR_KILL_S as f64,
            // First lookup reply carrying a live registration: a successful
            // `lookup_live` served after the primary died.
            recovered_s: first_after(trace, "lookup.serve", storm::REGISTRAR_KILL_S * S, |e| {
                e.a > 0
            }),
            deadline_s: storm::DEADLINE_S as f64,
        },
        Recovery {
            layer: "abstract",
            fault: "adapter crash/restart -> session re-acquire",
            injected_s: storm::PROJECTOR_CRASH_S as f64,
            recovered_s: first_after(trace, "session.acquire", storm::PROJECTOR_CRASH_S * S, |_| {
                true
            }),
            deadline_s: storm::DEADLINE_S as f64,
        },
        Recovery {
            layer: "resource",
            fault: "channel burst loss -> update delivery",
            injected_s: storm::BURST_START_S as f64,
            // Delivery during the burst is luck; recovered means a completed
            // update once the channel cleared.
            recovered_s: first_after(trace, "vnc.update.deliver", storm::BURST_END_S * S, |_| {
                true
            }),
            deadline_s: storm::DEADLINE_S as f64,
        },
    ];

    let lap = net.app_as::<PresenterLaptopApp>(laptop).unwrap();
    let (reacquisitions, commands_ok) = (lap.reacquisitions, lap.commands_ok);
    let proj = net.app_as::<SmartProjectorApp>(projector).unwrap();
    let (incarnation, hijacks) = (
        proj.incarnation,
        proj.projection_sessions.stats.hijacks + proj.control_sessions.stats.hijacks,
    );
    let cli = net.app_as::<ClientApp>(client).unwrap();
    let _ = standby;
    ChaosRun {
        recoveries,
        reacquisitions,
        incarnation,
        client_rediscoveries: cli.rediscoveries,
        degradations: snapshot.counter("vnc.degrade"),
        quality_recoveries: snapshot.counter("vnc.recover"),
        hijacks,
        commands_ok,
        snapshot,
    }
}

// ---------------------------------------------------------------------
// Registrar-churn storm: the PR 9 replicated registrar under fire.
// ---------------------------------------------------------------------

/// The second storm: a three-member replicated registrar cluster loses a
/// replica (which must later rejoin from a snapshot install), then loses
/// its primary mid-replication (which must fail over with zero stale
/// lookups), all while a pathological provider flaps its registration in
/// a tight loop (which the damper must absorb at the edge).
pub mod churn {
    /// Replica registrar (member 2) process-killed…
    pub const REPLICA_KILL_S: u64 = 4;
    /// …and restarted after the primary has folded + truncated past its
    /// log position, forcing a snapshot-install rejoin.
    pub const REPLICA_RESTART_S: u64 = 11;
    /// Primary registrar (member 0) process-killed mid-replication…
    pub const PRIMARY_KILL_S: u64 = 14;
    /// …and restarted long after the epoch has moved on.
    pub const PRIMARY_RESTART_S: u64 = 28;
    /// Flapping provider churn window start.
    pub const FLAP_FROM_S: u64 = 3;
    /// Flapping provider churn window end.
    pub const FLAP_UNTIL_S: u64 = 16;
    /// One flap half-cycle (register or unregister) every this many ms.
    pub const FLAP_PERIOD_MS: u64 = 400;
    /// Total horizon: long enough for the restarted primary to catch up.
    pub const HORIZON_S: u64 = 32;
    /// Failover deadline (primary kill → first served lookup), seconds.
    pub const DEADLINE_S: u64 = 10;
}

const TF_DISCOVER: u64 = 31;
const TF_FLAP: u64 = 32;

/// A pathological provider: once inside its churn window it registers and
/// withdraws its service every [`churn::FLAP_PERIOD_MS`], re-discovering
/// the active primary as failovers move it. The cluster's flap damper is
/// expected to suppress it — acked but neither logged nor replicated.
pub struct FlappingProviderApp {
    item: ServiceItem,
    registrar: Option<NodeId>,
    nonce: u64,
    registered: bool,
    /// Register/unregister halves sent into the churn window.
    pub ops_sent: u64,
}

impl FlappingProviderApp {
    /// A flapper exporting `item`.
    pub fn new(item: ServiceItem) -> Self {
        FlappingProviderApp { item, registrar: None, nonce: 0, registered: false, ops_sent: 0 }
    }

    fn discover(&mut self, ctx: &mut NetCtx<'_>) {
        self.nonce = ctx.rng().next_u64_raw();
        ctx.send(Address::Broadcast, Msg::DiscoverReq { nonce: self.nonce }.encode());
        ctx.set_timer(SimDuration::from_millis(500), TF_DISCOVER);
    }
}

impl NetApp for FlappingProviderApp {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.item.provider = ctx.node().0;
        self.discover(ctx);
        ctx.set_timer(SimDuration::from_secs(churn::FLAP_FROM_S), TF_FLAP);
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        let _ = ctx;
        if let Ok(Msg::DiscoverResp { nonce }) = Msg::decode(payload.clone()) {
            if nonce == self.nonce {
                // Only the active primary answers discovery, so following
                // the latest responder follows the failovers.
                self.registrar = Some(from);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        let in_window = ctx.now().as_nanos() < churn::FLAP_UNTIL_S * S;
        match token {
            TF_DISCOVER if in_window => self.discover(ctx),
            TF_FLAP if in_window => {
                if let Some(reg) = self.registrar {
                    let msg = if self.registered {
                        Msg::Unregister { id: self.item.id }
                    } else {
                        Msg::Register { item: self.item.clone(), lease_ms: 2_000 }
                    };
                    self.registered = !self.registered;
                    self.ops_sent += 1;
                    ctx.send(Address::Node(reg), msg.encode());
                }
                ctx.set_timer(SimDuration::from_millis(churn::FLAP_PERIOD_MS), TF_FLAP);
            }
            _ => {}
        }
    }
}

/// Everything one churn-storm run yields.
pub struct ChurnRun {
    /// Primary kill → first post-kill served lookup (the failover TTR).
    pub failover: Recovery,
    /// Stale rows across every served lookup (sum of `lookup.serve`
    /// b-fields) — the headline must be zero.
    pub stale_rows: i64,
    /// Lookups the cluster served over the whole storm.
    pub lookups_served: u64,
    /// `disc.repl.epoch_bumps` across all members.
    pub epoch_bumps: u64,
    /// `disc.repl.snapshots_taken` across all members.
    pub snapshots_taken: u64,
    /// `disc.repl.snapshot_installs_rx` across all members.
    pub snapshot_installs: u64,
    /// Durable restores across all members (the two scripted restarts).
    pub restores: u64,
    /// Flap operations absorbed at the primary's edge.
    pub flap_absorbed: u64,
    /// Register/unregister halves the flapper actually sent.
    pub flapper_ops: u64,
    /// Lease-table rows `(id, expires_nanos)` per registrar at the end —
    /// convergence means all three agree.
    pub tables: Vec<Vec<(u64, u64)>>,
    /// The run's telemetry snapshot.
    pub snapshot: Snapshot,
}

/// Run the registrar-churn storm once at `seed`.
pub fn churn_run(seed: u64) -> ChurnRun {
    // `try_build` (not `build`): the storm script is exactly the kind of
    // hand-written schedule the overlap check exists for.
    let schedule = FaultSchedule::builder(seed ^ 0xC0)
        .process_kill_restart(churn::REPLICA_KILL_S * S, churn::REPLICA_RESTART_S * S, 2)
        .process_kill_restart(churn::PRIMARY_KILL_S * S, churn::PRIMARY_RESTART_S * S, 0)
        .try_build()
        .expect("churn storm intervals are disjoint per node");

    let mut net = Network::new(clean_env(), MacConfig::default(), seed);
    net.attach_telemetry(TelemetryConfig { ring_capacity: 32_768 });
    net.attach_faults(&schedule);

    // Snapshot every 4 applied entries, so the replica's downtime is
    // enough for the primary to truncate past it.
    let ccfg = ClusterConfig { snapshot_every: 4, ..ClusterConfig::of(vec![0, 1, 2]) };
    let reg_pts = [Point::new(0.0, 0.0), Point::new(0.5, 0.5), Point::new(0.0, 1.0)];
    let regs: Vec<NodeId> = reg_pts
        .iter()
        .map(|p| net.add_node(NodeConfig::at(*p), Box::new(ReplicatedRegistrarApp::new(ccfg.clone()))))
        .collect();
    for i in 0..regs.len() {
        for j in (i + 1)..regs.len() {
            net.add_wired_link(regs[i], regs[j], SimDuration::from_millis(1), 10_000_000);
        }
    }
    let item = |id: u64, kind: &str| ServiceItem {
        id: ServiceId(id),
        kind: kind.into(),
        attributes: Vec::new(),
        provider: 0, // filled in by each app's on_start
        proxy: Bytes::from_static(b"proxy"),
    };
    // Two stable providers: their leases must ride out every fault.
    net.add_node(
        NodeConfig::at(Point::new(3.0, 0.0)),
        Box::new(ProviderApp::new(item(1, "projector/display"), 8_000)),
    );
    net.add_node(
        NodeConfig::at(Point::new(0.0, 3.0)),
        Box::new(ProviderApp::new(item(2, "projector/display"), 8_000)),
    );
    // One flapper on its own service kind, so the polling client's lookups
    // measure the stable services.
    let flapper = net.add_node(
        NodeConfig::at(Point::new(3.0, 3.0)),
        Box::new(FlappingProviderApp::new(item(3, "printer/laser"))),
    );
    let _client = net.add_node(
        NodeConfig::at(Point::new(2.0, 2.0)),
        Box::new(ClientApp::new(Template::of_kind("projector/display")).polling()),
    );

    net.run_for(SimDuration::from_secs(churn::HORIZON_S));

    let snapshot = net.telemetry_snapshot().expect("telemetry attached");
    let stale_rows: i64 =
        snapshot.trace.iter().filter(|e| e.name == "lookup.serve").map(|e| e.b).sum();
    let failover = Recovery {
        layer: "abstract",
        fault: "replicated primary kill -> epoch-1 failover",
        injected_s: churn::PRIMARY_KILL_S as f64,
        recovered_s: first_after(&snapshot.trace, "lookup.serve", churn::PRIMARY_KILL_S * S, |e| {
            e.a > 0
        }),
        deadline_s: churn::DEADLINE_S as f64,
    };
    let mut lookups_served = 0;
    let mut restores = 0;
    let mut tables = Vec::new();
    for &r in &regs {
        let app = net.app_as::<ReplicatedRegistrarApp>(r).unwrap();
        lookups_served += app.lookups_served;
        restores += app.restores;
        tables.push(
            app.replica()
                .map(|n| {
                    n.table()
                        .entries()
                        .map(|(i, e)| (i.id.0, e.as_nanos()))
                        .collect()
                })
                .unwrap_or_default(),
        );
    }
    let flapper_ops = net.app_as::<FlappingProviderApp>(flapper).unwrap().ops_sent;
    ChurnRun {
        failover,
        stale_rows,
        lookups_served,
        epoch_bumps: snapshot.counter("disc.repl.epoch_bumps"),
        snapshots_taken: snapshot.counter("disc.repl.snapshots_taken"),
        snapshot_installs: snapshot.counter("disc.repl.snapshot_installs_rx"),
        restores,
        flap_absorbed: snapshot.counter("disc.repl.flap_absorbed"),
        flapper_ops,
        tables,
        snapshot,
    }
}

/// Run E9. The walkthrough is a single fixed-storm run, so `quick` changes
/// nothing — the test suite executes exactly what `repro` reports. The seed
/// defaults to `0xE9` and can be overridden with `repro --seed N e9`.
pub fn e9_with(opts: RunOpts) -> ExperimentOutput {
    let seed = opts.seed.unwrap_or(0xE9);
    let run = chaos_run(seed);
    let churn = churn_run(seed);

    let mut t = Table::new(&["layer", "fault", "injected s", "recovered s", "ttr s", "ok"]);
    for r in &run.recoveries {
        t.row(&[
            r.layer.into(),
            r.fault.into(),
            fmt_f(r.injected_s, 1),
            r.recovered_s.map_or("-".into(), |v| fmt_f(v, 2)),
            r.ttr_s().map_or("-".into(), |v| fmt_f(v, 2)),
            if r.met() { "yes".into() } else { "NO".into() },
        ]);
    }
    let mut e = Table::new(&["counter", "value"]);
    for (name, v) in [
        ("presenter re-acquisitions", run.reacquisitions as u64),
        ("adapter incarnation", run.incarnation as u64),
        ("client registrar failovers", run.client_rediscoveries),
        ("vnc degradations (coarse)", run.degradations),
        ("vnc quality recoveries", run.quality_recoveries),
        ("commands landed", run.commands_ok as u64),
        ("session hijacks", run.hijacks),
    ] {
        e.row(&[name.into(), v.to_string()]);
    }

    let mut c = Table::new(&["registrar churn", "value"]);
    let converged = churn.tables.windows(2).all(|w| w[0] == w[1]);
    for (name, v) in [
        ("lookups served", churn.lookups_served.to_string()),
        ("stale rows served", churn.stale_rows.to_string()),
        (
            "failover ttr s",
            churn.failover.ttr_s().map_or("-".into(), |v| fmt_f(v, 2)),
        ),
        ("epoch bumps", churn.epoch_bumps.to_string()),
        ("snapshots taken", churn.snapshots_taken.to_string()),
        ("snapshot installs (rejoin)", churn.snapshot_installs.to_string()),
        ("durable restores", churn.restores.to_string()),
        ("flap ops sent", churn.flapper_ops.to_string()),
        ("flap ops absorbed at edge", churn.flap_absorbed.to_string()),
        ("lease tables converged", if converged { "yes".into() } else { "NO".into() }),
    ] {
        c.row(&[name.into(), v]);
    }

    let all_met = run.recoveries.iter().all(Recovery::met);
    let churn_ok = churn.stale_rows == 0 && churn.failover.met() && converged;
    let notes = vec![
        if churn_ok {
            format!(
                "registrar churn: zero stale lookups across {} served; failover ttr {} s; replica rejoined via {} snapshot install(s); damper absorbed {}/{} flap ops",
                churn.lookups_served,
                churn.failover.ttr_s().map_or("-".into(), |v| fmt_f(v, 2)),
                churn.snapshot_installs,
                churn.flap_absorbed,
                churn.flapper_ops,
            )
        } else {
            "registrar churn: INVARIANT BROKEN — see table".into()
        },
        if all_met {
            format!(
                "chaos recovery: all layers within deadline ({} s per fault)",
                storm::DEADLINE_S
            )
        } else {
            "chaos recovery: DEADLINE MISSED — see table".into()
        },
        format!(
            "session security: {} hijacks across the storm; the restarted adapter mints incarnation-{} tokens, pre-crash tokens are refused",
            run.hijacks, run.incarnation
        ),
        "faults off, same seed: the run is byte-identical to the fault-free scenario — the plane draws from its own RNG stream".into(),
    ];
    ExperimentOutput {
        id: "e9",
        title: "chaos walkthrough: scripted fault storm vs self-healing clients (extension)",
        tables: vec![
            (
                format!(
                    "storm at seed {seed:#x}: registrar kill @{}s, adapter crash @{}-{}s, {:.0}% burst loss @{}-{}s:",
                    storm::REGISTRAR_KILL_S,
                    storm::PROJECTOR_CRASH_S,
                    storm::PROJECTOR_RESTART_S,
                    storm::BURST_LOSS * 100.0,
                    storm::BURST_START_S,
                    storm::BURST_END_S
                ),
                t,
            ),
            ("self-healing end-state:".into(), e),
            (
                format!(
                    "replicated-registrar churn at seed {seed:#x}: replica kill @{}-{}s, primary kill @{}-{}s, flapper @{}-{}s every {}ms:",
                    churn::REPLICA_KILL_S,
                    churn::REPLICA_RESTART_S,
                    churn::PRIMARY_KILL_S,
                    churn::PRIMARY_RESTART_S,
                    churn::FLAP_FROM_S,
                    churn::FLAP_UNTIL_S,
                    churn::FLAP_PERIOD_MS
                ),
                c,
            ),
        ],
        notes,
        metrics: opts.recording().then(|| {
            aroma_sim::telemetry::snapshot_json(&run.snapshot, opts.trace)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_every_layer_recovers_within_deadline_with_zero_hijacks() {
        let run = chaos_run(0xE9);
        for r in &run.recoveries {
            assert!(
                r.met(),
                "{} [{}] failed to recover in time: {:?}",
                r.fault,
                r.layer,
                r.ttr_s()
            );
        }
        assert_eq!(run.hijacks, 0, "a crash must never enable a hijack");
        assert_eq!(run.incarnation, 1, "adapter restarted exactly once");
        assert!(run.reacquisitions >= 1, "presenter never re-acquired");
        assert!(
            run.client_rediscoveries >= 1,
            "lookup client never failed over to the standby"
        );
    }

    #[test]
    fn e9_churn_zero_stale_lookups_and_bounded_failover() {
        let run = churn_run(0xE9);
        assert_eq!(run.stale_rows, 0, "a lookup served a lapsed lease");
        assert!(run.lookups_served > 10, "cluster barely served: {}", run.lookups_served);
        assert!(
            run.failover.met(),
            "failover missed the {} s deadline: {:?}",
            churn::DEADLINE_S,
            run.failover.ttr_s()
        );
        assert!(run.epoch_bumps >= 1, "the primary kill never forced an election");
        assert!(run.snapshots_taken >= 1, "the primary never folded a snapshot");
        assert!(
            run.snapshot_installs >= 1,
            "the lagging replica rejoined without a snapshot install"
        );
        assert!(run.restores >= 2, "both scripted restarts must restore durable state");
        assert!(
            run.flap_absorbed > 0,
            "the damper absorbed nothing across {} flap ops",
            run.flapper_ops
        );
        for w in run.tables.windows(2) {
            assert_eq!(w[0], w[1], "registrar lease tables diverged at the horizon");
        }
    }

    #[test]
    fn e9_report_is_deterministic() {
        let a = e9_with(RunOpts::default());
        let b = e9_with(RunOpts::default());
        assert_eq!(a.json().render(), b.json().render());
    }
}
