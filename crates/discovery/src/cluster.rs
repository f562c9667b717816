//! The replicated registrar as a network application.
//!
//! [`ReplicatedRegistrarApp`] wraps one [`ReplicaNode`] per registrar and
//! wires it into the simulated stack: client traffic (the PR-3 discovery
//! protocol, unchanged on the wire) arrives over the WLAN, replication
//! traffic ([`RepMsg`], `0xD2`-framed) flows over the wired federation
//! links, and three timers drive heartbeats, rank-staggered elections and
//! expiry sweeps. Every state change is "fsynced": the node's
//! [`DurableState`] is re-encoded into a field the fault plane's
//! `ProcessKill` does not clear, so a killed registrar restarts from its
//! snapshot + retained log suffix exactly as a daemon would from disk.
//!
//! Serving discipline (the no-stale-lookup argument, see DESIGN.md §15):
//! only the **active primary** answers `DiscoverReq`, lookups and lease
//! operations. Replicas stay silent towards clients, so after a failover
//! the providers' and clients' existing recovery loops (renew timeout →
//! rediscover) land them on the new primary without any new protocol.
//!
//! Election timeouts are staggered by member rank (`ELECTION_BASE +
//! rank · ELECTION_STAGGER` of primary silence), so the owner of the next
//! epoch campaigns first and elections need no randomness.

use crate::apps::notify_subscribers;
use crate::codec::{pack_lookup_reply, Msg, Template};
use crate::replication::{
    ClientAck, ClusterConfig, DurableState, Effect, RepMsg, RepStats, ReplicaNode,
    PROTO_REPLICATION,
};
use aroma_net::{Address, NetApp, NetCtx, NodeId};
use aroma_sim::telemetry::Layer;
use aroma_sim::SimDuration;
use bytes::Bytes;

const T_HEARTBEAT: u64 = 11;
const T_ELECTION: u64 = 12;
const T_SWEEP: u64 = 13;

/// Primary → replica heartbeat period.
pub const HEARTBEAT_PERIOD: SimDuration = SimDuration::from_millis(100);
/// Base primary-silence span before the rank-1 owner campaigns.
pub const ELECTION_BASE: SimDuration = SimDuration::from_millis(600);
/// Extra silence each further rank waits, so owners campaign in epoch
/// order and elections never race.
pub const ELECTION_STAGGER: SimDuration = SimDuration::from_millis(300);
/// Expiry-sweep (and damper-housekeeping) period.
pub const SWEEP_PERIOD: SimDuration = SimDuration::from_millis(250);

/// A registrar participating in a replicated cluster.
pub struct ReplicatedRegistrarApp {
    cfg: ClusterConfig,
    /// The replication state machine (absent only before `on_start`).
    node: Option<ReplicaNode>,
    /// The persisted durable blob — survives `on_crash` (it is "disk").
    persisted: Option<Bytes>,
    /// False while the fault plane holds this node down.
    alive: bool,
    /// Telemetry mirror baseline: counters already flushed.
    flushed: RepStats,
    /// Lookups answered (this incarnation and prior ones).
    pub lookups_served: u64,
    /// Durable restores performed across restarts.
    pub restores: u64,
    /// Event notifications encoded (one per distinct `(kind, item)` run,
    /// as in [`crate::apps::RegistrarApp`]).
    pub event_encodings: u64,
    /// Event notifications the MAC refused to accept (full queue), also
    /// counted in `disc.events_dropped`.
    pub events_dropped: u64,
    started: bool,
}

impl ReplicatedRegistrarApp {
    /// A cluster member with the given configuration. The experiment must
    /// cable every member pair (`add_wired_link`) and assign node ids
    /// matching `cfg.members`.
    pub fn new(cfg: ClusterConfig) -> Self {
        ReplicatedRegistrarApp {
            cfg,
            node: None,
            persisted: None,
            alive: true,
            flushed: RepStats::default(),
            lookups_served: 0,
            restores: 0,
            event_encodings: 0,
            events_dropped: 0,
            started: false,
        }
    }

    /// The replication core, for post-run inspection.
    pub fn replica(&self) -> Option<&ReplicaNode> {
        self.node.as_ref()
    }

    fn rank(&self, me: u32) -> u64 {
        self.cfg.members.iter().position(|&m| m == me).unwrap_or(0) as u64
    }

    fn election_timeout(&self, me: u32) -> SimDuration {
        ELECTION_BASE + SimDuration::from_nanos(ELECTION_STAGGER.as_nanos() * self.rank(me))
    }

    fn arm_timers(&self, ctx: &mut NetCtx<'_>) {
        ctx.set_timer(HEARTBEAT_PERIOD, T_HEARTBEAT);
        ctx.set_timer(self.election_timeout(ctx.node().0), T_ELECTION);
        ctx.set_timer(SWEEP_PERIOD, T_SWEEP);
    }

    /// Carry out the effects the replication core requested, then persist
    /// and mirror the counters into telemetry.
    fn run_effects(&mut self, ctx: &mut NetCtx<'_>, effects: Vec<Effect>) {
        let mut effects = effects.into_iter().peekable();
        while let Some(e) = effects.next() {
            match e {
                Effect::Send { to, msg } => {
                    ctx.send_wired(NodeId(to), msg.encode());
                }
                Effect::Notify(ev) => {
                    // One transition notifies its subscribers as a run of
                    // effects; send the run as one batch so it is encoded
                    // once.
                    let mut batch = vec![ev];
                    while let Some(Effect::Notify(ev)) =
                        effects.next_if(|e| matches!(e, Effect::Notify(_)))
                    {
                        batch.push(ev);
                    }
                    let (encodings, dropped) = notify_subscribers(ctx, batch);
                    self.event_encodings += encodings;
                    self.events_dropped += dropped;
                }
                Effect::Ack { to, ack } => {
                    let msg = match ack {
                        ClientAck::Register { id, granted_ms } => {
                            Msg::RegisterAck { id, granted_ms }
                        }
                        ClientAck::Renew { id, ok, granted_ms } => {
                            Msg::RenewAck { id, ok, granted_ms }
                        }
                    };
                    ctx.send(Address::Node(NodeId(to)), msg.encode());
                }
            }
        }
        self.persist();
        self.flush_stats(ctx);
    }

    /// Re-encode the durable fraction (the synchronous "fsync" after every
    /// state change; cheap at simulation scale, and what makes
    /// `ProcessKill` recoverable).
    fn persist(&mut self) {
        if let Some(n) = &self.node {
            self.persisted = Some(n.durable().encode());
        }
    }

    /// Mirror `RepStats` deltas into `disc.repl.*` counters.
    fn flush_stats(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(n) = &self.node else { return };
        let s = n.stats;
        let rec = ctx.telemetry();
        if !rec.is_on() {
            self.flushed = s;
            return;
        }
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let pairs: [(&'static str, u64); 9] = [
            ("disc.repl.appends", d(s.appends_tx, self.flushed.appends_tx)),
            ("disc.repl.committed", d(s.committed, self.flushed.committed)),
            ("disc.repl.applied", d(s.applied, self.flushed.applied)),
            ("disc.repl.epoch_bumps", d(s.epoch_bumps, self.flushed.epoch_bumps)),
            ("disc.repl.elections", d(s.elections, self.flushed.elections)),
            ("disc.repl.snapshots_taken", d(s.snapshots_taken, self.flushed.snapshots_taken)),
            (
                "disc.repl.snapshot_installs_tx",
                d(s.snapshot_installs_tx, self.flushed.snapshot_installs_tx),
            ),
            (
                "disc.repl.snapshot_installs_rx",
                d(s.snapshot_installs_rx, self.flushed.snapshot_installs_rx),
            ),
            ("disc.repl.flap_absorbed", d(s.flap_absorbed, self.flushed.flap_absorbed)),
        ];
        for (name, delta) in pairs {
            if delta > 0 {
                rec.count(name, delta);
            }
        }
        rec.gauge("disc.repl.log_lag", s.log_lag_max as f64);
        if s.epoch_bumps > self.flushed.epoch_bumps {
            let (t, me, epoch, active) = (
                ctx.now().as_nanos(),
                ctx.node().0,
                self.node.as_ref().unwrap().epoch,
                self.node.as_ref().unwrap().is_active(ctx.now()),
            );
            ctx.telemetry().event(t, Layer::Abstract, "repl.epoch", me, epoch as i64, active as i64);
        }
        self.flushed = s;
    }

    /// Serve one lookup from the applied table (active primary only; the
    /// caller checked). Packs the reply as `RegistrarApp` does and mirrors
    /// its `lookup.serve` event shape so the chaos experiments read both
    /// the same way.
    fn serve_lookup(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, req: u64, template: Template) {
        let node = self.node.as_ref().unwrap();
        let now = ctx.now();
        self.lookups_served += 1;
        let matches = node.lookup_live(now, &template);
        let total = matches.len();
        let (reply, live) = pack_lookup_reply(req, &matches);
        if ctx.telemetry().is_on() {
            let all = node.table().lookup(&template).len();
            let stale = (all - total) as i64;
            let rec = ctx.telemetry();
            rec.count("disc.lookups", 1);
            rec.event(now.as_nanos(), Layer::Abstract, "lookup.serve", from.0, live as i64, stale);
            if stale > 0 {
                rec.count("disc.lease.stale_window_hits", stale as u64);
            }
        }
        ctx.send(Address::Node(from), reply);
    }

    fn on_client_msg(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, msg: Msg) {
        let now = ctx.now();
        // Replicas — and primaries whose serving lease has lapsed — are
        // silent towards clients: unanswered RPCs drive the existing
        // provider/client recovery loops to the active primary.
        if !self.node.as_ref().is_some_and(|n| n.is_active(now)) {
            return;
        }
        match msg {
            Msg::DiscoverReq { nonce } => {
                ctx.send(Address::Node(from), Msg::DiscoverResp { nonce }.encode());
            }
            Msg::Register { item, lease_ms } => {
                let id = item.id;
                let fx = self.node.as_mut().unwrap().client_register(
                    now,
                    from.0,
                    item,
                    SimDuration::from_millis(lease_ms),
                );
                let rec = ctx.telemetry();
                rec.count("disc.lease.grants", 1);
                rec.event(now.as_nanos(), Layer::Abstract, "lease.grant", from.0, id.0 as i64, 0);
                self.run_effects(ctx, fx);
            }
            Msg::Renew { id } => {
                let fx = self.node.as_mut().unwrap().client_renew(now, from.0, id);
                ctx.telemetry().count("disc.lease.renewals", 1);
                self.run_effects(ctx, fx);
            }
            Msg::Unregister { id } => {
                let fx = self.node.as_mut().unwrap().client_unregister(now, from.0, id);
                self.run_effects(ctx, fx);
            }
            Msg::Lookup { req, template } => {
                self.serve_lookup(ctx, from, req, template);
            }
            Msg::Subscribe { template } => {
                self.node.as_mut().unwrap().subscribe(from.0, template);
            }
            _ => {}
        }
    }
}

impl NetApp for ReplicatedRegistrarApp {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        // `on_restart` defaults to re-running `on_start`; distinguish the
        // boot (fresh state machine) from a recovery (durable restore).
        let me = ctx.node().0;
        self.alive = true;
        if !self.started {
            self.started = true;
            self.node = Some(ReplicaNode::new(me, self.cfg.clone()));
        } else {
            let restored = match self.persisted.clone().map(DurableState::decode) {
                Some(Ok(d)) => ReplicaNode::restore(me, self.cfg.clone(), d),
                // Power-cycle with state intact keeps the live node; a lost
                // or corrupt blob means rejoining empty (snapshot install
                // will refill us).
                _ => {
                    let mut n = self.node.take().unwrap_or_else(|| {
                        ReplicaNode::new(me, self.cfg.clone())
                    });
                    n.step_down_for_restart();
                    n
                }
            };
            self.restores += 1;
            self.flushed = restored.stats;
            ctx.telemetry().count("disc.repl.restores", 1);
            self.node = Some(restored);
        }
        // A (re)joining node grants any incumbent a full quiet period
        // before its first campaign.
        let now = ctx.now();
        self.node.as_mut().unwrap().note_heard(now);
        self.persist();
        self.arm_timers(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        if !self.alive || self.node.is_none() {
            return;
        }
        if payload.first() == Some(&PROTO_REPLICATION) {
            let Ok(msg) = RepMsg::decode(payload.clone()) else {
                return;
            };
            let now = ctx.now();
            let fx = self.node.as_mut().unwrap().on_message(now, from.0, msg);
            self.run_effects(ctx, fx);
            return;
        }
        let Ok(msg) = Msg::decode(payload.clone()) else {
            return;
        };
        self.on_client_msg(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        if !self.alive || self.node.is_none() {
            return;
        }
        let now = ctx.now();
        match token {
            T_HEARTBEAT => {
                let fx = self.node.as_mut().unwrap().heartbeat(now);
                self.run_effects(ctx, fx);
                ctx.set_timer(HEARTBEAT_PERIOD, T_HEARTBEAT);
            }
            T_ELECTION => {
                let timeout = self.election_timeout(ctx.node().0);
                let node = self.node.as_mut().unwrap();
                if !node.is_active(now) && now.saturating_since(node.last_heard()) >= timeout {
                    let fx = node.election_timeout(now);
                    self.run_effects(ctx, fx);
                }
                ctx.set_timer(timeout, T_ELECTION);
            }
            T_SWEEP => {
                let node = self.node.as_mut().unwrap();
                if node.is_active(now) {
                    let fx = node.sweep(now);
                    self.run_effects(ctx, fx);
                }
                ctx.set_timer(SWEEP_PERIOD, T_SWEEP);
            }
            _ => {}
        }
    }

    /// The fault plane took this registrar down. Volatile state dies with
    /// the incarnation; `self.persisted` is the disk and survives.
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.alive = false;
        self.node = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{ClientApp, ProviderApp};
    use crate::codec::{ServiceId, ServiceItem};
    use aroma_env::radio::{Channel, RadioEnvironment};
    use aroma_env::space::Point;
    use aroma_net::{MacConfig, Network, NodeConfig};

    fn quiet() -> RadioEnvironment {
        RadioEnvironment { shadowing_sigma_db: 0.0, ..Default::default() }
    }

    fn projector(id: u64) -> ServiceItem {
        ServiceItem {
            id: ServiceId(id),
            kind: "projector/display".into(),
            attributes: vec![("room".into(), "A-101".into())],
            provider: 0,
            proxy: Bytes::from_static(b"proxy"),
        }
    }

    struct Cluster {
        net: Network,
        regs: [NodeId; 3],
        client: NodeId,
    }

    /// Three registrars on a wired triangle, one provider, one polling
    /// client — all in one room.
    fn cluster(seed: u64) -> Cluster {
        let mut net = Network::new(quiet(), MacConfig::default(), seed);
        let cfg = ClusterConfig::of(vec![0, 1, 2]);
        let regs = [
            net.add_node(
                NodeConfig::at_on(Point::new(0.0, 0.0), Channel::CH1),
                Box::new(ReplicatedRegistrarApp::new(cfg.clone())),
            ),
            net.add_node(
                NodeConfig::at_on(Point::new(5.0, 0.0), Channel::CH1),
                Box::new(ReplicatedRegistrarApp::new(cfg.clone())),
            ),
            net.add_node(
                NodeConfig::at_on(Point::new(0.0, 5.0), Channel::CH1),
                Box::new(ReplicatedRegistrarApp::new(cfg)),
            ),
        ];
        for i in 0..3 {
            for j in (i + 1)..3 {
                net.add_wired_link(regs[i], regs[j], SimDuration::from_millis(1), 10_000_000);
            }
        }
        net.add_node(
            NodeConfig::at_on(Point::new(3.0, 3.0), Channel::CH1),
            Box::new(ProviderApp::new(projector(1), 8_000)),
        );
        let client = net.add_node(
            NodeConfig::at_on(Point::new(2.0, 1.0), Channel::CH1),
            Box::new(ClientApp::new(Template::of_kind("projector/display")).polling()),
        );
        Cluster { net, regs, client }
    }

    #[test]
    fn cluster_serves_and_replicates() {
        let mut c = cluster(7);
        c.net.run_for(SimDuration::from_secs(4));
        let client = c.net.app_as::<ClientApp>(c.client).unwrap();
        assert!(client.service_found_at.is_some(), "client found the projector");
        // The lease is committed on every replica, not just the primary.
        for r in c.regs {
            let app = c.net.app_as::<ReplicatedRegistrarApp>(r).unwrap();
            let node = app.replica().unwrap();
            assert_eq!(node.table().len(), 1, "registrar {} holds the lease", r.0);
            assert!(node.commit_index() >= 1);
        }
        let primary = c.net.app_as::<ReplicatedRegistrarApp>(c.regs[0]).unwrap();
        let end = aroma_sim::SimTime::ZERO + SimDuration::from_secs(4);
        assert!(primary.replica().unwrap().is_active(end), "heartbeat acks keep the lease fresh");
        assert!(primary.lookups_served > 0);
        // Replicas never answered a client.
        for r in &c.regs[1..] {
            assert_eq!(c.net.app_as::<ReplicatedRegistrarApp>(*r).unwrap().lookups_served, 0);
        }
    }

    #[test]
    fn failover_without_stale_lookups() {
        use aroma_faults::FaultSchedule;
        let mut c = cluster(11);
        // Kill the bootstrap primary's process mid-run; restore it later.
        let schedule = FaultSchedule::builder(11)
            .process_kill_restart(1_500_000_000, 3_500_000_000, 0)
            .build();
        c.net.attach_faults(&schedule);
        c.net.run_for(SimDuration::from_secs(6));
        // Node 1 (owner of epoch 1) took over.
        let end = aroma_sim::SimTime::ZERO + SimDuration::from_secs(6);
        let standby = c.net.app_as::<ReplicatedRegistrarApp>(c.regs[1]).unwrap();
        let node = standby.replica().unwrap();
        assert!(node.is_active(end), "epoch-1 owner must take over");
        assert!(node.epoch >= 1);
        assert_eq!(node.table().len(), 1, "committed lease survived the failover");
        // The client kept finding the service through the new primary.
        assert!(standby.lookups_served > 0, "clients failed over to the standby");
        // The killed node came back as a follower via durable restore.
        let old = c.net.app_as::<ReplicatedRegistrarApp>(c.regs[0]).unwrap();
        assert_eq!(old.restores, 1);
        let old_node = old.replica().unwrap();
        assert!(!old_node.is_active(end), "restored node must not reclaim primacy");
        assert_eq!(old_node.table().len(), 1, "rejoined with the committed lease");
    }
}
