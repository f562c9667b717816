//! Replicated-registrar model: drives the **real** [`ReplicaNode`]
//! replication core (the struct `aroma-discovery` ships to production)
//! through bounded nondeterminism — client churn, message reordering and
//! loss, process crash/restore from the durable blob, epoch elections —
//! and checks the three failover-safety properties of PR 9:
//!
//! * **at-most-one-active-primary** — no reachable state has two nodes
//!   simultaneously passing [`ReplicaNode::is_active`]; per-epoch
//!   uniqueness is additionally enforced across *time* through the ghost
//!   record of every epoch ever served.
//! * **no-committed-lease-lost** — every entry any node ever observed
//!   committing is stitched into a single ghost log; divergence between
//!   nodes' committed prefixes, a gap after a snapshot install, or an
//!   active primary whose commit index trails the ghost all poison the
//!   state.
//! * **no-stale-lookup** — a refinement check in the `LeaseModel` style:
//!   replaying the ghost log into a fresh [`ServiceRegistry`] must
//!   reproduce, row for row and live-lookup for live-lookup, the table of
//!   every node currently serving clients. A replica (or a deposed primary
//!   whose serving lease lapsed) is *silent*, so only active primaries are
//!   held to this — and the `replica_serving_would_be_stale` test proves
//!   the checker would catch the bug if silence were not enforced.
//!
//! The ghost is write-once: nodes publish their committed entries through
//! the `model-check`-gated [`ReplicaNode::committed_journal`], anchored at
//! [`ReplicaNode::journal_base`] so crash/restore and snapshot installs
//! stitch into one global prefix. The model never re-implements the
//! protocol; it only budgets the nondeterminism (ops, crashes, ticks,
//! epochs, channel capacity) so the sweep is finite.

use crate::model::{Model, Property, PropertyKind};
use aroma_discovery::{
    ClusterConfig, DurableState, Effect, FlapConfig, LogEntry, RepMsg, ReplicaNode, Role,
    ServiceId, ServiceItem, ServiceRegistry, Template,
};
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;
use std::collections::BTreeMap;

/// The model's time quantum; also the cluster's election-quiet period, so
/// one `Tick` is exactly "long enough for an election to become legal".
const QUANTUM: SimDuration = SimDuration::from_secs(1);

/// Client node id used for every client-edge op (acks are discarded, so
/// one id suffices).
const CLIENT: u32 = 90;

/// Exploration bounds. Every field is a budget: the state space is finite
/// because each nondeterministic choice draws one down.
#[derive(Clone, Debug)]
pub struct ReplConfig {
    /// Cluster size (member ids `0..members`).
    pub members: u32,
    /// Distinct service ids clients may touch (`1..=services`).
    pub services: u64,
    /// Client-edge operations (register/renew/unregister) in a run.
    pub ops: u32,
    /// Process crashes in a run (restarts are free: a down node may always
    /// come back from its durable blob).
    pub crashes: u32,
    /// Time-advance steps (each moves `now` one `QUANTUM`, 1 s).
    pub ticks: u32,
    /// Highest epoch a node may campaign for.
    pub epoch_cap: u64,
    /// In-flight federation messages; sends past this are dropped (loss).
    pub channel_cap: usize,
    /// Heartbeat-timer firings in a run. Commit propagation does not need
    /// them (append paths broadcast eagerly), but lease refresh and
    /// snapshot-install retries do; an unbudgeted heartbeat would multiply
    /// the channel alphabet without reaching new protocol territory.
    pub heartbeats: u32,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            members: 3,
            services: 1,
            ops: 2,
            crashes: 1,
            ticks: 2,
            epoch_cap: 1,
            channel_cap: 2,
            heartbeats: 2,
        }
    }
}

/// Full model state: the real nodes plus the budgets and the ghost spec.
#[derive(Clone, Debug)]
pub struct ReplState {
    /// Per-member replica core; `None` while crashed.
    nodes: Vec<Option<ReplicaNode>>,
    /// Per-member durable blob, mirrored after every mutation (the
    /// synchronous fsync the I/O layer performs); crash keeps it.
    durable: Vec<DurableState>,
    /// Model time.
    now: SimTime,
    /// In-flight messages `(from, to, msg)`, kept sorted by canonical
    /// bytes so `key` and action enumeration are order-independent.
    channel: Vec<(u32, u32, RepMsg)>,
    ops_left: u32,
    crashes_left: u32,
    ticks_left: u32,
    hb_left: u32,
    /// Ghost spec: the one true committed log. `ghost[i]` is the entry at
    /// global log index `i + 1`.
    ghost: Vec<LogEntry>,
    /// Every epoch ever actively served, and by whom.
    primaries: BTreeMap<u64, u32>,
    /// First protocol violation observed while absorbing journals; checked
    /// by `no-committed-lease-lost`.
    poison: Option<&'static str>,
}

/// One atomic model step.
#[derive(Clone, Debug)]
pub enum ReplAction {
    /// A client registers service `svc` at the active primary `node`.
    Register {
        /// Serving node index.
        node: usize,
        /// Service id.
        svc: u64,
    },
    /// A client renews `svc`'s lease at the active primary `node`.
    Renew {
        /// Serving node index.
        node: usize,
        /// Service id.
        svc: u64,
    },
    /// A client withdraws `svc` at the active primary `node`.
    Unregister {
        /// Serving node index.
        node: usize,
        /// Service id.
        svc: u64,
    },
    /// Deliver the channel message in (sorted) slot `slot`.
    Deliver {
        /// Channel slot.
        slot: usize,
    },
    /// Lose the channel message in slot `slot`.
    Drop {
        /// Channel slot.
        slot: usize,
    },
    /// `node`'s election timer fires (guarded by the quiet period).
    ElectionTimer {
        /// Node index.
        node: usize,
    },
    /// `node`'s heartbeat timer fires (primary only).
    HeartbeatTimer {
        /// Node index.
        node: usize,
    },
    /// `node`'s expiry-sweep timer fires (primary only).
    SweepTimer {
        /// Node index.
        node: usize,
    },
    /// Kill `node`; volatile state gone, durable blob survives.
    Crash {
        /// Node index.
        node: usize,
    },
    /// Restart `node` from its durable blob (grants the incumbent a full
    /// quiet period before it may campaign, like the I/O layer does).
    Restart {
        /// Node index.
        node: usize,
    },
    /// Advance time by one `QUANTUM` (1 s).
    Tick,
}

/// The model itself; see the module docs.
pub struct ReplModel {
    /// Exploration bounds.
    pub cfg: ReplConfig,
}

impl ReplModel {
    /// A model over the given bounds.
    pub fn new(cfg: ReplConfig) -> Self {
        ReplModel { cfg }
    }

    /// The cluster configuration under test: quiet period = one quantum,
    /// leases of two quanta (so sweeps are reachable), aggressive
    /// snapshotting (so snapshot installs are reachable), and an inert
    /// flap damper (damping is deliberately *not* modelled — the damper is
    /// primary-local policy, proven separately by its unit tests, and an
    /// active damper would make absorbed ops invisible to the ghost).
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            members: (0..self.cfg.members).collect(),
            max_lease: SimDuration::from_secs(2),
            snapshot_every: 2,
            election_quiet: QUANTUM,
            flap: FlapConfig {
                suppress_at: 1e9,
                reuse_below: 1.0,
                ceiling: 1e9,
                ..FlapConfig::default()
            },
        }
    }

    fn item(&self, svc: u64) -> ServiceItem {
        ServiceItem {
            id: ServiceId(svc),
            kind: "projector/display".to_string(),
            attributes: Vec::new(),
            provider: CLIENT,
            proxy: Bytes::new(),
        }
    }

    fn quiet(&self) -> SimDuration {
        self.cluster_config().election_quiet
    }

    /// Route a node's effects: `Send`s enter the channel (or are lost at
    /// capacity), acks and notifies leave the model; then mirror the
    /// acting node's durable fraction, as the I/O layer's synchronous
    /// persist does after every event.
    fn route(&self, s: &mut ReplState, acting: usize, effects: Vec<Effect>) {
        for fx in effects {
            if let Effect::Send { to, msg } = fx {
                if s.channel.len() < self.cfg.channel_cap {
                    s.channel.push((s.nodes[acting].as_ref().map_or(acting as u32, |n| n.me), to, msg));
                }
            }
        }
        if let Some(n) = s.nodes[acting].as_ref() {
            s.durable[acting] = n.durable();
        }
        s.channel.sort_by_cached_key(|(f, t, m)| (*f, *t, m.encode()[..].to_vec()));
    }

    /// Stitch every node's committed journal into the ghost and record
    /// serving observations; protocol violations poison the state.
    fn absorb(&self, s: &mut ReplState) {
        for slot in s.nodes.iter() {
            let Some(n) = slot else { continue };
            let base = n.journal_base() as usize;
            if base > s.ghost.len() {
                // A journal anchored past the ghost would mean entries
                // committed that no incarnation ever published.
                s.poison.get_or_insert("journal re-anchored past the committed prefix");
                continue;
            }
            for (k, e) in n.committed_journal().iter().enumerate() {
                let g = base + k;
                if g < s.ghost.len() {
                    if s.ghost[g] != *e {
                        s.poison.get_or_insert("committed entries diverged across nodes");
                    }
                } else {
                    s.ghost.push(e.clone());
                }
            }
        }
        for (i, slot) in s.nodes.iter().enumerate() {
            let Some(n) = slot else { continue };
            if n.is_active(s.now) {
                match s.primaries.get(&n.epoch) {
                    Some(&p) if p != i as u32 => {
                        s.poison.get_or_insert("two nodes served the same epoch");
                    }
                    _ => {
                        s.primaries.insert(n.epoch, i as u32);
                    }
                }
                if n.commit_index() < s.ghost.len() as u64 {
                    // The serve barrier (`commit >= serve_from`) plus
                    // leader completeness must make this unreachable.
                    s.poison.get_or_insert("active primary behind the committed prefix");
                }
            }
        }
    }

    /// Replay the ghost log into a fresh table — the specification every
    /// serving node's table must refine.
    fn replay(&self, ghost: &[LogEntry]) -> ServiceRegistry {
        let mut table = ServiceRegistry::new(self.cluster_config().max_lease);
        for e in ghost {
            let at = SimTime::from_nanos(e.at_nanos);
            match &e.op {
                aroma_discovery::RepOp::Register { item, lease_ms } => {
                    table.register(at, item.clone(), SimDuration::from_millis(*lease_ms));
                }
                aroma_discovery::RepOp::Renew { id } => {
                    table.renew(at, *id);
                }
                aroma_discovery::RepOp::Unregister { id } => {
                    table.unregister(*id);
                }
                aroma_discovery::RepOp::Sweep => {
                    table.expire(at);
                }
            }
        }
        table
    }

    /// Does `n`'s table — and the actual `lookup_live` client path over it
    /// — agree with the ghost replay?
    fn lookup_is_fresh(&self, s: &ReplState, n: &ReplicaNode) -> bool {
        let spec = self.replay(&s.ghost);
        let mut want: Vec<(ServiceId, SimTime)> =
            spec.entries().map(|(i, e)| (i.id, e)).collect();
        want.sort();
        let mut got = n.table_rows();
        got.sort();
        if want != got {
            return false;
        }
        let ids = |items: Vec<&ServiceItem>| {
            let mut v: Vec<u64> = items.into_iter().map(|i| i.id.0).collect();
            v.sort_unstable();
            v
        };
        ids(spec.lookup_live(s.now, &Template::any())) == ids(n.lookup_live(s.now, &Template::any()))
    }

    fn pack_bytes(key: &mut Vec<u64>, bytes: &[u8]) {
        key.push(bytes.len() as u64);
        let mut chunk = [0u8; 8];
        for c in bytes.chunks(8) {
            chunk.fill(0);
            chunk[..c.len()].copy_from_slice(c);
            key.push(u64::from_be_bytes(chunk));
        }
    }
}

impl Model for ReplModel {
    type State = ReplState;
    type Action = ReplAction;
    type Key = Vec<u64>;

    fn initial_states(&self) -> Vec<ReplState> {
        let ccfg = self.cluster_config();
        let nodes: Vec<Option<ReplicaNode>> =
            (0..self.cfg.members).map(|i| Some(ReplicaNode::new(i, ccfg.clone()))).collect();
        let durable = nodes.iter().map(|n| n.as_ref().unwrap().durable()).collect();
        let mut s = ReplState {
            nodes,
            durable,
            now: SimTime::ZERO,
            channel: Vec::new(),
            ops_left: self.cfg.ops,
            crashes_left: self.cfg.crashes,
            ticks_left: self.cfg.ticks,
            hb_left: self.cfg.heartbeats,
            ghost: Vec::new(),
            primaries: BTreeMap::new(),
            poison: None,
        };
        self.absorb(&mut s);
        vec![s]
    }

    fn actions(&self, s: &ReplState, out: &mut Vec<ReplAction>) {
        if s.poison.is_some() {
            return; // poisoned states are terminal: the violation is flagged
        }
        for (i, slot) in s.nodes.iter().enumerate() {
            let Some(n) = slot else {
                out.push(ReplAction::Restart { node: i });
                continue;
            };
            if n.is_active(s.now) && s.ops_left > 0 {
                for svc in 1..=self.cfg.services {
                    out.push(ReplAction::Register { node: i, svc });
                    // Renew/unregister only where the id is live: a nack
                    // (or a no-op log entry) spends the op budget on
                    // transitions that cannot move any property.
                    if n.table().expiry_of(ServiceId(svc)).is_some_and(|e| e > s.now) {
                        out.push(ReplAction::Renew { node: i, svc });
                        out.push(ReplAction::Unregister { node: i, svc });
                    }
                }
            }
            if n.role == Role::Primary {
                if s.hb_left > 0 {
                    out.push(ReplAction::HeartbeatTimer { node: i });
                }
                out.push(ReplAction::SweepTimer { node: i });
            } else if s.now >= n.last_heard() + self.quiet() {
                // The campaign the core would actually run: next owned
                // epoch above the node's current one, budget permitting.
                let mut e = n.epoch + 1;
                while self.cluster_config().owner_of(e) != n.me {
                    e += 1;
                }
                if e <= self.cfg.epoch_cap {
                    out.push(ReplAction::ElectionTimer { node: i });
                }
            }
            if s.crashes_left > 0 {
                out.push(ReplAction::Crash { node: i });
            }
        }
        for slot in 0..s.channel.len() {
            out.push(ReplAction::Deliver { slot });
            out.push(ReplAction::Drop { slot });
        }
        if s.ticks_left > 0 {
            out.push(ReplAction::Tick);
        }
    }

    fn step(&self, st: &ReplState, a: &ReplAction) -> Option<ReplState> {
        let mut s = st.clone();
        match a {
            ReplAction::Register { node, svc } => {
                s.ops_left -= 1;
                let item = self.item(*svc);
                let lease = self.cluster_config().max_lease;
                let fx = s.nodes[*node].as_mut()?.client_register(s.now, CLIENT, item, lease);
                self.route(&mut s, *node, fx);
            }
            ReplAction::Renew { node, svc } => {
                s.ops_left -= 1;
                let fx = s.nodes[*node].as_mut()?.client_renew(s.now, CLIENT, ServiceId(*svc));
                self.route(&mut s, *node, fx);
            }
            ReplAction::Unregister { node, svc } => {
                s.ops_left -= 1;
                let fx = s.nodes[*node].as_mut()?.client_unregister(s.now, CLIENT, ServiceId(*svc));
                self.route(&mut s, *node, fx);
            }
            ReplAction::Deliver { slot } => {
                let (from, to, msg) = s.channel.remove(*slot);
                // Delivery to a crashed node is the same as a drop; prune
                // the duplicate transition.
                let n = s.nodes[to as usize].as_mut()?;
                let fx = n.on_message(s.now, from, msg);
                self.route(&mut s, to as usize, fx);
            }
            ReplAction::Drop { slot } => {
                s.channel.remove(*slot);
            }
            ReplAction::ElectionTimer { node } => {
                let fx = s.nodes[*node].as_mut()?.election_timeout(s.now);
                self.route(&mut s, *node, fx);
            }
            ReplAction::HeartbeatTimer { node } => {
                s.hb_left -= 1;
                let fx = s.nodes[*node].as_mut()?.heartbeat(s.now);
                self.route(&mut s, *node, fx);
            }
            ReplAction::SweepTimer { node } => {
                let fx = s.nodes[*node].as_mut()?.sweep(s.now);
                self.route(&mut s, *node, fx);
            }
            ReplAction::Crash { node } => {
                s.crashes_left -= 1;
                s.nodes[*node] = None;
            }
            ReplAction::Restart { node } => {
                let mut n = ReplicaNode::restore(
                    *node as u32,
                    self.cluster_config(),
                    s.durable[*node].clone(),
                );
                n.note_heard(s.now);
                s.nodes[*node] = Some(n);
            }
            ReplAction::Tick => {
                s.ticks_left -= 1;
                s.now += QUANTUM;
            }
        }
        self.absorb(&mut s);
        Some(s)
    }

    fn key(&self, s: &ReplState) -> Vec<u64> {
        let mut k = vec![
            s.now.as_nanos(),
            s.ops_left as u64,
            s.crashes_left as u64,
            s.ticks_left as u64,
            s.hb_left as u64,
            s.poison.is_some() as u64,
        ];
        for (i, slot) in s.nodes.iter().enumerate() {
            match slot {
                None => {
                    // Crashed: only the durable blob is behaviourally
                    // relevant (it is what a restart resurrects).
                    k.push(0);
                    Self::pack_bytes(&mut k, &s.durable[i].encode()[..]);
                }
                Some(n) => {
                    let words = n.canonical_words();
                    k.push(1 + words.len() as u64);
                    k.extend(words);
                }
            }
        }
        k.push(s.channel.len() as u64);
        for (f, t, m) in &s.channel {
            k.push(*f as u64);
            k.push(*t as u64);
            Self::pack_bytes(&mut k, &m.encode()[..]);
        }
        // The ghost and the served-epoch record are part of the property
        // semantics, so states may not merge across different histories.
        let ghost_bytes = RepMsg::Append {
            epoch: 0,
            prev_index: 0,
            prev_epoch: 0,
            commit: 0,
            sent_nanos: 0,
            entries: s.ghost.clone(),
        }
        .encode();
        Self::pack_bytes(&mut k, &ghost_bytes[..]);
        k.push(s.primaries.len() as u64);
        for (e, p) in &s.primaries {
            k.push(*e);
            k.push(*p as u64);
        }
        k
    }

    fn properties(&self) -> Vec<Property<Self>> {
        vec![
            Property {
                name: "at-most-one-active-primary",
                kind: PropertyKind::Always,
                check: |_, s| {
                    s.nodes.iter().flatten().filter(|n| n.is_active(s.now)).count() <= 1
                },
            },
            Property {
                name: "no-committed-lease-lost",
                kind: PropertyKind::Always,
                check: |_, s| s.poison.is_none(),
            },
            Property {
                name: "no-stale-lookup",
                kind: PropertyKind::Always,
                check: |m, s| {
                    s.nodes
                        .iter()
                        .flatten()
                        .filter(|n| n.is_active(s.now))
                        .all(|n| m.lookup_is_fresh(s, n))
                },
            },
        ]
    }

    fn format_action(&self, a: &ReplAction) -> String {
        match a {
            ReplAction::Register { node, svc } => format!("client registers svc{svc} at node{node}"),
            ReplAction::Renew { node, svc } => format!("client renews svc{svc} at node{node}"),
            ReplAction::Unregister { node, svc } => {
                format!("client unregisters svc{svc} at node{node}")
            }
            ReplAction::Deliver { slot } => format!("deliver channel[{slot}]"),
            ReplAction::Drop { slot } => format!("lose channel[{slot}]"),
            ReplAction::ElectionTimer { node } => format!("election timer fires at node{node}"),
            ReplAction::HeartbeatTimer { node } => format!("heartbeat timer fires at node{node}"),
            ReplAction::SweepTimer { node } => format!("sweep timer fires at node{node}"),
            ReplAction::Crash { node } => format!("node{node} crashes (durable blob kept)"),
            ReplAction::Restart { node } => format!("node{node} restarts from durable blob"),
            ReplAction::Tick => "time advances one quantum".to_string(),
        }
    }

    fn format_state(&self, s: &ReplState) -> String {
        let roles: Vec<String> = s
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| match n {
                None => format!("n{i}:down"),
                Some(n) => format!(
                    "n{i}:{:?}@e{}{} c{}",
                    n.role,
                    n.epoch,
                    if n.is_active(s.now) { "*" } else { "" },
                    n.commit_index()
                ),
            })
            .collect();
        format!(
            "t={}ms [{}] channel={} ghost={} ops={} poison={:?}",
            s.now.as_nanos() / 1_000_000,
            roles.join(" "),
            s.channel.len(),
            s.ghost.len(),
            s.ops_left,
            s.poison
        )
    }
}

/// Seeded-fault wrapper: the same transitions, but the freshness property
/// is asserted over **every** alive node, as if replicas (and deposed
/// primaries with lapsed serving leases) answered lookups. The checker
/// must find a counterexample — a committed unregister not yet shipped to
/// a lagging replica — which is exactly the staleness the primary-only
/// serving discipline prevents.
pub struct AnyNodeServes(pub ReplModel);

impl Model for AnyNodeServes {
    type State = ReplState;
    type Action = ReplAction;
    type Key = Vec<u64>;

    fn initial_states(&self) -> Vec<ReplState> {
        self.0.initial_states()
    }
    fn actions(&self, s: &ReplState, out: &mut Vec<ReplAction>) {
        self.0.actions(s, out)
    }
    fn step(&self, s: &ReplState, a: &ReplAction) -> Option<ReplState> {
        self.0.step(s, a)
    }
    fn key(&self, s: &ReplState) -> Vec<u64> {
        self.0.key(s)
    }
    fn properties(&self) -> Vec<Property<Self>> {
        vec![Property {
            name: "every-node-lookup-fresh",
            kind: PropertyKind::Always,
            check: |m, s| s.nodes.iter().flatten().all(|n| m.0.lookup_is_fresh(s, n)),
        }]
    }
    fn format_action(&self, a: &ReplAction) -> String {
        self.0.format_action(a)
    }
    fn format_state(&self, s: &ReplState) -> String {
        self.0.format_state(s)
    }
}

impl AnyNodeServes {
    /// The two-member, no-failure configuration in which the shortest
    /// counterexample lives: register, commit, unregister, and look at the
    /// replica before the commit-carrying append lands.
    pub fn demo() -> Self {
        AnyNodeServes(ReplModel::new(ReplConfig {
            members: 2,
            services: 1,
            ops: 2,
            crashes: 0,
            ticks: 0,
            epoch_cap: 0,
            channel_cap: 4,
            heartbeats: 0,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{check, CheckerConfig};

    /// The largest configuration whose full interleaving space still
    /// reaches a fixpoint quickly enough for the debug test suite: one
    /// client op, one crash/restore, one clock tick, one election — a
    /// 38.5k-state complete sweep (measured in release; the unbounded
    /// default config is swept by `examples/model_check.rs`).
    fn tiny() -> ReplConfig {
        ReplConfig {
            members: 3,
            services: 1,
            ops: 1,
            crashes: 1,
            ticks: 1,
            epoch_cap: 1,
            channel_cap: 2,
            heartbeats: 0,
        }
    }

    #[test]
    fn tiny_sweep_reaches_fixpoint_and_passes() {
        let m = ReplModel::new(tiny());
        let r = check(&m, &CheckerConfig::default().with_max_states(100_000));
        assert!(r.passed(), "{}", r.violations[0].pretty(&m));
        assert!(r.complete, "bounded replication model must reach fixpoint");
        // Exact, not a floor: the lease table the replicas apply is part
        // of every state, so a change to its behaviour moves these counts.
        assert_eq!((r.distinct_states, r.transitions), (38_510, 155_703));
    }

    #[test]
    fn worker_count_is_invisible() {
        let m = ReplModel::new(ReplConfig { ticks: 1, crashes: 0, ..tiny() });
        let a = check(&m, &CheckerConfig::default().with_max_states(200_000).with_workers(1));
        let b = check(&m, &CheckerConfig::default().with_max_states(200_000).with_workers(4));
        assert_eq!(a.distinct_states, b.distinct_states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.passed(), b.passed());
    }

    #[test]
    fn failover_path_stitches_the_ghost() {
        // A scripted trace through the model's own step/absorb machinery:
        // commit under epoch 0, crash the primary, elect node1 for epoch
        // 1, and watch the serve barrier hold until the barrier commits.
        let m = ReplModel::new(ReplConfig { ticks: 2, ..ReplConfig::default() });
        let mut s = m.initial_states().remove(0);
        let step = |m: &ReplModel, s: &ReplState, a: ReplAction| -> ReplState {
            m.step(s, &a).expect("scripted action must be enabled")
        };
        s = step(&m, &s, ReplAction::Register { node: 0, svc: 1 });
        // Ship the entry to both replicas and ack from node1 → commit.
        while let Some(slot) = s.channel.iter().position(|(_, to, _)| *to == 1) {
            s = step(&m, &s, ReplAction::Deliver { slot });
            if let Some(back) = s.channel.iter().position(|(_, to, _)| *to == 0) {
                s = step(&m, &s, ReplAction::Deliver { slot: back });
            }
            if s.ghost.len() == 1 && s.nodes[1].as_ref().unwrap().commit_index() == 1 {
                break;
            }
        }
        assert_eq!(s.ghost.len(), 1, "register must commit into the ghost");
        // Lose everything still in flight (node2 never hears epoch 0 —
        // the election must bring it up to date through the log check).
        while !s.channel.is_empty() {
            s = step(&m, &s, ReplAction::Drop { slot: 0 });
        }
        // Primary dies; time passes; node1 (owner of epoch 1) campaigns.
        s = step(&m, &s, ReplAction::Crash { node: 0 });
        s = step(&m, &s, ReplAction::Tick);
        s = step(&m, &s, ReplAction::ElectionTimer { node: 1 });
        // Candidate is not active: its election barrier has not committed.
        assert!(!s.nodes[1].as_ref().unwrap().is_active(s.now));
        // Vote round trip with node2, then barrier append (which back-fills
        // node2's missing entry) and its ack. Traffic to the dead node 0
        // is dropped as it appears — at channel_cap 2 it would otherwise
        // squeeze out the barrier append (the model treats a full channel
        // as loss, so this is an interleaving the sweep covers too).
        for _ in 0..16 {
            if s.nodes[1].as_ref().unwrap().is_active(s.now) {
                break;
            }
            if let Some(slot) = s.channel.iter().position(|(_, to, _)| *to == 0) {
                s = step(&m, &s, ReplAction::Drop { slot });
            } else if let Some(slot) = s.channel.iter().position(|(_, to, _)| *to != 0) {
                s = step(&m, &s, ReplAction::Deliver { slot });
            } else {
                break;
            }
        }
        let n1 = s.nodes[1].as_ref().unwrap();
        assert_eq!(n1.role, Role::Primary);
        assert_eq!(n1.epoch, 1);
        assert!(n1.is_active(s.now), "barrier committed + fresh majority contact must serve");
        assert!(s.primaries.contains_key(&0) && s.primaries.contains_key(&1));
        assert_eq!(s.ghost.len(), 2, "the election barrier itself is a committed entry");
        assert!(s.poison.is_none(), "{:?}", s.poison);
        // The old incumbent restarts from disk and stitches its journal
        // back into the same ghost (no divergence, no gap).
        s = step(&m, &s, ReplAction::Restart { node: 0 });
        assert!(!s.nodes[0].as_ref().unwrap().is_active(s.now));
        assert!(s.poison.is_none(), "{:?}", s.poison);
    }

    #[test]
    fn replica_serving_would_be_stale() {
        let m = AnyNodeServes::demo();
        let r = check(&m, &CheckerConfig::default().with_max_states(300_000));
        assert!(!r.passed(), "a lagging replica must fail the all-nodes property");
        let v = &r.violations[0];
        assert_eq!(v.property, "every-node-lookup-fresh");
        assert!(v.trace.len() <= 12, "counterexample should be short, got {}", v.trace.len());
    }
}
