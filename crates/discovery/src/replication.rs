//! Log-shipped lease-state replication between registrars.
//!
//! PR 4's warm standby mirrors registrations best-effort: a registrar crash
//! loses every lease granted since the last mirrored message. This module
//! replaces mirroring with a replicated log in the Raft shape, specialised
//! by one structural rule that the paper's fixed-infrastructure registrars
//! afford us: **epoch `e` may only ever be claimed by
//! `members[e mod members.len()]`**. There is exactly one legal candidate
//! per epoch, so at-most-one-active-primary-per-epoch holds by
//! construction (votes from different nodes in the same epoch cannot
//! diverge), and a vote needs no durable `votedFor`: re-granting after a
//! crash can only re-grant to the same candidate.
//!
//! The rest is classic:
//!
//! * every lease mutation (register / renew / unregister / expiry sweep)
//!   is a [`LogEntry`] appended by the active primary and shipped to the
//!   replicas over the wired federation link ([`RepMsg::Append`]);
//! * an entry is **committed** once a majority holds it; the primary only
//!   advances the commit index over entries of its own epoch (the Raft
//!   commit rule), and a new primary opens its reign with a no-op sweep
//!   barrier so earlier-epoch entries commit promptly;
//! * elections require a majority of [`RepMsg::VoteGrant`]s, and a voter
//!   refuses any candidate whose log is behind its own
//!   (`(last_epoch, last_index)` lexicographic), which gives Leader
//!   Completeness: a new primary holds every committed entry —
//!   no-committed-lease-lost;
//! * entries carry the primary's receive time (`at_nanos`) and are applied
//!   with it, so the lease table is a pure function of the log prefix and
//!   every replica's table is byte-identical at equal applied indices;
//! * applied prefixes are periodically folded into a
//!   [`LeaseSnapshot`] and the log
//!   truncated; a replica that nacks below the primary's retained log gets
//!   a [`RepMsg::SnapshotInstall`] and then catches up from the suffix.
//!
//! Only the **active primary** answers discovery, lookups and client
//! operations. A replica's table can lag the committed prefix (a committed
//! unregister it has not applied yet), so a replica serving lookups would
//! re-open exactly the stale window `aroma-check` closed for the
//! single-registrar protocol — the `replication_model` in `crates/check`
//! demonstrates that failure and proves the primary-only path.
//!
//! Client churn is damped at the edge by a [`FlapDamper`]: suppressed
//! services' register/unregister cycles are absorbed (acked but neither
//! logged nor replicated nor fanned out). Damper state is primary-local by
//! design — after a failover the new primary starts the flapper at zero
//! penalty, which merely delays re-suppression by a few cycles.

use crate::codec::{get_item, put_item, ServiceId, ServiceItem, Template};
use crate::flap::{FlapConfig, FlapDamper, FlapDecision};
use crate::registry::{RegistryEvent, ServiceRegistry};
use crate::snapshot::LeaseSnapshot;
use aroma_net::wire::{self, Reader, WireError};
use aroma_sim::{SimDuration, SimTime};
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, BTreeSet};

/// Protocol discriminator: first byte of every replication message.
pub const PROTO_REPLICATION: u8 = 0xD2;

const TAG_APPEND: u8 = 1;
const TAG_APPEND_ACK: u8 = 2;
const TAG_VOTE_REQ: u8 = 3;
const TAG_VOTE_GRANT: u8 = 4;
const TAG_SNAPSHOT_INSTALL: u8 = 5;

const OP_REGISTER: u8 = 1;
const OP_RENEW: u8 = 2;
const OP_UNREGISTER: u8 = 3;
const OP_SWEEP: u8 = 4;

/// One replicated lease mutation.
#[derive(Clone, Debug, PartialEq)]
pub enum RepOp {
    /// Grant (or refresh) a registration. `lease_ms` is the lease as
    /// granted by the appending primary (already capped), so application
    /// is policy-free.
    Register {
        /// The service.
        item: ServiceItem,
        /// Granted lease, milliseconds.
        lease_ms: u64,
    },
    /// Renew a lease (outcome decided at application time).
    Renew {
        /// The service id.
        id: ServiceId,
    },
    /// Withdraw a service.
    Unregister {
        /// The service id.
        id: ServiceId,
    },
    /// Expiry-sweep barrier: applying it sweeps every lease lapsed as of
    /// the entry's `at_nanos`. Also appended (empty or not) by a freshly
    /// elected primary as its commit barrier.
    Sweep,
}

/// One replication-log entry: the op, the epoch it was appended in, and
/// the primary's receive time, which every replica applies it with (the
/// table is a pure function of the log).
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry {
    /// Epoch of the appending primary.
    pub epoch: u64,
    /// Primary's receive time (nanoseconds), used as `now` at application.
    pub at_nanos: u64,
    /// The mutation.
    pub op: RepOp,
}

/// A registrar-to-registrar replication message.
#[derive(Clone, Debug, PartialEq)]
pub enum RepMsg {
    /// Primary → replica: log entries after (`prev_index`, `prev_epoch`),
    /// plus the primary's commit index. Empty `entries` is the heartbeat.
    Append {
        /// Primary's epoch.
        epoch: u64,
        /// Index of the entry immediately before `entries`.
        prev_index: u64,
        /// Epoch of that entry (0 at the log's origin).
        prev_epoch: u64,
        /// Primary's commit index.
        commit: u64,
        /// Primary-clock send time (nanoseconds); the ack echoes it, which
        /// is what lets the primary compute its serving lease without any
        /// cross-node clock assumption.
        sent_nanos: u64,
        /// The shipped entries (indices `prev_index + 1 ..`).
        entries: Vec<LogEntry>,
    },
    /// Replica → primary: append outcome. `match_index` is the highest
    /// index the replica's log now provably matches the primary's (on
    /// nack: its last index, as a back-off hint).
    AppendAck {
        /// Replica's epoch (a higher epoch tells the primary to step down).
        epoch: u64,
        /// Whether the append was consistent and accepted.
        ok: bool,
        /// Match hint (see above).
        match_index: u64,
        /// Echo of the acknowledged message's `sent_nanos`. An `ok` ack
        /// proves the replica heard this primary no earlier than that
        /// instant, so it will refuse votes until `sent_nanos +
        /// election_quiet` — the primary's lease evidence.
        heard_nanos: u64,
    },
    /// Candidate → all: request a vote for `epoch` (which the candidate
    /// must own by the modulo rule), advertising its log position.
    VoteReq {
        /// The claimed epoch.
        epoch: u64,
        /// Candidate's last log index.
        last_index: u64,
        /// Epoch of that entry.
        last_epoch: u64,
    },
    /// Voter → candidate: vote granted for `epoch`.
    VoteGrant {
        /// The epoch voted in.
        epoch: u64,
    },
    /// Primary → far-behind replica: a full applied-state snapshot to
    /// install, after which the replica catches up from the log suffix.
    SnapshotInstall {
        /// Primary's epoch.
        epoch: u64,
        /// Primary-clock send time (echoed by the ack, like `Append`).
        sent_nanos: u64,
        /// The snapshot.
        snapshot: LeaseSnapshot,
    },
}

fn put_entry(buf: &mut BytesMut, e: &LogEntry) {
    buf.put_u64(e.epoch);
    buf.put_u64(e.at_nanos);
    match &e.op {
        RepOp::Register { item, lease_ms } => {
            buf.put_u8(OP_REGISTER);
            buf.put_u64(*lease_ms);
            put_item(buf, item);
        }
        RepOp::Renew { id } => {
            buf.put_u8(OP_RENEW);
            buf.put_u64(id.0);
        }
        RepOp::Unregister { id } => {
            buf.put_u8(OP_UNREGISTER);
            buf.put_u64(id.0);
        }
        RepOp::Sweep => buf.put_u8(OP_SWEEP),
    }
}

/// Smallest encoding of a [`LogEntry`]: epoch, time and a `Sweep` op.
const MIN_ENTRY_LEN: usize = 8 + 8 + 1;

fn get_entry(r: &mut Reader) -> Result<LogEntry, WireError> {
    let epoch = r.u64()?;
    let at_nanos = r.u64()?;
    let op = match r.u8()? {
        OP_REGISTER => RepOp::Register { lease_ms: r.u64()?, item: get_item(r)? },
        OP_RENEW => RepOp::Renew { id: ServiceId(r.u64()?) },
        OP_UNREGISTER => RepOp::Unregister { id: ServiceId(r.u64()?) },
        OP_SWEEP => RepOp::Sweep,
        t => return Err(WireError::BadTag(t)),
    };
    Ok(LogEntry { epoch, at_nanos, op })
}

/// `n` log entries (the count is a u16 in `Append`, a u32 on disk).
fn get_entries(n: usize, r: &mut Reader) -> Result<Vec<LogEntry>, WireError> {
    let mut entries = Vec::with_capacity(r.capacity(n, MIN_ENTRY_LEN));
    for _ in 0..n {
        entries.push(get_entry(r)?);
    }
    Ok(entries)
}

impl RepMsg {
    /// Encode to wire bytes (prefixed with [`PROTO_REPLICATION`]).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(PROTO_REPLICATION);
        match self {
            RepMsg::Append { epoch, prev_index, prev_epoch, commit, sent_nanos, entries } => {
                buf.put_u8(TAG_APPEND);
                buf.put_u64(*epoch);
                buf.put_u64(*prev_index);
                buf.put_u64(*prev_epoch);
                buf.put_u64(*commit);
                buf.put_u64(*sent_nanos);
                buf.put_u16(wire::prefix(entries.len()));
                for e in entries {
                    put_entry(&mut buf, e);
                }
            }
            RepMsg::AppendAck { epoch, ok, match_index, heard_nanos } => {
                buf.put_u8(TAG_APPEND_ACK);
                buf.put_u64(*epoch);
                buf.put_u8(*ok as u8);
                buf.put_u64(*match_index);
                buf.put_u64(*heard_nanos);
            }
            RepMsg::VoteReq { epoch, last_index, last_epoch } => {
                buf.put_u8(TAG_VOTE_REQ);
                buf.put_u64(*epoch);
                buf.put_u64(*last_index);
                buf.put_u64(*last_epoch);
            }
            RepMsg::VoteGrant { epoch } => {
                buf.put_u8(TAG_VOTE_GRANT);
                buf.put_u64(*epoch);
            }
            RepMsg::SnapshotInstall { epoch, sent_nanos, snapshot } => {
                buf.put_u8(TAG_SNAPSHOT_INSTALL);
                buf.put_u64(*epoch);
                buf.put_u64(*sent_nanos);
                let blob = snapshot.encode();
                buf.put_u32(wire::prefix(blob.len()));
                buf.put_slice(&blob);
            }
        }
        buf.freeze()
    }

    /// Decode from wire bytes; must consume the buffer exactly.
    pub fn decode(buf: Bytes) -> Result<RepMsg, WireError> {
        let mut r = Reader::new(buf);
        r.tag(PROTO_REPLICATION)?;
        let msg = match r.u8()? {
            TAG_APPEND => RepMsg::Append {
                epoch: r.u64()?,
                prev_index: r.u64()?,
                prev_epoch: r.u64()?,
                commit: r.u64()?,
                sent_nanos: r.u64()?,
                entries: get_entries(r.u16()?.into(), &mut r)?,
            },
            TAG_APPEND_ACK => RepMsg::AppendAck {
                epoch: r.u64()?,
                ok: r.u8()? != 0,
                match_index: r.u64()?,
                heard_nanos: r.u64()?,
            },
            TAG_VOTE_REQ => RepMsg::VoteReq {
                epoch: r.u64()?,
                last_index: r.u64()?,
                last_epoch: r.u64()?,
            },
            TAG_VOTE_GRANT => RepMsg::VoteGrant { epoch: r.u64()? },
            TAG_SNAPSHOT_INSTALL => RepMsg::SnapshotInstall {
                epoch: r.u64()?,
                sent_nanos: r.u64()?,
                snapshot: LeaseSnapshot::decode(r.bytes32()?)?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Static cluster membership and replication tuning.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Member node ids; `members[0]` bootstraps as the epoch-0 primary and
    /// epoch `e` belongs to `members[e % len]`.
    pub members: Vec<u32>,
    /// Maximum lease the cluster grants.
    pub max_lease: SimDuration,
    /// Fold the applied prefix into a snapshot (and truncate the log)
    /// every this many applied entries.
    pub snapshot_every: u64,
    /// The election quiet period, doing double duty as the serving lease:
    /// a member refuses votes (and will not campaign) within this long of
    /// hearing a current-epoch primary, and a primary serves clients only
    /// while a majority provably heard from it within this long (acks echo
    /// its own send timestamps, so no cross-node clock is assumed). The
    /// two uses sharing one constant is what makes serve windows of
    /// successive primaries provably disjoint.
    pub election_quiet: SimDuration,
    /// Flap-damping thresholds.
    pub flap: FlapConfig,
}

impl ClusterConfig {
    /// A config with the given members and defaults suitable for tests.
    pub fn of(members: Vec<u32>) -> Self {
        ClusterConfig {
            members,
            max_lease: SimDuration::from_secs(10),
            snapshot_every: 64,
            election_quiet: SimDuration::from_millis(600),
            flap: FlapConfig::default(),
        }
    }

    /// The unique legal primary for `epoch`.
    pub fn owner_of(&self, epoch: u64) -> u32 {
        self.members[(epoch % self.members.len() as u64) as usize]
    }

    /// Votes (acks) needed for election (commit).
    pub fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }
}

/// The replication role of a registrar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Accepting entries from the current primary.
    Follower,
    /// Campaigning for an owned epoch.
    Candidate,
    /// The active primary: the only node that serves clients.
    Primary,
}

/// A protocol-level acknowledgement owed to a client once its entry
/// commits (the I/O layer turns these into `RegisterAck`/`RenewAck`).
#[derive(Clone, Debug, PartialEq)]
pub enum ClientAck {
    /// Registration durable; lease granted.
    Register {
        /// The service id.
        id: ServiceId,
        /// Granted lease, milliseconds.
        granted_ms: u64,
    },
    /// Renewal outcome (decided at application time).
    Renew {
        /// The service id.
        id: ServiceId,
        /// Whether the lease was live and renewed.
        ok: bool,
        /// New lease if `ok`, milliseconds.
        granted_ms: u64,
    },
}

/// An externally visible action requested by the replication core; the
/// I/O layer (or the model checker) carries them out.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// Send `msg` to peer registrar `to` over the federation link.
    Send {
        /// Destination member id.
        to: u32,
        /// The message.
        msg: RepMsg,
    },
    /// Push a subscriber event (only the active primary emits these, at
    /// the moment the causing entry is applied).
    Notify(RegistryEvent),
    /// A client op committed (or was absorbed): acknowledge it.
    Ack {
        /// The client node to answer.
        to: u32,
        /// The acknowledgement.
        ack: ClientAck,
    },
}

#[derive(Clone, Debug)]
enum Pending {
    Register { to: u32, id: ServiceId, granted_ms: u64 },
    Renew { to: u32, id: ServiceId },
}

/// Replication counters, mirrored into `disc.repl.*` telemetry by the I/O
/// layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepStats {
    /// Appends shipped (primary side).
    pub appends_tx: u64,
    /// Entries committed (commit-index advances observed locally).
    pub committed: u64,
    /// Entries applied to the lease table.
    pub applied: u64,
    /// Times this node's epoch increased.
    pub epoch_bumps: u64,
    /// Elections this node started.
    pub elections: u64,
    /// Snapshots folded locally (log truncations).
    pub snapshots_taken: u64,
    /// Snapshots shipped to far-behind replicas.
    pub snapshot_installs_tx: u64,
    /// Snapshots installed from the primary.
    pub snapshot_installs_rx: u64,
    /// Durable-state restores (crash recovery via persisted snapshot+log).
    pub snapshot_restores: u64,
    /// Client churn ops absorbed by the flap damper.
    pub flap_absorbed: u64,
    /// Highest replica log lag seen at a heartbeat (primary side gauge).
    pub log_lag_max: u64,
}

/// What a restarted registrar recovers from: the durable fraction of
/// [`ReplicaNode`] (epoch, folded snapshot, retained log suffix). The I/O
/// layer persists the [`DurableState::encode`] blob across process kills
/// — this is the "disk" a real registrar daemon would fsync.
#[derive(Clone, Debug, PartialEq)]
pub struct DurableState {
    /// Highest epoch seen.
    pub epoch: u64,
    /// Applied-prefix snapshot (possibly empty at index 0).
    pub snapshot: LeaseSnapshot,
    /// Index of `log[0]` (= `snapshot.last_index + 1`).
    pub log_start: u64,
    /// Retained log suffix.
    pub log: Vec<LogEntry>,
}

/// Durable-state layout version.
pub const DURABLE_VERSION: u8 = 1;

impl DurableState {
    /// Encode to bytes (versioned, deterministic).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(DURABLE_VERSION);
        buf.put_u64(self.epoch);
        buf.put_u64(self.log_start);
        let blob = self.snapshot.encode();
        buf.put_u32(wire::prefix(blob.len()));
        buf.put_slice(&blob);
        buf.put_u32(wire::prefix(self.log.len()));
        for e in &self.log {
            put_entry(&mut buf, e);
        }
        buf.freeze()
    }

    /// Decode from bytes; must consume the buffer exactly.
    pub fn decode(buf: Bytes) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        r.tag(DURABLE_VERSION)?;
        let epoch = r.u64()?;
        let log_start = r.u64()?;
        let snapshot = LeaseSnapshot::decode(r.bytes32()?)?;
        let log = get_entries(r.u32()? as usize, &mut r)?;
        r.finish()?;
        Ok(DurableState { epoch, snapshot, log_start, log })
    }
}

/// One registrar's replication state machine. Pure: all I/O is expressed
/// as returned [`Effect`]s, all time is the caller's, so the same struct
/// runs under the network simulator and under `aroma-check`.
#[derive(Clone, Debug)]
pub struct ReplicaNode {
    /// This member's node id.
    pub me: u32,
    /// Cluster membership and tuning.
    pub cfg: ClusterConfig,
    /// Current epoch (highest seen).
    pub epoch: u64,
    /// Current role.
    pub role: Role,
    /// Counters (telemetry mirror).
    pub stats: RepStats,
    voted: u64,
    log: Vec<LogEntry>,
    log_start: u64,
    snapshot: LeaseSnapshot,
    commit: u64,
    applied: u64,
    table: ServiceRegistry,
    damper: FlapDamper,
    votes: BTreeSet<u32>,
    next: BTreeMap<u32, u64>,
    matched: BTreeMap<u32, u64>,
    pending: Vec<(u64, Pending)>,
    last_heard: SimTime,
    /// First index of this reign (the election barrier): a new primary
    /// serves only once `commit >= serve_from`, i.e. once its applied
    /// table provably covers every entry committed in earlier epochs.
    serve_from: u64,
    /// Per-peer highest echoed `sent_nanos` from an ok current-epoch ack
    /// — the evidence backing [`ReplicaNode::serving_deadline`].
    lease_contact: BTreeMap<u32, u64>,
    #[cfg(feature = "model-check")]
    journal: Vec<LogEntry>,
    #[cfg(feature = "model-check")]
    journal_base: u64,
}

impl ReplicaNode {
    /// Boot a fresh member: `members[0]` starts as the epoch-0 primary,
    /// everyone else as a follower.
    pub fn new(me: u32, cfg: ClusterConfig) -> Self {
        assert!(cfg.members.contains(&me), "node {me} not a cluster member");
        let role = if cfg.owner_of(0) == me { Role::Primary } else { Role::Follower };
        let table = ServiceRegistry::new(cfg.max_lease);
        let damper = FlapDamper::new(cfg.flap);
        let mut node = ReplicaNode {
            me,
            cfg,
            epoch: 0,
            role,
            stats: RepStats::default(),
            voted: 0,
            log: Vec::new(),
            log_start: 1,
            snapshot: LeaseSnapshot { last_index: 0, last_epoch: 0, entries: Vec::new() },
            commit: 0,
            applied: 0,
            table,
            damper,
            votes: BTreeSet::new(),
            next: BTreeMap::new(),
            matched: BTreeMap::new(),
            pending: Vec::new(),
            last_heard: SimTime::ZERO,
            serve_from: 0,
            lease_contact: BTreeMap::new(),
            #[cfg(feature = "model-check")]
            journal: Vec::new(),
            #[cfg(feature = "model-check")]
            journal_base: 0,
        };
        if node.role == Role::Primary {
            node.reset_peer_tracking();
        }
        node
    }

    /// Recover a crashed member from its persisted [`DurableState`]:
    /// always a follower (a restarted node must never resume primacy on
    /// stale authority — it rejoins, hears the current epoch, and serves
    /// again only if elected), with the snapshot's table and the retained
    /// log suffix; volatile state (commit beyond the snapshot, votes, peer
    /// tracking, damper penalties, pending acks) is rebuilt from traffic.
    pub fn restore(me: u32, cfg: ClusterConfig, durable: DurableState) -> Self {
        let mut node = ReplicaNode::new(me, cfg);
        node.role = Role::Follower;
        node.epoch = durable.epoch;
        node.table = durable.snapshot.restore(node.cfg.max_lease);
        node.commit = durable.snapshot.last_index;
        node.applied = durable.snapshot.last_index;
        node.log_start = durable.log_start;
        node.log = durable.log;
        node.snapshot = durable.snapshot;
        node.stats.snapshot_restores = 1;
        #[cfg(feature = "model-check")]
        {
            // The journal only tracks entries this incarnation observed
            // committing; `journal_base` anchors them at a global log
            // index so the model checker's ghost spec can stitch
            // incarnations together.
            node.journal.clear();
            node.journal_base = node.applied;
        }
        node
    }

    /// The durable fraction of this node's state (what a real daemon would
    /// have fsynced: epoch mark, folded snapshot, retained log suffix).
    pub fn durable(&self) -> DurableState {
        DurableState {
            epoch: self.epoch,
            snapshot: self.snapshot.clone(),
            log_start: self.log_start,
            log: self.log.clone(),
        }
    }

    /// Is this node the active primary — the only node allowed to serve
    /// clients at `now`? Three conditions, each load-bearing:
    ///
    /// 1. role is [`Role::Primary`];
    /// 2. the reign's election barrier has committed (`commit >=
    ///    serve_from`), so the applied table covers every entry committed
    ///    in earlier epochs — a freshly elected primary must not serve
    ///    from a table that lags a committed unregister;
    /// 3. `now` is inside the serving lease
    ///    ([`ReplicaNode::serving_deadline`]), so a deposed-but-unaware
    ///    primary stops serving *before* any successor can be elected.
    pub fn is_active(&self, now: SimTime) -> bool {
        self.role == Role::Primary && self.commit >= self.serve_from && now < self.serving_deadline()
    }

    /// The instant this primary's right to serve expires unless refreshed
    /// by further acks: `election_quiet` past the majority-th freshest
    /// ack-echoed contact time (self always counts as fresh). A voter
    /// refuses ballots until `election_quiet` after it last acked, so any
    /// majority electing a successor intersects the majority backing this
    /// lease — the overlapping member's ack time bounds the vote time
    /// from below, making the reigns disjoint in time.
    pub fn serving_deadline(&self) -> SimTime {
        if self.cfg.members.len() == 1 {
            return SimTime::from_nanos(u64::MAX);
        }
        let mut contacts: Vec<u64> = self
            .peers()
            .iter()
            .map(|p| self.lease_contact.get(p).copied().unwrap_or(0))
            .collect();
        contacts.push(u64::MAX); // self
        contacts.sort_unstable_by(|a, b| b.cmp(a));
        let base = contacts[self.cfg.majority() - 1];
        SimTime::from_nanos(base.saturating_add(self.cfg.election_quiet.as_nanos()))
    }

    /// Highest log index (snapshot-covered entries included).
    pub fn last_index(&self) -> u64 {
        self.log_start + self.log.len() as u64 - 1
    }

    /// Commit index.
    pub fn commit_index(&self) -> u64 {
        self.commit
    }

    /// Live registrations matching `template` as of `now`. The I/O layer
    /// must gate this behind [`ReplicaNode::is_active`] — a replica's
    /// table may lag a committed unregister.
    pub fn lookup_live(&self, now: SimTime, template: &Template) -> Vec<&ServiceItem> {
        self.table.lookup_live(now, template)
    }

    /// The applied lease table (read-only).
    pub fn table(&self) -> &ServiceRegistry {
        &self.table
    }

    /// Earliest lease expiry (to schedule the sweep timer).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.table.next_expiry()
    }

    /// Subscribe `node` to events matching `template` (primary-local, like
    /// the damper: subscribers re-subscribe after failover).
    pub fn subscribe(&mut self, node: u32, template: Template) {
        self.table.subscribe(node, template);
    }

    /// Committed-entry journal for the model checker's ghost spec: every
    /// entry this node observed committing, in commit order, immune to log
    /// truncation.
    #[cfg(feature = "model-check")]
    pub fn committed_journal(&self) -> &[LogEntry] {
        &self.journal
    }

    /// Global log index preceding `committed_journal()[0]` (the applied
    /// index this incarnation started from).
    #[cfg(feature = "model-check")]
    pub fn journal_base(&self) -> u64 {
        self.journal_base
    }

    /// Exact canonical serialisation of this node's *behavioural* state
    /// for model-checker deduplication: the durable fraction (epoch,
    /// snapshot, retained log) plus the volatile fields that influence
    /// future transitions (role, commit/applied, vote bookkeeping, peer
    /// cursors, lease contacts, `last_heard`). Deliberately excludes
    /// `stats`, `pending` acks and the flap damper, none of which the
    /// model observes.
    #[cfg(feature = "model-check")]
    pub fn canonical_words(&self) -> Vec<u64> {
        let role = match self.role {
            Role::Follower => 0,
            Role::Candidate => 1,
            Role::Primary => 2,
        };
        let mut w = vec![role, self.commit, self.applied, self.voted];
        let mut votes_mask = 0u64;
        for v in &self.votes {
            votes_mask |= 1 << (v % 64);
        }
        w.push(votes_mask);
        w.push(self.serve_from);
        w.push(self.last_heard.as_nanos());
        for p in self.peers() {
            w.push(self.next.get(&p).copied().unwrap_or(0));
            w.push(self.matched.get(&p).copied().unwrap_or(0));
            w.push(self.lease_contact.get(&p).copied().unwrap_or(0));
        }
        let blob = self.durable().encode();
        w.push(blob.len() as u64);
        let mut chunk = [0u8; 8];
        for c in blob.chunks(8) {
            chunk.fill(0);
            chunk[..c.len()].copy_from_slice(c);
            w.push(u64::from_be_bytes(chunk));
        }
        w
    }

    /// Lease-table rows `(id, expires)` for the model checker.
    #[cfg(feature = "model-check")]
    pub fn table_rows(&self) -> Vec<(ServiceId, SimTime)> {
        self.table.entries().map(|(i, e)| (i.id, e)).collect()
    }

    /// Number of flap-damper-tracked services (telemetry).
    pub fn damper(&mut self) -> &mut FlapDamper {
        &mut self.damper
    }

    /// When this node last heard from a legitimate (current- or
    /// higher-epoch) primary — the election timer's silence reference.
    pub fn last_heard(&self) -> SimTime {
        self.last_heard
    }

    /// Treat `now` as contact with the primary (called at boot/restart so
    /// a rejoining node grants the incumbent a full quiet period before
    /// considering a campaign).
    pub fn note_heard(&mut self, now: SimTime) {
        self.last_heard = self.last_heard.max(now);
    }

    /// Demote to follower, dropping volatile leadership state — the I/O
    /// layer's recovery path when a restart finds no decodable durable
    /// blob.
    pub fn step_down_for_restart(&mut self) {
        self.step_down();
    }

    // ------------------------------------------------------------------
    // Client edge (active primary only; callers must check `is_active`).
    // ------------------------------------------------------------------

    /// A client registers (or refreshes) a service.
    pub fn client_register(
        &mut self,
        now: SimTime,
        from: u32,
        item: ServiceItem,
        requested: SimDuration,
    ) -> Vec<Effect> {
        debug_assert_eq!(self.role, Role::Primary);
        let granted = requested.min(self.cfg.max_lease);
        let granted_ms = granted.as_nanos() / 1_000_000;
        let id = item.id;
        if self.damper.on_register(now, id) == FlapDecision::Suppress {
            // Absorbed: acked so the flapper quiets down, but neither
            // logged nor replicated nor fanned out — the grant is not
            // durable and lookups will not see it (that is the damping).
            self.stats.flap_absorbed += 1;
            return vec![Effect::Ack { to: from, ack: ClientAck::Register { id, granted_ms } }];
        }
        let index = self.append_local(LogEntry {
            epoch: self.epoch,
            at_nanos: now.as_nanos(),
            op: RepOp::Register { item, lease_ms: granted_ms },
        });
        self.pending.push((index, Pending::Register { to: from, id, granted_ms }));
        self.after_append(now)
    }

    /// A client renews a lease.
    pub fn client_renew(&mut self, now: SimTime, from: u32, id: ServiceId) -> Vec<Effect> {
        debug_assert_eq!(self.role, Role::Primary);
        // Fast-path nack for unknown/lapsed ids straight from the applied
        // table: renew probes must not spam the replication log. (A lease
        // is only renewed after its RegisterAck, i.e. after commit, so the
        // applied table is authoritative here.)
        let live = matches!(self.table.expiry_of(id), Some(e) if e > now);
        if !live {
            return vec![Effect::Ack {
                to: from,
                ack: ClientAck::Renew { id, ok: false, granted_ms: 0 },
            }];
        }
        let index = self.append_local(LogEntry {
            epoch: self.epoch,
            at_nanos: now.as_nanos(),
            op: RepOp::Renew { id },
        });
        self.pending.push((index, Pending::Renew { to: from, id }));
        self.after_append(now)
    }

    /// A client withdraws a service.
    pub fn client_unregister(&mut self, now: SimTime, _from: u32, id: ServiceId) -> Vec<Effect> {
        debug_assert_eq!(self.role, Role::Primary);
        if self.damper.on_unregister(now, id) == FlapDecision::Suppress {
            self.stats.flap_absorbed += 1;
            return Vec::new();
        }
        self.append_local(LogEntry {
            epoch: self.epoch,
            at_nanos: now.as_nanos(),
            op: RepOp::Unregister { id },
        });
        self.after_append(now)
    }

    /// The sweep timer fired: if any lease has lapsed, append a sweep
    /// barrier so the expiry is replicated like any other mutation.
    pub fn sweep(&mut self, now: SimTime) -> Vec<Effect> {
        debug_assert_eq!(self.role, Role::Primary);
        self.damper.sweep(now);
        let lapsed = self.table.next_expiry().is_some_and(|e| e <= now);
        if !lapsed {
            return Vec::new();
        }
        self.append_local(LogEntry { epoch: self.epoch, at_nanos: now.as_nanos(), op: RepOp::Sweep });
        self.after_append(now)
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    /// The heartbeat timer fired (primary): ship pending entries (or empty
    /// heartbeats) to every peer and record the worst log lag.
    pub fn heartbeat(&mut self, now: SimTime) -> Vec<Effect> {
        if self.role != Role::Primary {
            return Vec::new();
        }
        let lag = self
            .cfg
            .members
            .clone()
            .iter()
            .filter(|&&p| p != self.me)
            .map(|p| self.last_index() - self.matched.get(p).copied().unwrap_or(0).min(self.last_index()))
            .max()
            .unwrap_or(0);
        self.stats.log_lag_max = self.stats.log_lag_max.max(lag);
        self.broadcast_appends(now)
    }

    /// The election timer fired on a follower (no heartbeat within the
    /// timeout): campaign for the next epoch this node owns — unless a
    /// primary was heard within the quiet period (the voter-side half of
    /// the serving-lease argument applies to the campaigner's own ballot
    /// too).
    pub fn election_timeout(&mut self, now: SimTime) -> Vec<Effect> {
        if self.role == Role::Primary {
            return Vec::new();
        }
        if self.cfg.members.len() > 1 && now < self.last_heard + self.cfg.election_quiet {
            return Vec::new();
        }
        let mut e = self.epoch + 1;
        while self.cfg.owner_of(e) != self.me {
            e += 1;
        }
        self.bump_epoch(e);
        self.role = Role::Candidate;
        self.voted = e; // own vote
        self.votes = BTreeSet::new();
        self.votes.insert(self.me);
        self.stats.elections += 1;
        if self.votes.len() >= self.cfg.majority() {
            return self.become_primary(now);
        }
        let (last_index, last_epoch) = (self.last_index(), self.last_log_epoch());
        self.peers()
            .into_iter()
            .map(|p| Effect::Send {
                to: p,
                msg: RepMsg::VoteReq { epoch: e, last_index, last_epoch },
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Peer messages.
    // ------------------------------------------------------------------

    /// Handle a replication message from peer registrar `from`.
    pub fn on_message(&mut self, now: SimTime, from: u32, msg: RepMsg) -> Vec<Effect> {
        match msg {
            RepMsg::Append { epoch, prev_index, prev_epoch, commit, sent_nanos, entries } => {
                self.on_append(now, from, epoch, prev_index, prev_epoch, commit, sent_nanos, entries)
            }
            RepMsg::AppendAck { epoch, ok, match_index, heard_nanos } => {
                self.on_append_ack(now, from, epoch, ok, match_index, heard_nanos)
            }
            RepMsg::VoteReq { epoch, last_index, last_epoch } => {
                self.on_vote_req(now, from, epoch, last_index, last_epoch)
            }
            RepMsg::VoteGrant { epoch } => self.on_vote_grant(now, from, epoch),
            RepMsg::SnapshotInstall { epoch, sent_nanos, snapshot } => {
                self.on_snapshot_install(now, from, epoch, sent_nanos, snapshot)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append(
        &mut self,
        now: SimTime,
        from: u32,
        epoch: u64,
        prev_index: u64,
        prev_epoch: u64,
        commit: u64,
        sent_nanos: u64,
        entries: Vec<LogEntry>,
    ) -> Vec<Effect> {
        if epoch < self.epoch {
            // Stale primary: our epoch in the ack tells it to step down.
            return vec![Effect::Send {
                to: from,
                msg: RepMsg::AppendAck {
                    epoch: self.epoch,
                    ok: false,
                    match_index: self.last_index(),
                    heard_nanos: sent_nanos,
                },
            }];
        }
        debug_assert!(
            self.cfg.owner_of(epoch) == from,
            "append for epoch {epoch} from non-owner {from}"
        );
        if epoch > self.epoch {
            self.bump_epoch(epoch);
        }
        if self.role != Role::Follower {
            self.step_down();
        }
        self.last_heard = self.last_heard.max(now);
        // Log-consistency check at (prev_index, prev_epoch).
        let consistent = if prev_index > self.last_index() {
            false
        } else {
            match self.epoch_at(prev_index) {
                Some(e) => e == prev_epoch,
                // Inside our snapshot: folded entries are committed, and
                // committed prefixes agree (Leader Completeness).
                None => true,
            }
        };
        if !consistent {
            // Conflict: drop our tail from prev_index on (it is uncommitted
            // — commit never exceeds a matched prefix) and ask for more.
            if prev_index >= self.log_start && prev_index <= self.last_index() {
                self.log.truncate((prev_index - self.log_start) as usize);
            }
            return vec![Effect::Send {
                to: from,
                msg: RepMsg::AppendAck {
                    epoch: self.epoch,
                    ok: false,
                    match_index: self.last_index(),
                    heard_nanos: sent_nanos,
                },
            }];
        }
        // Graft the entries: skip what we already hold, truncate on the
        // first epoch conflict, append the rest.
        let mut effects = Vec::new();
        for (k, entry) in entries.iter().enumerate() {
            let index = prev_index + 1 + k as u64;
            if index <= self.snapshot.last_index {
                continue; // folded, committed, known equal
            }
            if index <= self.last_index() {
                if self.epoch_at(index) == Some(entry.epoch) {
                    continue; // duplicate ship
                }
                self.log.truncate((index - self.log_start) as usize);
            }
            debug_assert_eq!(index, self.last_index() + 1);
            self.log.push(entry.clone());
        }
        let match_index = prev_index + entries.len() as u64;
        let new_commit = commit.min(self.last_index());
        if new_commit > self.commit {
            self.advance_commit_to(new_commit, &mut effects);
        }
        effects.push(Effect::Send {
            to: from,
            msg: RepMsg::AppendAck { epoch: self.epoch, ok: true, match_index, heard_nanos: sent_nanos },
        });
        let _ = now;
        effects
    }

    fn on_append_ack(
        &mut self,
        now: SimTime,
        from: u32,
        epoch: u64,
        ok: bool,
        match_index: u64,
        heard_nanos: u64,
    ) -> Vec<Effect> {
        if epoch > self.epoch {
            self.bump_epoch(epoch);
            self.step_down();
            return Vec::new();
        }
        if self.role != Role::Primary || epoch < self.epoch {
            return Vec::new(); // stale ack
        }
        let mut effects = Vec::new();
        if ok {
            // Lease evidence: `from` heard us no earlier than `heard_nanos`
            // (our own clock — it is an echo of our send time), and it will
            // refuse votes until `heard_nanos + election_quiet`.
            let c = self.lease_contact.entry(from).or_insert(0);
            *c = (*c).max(heard_nanos);
            let m = self.matched.entry(from).or_insert(0);
            *m = (*m).max(match_index);
            self.next.insert(from, match_index + 1);
            let before = self.commit;
            self.try_advance_commit(&mut effects);
            if self.commit > before {
                // Propagate the new commit index eagerly (empty appends for
                // caught-up peers) instead of waiting a heartbeat round, so
                // replicas apply committed entries promptly.
                effects.extend(self.broadcast_appends(now));
                return effects;
            }
        } else {
            // Back off to the replica's hint; if the entries it needs are
            // already folded away, ship a snapshot instead.
            let hint = match_index.min(self.last_index());
            self.next.insert(from, hint + 1);
            if hint + 1 < self.log_start {
                self.stats.snapshot_installs_tx += 1;
                effects.push(Effect::Send {
                    to: from,
                    msg: RepMsg::SnapshotInstall {
                        epoch: self.epoch,
                        sent_nanos: now.as_nanos(),
                        snapshot: self.snapshot.clone(),
                    },
                });
                self.next.insert(from, self.snapshot.last_index + 1);
                return effects;
            }
        }
        // Ship (more) entries if the peer is behind.
        if self.next.get(&from).copied().unwrap_or(1) <= self.last_index() {
            effects.extend(self.append_to(from, now));
        }
        effects
    }

    fn on_vote_req(
        &mut self,
        now: SimTime,
        from: u32,
        epoch: u64,
        last_index: u64,
        last_epoch: u64,
    ) -> Vec<Effect> {
        // The quiet period: having heard a legitimate primary this
        // recently, refuse to help depose it — without touching any state
        // (bumping our epoch here would itself disrupt the incumbent).
        // This is the voter-side promise the serving lease relies on.
        if self.cfg.members.len() > 1 && now < self.last_heard + self.cfg.election_quiet {
            return Vec::new();
        }
        if epoch <= self.epoch && !(epoch == self.epoch && self.role == Role::Follower) {
            return Vec::new(); // stale campaign
        }
        if self.cfg.owner_of(epoch) != from {
            debug_assert!(false, "vote request for epoch {epoch} from non-owner {from}");
            return Vec::new();
        }
        if epoch > self.epoch {
            self.bump_epoch(epoch);
            self.step_down();
        }
        // Up-to-date check (Leader Completeness): refuse a candidate whose
        // log is behind ours.
        let mine = (self.last_log_epoch(), self.last_index());
        if (last_epoch, last_index) < mine {
            return Vec::new();
        }
        if self.voted >= epoch {
            // Already voted this epoch — necessarily for the same unique
            // owner, so re-granting is idempotent and safe (this is why no
            // durable `votedFor` is needed; see the module docs).
            debug_assert!(self.voted > epoch || self.cfg.owner_of(self.voted) == from || from == self.me);
        }
        self.voted = self.voted.max(epoch);
        vec![Effect::Send { to: from, msg: RepMsg::VoteGrant { epoch } }]
    }

    fn on_vote_grant(&mut self, now: SimTime, from: u32, epoch: u64) -> Vec<Effect> {
        if self.role != Role::Candidate || epoch != self.epoch {
            return Vec::new();
        }
        self.votes.insert(from);
        if self.votes.len() >= self.cfg.majority() {
            return self.become_primary(now);
        }
        Vec::new()
    }

    fn on_snapshot_install(
        &mut self,
        now: SimTime,
        from: u32,
        epoch: u64,
        sent_nanos: u64,
        snapshot: LeaseSnapshot,
    ) -> Vec<Effect> {
        if epoch < self.epoch {
            return vec![Effect::Send {
                to: from,
                msg: RepMsg::AppendAck {
                    epoch: self.epoch,
                    ok: false,
                    match_index: self.last_index(),
                    heard_nanos: sent_nanos,
                },
            }];
        }
        if epoch > self.epoch {
            self.bump_epoch(epoch);
        }
        if self.role != Role::Follower {
            self.step_down();
        }
        self.last_heard = self.last_heard.max(now);
        if snapshot.last_index > self.commit {
            self.table = snapshot.restore(self.cfg.max_lease);
            self.commit = snapshot.last_index;
            self.applied = snapshot.last_index;
            self.log.clear();
            self.log_start = snapshot.last_index + 1;
            self.snapshot = snapshot;
            self.stats.snapshot_installs_rx += 1;
            #[cfg(feature = "model-check")]
            {
                // The install jumped `applied` over entries this node never
                // held; re-anchor the journal at the new applied index (the
                // skipped entries were observed committing by the snapshot's
                // sender, so the ghost spec already has them).
                self.journal.clear();
                self.journal_base = self.applied;
            }
        }
        vec![Effect::Send {
            to: from,
            msg: RepMsg::AppendAck {
                epoch: self.epoch,
                ok: true,
                match_index: self.last_index(),
                heard_nanos: sent_nanos,
            },
        }]
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn peers(&self) -> Vec<u32> {
        self.cfg.members.iter().copied().filter(|&p| p != self.me).collect()
    }

    fn bump_epoch(&mut self, to: u64) {
        debug_assert!(to > self.epoch);
        self.epoch = to;
        self.stats.epoch_bumps += 1;
    }

    fn step_down(&mut self) {
        self.role = Role::Follower;
        self.votes.clear();
        self.next.clear();
        self.matched.clear();
        self.lease_contact.clear();
        // Acks owed by a deposed primary die with its authority: if the
        // entries survive and commit, the client's retry path (timeout →
        // rediscover → re-register/renew against the new primary) takes
        // over; an ack from a non-primary would be a lie about authority.
        self.pending.clear();
    }

    fn become_primary(&mut self, now: SimTime) -> Vec<Effect> {
        debug_assert_eq!(self.cfg.owner_of(self.epoch), self.me, "epoch ownership violated");
        self.role = Role::Primary;
        self.votes.clear();
        self.reset_peer_tracking();
        // The Raft no-op barrier, as a sweep: earlier-epoch entries cannot
        // be counted for commit directly, so open the reign with an entry
        // of this epoch (which also promptly sweeps anything that lapsed
        // during the failover window). Serving waits until it commits —
        // only then does the applied table cover every earlier commit.
        let barrier =
            self.append_local(LogEntry { epoch: self.epoch, at_nanos: now.as_nanos(), op: RepOp::Sweep });
        self.serve_from = barrier;
        self.after_append(now)
    }

    fn reset_peer_tracking(&mut self) {
        self.next.clear();
        self.matched.clear();
        self.lease_contact.clear();
        for p in self.peers() {
            self.next.insert(p, self.last_index() + 1);
            self.matched.insert(p, 0);
        }
    }

    fn append_local(&mut self, entry: LogEntry) -> u64 {
        self.log.push(entry);
        self.last_index()
    }

    /// After a local append: single-member clusters commit immediately;
    /// otherwise ship to every peer.
    fn after_append(&mut self, now: SimTime) -> Vec<Effect> {
        let mut effects = Vec::new();
        self.try_advance_commit(&mut effects);
        effects.extend(self.broadcast_appends(now));
        effects
    }

    fn broadcast_appends(&mut self, now: SimTime) -> Vec<Effect> {
        let mut effects = Vec::new();
        for p in self.peers() {
            effects.extend(self.append_to(p, now));
        }
        effects
    }

    /// Build one `Append` for peer `p` from its `next` cursor (empty =
    /// heartbeat). If the cursor has fallen below the retained log, ship
    /// the snapshot instead.
    fn append_to(&mut self, p: u32, now: SimTime) -> Vec<Effect> {
        let next = self.next.get(&p).copied().unwrap_or(self.last_index() + 1);
        if next < self.log_start {
            self.stats.snapshot_installs_tx += 1;
            self.next.insert(p, self.snapshot.last_index + 1);
            return vec![Effect::Send {
                to: p,
                msg: RepMsg::SnapshotInstall {
                    epoch: self.epoch,
                    sent_nanos: now.as_nanos(),
                    snapshot: self.snapshot.clone(),
                },
            }];
        }
        let prev_index = next - 1;
        let prev_epoch = self.epoch_at(prev_index).unwrap_or(self.snapshot.last_epoch);
        let entries: Vec<LogEntry> = self.log[(next - self.log_start) as usize..].to_vec();
        self.stats.appends_tx += 1;
        vec![Effect::Send {
            to: p,
            msg: RepMsg::Append {
                epoch: self.epoch,
                prev_index,
                prev_epoch,
                commit: self.commit,
                sent_nanos: now.as_nanos(),
                entries,
            },
        }]
    }

    /// Epoch of entry `index`: `Some(0)` at the origin, `None` for entries
    /// folded inside the snapshot (committed; content no longer held).
    fn epoch_at(&self, index: u64) -> Option<u64> {
        if index == 0 {
            Some(0)
        } else if index == self.snapshot.last_index {
            Some(self.snapshot.last_epoch)
        } else if index < self.log_start {
            None
        } else if index <= self.last_index() {
            Some(self.log[(index - self.log_start) as usize].epoch)
        } else {
            None
        }
    }

    fn last_log_epoch(&self) -> u64 {
        self.log.last().map(|e| e.epoch).unwrap_or(self.snapshot.last_epoch)
    }

    /// Primary: advance the commit index to the largest majority-matched
    /// index bearing the current epoch (the Raft commit rule).
    fn try_advance_commit(&mut self, effects: &mut Vec<Effect>) {
        if self.role != Role::Primary {
            return;
        }
        let mut matches: Vec<u64> = self.peers().iter().map(|p| self.matched.get(p).copied().unwrap_or(0)).collect();
        matches.push(self.last_index());
        matches.sort_unstable();
        // The majority-th highest match: every index ≤ it is on a majority.
        let majority_match = matches[matches.len() - self.cfg.majority()];
        let target = majority_match.min(self.last_index());
        if target > self.commit && self.epoch_at(target) == Some(self.epoch) {
            self.advance_commit_to(target, effects);
        }
    }

    /// Commit (and apply) entries up to `to`.
    fn advance_commit_to(&mut self, to: u64, effects: &mut Vec<Effect>) {
        debug_assert!(to <= self.last_index());
        self.stats.committed += to - self.commit;
        self.commit = to;
        while self.applied < self.commit {
            let index = self.applied + 1;
            let entry = self.log[(index - self.log_start) as usize].clone();
            self.apply(index, &entry, effects);
            self.applied = index;
            self.stats.applied += 1;
            #[cfg(feature = "model-check")]
            self.journal.push(entry);
        }
        self.maybe_snapshot();
    }

    /// Apply one committed entry. Subscriber events and client acks are
    /// only emitted while this node is the active primary.
    fn apply(&mut self, index: u64, entry: &LogEntry, effects: &mut Vec<Effect>) {
        let at = SimTime::from_nanos(entry.at_nanos);
        let serve = self.role == Role::Primary;
        let mut events = Vec::new();
        let mut renew_ok = false;
        match &entry.op {
            RepOp::Register { item, lease_ms } => {
                let (_, ev) = self.table.register(at, item.clone(), SimDuration::from_millis(*lease_ms));
                events = ev;
            }
            RepOp::Renew { id } => {
                renew_ok = self.table.renew(at, *id).is_some();
            }
            RepOp::Unregister { id } => {
                events = self.table.unregister(*id);
            }
            RepOp::Sweep => {
                events = self.table.expire(at);
            }
        }
        if !serve {
            return;
        }
        for ev in events {
            effects.push(Effect::Notify(ev));
        }
        // Acks owed at this index (pending is append-ordered).
        let due: Vec<Pending> = {
            let mut due = Vec::new();
            self.pending.retain(|(i, p)| {
                if *i == index {
                    due.push(p.clone());
                    false
                } else {
                    true
                }
            });
            due
        };
        for p in due {
            match p {
                Pending::Register { to, id, granted_ms } => {
                    effects.push(Effect::Ack { to, ack: ClientAck::Register { id, granted_ms } });
                }
                Pending::Renew { to, id } => {
                    let granted_ms = if renew_ok {
                        self.cfg.max_lease.as_nanos() / 1_000_000
                    } else {
                        0
                    };
                    effects.push(Effect::Ack {
                        to,
                        ack: ClientAck::Renew { id, ok: renew_ok, granted_ms },
                    });
                }
            }
        }
    }

    /// Fold the applied prefix into a snapshot and truncate the log once
    /// `snapshot_every` entries have been applied since the last fold.
    fn maybe_snapshot(&mut self) {
        if self.applied - self.snapshot.last_index < self.cfg.snapshot_every {
            return;
        }
        let last_epoch = self
            .epoch_at(self.applied)
            .expect("applied entry is at or above the previous snapshot");
        self.snapshot = LeaseSnapshot::capture(&self.table, self.applied, last_epoch);
        self.log.drain(..(self.applied + 1 - self.log_start) as usize);
        self.log_start = self.applied + 1;
        self.stats.snapshots_taken += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(id: u64) -> ServiceItem {
        ServiceItem {
            id: ServiceId(id),
            kind: "projector/display".into(),
            attributes: vec![("room".into(), "A".into())],
            provider: 40 + id as u32,
            proxy: Bytes::new(),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn lease(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    /// A 3-member cluster with a perfect in-test message fabric: effects
    /// are delivered immediately (optionally dropping some nodes).
    struct Harness {
        nodes: BTreeMap<u32, ReplicaNode>,
        down: BTreeSet<u32>,
        acks: Vec<(u32, ClientAck)>,
        notifies: Vec<RegistryEvent>,
    }

    impl Harness {
        fn new(members: &[u32]) -> Self {
            let cfg = ClusterConfig::of(members.to_vec());
            Harness {
                nodes: members.iter().map(|&m| (m, ReplicaNode::new(m, cfg.clone()))).collect(),
                down: BTreeSet::new(),
                acks: Vec::new(),
                notifies: Vec::new(),
            }
        }

        fn node(&mut self, id: u32) -> &mut ReplicaNode {
            self.nodes.get_mut(&id).unwrap()
        }

        fn deliver(&mut self, now: SimTime, from: u32, effects: Vec<Effect>) {
            let mut queue: Vec<(u32, u32, RepMsg)> = Vec::new();
            for e in effects {
                match e {
                    Effect::Send { to, msg } => queue.push((from, to, msg)),
                    Effect::Ack { to, ack } => self.acks.push((to, ack)),
                    Effect::Notify(ev) => self.notifies.push(ev),
                }
            }
            while let Some((src, dst, msg)) = queue.pop() {
                if self.down.contains(&dst) || self.down.contains(&src) {
                    continue;
                }
                let out = self.nodes.get_mut(&dst).unwrap().on_message(now, src, msg);
                for e in out {
                    match e {
                        Effect::Send { to, msg } => queue.push((dst, to, msg)),
                        Effect::Ack { to, ack } => self.acks.push((to, ack)),
                        Effect::Notify(ev) => self.notifies.push(ev),
                    }
                }
            }
        }

        fn register(&mut self, now: SimTime, primary: u32, it: ServiceItem, l: SimDuration) {
            let fx = self.node(primary).client_register(now, 99, it, l);
            self.deliver(now, primary, fx);
        }
    }

    #[test]
    fn bootstrap_roles() {
        let h = Harness::new(&[10, 11, 12]);
        assert!(h.nodes[&10].is_active(t(0)));
        assert_eq!(h.nodes[&11].role, Role::Follower);
        assert_eq!(h.nodes[&12].role, Role::Follower);
    }

    #[test]
    fn committed_register_is_applied_everywhere_and_acked() {
        let mut h = Harness::new(&[10, 11, 12]);
        h.register(t(0), 10, item(1), lease(5));
        assert_eq!(
            h.acks,
            vec![(99, ClientAck::Register { id: ServiceId(1), granted_ms: 5_000 })]
        );
        for n in [10, 11, 12] {
            assert_eq!(h.nodes[&n].commit_index(), 1, "node {n}");
            assert_eq!(h.nodes[&n].table().len(), 1, "node {n}");
        }
    }

    #[test]
    fn entry_does_not_commit_without_majority() {
        let mut h = Harness::new(&[10, 11, 12]);
        h.down.insert(11);
        h.down.insert(12);
        h.register(t(0), 10, item(1), lease(5));
        assert_eq!(h.nodes[&10].commit_index(), 0, "no majority, no commit");
        assert!(h.acks.is_empty(), "no commit, no ack");
        // One replica comes back; its ack completes the majority.
        h.down.remove(&11);
        let fx = h.node(10).heartbeat(t(100));
        h.deliver(t(100), 10, fx);
        assert_eq!(h.nodes[&10].commit_index(), 1);
        assert_eq!(h.acks.len(), 1);
    }

    #[test]
    fn failover_elects_next_owner_and_preserves_committed_leases() {
        let mut h = Harness::new(&[10, 11, 12]);
        h.register(t(0), 10, item(1), lease(8));
        h.register(t(100), 10, item(2), lease(8));
        // Primary dies; once the quiet period has passed, node 11 (owner of
        // epoch 1) times out and campaigns.
        h.down.insert(10);
        let fx = h.node(11).election_timeout(t(1_000));
        h.deliver(t(1_000), 11, fx);
        assert!(h.nodes[&11].is_active(t(1_000)), "epoch-1 owner must win");
        assert_eq!(h.nodes[&11].epoch, 1);
        // Both committed leases survived the failover.
        let live = h.nodes[&11].lookup_live(t(1_100), &Template::any());
        assert_eq!(live.len(), 2);
        // And the no-op barrier committed (commit advanced past the old tail).
        assert!(h.nodes[&11].commit_index() >= 3);
    }

    #[test]
    fn election_respects_the_quiet_period() {
        let mut h = Harness::new(&[10, 11, 12]);
        h.register(t(0), 10, item(1), lease(8));
        h.down.insert(10);
        // Node 11 heard the primary at t=0; campaigning (or voting) before
        // election_quiet (600ms) has passed is refused without any state
        // change — this is what keeps successive serve windows disjoint.
        let fx = h.node(11).election_timeout(t(300));
        assert!(fx.is_empty(), "campaign inside the quiet period");
        assert_eq!(h.nodes[&11].role, Role::Follower);
        assert_eq!(h.nodes[&11].epoch, 0);
        let fx = h.node(11).election_timeout(t(600));
        h.deliver(t(600), 11, fx);
        assert!(h.nodes[&11].is_active(t(600)), "quiet period over, election proceeds");
    }

    #[test]
    fn serving_lease_expires_without_majority_contact() {
        let mut h = Harness::new(&[10, 11, 12]);
        h.register(t(0), 10, item(1), lease(8));
        // The acks to the register (sent at t=0) back a lease to t=600ms.
        assert!(h.nodes[&10].is_active(t(500)));
        assert!(!h.nodes[&10].is_active(t(600)), "no contact since t=0: lease lapsed");
        assert_eq!(h.nodes[&10].role, Role::Primary, "still primary, just not serving");
        // Fresh heartbeat acks extend the lease from their send time.
        let fx = h.node(10).heartbeat(t(700));
        h.deliver(t(700), 10, fx);
        assert!(h.nodes[&10].is_active(t(1_200)));
        assert!(!h.nodes[&10].is_active(t(1_300)));
    }

    #[test]
    fn deposed_primary_steps_down_on_higher_epoch() {
        let mut h = Harness::new(&[10, 11, 12]);
        h.register(t(0), 10, item(1), lease(8));
        h.down.insert(10); // crash...
        let fx = h.node(11).election_timeout(t(1_000));
        h.deliver(t(1_000), 11, fx);
        h.down.remove(&10); // ...and the old primary returns, still thinking
                            // it reigns over epoch 0.
        assert_eq!(h.nodes[&10].role, Role::Primary);
        let fx = h.node(10).heartbeat(t(1_400));
        h.deliver(t(1_400), 10, fx);
        assert_eq!(h.nodes[&10].role, Role::Follower, "higher-epoch ack deposes it");
        assert_eq!(h.nodes[&10].epoch, 1);
    }

    #[test]
    fn restarted_replica_rejoins_from_snapshot_install() {
        let mut h = Harness::new(&[10, 11, 12]);
        // Small snapshot interval so truncation happens quickly.
        for n in h.nodes.values_mut() {
            n.cfg.snapshot_every = 4;
        }
        h.down.insert(12); // replica 12 misses everything
        for i in 0..6 {
            h.register(t(i * 100), 10, item(i + 1), lease(30));
        }
        assert!(h.nodes[&10].stats.snapshots_taken >= 1, "log must have truncated");
        // 12 comes back empty (cold restart, no durable state).
        let cfg = h.nodes[&12].cfg.clone();
        *h.node(12) = ReplicaNode::new(12, cfg);
        h.node(12).role = Role::Follower;
        h.down.remove(&12);
        let fx = h.node(10).heartbeat(t(1_000));
        h.deliver(t(1_000), 10, fx);
        assert_eq!(h.nodes[&12].table().len(), 6, "snapshot install + catch-up");
        assert!(h.nodes[&12].stats.snapshot_installs_rx >= 1);
        assert!(h.nodes[&10].stats.snapshot_installs_tx >= 1);
    }

    #[test]
    fn durable_restore_keeps_committed_state_without_install() {
        let mut h = Harness::new(&[10, 11, 12]);
        for i in 0..3 {
            h.register(t(i * 100), 10, item(i + 1), lease(30));
        }
        let durable = h.nodes[&11].durable();
        let blob = durable.encode();
        let decoded = DurableState::decode(blob).expect("durable round-trip");
        assert_eq!(decoded, durable);
        let cfg = h.nodes[&11].cfg.clone();
        *h.node(11) = ReplicaNode::restore(11, cfg, decoded);
        assert_eq!(h.nodes[&11].role, Role::Follower);
        // Log suffix survived, so catch-up needs no snapshot install.
        let fx = h.node(10).heartbeat(t(500));
        h.deliver(t(500), 10, fx);
        assert_eq!(h.nodes[&11].table().len(), 3);
        assert_eq!(h.nodes[&11].stats.snapshot_installs_rx, 0);
    }

    #[test]
    fn renew_and_sweep_replicate() {
        let mut h = Harness::new(&[10, 11, 12]);
        h.register(t(0), 10, item(1), lease(2));
        h.register(t(0), 10, item(2), lease(10));
        let fx = h.node(10).client_renew(t(1_000), 99, ServiceId(1));
        h.deliver(t(1_000), 10, fx);
        assert!(matches!(
            h.acks.last(),
            Some((99, ClientAck::Renew { ok: true, .. }))
        ));
        // Renewed to t=1s+max_lease(10s)=11s; sweep at 12s kills both.
        let fx = h.node(10).sweep(t(12_000));
        h.deliver(t(12_000), 10, fx);
        for n in [10, 11, 12] {
            assert_eq!(h.nodes[&n].table().len(), 0, "node {n} swept");
        }
    }

    #[test]
    fn renew_of_unknown_id_nacks_without_logging() {
        let mut h = Harness::new(&[10, 11, 12]);
        let before = h.nodes[&10].last_index();
        let fx = h.node(10).client_renew(t(0), 99, ServiceId(77));
        h.deliver(t(0), 10, fx);
        assert_eq!(h.nodes[&10].last_index(), before, "probe must not spam the log");
        assert!(matches!(h.acks.last(), Some((99, ClientAck::Renew { ok: false, .. }))));
    }

    #[test]
    fn flapping_service_is_absorbed_at_the_edge() {
        let mut h = Harness::new(&[10, 11, 12]);
        let mut appended = Vec::new();
        for cycle in 0..8 {
            let now = t(cycle * 200);
            let fx = h.node(10).client_register(now, 99, item(9), lease(5));
            h.deliver(now, 10, fx);
            let fx = h.node(10).client_unregister(now + SimDuration::from_millis(100), 99, ServiceId(9));
            h.deliver(now, 10, fx);
            appended.push(h.nodes[&10].last_index());
        }
        let absorbed = h.nodes[&10].stats.flap_absorbed;
        assert!(absorbed >= 8, "sustained churn must be absorbed, got {absorbed}");
        // The log stopped growing once suppression kicked in.
        let tail: Vec<_> = appended.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(*tail.last().unwrap(), 0, "suppressed cycles append nothing");
        // Flapper still got its (non-durable) acks — it quiets down.
        assert!(h.acks.len() >= 8);
    }

    #[test]
    fn rep_msgs_round_trip() {
        let msgs = vec![
            RepMsg::Append {
                epoch: 3,
                prev_index: 7,
                prev_epoch: 2,
                commit: 6,
                sent_nanos: 42,
                entries: vec![
                    LogEntry { epoch: 3, at_nanos: 1_000, op: RepOp::Register { item: item(1), lease_ms: 5_000 } },
                    LogEntry { epoch: 3, at_nanos: 2_000, op: RepOp::Renew { id: ServiceId(1) } },
                    LogEntry { epoch: 3, at_nanos: 3_000, op: RepOp::Unregister { id: ServiceId(1) } },
                    LogEntry { epoch: 3, at_nanos: 4_000, op: RepOp::Sweep },
                ],
            },
            RepMsg::AppendAck { epoch: 3, ok: false, match_index: 9, heard_nanos: 42 },
            RepMsg::VoteReq { epoch: 4, last_index: 9, last_epoch: 3 },
            RepMsg::VoteGrant { epoch: 4 },
            RepMsg::SnapshotInstall {
                epoch: 4,
                sent_nanos: 43,
                snapshot: LeaseSnapshot {
                    last_index: 9,
                    last_epoch: 3,
                    entries: vec![(item(1), t(5_000))],
                },
            },
        ];
        for m in msgs {
            assert_eq!(RepMsg::decode(m.encode()).expect("decode"), m);
        }
    }

    #[test]
    fn rep_msg_trailing_and_truncation_rejected() {
        let m = RepMsg::VoteReq { epoch: 1, last_index: 2, last_epoch: 1 };
        let mut padded = BytesMut::new();
        padded.put_slice(&m.encode());
        padded.put_u8(0);
        assert_eq!(
            RepMsg::decode(padded.freeze()),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        let full = RepMsg::Append {
            epoch: 1,
            prev_index: 0,
            prev_epoch: 0,
            commit: 0,
            sent_nanos: 7,
            entries: vec![LogEntry { epoch: 1, at_nanos: 5, op: RepOp::Register { item: item(2), lease_ms: 9 } }],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(RepMsg::decode(full.slice(0..cut)).is_err(), "prefix {cut} decoded");
        }
    }
}
