//! The network simulator: event loop, MAC state machine driver, application
//! interface.
//!
//! A [`Network`] owns a set of nodes (position, channel, radio parameters,
//! MAC state) sharing one [`crate::medium::Medium`] inside one
//! [`RadioEnvironment`], whose link budget a [`LinkTable`] keeps: it holds
//! each node's position and every link's path loss, and a move marks the
//! mover's links stale. Applications implement [`NetApp`] and interact with
//! the stack exclusively through a [`NetCtx`] — sending frames, arming
//! timers, reading the clock — which is also how the higher substrates
//! (`aroma-discovery`, `aroma-vnc`, `smart-projector`) are built.
//!
//! ## Event model
//!
//! Four event kinds drive everything:
//!
//! * `MacTick` — one step of a node's CSMA/CA contention: poll-after-busy,
//!   DIFS expiry, or a countdown tick at a backoff-slot boundary. After
//!   DIFS a node schedules one tick at the end of its countdown, not one
//!   per slot. A transmission the node senses wakes it at its first slot
//!   boundary after the transmission starts, and so does a move, so every
//!   boundary where the medium could turn busy still gets a tick; the
//!   ticks fold in the idle slots between them. Ticks are stamped with the
//!   node's MAC generation; bumping the generation (a freeze, a new cycle)
//!   invalidates outstanding ticks, which is cheaper and simpler than
//!   cancelling them.
//! * `TxEnd` — a transmission leaves the air; receivers evaluate SINR and
//!   the frame either dies or is delivered/acknowledged.
//! * `AckTimeout` — a unicast sender gave up waiting; binary-exponential
//!   backoff and retry, or drop at the retry limit. It is armed only when
//!   no ACK is coming (at the data frame's end) or the ACK was lost (at
//!   the ACK's end), so it never fires as a no-op in a fault-free run.
//! * `AppTimer` — an application timer armed through [`NetCtx::set_timer`].
//!
//! A fifth kind, `Fault`, exists only when a [`FaultSchedule`] was attached
//! with [`Network::attach_faults`]: scripted node crashes/restarts, channel
//! partitions, burst loss beyond the PHY model, clock skew and application
//! process kills, all driven by the fault plane's own RNG stream so an
//! empty schedule never perturbs a run.
//!
//! Events due at the same instant run in a fixed order of kind, then id
//! (`Event::tie_key`): faults, mobility, transmission ends, ACK timeouts,
//! wired deliveries, app timers, and MAC ticks last in node-id order. So
//! which events share an instant decides the run, not when each was
//! scheduled, and a tick the countdown skips cannot reorder the others.

use crate::frame::{Address, Frame, FrameKind, NodeId, ACK_BYTES, MTU_BYTES};
use crate::links::LinkTable;
use crate::mac::{countdown_boundary, MacConfig, MacNode, MacState, TickPhase, TxJob};
use crate::medium::{senses, Medium, Transmission, TxId};
use crate::mobility::MobilityPath;
use crate::phy::{airtime, loss_from_bounds, packet_error_rate, Rate, RateAdaptation};
use aroma_env::radio::{Channel, RadioEnvironment};
use aroma_env::space::Point;
use aroma_sim::faults::{FaultOp, FaultSchedule};
use aroma_sim::stats::Summary;
use aroma_sim::telemetry::{HandlerStat, Layer, Snapshot, Telemetry, TelemetryConfig};
use aroma_sim::{EventQueue, SimDuration, SimRng, SimTime};
use bytes::Bytes;
use std::any::Any;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Static configuration of one node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Position in the floor plan (initial position when mobile).
    pub pos: Point,
    /// Operating channel.
    pub channel: Channel,
    /// Transmit power, dBm.
    pub tx_dbm: f64,
    /// Rate-control policy.
    pub adapt: RateAdaptation,
    /// Trajectory, if the node moves.
    pub mobility: Option<MobilityPath>,
}

impl NodeConfig {
    /// A node at `pos` with default radio parameters (channel 6, 15 dBm,
    /// SNR-based rate control).
    pub fn at(pos: Point) -> Self {
        NodeConfig {
            pos,
            channel: Channel::CH6,
            tx_dbm: 15.0,
            adapt: RateAdaptation::SnrBased,
            mobility: None,
        }
    }

    /// Attach a trajectory.
    pub fn moving(mut self, path: MobilityPath) -> Self {
        self.mobility = Some(path);
        self
    }

    /// Same, with an explicit channel.
    pub fn at_on(pos: Point, channel: Channel) -> Self {
        NodeConfig {
            channel,
            ..NodeConfig::at(pos)
        }
    }
}

/// Per-node traffic counters.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Data-frame transmissions started (including retries).
    pub tx_data_attempts: u64,
    /// ACK frames transmitted.
    pub tx_acks: u64,
    /// Data frames delivered up to the application.
    pub rx_delivered: u64,
    /// Payload bytes delivered up to the application.
    pub rx_bytes: u64,
    /// Duplicate data frames suppressed by sequence checking.
    pub rx_duplicates: u64,
    /// ACK timeouts (each implies a retry or a drop).
    pub ack_timeouts: u64,
    /// Unicast frames dropped after exhausting the retry limit.
    pub drops_retry: u64,
    /// Frames dropped at enqueue because the MAC queue was full.
    pub drops_queue: u64,
    /// Unicast frames successfully acknowledged.
    pub tx_completed: u64,
}

/// Network-wide counters.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    /// Per-node counters, indexed by `NodeId.0`.
    pub node: Vec<NodeStats>,
    /// Total data frames delivered to applications.
    pub delivered_frames: u64,
    /// Total payload bytes delivered to applications.
    pub delivered_bytes: u64,
    /// MAC service time for completed unicast frames (enqueue → ACK), s.
    pub service_time: Summary,
    /// Frames delivered over wired links.
    pub wired_frames: u64,
    /// Payload bytes delivered over wired links.
    pub wired_bytes: u64,
}

impl NetStats {
    /// Aggregate application-level throughput over `horizon`, bits/s.
    pub fn goodput_bps(&self, horizon: SimDuration) -> f64 {
        let secs = horizon.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.delivered_bytes as f64 * 8.0 / secs
        }
    }

    /// Total retry-limit drops across nodes.
    pub fn total_retry_drops(&self) -> u64 {
        self.node.iter().map(|n| n.drops_retry).sum()
    }

    /// Total ACK timeouts (collision/loss indicator) across nodes.
    pub fn total_ack_timeouts(&self) -> u64 {
        self.node.iter().map(|n| n.ack_timeouts).sum()
    }

    /// Total data transmission attempts across nodes.
    pub fn total_tx_attempts(&self) -> u64 {
        self.node.iter().map(|n| n.tx_data_attempts).sum()
    }
}

/// Counters for the fault-injection plane (kept apart from [`NetStats`] so
/// attaching an empty schedule leaves the traffic counters untouched).
#[derive(Clone, Debug, Default)]
pub struct FaultStats {
    /// Scheduled fault operations applied.
    pub injected: u64,
    /// Node power failures applied.
    pub node_crashes: u64,
    /// Node restorations applied.
    pub node_restarts: u64,
    /// Application process kills applied.
    pub process_kills: u64,
    /// Application process restarts applied.
    pub process_restarts: u64,
    /// Frames silently lost because an active partition separated the
    /// endpoints.
    pub frames_blocked_partition: u64,
    /// Otherwise-successful receptions lost to a burst-loss window.
    pub frames_lost_burst: u64,
    /// Receptions lost because an endpoint was powered down.
    pub frames_lost_down: u64,
    /// App timers suppressed by a crash or process kill (lazy cancel).
    pub timers_suppressed: u64,
    /// Sends rejected because the source node was powered down.
    pub sends_blocked_down: u64,
    /// MAC-queued frames dropped at the instant of a crash.
    pub queued_frames_dropped: u64,
}

/// Live state of an attached fault schedule.
struct FaultPlane {
    /// The schedule's operations, sorted by time (index-addressed from
    /// `Event::Fault`).
    ops: Vec<(u64, FaultOp)>,
    /// The injector's private RNG stream (burst-loss coin flips). Never
    /// touches the simulation RNG, so faults-off runs are unperturbed.
    rng: SimRng,
    /// Active partitions, most recent last (`PartitionEnd` pops).
    partitions: Vec<(u64, u64)>,
    /// Current burst-loss probability (0 outside burst windows).
    burst: f64,
    stats: FaultStats,
}

impl FaultPlane {
    /// Does an active partition separate `src` from `rx`? Masks cover node
    /// indices 0..64; nodes beyond that are never partitioned.
    fn partitioned(&self, src: NodeId, rx: NodeId) -> bool {
        if src.0 >= 64 || rx.0 >= 64 {
            return false;
        }
        let (s, r) = (1u64 << src.0, 1u64 << rx.0);
        self.partitions
            .iter()
            .any(|&(a, b)| (a & s != 0 && b & r != 0) || (a & r != 0 && b & s != 0))
    }
}

/// Static trace-event name for a fault operation.
fn fault_event_name(op: &FaultOp) -> &'static str {
    match op {
        FaultOp::NodeDown { .. } => "fault.node_down",
        FaultOp::NodeUp { .. } => "fault.node_up",
        FaultOp::PartitionStart { .. } => "fault.partition_start",
        FaultOp::PartitionEnd => "fault.partition_end",
        FaultOp::BurstStart { .. } => "fault.burst_start",
        FaultOp::BurstEnd => "fault.burst_end",
        FaultOp::ClockSkew { .. } => "fault.clock_skew",
        FaultOp::ProcessKill { .. } => "fault.process_kill",
        FaultOp::ProcessRestart { .. } => "fault.process_restart",
    }
}

/// An application running on a node.
///
/// Implementations also serve as the state the embedding test/experiment
/// inspects afterwards — retrieve them with [`Network::app_as`].
pub trait NetApp: Any {
    /// Called once, at simulation start.
    fn on_start(&mut self, _ctx: &mut NetCtx<'_>) {}
    /// A data frame arrived.
    fn on_packet(&mut self, _ctx: &mut NetCtx<'_>, _from: NodeId, _payload: &Bytes) {}
    /// A timer armed with [`NetCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut NetCtx<'_>, _token: u64) {}
    /// A frame we sent finished service successfully (ACKed, or broadcast
    /// completed its single attempt).
    fn on_sent(&mut self, _ctx: &mut NetCtx<'_>, _to: Address) {}
    /// A unicast frame was dropped after the retry limit.
    fn on_send_failed(&mut self, _ctx: &mut NetCtx<'_>, _to: NodeId, _payload: &Bytes) {}
    /// The fault plane crashed this node (or killed just its process) with
    /// state loss: every pending timer is already cancelled and, for a full
    /// node crash, the MAC queue is gone. Implementations should drop or
    /// invalidate in-memory state here; they must not expect any further
    /// callback until [`NetApp::on_restart`].
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {}
    /// The fault plane restored this node (or its process). Timers armed
    /// before the crash stay cancelled. The default re-runs
    /// [`NetApp::on_start`], which is the right recovery for stateless
    /// protocol apps; stateful apps override to resynchronise instead.
    fn on_restart(&mut self, ctx: &mut NetCtx<'_>) {
        self.on_start(ctx);
    }
}

/// The application's handle onto the stack.
pub struct NetCtx<'a> {
    core: &'a mut Core,
    node: NodeId,
}

impl NetCtx<'_> {
    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.queue.now()
    }

    /// This node's position.
    pub fn position(&self) -> Point {
        self.core.links.position(self.node)
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }

    /// Deterministic per-node random stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.nodes[self.node.0 as usize].rng
    }

    /// Queue a frame for transmission. Payloads larger than [`MTU_BYTES`]
    /// panic (fragmentation belongs to the layer above). Returns `false` if
    /// the MAC queue was full and the frame was dropped.
    pub fn send(&mut self, dst: Address, payload: Bytes) -> bool {
        self.core.enqueue(self.node, dst, payload)
    }

    /// Send over a wired link (the "traditional network"): reliable,
    /// contention-free, delivered after link latency plus serialisation.
    /// Returns `false` when no cable connects this node to `peer`.
    pub fn send_wired(&mut self, peer: NodeId, payload: Bytes) -> bool {
        self.core.send_wired(self.node, peer, payload)
    }

    /// Is this node cabled directly to `peer`?
    pub fn has_wired_link(&self, peer: NodeId) -> bool {
        self.core.wired_link(self.node, peer).is_some()
    }

    /// Free slots in this node's MAC transmit queue right now. A batching
    /// sender (the VNC broadcast pump) uses this as its per-dispatch budget
    /// so it never feeds the queue a frame that [`NetCtx::send`] would have
    /// to reject.
    pub fn mac_queue_space(&self) -> usize {
        let n = &self.core.nodes[self.node.0 as usize];
        self.core.cfg.queue_cap.saturating_sub(n.mac.queue.len())
    }

    /// Would a unicast [`NetCtx::send`] to `peer` ride a cable instead of
    /// the radio? True only when wired-preferred routing is enabled on the
    /// network *and* a cable exists — such sends never consume MAC queue
    /// slots.
    pub fn unicast_is_wired(&self, peer: NodeId) -> bool {
        self.core.prefer_wired && self.core.wired_link(self.node, peer).is_some()
    }

    /// Arm a timer; `token` is handed back to
    /// [`NetApp::on_timer`] when it fires. Under an active clock-skew fault
    /// the delay is stretched or compressed by the node's skew factor.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let info = &self.core.nodes[self.node.0 as usize];
        let delay = if info.skew == 1.0 {
            delay
        } else {
            SimDuration::from_nanos((delay.as_nanos() as f64 * info.skew).round() as u64)
        };
        let epoch = info.timer_epoch;
        self.core.queue.schedule_in(
            delay,
            Event::AppTimer {
                node: self.node,
                token,
                epoch,
            },
        );
    }

    /// Mean SNR (dB, interference-free) of the link to `peer` — what a
    /// driver would estimate from beacons; used by apps for diagnostics.
    pub fn link_snr_db(&mut self, peer: NodeId) -> f64 {
        self.core.link_snr_db(self.node, peer)
    }

    /// The network's telemetry recorder, so applications built on
    /// [`NetApp`] (discovery, VNC, the projector) record into the same
    /// snapshot as the MAC. Off unless [`Network::attach_telemetry`] ran.
    pub fn telemetry(&mut self) -> &mut Telemetry {
        &mut self.core.rec
    }
}

#[derive(Debug)]
enum Event {
    MacTick {
        node: NodeId,
        gen: u64,
        phase: TickPhase,
    },
    TxEnd {
        tx: TxId,
    },
    AckTimeout {
        node: NodeId,
        gen: u64,
    },
    AppTimer {
        node: NodeId,
        token: u64,
        /// The node's timer epoch when armed; a crash bumps the epoch, so
        /// pre-crash timers die lazily at fire time.
        epoch: u32,
    },
    MobilityTick {
        node: NodeId,
    },
    WiredDeliver {
        from: NodeId,
        to: NodeId,
        payload: Bytes,
    },
    /// Apply the `index`-th operation of the attached fault schedule.
    Fault {
        index: u32,
    },
}

/// Event kinds by [`Event::kind`]: the handler names of the event loop's
/// self-profile, in same-instant rank order.
const KIND_NAMES: [&str; 7] = [
    "Fault",
    "MobilityTick",
    "TxEnd",
    "AckTimeout",
    "WiredDeliver",
    "AppTimer",
    "MacTick",
];

impl Event {
    /// The kind's same-instant rank, which also indexes [`KIND_NAMES`].
    /// Faults land first and mobility moves nodes next, then frames end;
    /// MAC ticks go last.
    fn kind(&self) -> usize {
        match self {
            Event::Fault { .. } => 0,
            Event::MobilityTick { .. } => 1,
            Event::TxEnd { .. } => 2,
            Event::AckTimeout { .. } => 3,
            Event::WiredDeliver { .. } => 4,
            Event::AppTimer { .. } => 5,
            Event::MacTick { .. } => 6,
        }
    }

    /// Same-instant order (DESIGN.md §14): the kind's rank in the top
    /// byte, then the id the event concerns, so MAC ticks run in node-id
    /// order.
    fn tie_key(&self) -> u64 {
        let id = match self {
            Event::Fault { index } => u64::from(*index),
            Event::TxEnd { tx } => tx.0,
            Event::WiredDeliver { to, .. } => to.key(),
            Event::MobilityTick { node }
            | Event::AckTimeout { node, .. }
            | Event::AppTimer { node, .. }
            | Event::MacTick { node, .. } => node.key(),
        };
        debug_assert!(id < 1 << 56, "tie id {id} overflows its field");
        (self.kind() as u64) << 56 | id
    }
}

/// One event in this many is timed by the event loop's self-profile.
const PROFILE_STRIDE: u32 = 32;

/// The event loop's self-profile (DESIGN.md §10), kept while the recorder
/// is on. Every event is counted by kind and the loop's own wall time is
/// summed over every run; one event in [`PROFILE_STRIDE`], picked by a
/// countdown over all events, is timed twice: its pop, and its handler
/// with the app callbacks it caused. [`LoopProfile::handlers`] splits the
/// loop's time among the kinds from those samples.
struct LoopProfile {
    /// Events dispatched, by kind.
    calls: [u64; KIND_NAMES.len()],
    /// Timed events, by kind.
    samples: [u64; KIND_NAMES.len()],
    /// Handler nanos of the timed events, by kind.
    sampled_nanos: [u64; KIND_NAMES.len()],
    /// Pop nanos of the timed events.
    pop_nanos: u64,
    /// Wall nanos inside the loop, every run summed.
    loop_nanos: u64,
    /// Events left until the next timed one, this one included.
    countdown: u32,
    /// Test-only reference: time every event. Set it after
    /// [`Network::attach_telemetry`], which starts a new profile.
    #[cfg(test)]
    every_event: bool,
}

impl LoopProfile {
    fn new() -> Self {
        LoopProfile {
            calls: [0; KIND_NAMES.len()],
            samples: [0; KIND_NAMES.len()],
            sampled_nanos: [0; KIND_NAMES.len()],
            pop_nanos: 0,
            loop_nanos: 0,
            countdown: PROFILE_STRIDE,
            #[cfg(test)]
            every_event: false,
        }
    }

    /// Count one event down; `true` when it is the one to time. The first
    /// events a network runs are cold (link rows filled, buffers grown), so
    /// the first timed one is the stride's last, not its first.
    #[inline]
    fn sample_due(&mut self) -> bool {
        #[cfg(test)]
        if self.every_event {
            return true;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return false;
        }
        self.countdown = PROFILE_STRIDE;
        true
    }

    /// Record a timed event of `kind`.
    fn record(&mut self, kind: usize, pop: Duration, handler: Duration) {
        self.calls[kind] += 1;
        self.samples[kind] += 1;
        self.sampled_nanos[kind] += handler.as_nanos() as u64;
        self.pop_nanos += pop.as_nanos() as u64;
    }

    /// One entry per kind that ran, hottest first once sorted. Each kind's
    /// sampled mean times its exact count, and the pops' the same way, are
    /// scaled to sum to the loop's measured time: a timed event runs
    /// slower than the same event untimed, and scaling takes that out. The
    /// pops' share stays out of the entries, in the loop's own time. A
    /// kind that was never timed reads 0 ns.
    fn handlers(&self) -> impl Iterator<Item = HandlerStat> + '_ {
        let mean = |nanos: u64, n: u64| if n == 0 { 0.0 } else { nanos as f64 / n as f64 };
        let estimate: [f64; KIND_NAMES.len()] = std::array::from_fn(|k| {
            mean(self.sampled_nanos[k], self.samples[k]) * self.calls[k] as f64
        });
        let events: u64 = self.calls.iter().sum();
        let pops = mean(self.pop_nanos, self.samples.iter().sum()) * events as f64;
        let sum = estimate.iter().sum::<f64>() + pops;
        let scale = if sum > 0.0 {
            self.loop_nanos as f64 / sum
        } else {
            0.0
        };
        (0..KIND_NAMES.len())
            .filter(|&k| self.calls[k] > 0)
            .map(move |k| {
                HandlerStat::new(KIND_NAMES[k], self.calls[k], (estimate[k] * scale) as u64)
            })
    }
}

enum AppCall {
    Packet {
        node: NodeId,
        from: NodeId,
        payload: Bytes,
    },
    Timer {
        node: NodeId,
        token: u64,
    },
    Sent {
        node: NodeId,
        to: Address,
    },
    SendFailed {
        node: NodeId,
        to: NodeId,
        payload: Bytes,
    },
    Crash {
        node: NodeId,
    },
    Restart {
        node: NodeId,
    },
}

struct NodeInfo {
    channel: Channel,
    tx_dbm: f64,
    adapt: RateAdaptation,
    mobility: Option<MobilityPath>,
    mac: MacNode,
    /// Last sequence number seen per source (duplicate suppression).
    dedup: HashMap<NodeId, u16>,
    rng: SimRng,
    /// Powered and able to transmit/receive (fault plane; always true
    /// without one).
    up: bool,
    /// Bumped by crashes and process kills to lazily cancel app timers.
    timer_epoch: u32,
    /// Clock-skew factor applied to subsequent timer delays (fault plane;
    /// exactly 1.0 means untouched).
    skew: f64,
}

/// A reliable point-to-point cable between two nodes (the "traditional
/// network" the Aroma project bridges to). Full duplex, contention-free.
#[derive(Clone, Copy, Debug)]
struct WiredLink {
    a: NodeId,
    b: NodeId,
    latency: SimDuration,
    bps: u64,
}

struct Core {
    queue: EventQueue<Event>,
    /// Node positions and the path loss of every link between them.
    links: LinkTable,
    cfg: MacConfig,
    nodes: Vec<NodeInfo>,
    medium: Medium,
    rng: SimRng,
    stats: NetStats,
    pending: Vec<AppCall>,
    /// Nodes whose backoff countdown is running (`counted_at` is set), so
    /// a new transmission checks these for a wake and not every node.
    counting: Vec<NodeId>,
    /// Test-only reference: also tick every counting node at each of its
    /// slot boundaries, which replays the per-slot countdown (every tick
    /// then folds in no skipped slot).
    #[cfg(test)]
    per_slot: bool,
    /// Test-only reference: decide every reception from the exact SINR and
    /// packet error rate, as if the bounds never settled one.
    #[cfg(test)]
    exact_reception: bool,
    /// Test-only: receptions the bounds settled as certain losses, as
    /// certain survivals, and left to the exact path.
    #[cfg(test)]
    settled: [u64; 3],
    wired: Vec<WiredLink>,
    /// Cable lookup by normalised `(min, max)` node pair — `wired_link` is
    /// on the per-frame send path, and a linear scan over ten thousand
    /// cables would turn the broadcast fan-out quadratic. Keyed access
    /// only (never iterated), so determinism is unaffected.
    wired_index: HashMap<(u32, u32), u32>,
    /// Route unicast [`NetCtx::send`]s over a cable whenever one exists
    /// (opt-in via [`Network::set_prefer_wired`]; radio remains the
    /// broadcast and fallback path).
    prefer_wired: bool,
    /// Telemetry recorder (Off by default; every call inlines to a no-op).
    rec: Telemetry,
    /// The event loop's self-profile; untouched while `rec` is off.
    profile: LoopProfile,
    /// Fault-injection plane; `None` unless a schedule was attached.
    faults: Option<FaultPlane>,
}

/// ACK wait: SIFS + ACK airtime at the base rate + two slots of grace.
fn ack_timeout(cfg: &MacConfig) -> SimDuration {
    cfg.sifs + airtime(ACK_BYTES as u64 * 8, Rate::R2) + cfg.slot * 2
}

/// Where a counting node must be woken for transmission `t`: its first
/// slot boundary strictly after `t` starts, when the node senses `t` and
/// `t` is still on the air there. That is the first boundary at which a
/// tick would find `t` busy (carrier sense ignores a transmission at the
/// instant it starts). `None` when no such boundary comes before the
/// countdown's own end tick, which then does the check itself.
fn wake_for(
    links: &mut LinkTable,
    slot: SimDuration,
    id: NodeId,
    node: &NodeInfo,
    t: &Transmission,
) -> Option<SimTime> {
    let MacState::Contending {
        remaining,
        counted_at: Some(at),
    } = node.mac.state
    else {
        return None;
    };
    let wake = countdown_boundary(at, remaining, slot, t.start, true)?;
    let pos = links.position(id);
    (wake < t.end && senses(links, t, id, pos, node.channel)).then_some(wake)
}

impl Core {
    fn node(&mut self, id: NodeId) -> &mut NodeInfo {
        &mut self.nodes[id.0 as usize]
    }

    fn link_snr_db(&mut self, a: NodeId, b: NodeId) -> f64 {
        let tx_dbm = self.nodes[a.0 as usize].tx_dbm;
        let (pa, pb) = (self.links.position(a), self.links.position(b));
        self.links.received_dbm(tx_dbm, a, pa, b, pb) - self.links.noise_floor_dbm()
    }

    fn enqueue(&mut self, src: NodeId, dst: Address, payload: Bytes) -> bool {
        assert!(
            payload.len() <= MTU_BYTES,
            "payload {} exceeds MTU {MTU_BYTES}; fragment above the MAC",
            payload.len()
        );
        if let Address::Node(d) = dst {
            assert!(
                (d.0 as usize) < self.nodes.len(),
                "destination {d} does not exist"
            );
            assert_ne!(d, src, "a node cannot unicast to itself");
        }
        if !self.nodes[src.0 as usize].up {
            // Powered-down radio (fault plane): the send is silently lost.
            if let Some(fp) = &mut self.faults {
                fp.stats.sends_blocked_down += 1;
            }
            return false;
        }
        if self.prefer_wired {
            if let Address::Node(d) = dst {
                if self.wired_link(src, d).is_some() {
                    // Wired-preferred routing: the cable carries the frame,
                    // so it never occupies a MAC queue slot.
                    return self.send_wired(src, d, payload);
                }
            }
        }
        let now = self.queue.now();
        let cap = self.cfg.queue_cap;
        if self.nodes[src.0 as usize].mac.queue.len() >= cap {
            self.nodes[src.0 as usize].mac.queue_drops += 1;
            self.stats.node[src.0 as usize].drops_queue += 1;
            self.rec.count("net.mac.drop.queue_full", 1);
            self.rec.event(
                now.as_nanos(),
                Layer::Resource,
                "mac.drop.queue_full",
                src.0,
                cap as i64,
                0,
            );
            return false;
        }
        let node = &mut self.nodes[src.0 as usize];
        let seq = node.mac.alloc_seq();
        node.mac.queue.push_back(TxJob {
            frame: Frame {
                src,
                dst,
                kind: FrameKind::Data,
                seq,
                payload,
            },
            enqueued_at: now,
            retries: 0,
        });
        self.kick(src);
        true
    }

    /// Start contention if the MAC is idle and has work.
    fn kick(&mut self, id: NodeId) {
        let node = self.node(id);
        if node.mac.state == MacState::Idle && !node.mac.queue.is_empty() {
            self.start_contention(id);
        }
    }

    fn start_contention(&mut self, id: NodeId) {
        let cfg = self.cfg;
        let node = self.node(id);
        let attempt = node.mac.queue.front().map(|j| j.retries).unwrap_or(0);
        let remaining = cfg.draw_backoff(attempt, &mut node.rng);
        node.mac.state = MacState::Contending {
            remaining,
            counted_at: None,
        };
        let gen = node.mac.bump_gen();
        self.rec.count("net.mac.contention_rounds", 1);
        self.rec.event(
            self.queue.now().as_nanos(),
            Layer::Resource,
            "mac.state.contending",
            id.0,
            attempt as i64,
            remaining as i64,
        );
        self.schedule_tick(id, gen, TickPhase::Poll, SimDuration::ZERO);
    }

    fn schedule_tick(&mut self, node: NodeId, gen: u64, phase: TickPhase, delay: SimDuration) {
        self.queue
            .schedule_in(delay, Event::MacTick { node, gen, phase });
    }

    fn on_tick(&mut self, id: NodeId, gen: u64, phase: TickPhase) {
        let now = self.queue.now();
        let slot = self.cfg.slot;
        let node = &mut self.nodes[id.0 as usize];
        if node.mac.gen != gen {
            return; // stale tick from a previous contention cycle or countdown
        }
        let MacState::Contending {
            remaining,
            counted_at,
        } = &mut node.mac.state
        else {
            return;
        };
        if let Some(at) = *counted_at {
            // A countdown tick. Every boundary since the last handled one
            // was idle, or a wake would have come sooner: fold those slots.
            if now == at {
                return; // a second tick at a boundary already handled
            }
            let slots = (now - at).as_nanos() / slot.as_nanos();
            debug_assert!(
                at + slot * slots == now && slots <= u64::from(*remaining),
                "countdown tick at {now} is off the grid of {at} with {remaining} slots left"
            );
            *remaining -= slots as u32 - 1;
            *counted_at = Some(now);
        }
        // Carrier sense against the live medium.
        let pos = self.links.position(id);
        if let Some(busy_end) = self
            .medium
            .busy_for(&mut self.links, id, pos, node.channel, now)
        {
            // Busy: freeze the countdown, poll again when the sensed
            // transmission ends. The new generation retires the
            // countdown's end tick and any wakes.
            self.stop_countdown(id);
            let gen = self.node(id).mac.bump_gen();
            self.schedule_tick(id, gen, TickPhase::Poll, busy_end.saturating_since(now));
            return;
        }
        match phase {
            TickPhase::Poll => {
                // Idle again: wait a full DIFS before resuming the countdown.
                self.schedule_tick(id, gen, TickPhase::AfterDifs, self.cfg.difs);
            }
            TickPhase::AfterDifs | TickPhase::Slot => {
                if phase == TickPhase::Slot {
                    *remaining -= 1;
                }
                if *remaining == 0 {
                    self.stop_countdown(id);
                    self.transmit_head(id);
                    return;
                }
                if phase == TickPhase::AfterDifs {
                    // Start the countdown: one tick at its end, and a wake
                    // for each registered transmission it senses that has
                    // yet to start (an ACK registers a SIFS early).
                    *counted_at = Some(now);
                    let end = slot * u64::from(*remaining);
                    self.counting.push(id);
                    self.schedule_tick(id, gen, TickPhase::Slot, end);
                    self.wake_for_registered(id);
                }
                #[cfg(test)]
                if self.per_slot {
                    self.schedule_tick(id, gen, TickPhase::Slot, slot);
                }
            }
        }
    }

    /// End `id`'s countdown, if one is running: clear its boundary and take
    /// it off the counting list.
    fn stop_countdown(&mut self, id: NodeId) {
        if let MacState::Contending { counted_at, .. } = &mut self.node(id).mac.state {
            *counted_at = None;
        }
        if let Some(i) = self.counting.iter().position(|&n| n == id) {
            self.counting.swap_remove(i);
        }
    }

    /// Wake counting node `id` for every registered transmission that
    /// starts at or after now, wherever [`wake_for`] says.
    fn wake_for_registered(&mut self, id: NodeId) {
        let node = &self.nodes[id.0 as usize];
        for t in self.medium.starting_from(self.queue.now()) {
            if let Some(at) = wake_for(&mut self.links, self.cfg.slot, id, node, t) {
                let (gen, phase) = (node.mac.gen, TickPhase::Slot);
                self.queue.schedule_at(
                    at,
                    Event::MacTick {
                        node: id,
                        gen,
                        phase,
                    },
                );
            }
        }
    }

    /// Register `tx` on the medium, first waking every counting node that
    /// will sense it.
    fn begin(&mut self, tx: Transmission) -> TxId {
        for &id in &self.counting {
            let node = &self.nodes[id.0 as usize];
            if let Some(at) = wake_for(&mut self.links, self.cfg.slot, id, node, &tx) {
                let (gen, phase) = (node.mac.gen, TickPhase::Slot);
                self.queue.schedule_at(
                    at,
                    Event::MacTick {
                        node: id,
                        gen,
                        phase,
                    },
                );
            }
        }
        self.medium.begin(tx)
    }

    fn transmit_head(&mut self, id: NodeId) {
        let now = self.queue.now();
        let (frame, rate, ch, tx_dbm) = {
            let n = &self.nodes[id.0 as usize];
            let job = n.mac.queue.front().expect("transmit with empty queue");
            let (frame, adapt, ch, tx_dbm) = (job.frame.clone(), n.adapt, n.channel, n.tx_dbm);
            let rate = match frame.dst {
                Address::Node(d) => adapt.select(self.link_snr_db(id, d)),
                // Broadcasts go at a basic rate every receiver can decode.
                Address::Broadcast => Rate::R2,
            };
            (frame, rate, ch, tx_dbm)
        };
        let air = airtime(frame.wire_bits(), rate);
        let tx = self.begin(Transmission {
            id: TxId(0),
            src: id,
            src_pos: self.links.position(id),
            channel: ch,
            tx_dbm,
            rate,
            start: now,
            end: now + air,
            frame,
        });
        self.stats.node[id.0 as usize].tx_data_attempts += 1;
        self.node(id).mac.state = MacState::Transmitting;
        self.rec.count("net.mac.tx_attempts", 1);
        self.rec.event(
            now.as_nanos(),
            Layer::Resource,
            "mac.state.transmitting",
            id.0,
            air.as_nanos() as i64,
            0,
        );
        self.queue.schedule_at(now + air, Event::TxEnd { tx });
    }

    /// Put an ACK on the air a SIFS from now; false when `from` cannot
    /// send one.
    fn send_ack(&mut self, from: NodeId, to: NodeId, seq: u16) -> bool {
        let now = self.queue.now();
        // A half-duplex radio that is (or will be) transmitting cannot ACK.
        let start = now + self.cfg.sifs;
        let air = airtime(ACK_BYTES as u64 * 8, Rate::R2);
        if self.medium.was_transmitting(from, now, start + air) {
            return false;
        }
        let n = &self.nodes[from.0 as usize];
        let tx = self.begin(Transmission {
            id: TxId(0),
            src: from,
            src_pos: self.links.position(from),
            channel: n.channel,
            tx_dbm: n.tx_dbm,
            rate: Rate::R2,
            start,
            end: start + air,
            frame: Frame {
                src: from,
                dst: Address::Node(to),
                kind: FrameKind::Ack,
                seq,
                payload: Bytes::new(),
            },
        });
        self.stats.node[from.0 as usize].tx_acks += 1;
        self.queue.schedule_at(start + air, Event::TxEnd { tx });
        true
    }

    fn on_tx_end(&mut self, tx_id: TxId) {
        // The prune keeps everything with `end >= now`, so a transmission
        // is still registered at its own TxEnd. A lost ACK relies on this:
        // its TxEnd is what arms the sender's timeout.
        let t = self.medium.get(tx_id).cloned();
        debug_assert!(t.is_some(), "{tx_id:?} pruned before its TxEnd");
        let Some(t) = t else { return };
        match t.frame.kind {
            FrameKind::Data => self.finish_data(&t),
            FrameKind::Ack => self.finish_ack(&t),
        }
        // Drop what can no longer overlap a transmission on the air.
        self.medium.prune(self.queue.now());
    }

    fn receive_ok(&mut self, t: &Transmission, rx: NodeId) -> bool {
        // Fault plane: a powered-down endpoint (a sender crashing mid-air
        // corrupts its frame) or an active partition kills the frame before
        // any PHY consideration. These branches cannot trigger without an
        // active fault, so they never perturb faults-off runs.
        if !self.nodes[rx.0 as usize].up || !self.nodes[t.frame.src.0 as usize].up {
            if let Some(fp) = &mut self.faults {
                fp.stats.frames_lost_down += 1;
            }
            return false;
        }
        if let Some(fp) = &mut self.faults {
            if fp.partitioned(t.frame.src, rx) {
                fp.stats.frames_blocked_partition += 1;
                return false;
            }
        }
        // A radio can only decode frames on the channel it is tuned to
        // (adjacent channels interfere but are not demodulable).
        if self.nodes[rx.0 as usize].channel != t.channel {
            return false;
        }
        if self.medium.was_transmitting(rx, t.start, t.end) {
            return false; // half duplex
        }
        let pos = self.links.position(rx);
        let Some((lo, hi)) = self.medium.sinr_bounds(&mut self.links, t.id, rx, pos) else {
            return false;
        };
        // The PHY stream's draw for `chance(per)`, taken where it always
        // was: the bounds settle it when every SINR in `[lo, hi]` gives
        // the same answer, and the exact SINR and PER decide it otherwise.
        let u = self.rng.uniform();
        let bits = t.frame.wire_bits();
        let settled = loss_from_bounds(t.rate, lo, hi, bits, u);
        #[cfg(test)]
        let settled = self.tally(settled);
        let lost = match settled {
            Some(lost) => lost,
            None => {
                let Some(sinr) = self.medium.sinr_for(&mut self.links, t.id, rx, pos) else {
                    return false;
                };
                u < packet_error_rate(t.rate, sinr, bits).clamp(0.0, 1.0)
            }
        };
        if lost {
            return false;
        }
        // Burst-loss window: an otherwise-successful reception is lost with
        // the scripted probability, drawn from the fault plane's own stream.
        if let Some(fp) = &mut self.faults {
            if fp.burst > 0.0 && fp.rng.chance(fp.burst) {
                fp.stats.frames_lost_burst += 1;
                return false;
            }
        }
        true
    }

    /// Test-only: count how the bounds settled a reception (certain loss,
    /// certain survival, or left to the exact path), and under
    /// `exact_reception` leave every one to the exact path.
    #[cfg(test)]
    fn tally(&mut self, settled: Option<bool>) -> Option<bool> {
        self.settled[settled.map_or(2, |lost| usize::from(!lost))] += 1;
        settled.filter(|_| !self.exact_reception)
    }

    /// Is `src` still mid-transmission of exactly this frame? Always true
    /// in a fault-free run at `TxEnd` time; false when a crash tore the MAC
    /// down (and cleared its queue) while the frame was on the air.
    fn sender_active(&self, src: NodeId, seq: u16) -> bool {
        let node = &self.nodes[src.0 as usize];
        node.mac.state == MacState::Transmitting
            && node.mac.queue.front().map(|j| j.frame.seq) == Some(seq)
    }

    fn finish_data(&mut self, t: &Transmission) {
        let src = t.frame.src;
        match t.frame.dst {
            Address::Node(dst) => {
                let ok = self.receive_ok(t, dst);
                let acking = ok && self.send_ack(dst, src, t.frame.seq);
                if ok {
                    self.deliver(t, dst);
                }
                if !self.sender_active(src, t.frame.seq) {
                    return; // sender crashed mid-air; nothing awaits the ACK
                }
                // Sender now waits for the ACK. When none is coming, arm
                // the timeout here; an ACK on the air arms it itself if it
                // is lost (`finish_ack`), so no timeout fires as a no-op.
                let gen = {
                    let node = self.node(src);
                    node.mac.state = MacState::WaitAck { seq: t.frame.seq };
                    node.mac.bump_gen()
                };
                self.rec.event(
                    self.queue.now().as_nanos(),
                    Layer::Resource,
                    "mac.state.wait_ack",
                    src.0,
                    t.frame.seq as i64,
                    ok as i64,
                );
                if !acking {
                    let timeout = ack_timeout(&self.cfg);
                    self.queue
                        .schedule_in(timeout, Event::AckTimeout { node: src, gen });
                }
            }
            Address::Broadcast => {
                for r in (0..self.nodes.len() as u32)
                    .map(NodeId)
                    .filter(|&r| r != src)
                {
                    if self.receive_ok(t, r) {
                        self.deliver(t, r);
                    }
                }
                // Single attempt; service complete (unless a crash already
                // tore the sender's queue down mid-air).
                if self.sender_active(src, t.frame.seq) {
                    self.complete_head(src, true);
                }
            }
        }
    }

    fn finish_ack(&mut self, t: &Transmission) {
        let Address::Node(data_sender) = t.frame.dst else {
            return;
        };
        // Reception is decided even when nobody waits: it draws from the
        // PHY and fault-plane streams.
        let ok = self.receive_ok(t, data_sender);
        let node = &self.nodes[data_sender.0 as usize];
        if node.mac.state != (MacState::WaitAck { seq: t.frame.seq }) {
            return; // late or duplicate ACK
        }
        if !ok {
            // Lost ACK: time out two slots after its end, which is
            // `ack_timeout` (SIFS + ACK airtime + two slots) after the
            // data frame's end.
            let gen = node.mac.gen;
            self.queue.schedule_in(
                self.cfg.slot * 2,
                Event::AckTimeout {
                    node: data_sender,
                    gen,
                },
            );
            return;
        }
        let now = self.queue.now();
        let service = {
            let node = self.node(data_sender);
            node.mac.bump_gen(); // invalidate the armed AckTimeout
            let job = node.mac.queue.front().expect("WaitAck with empty queue");
            now.saturating_since(job.enqueued_at)
        };
        self.stats.service_time.record(service.as_secs_f64());
        self.stats.node[data_sender.0 as usize].tx_completed += 1;
        self.rec.count("net.mac.tx_completed", 1);
        self.rec.observe("net.mac.service_time_s", service.as_secs_f64());
        self.complete_head(data_sender, true);
    }

    fn deliver(&mut self, t: &Transmission, rx: NodeId) {
        let src = t.frame.src;
        let is_dup = {
            let node = self.node(rx);
            node.dedup.get(&src) == Some(&t.frame.seq)
        };
        if is_dup {
            self.stats.node[rx.0 as usize].rx_duplicates += 1;
            return;
        }
        self.node(rx).dedup.insert(src, t.frame.seq);
        let s = &mut self.stats.node[rx.0 as usize];
        s.rx_delivered += 1;
        s.rx_bytes += t.frame.payload.len() as u64;
        self.stats.delivered_frames += 1;
        self.stats.delivered_bytes += t.frame.payload.len() as u64;
        self.rec.count("net.rx.delivered", 1);
        self.pending.push(AppCall::Packet {
            node: rx,
            from: src,
            payload: t.frame.payload.clone(),
        });
    }

    fn on_ack_timeout(&mut self, id: NodeId, gen: u64) {
        let cfg = self.cfg;
        {
            let node = &self.nodes[id.0 as usize];
            if node.mac.gen != gen || !matches!(node.mac.state, MacState::WaitAck { .. }) {
                return;
            }
        }
        self.stats.node[id.0 as usize].ack_timeouts += 1;
        self.rec.count("net.mac.ack_timeouts", 1);
        let (exhausted, retries) = {
            let node = self.node(id);
            let job = node.mac.queue.front_mut().expect("WaitAck with empty queue");
            job.retries += 1;
            (job.retries > cfg.retry_limit, job.retries)
        };
        if exhausted {
            self.stats.node[id.0 as usize].drops_retry += 1;
            self.rec.count("net.mac.drop.retry_limit", 1);
            self.rec.event(
                self.queue.now().as_nanos(),
                Layer::Resource,
                "mac.drop.retry_limit",
                id.0,
                retries as i64,
                0,
            );
            self.complete_head(id, false);
        } else {
            self.rec.count("net.mac.retries", 1);
            self.start_contention(id);
        }
    }

    /// Pop the head job, emit the right app callback, return to Idle and
    /// look for more work.
    fn complete_head(&mut self, id: NodeId, success: bool) {
        let job = {
            let node = self.node(id);
            node.mac.state = MacState::Idle;
            node.mac.bump_gen();
            node.mac.queue.pop_front().expect("complete with empty queue")
        };
        self.rec.event(
            self.queue.now().as_nanos(),
            Layer::Resource,
            "mac.state.idle",
            id.0,
            success as i64,
            0,
        );
        if success {
            self.pending.push(AppCall::Sent {
                node: id,
                to: job.frame.dst,
            });
        } else if let Address::Node(d) = job.frame.dst {
            self.pending.push(AppCall::SendFailed {
                node: id,
                to: d,
                payload: job.frame.payload,
            });
        }
        self.kick(id);
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::MacTick { node, gen, phase } => self.on_tick(node, gen, phase),
            Event::TxEnd { tx } => self.on_tx_end(tx),
            Event::AckTimeout { node, gen } => self.on_ack_timeout(node, gen),
            Event::AppTimer { node, token, epoch } => {
                let info = &self.nodes[node.0 as usize];
                if info.timer_epoch != epoch || !info.up {
                    // Armed before a crash/kill (or firing into a downed
                    // node): the epoch bump cancelled it lazily.
                    if let Some(fp) = &mut self.faults {
                        fp.stats.timers_suppressed += 1;
                    }
                    return;
                }
                self.pending.push(AppCall::Timer { node, token });
            }
            Event::MobilityTick { node } => self.on_mobility_tick(node),
            Event::WiredDeliver { from, to, payload } => {
                if !self.nodes[from.0 as usize].up || !self.nodes[to.0 as usize].up {
                    // A cable into a powered-down host delivers nothing. A
                    // live sender still learns its frame died — the same
                    // contract the radio keeps via retry exhaustion — so
                    // windowed senders can reclaim the in-flight slot.
                    if let Some(fp) = &mut self.faults {
                        fp.stats.frames_lost_down += 1;
                    }
                    if self.nodes[from.0 as usize].up {
                        self.pending.push(AppCall::SendFailed {
                            node: from,
                            to,
                            payload,
                        });
                    }
                    return;
                }
                self.stats.wired_frames += 1;
                self.stats.wired_bytes += payload.len() as u64;
                // Wired sends complete at delivery: the sender's `on_sent`
                // fires in the same batch as the receiver's `on_packet`,
                // giving windowed senders the completion edge the radio
                // path gets from its ACK.
                self.pending.push(AppCall::Sent {
                    node: from,
                    to: Address::Node(to),
                });
                self.pending.push(AppCall::Packet {
                    node: to,
                    from,
                    payload,
                });
            }
            Event::Fault { index } => self.apply_fault(index as usize),
        }
    }

    /// Apply the `idx`-th scheduled fault operation.
    fn apply_fault(&mut self, idx: usize) {
        let Some(fp) = self.faults.as_mut() else {
            return;
        };
        let op = fp.ops[idx].1;
        fp.stats.injected += 1;
        let now = self.queue.now().as_nanos();
        let (node, a, b) = match op {
            FaultOp::NodeDown { node, drop_state } => (node, drop_state as i64, 0),
            FaultOp::NodeUp { node }
            | FaultOp::ProcessKill { node }
            | FaultOp::ProcessRestart { node } => (node, 0, 0),
            FaultOp::PartitionStart { a, b } => (u32::MAX, a as i64, b as i64),
            FaultOp::BurstStart { loss } => (u32::MAX, (loss * 1_000.0) as i64, 0),
            FaultOp::ClockSkew { node, factor } => (node, (factor * 1_000.0) as i64, 0),
            FaultOp::PartitionEnd | FaultOp::BurstEnd => (u32::MAX, 0, 0),
        };
        self.rec.count("faults.injected", 1);
        self.rec
            .event(now, Layer::Physical, fault_event_name(&op), node, a, b);
        match op {
            FaultOp::NodeDown { node, drop_state } => self.node_down(NodeId(node), drop_state),
            FaultOp::NodeUp { node } => self.node_up(NodeId(node)),
            FaultOp::PartitionStart { a, b } => {
                self.faults.as_mut().unwrap().partitions.push((a, b));
            }
            FaultOp::PartitionEnd => {
                self.faults.as_mut().unwrap().partitions.pop();
            }
            FaultOp::BurstStart { loss } => self.faults.as_mut().unwrap().burst = loss,
            FaultOp::BurstEnd => self.faults.as_mut().unwrap().burst = 0.0,
            FaultOp::ClockSkew { node, factor } => {
                self.nodes[node as usize].skew = factor;
            }
            FaultOp::ProcessKill { node } => {
                let id = NodeId(node);
                self.node(id).timer_epoch += 1;
                self.faults.as_mut().unwrap().stats.process_kills += 1;
                self.pending.push(AppCall::Crash { node: id });
            }
            FaultOp::ProcessRestart { node } => {
                self.faults.as_mut().unwrap().stats.process_restarts += 1;
                self.pending.push(AppCall::Restart { node: NodeId(node) });
            }
        }
    }

    /// Power-fail a node: silence the radio, tear down the MAC (queued and
    /// in-flight frames die), cancel app timers via the epoch. With
    /// `drop_state` the app is notified through `on_crash` and its
    /// duplicate-suppression memory is wiped too.
    fn node_down(&mut self, id: NodeId, drop_state: bool) {
        let node = self.node(id);
        if !node.up {
            return;
        }
        node.up = false;
        node.timer_epoch += 1;
        let dropped = node.mac.queue.len() as u64;
        node.mac.queue.clear();
        // Invalidate outstanding MacTick/AckTimeout events. The sequence
        // counter deliberately survives so late ACKs for pre-crash frames
        // can never be confused with post-restart traffic.
        node.mac.bump_gen();
        if drop_state {
            node.dedup.clear();
        }
        self.stop_countdown(id);
        self.node(id).mac.state = MacState::Idle;
        let fp = self.faults.as_mut().expect("fault op without a plane");
        fp.stats.node_crashes += 1;
        fp.stats.queued_frames_dropped += dropped;
        if drop_state {
            self.pending.push(AppCall::Crash { node: id });
        }
    }

    /// Restore a downed node and let its app recover via `on_restart`.
    fn node_up(&mut self, id: NodeId) {
        let node = self.node(id);
        if node.up {
            return;
        }
        node.up = true;
        self.faults
            .as_mut()
            .expect("fault op without a plane")
            .stats
            .node_restarts += 1;
        self.pending.push(AppCall::Restart { node: id });
    }

    /// Is there a cable directly between `a` and `b`?
    fn wired_link(&self, a: NodeId, b: NodeId) -> Option<WiredLink> {
        let key = (a.0.min(b.0), a.0.max(b.0));
        let link = self.wired_index.get(&key).map(|&i| self.wired[i as usize])?;
        debug_assert!(
            (link.a == a && link.b == b) || (link.a == b && link.b == a),
            "wired index out of sync with the cable table"
        );
        Some(link)
    }

    fn send_wired(&mut self, from: NodeId, to: NodeId, payload: Bytes) -> bool {
        let Some(link) = self.wired_link(from, to) else {
            return false;
        };
        let delay = link.latency + SimDuration::for_bits(payload.len() as u64 * 8, link.bps);
        self.queue
            .schedule_in(delay, Event::WiredDeliver { from, to, payload });
        true
    }

    fn on_mobility_tick(&mut self, id: NodeId) {
        let now = self.queue.now();
        let Some(path) = &self.nodes[id.0 as usize].mobility else {
            return;
        };
        let (pos, period, ends_at) = (path.position_at(now), path.update_period, path.ends_at());
        if pos != self.links.position(id) {
            self.links.move_node(id, pos);
            // A counting node now senses every transmission from elsewhere:
            // wake it at its next boundary (mobility runs before the MAC
            // ticks of its instant, so that may be now) for those on the
            // air, and for each registered one yet to start.
            let node = &self.nodes[id.0 as usize];
            if let MacState::Contending {
                remaining,
                counted_at: Some(at),
            } = node.mac.state
            {
                if let Some(wake) = countdown_boundary(at, remaining, self.cfg.slot, now, false) {
                    let gen = node.mac.gen;
                    self.schedule_tick(id, gen, TickPhase::Slot, wake - now);
                }
                self.wake_for_registered(id);
            }
        }
        if now < ends_at {
            self.queue
                .schedule_in(period, Event::MobilityTick { node: id });
        }
    }
}

/// The simulated wireless network.
pub struct Network {
    core: Core,
    apps: Vec<Option<Box<dyn NetApp>>>,
    /// The app calls of the last batch drained, emptied and kept for its
    /// capacity: `drain_app_calls` swaps it with `Core::pending`.
    draining: Vec<AppCall>,
    started: bool,
}

impl Network {
    /// Create a network inside the given radio environment.
    pub fn new(env: RadioEnvironment, cfg: MacConfig, seed: u64) -> Self {
        Network {
            core: Core {
                queue: EventQueue::keyed(Event::tie_key),
                links: LinkTable::new(env),
                cfg,
                nodes: Vec::new(),
                medium: Medium::new(),
                rng: SimRng::new(seed),
                stats: NetStats::default(),
                pending: Vec::new(),
                counting: Vec::new(),
                #[cfg(test)]
                per_slot: false,
                #[cfg(test)]
                exact_reception: false,
                #[cfg(test)]
                settled: [0; 3],
                wired: Vec::new(),
                wired_index: HashMap::new(),
                prefer_wired: false,
                rec: Telemetry::Off,
                profile: LoopProfile::new(),
                faults: None,
            },
            apps: Vec::new(),
            draining: Vec::new(),
            started: false,
        }
    }

    /// Cable two nodes together (the "traditional network" side of the
    /// pervasive system): reliable point-to-point delivery with the given
    /// latency and serialisation rate, independent of the radio medium.
    pub fn add_wired_link(&mut self, a: NodeId, b: NodeId, latency: SimDuration, bps: u64) {
        assert_ne!(a, b, "a cable needs two ends");
        assert!(bps > 0, "a zero-rate cable is a wall decoration");
        assert!(
            (a.0 as usize) < self.core.nodes.len() && (b.0 as usize) < self.core.nodes.len(),
            "both ends must exist"
        );
        let key = (a.0.min(b.0), a.0.max(b.0));
        let prev = self
            .core
            .wired_index
            .insert(key, self.core.wired.len() as u32);
        assert!(prev.is_none(), "nodes {a} and {b} are already cabled");
        self.core.wired.push(WiredLink { a, b, latency, bps });
    }

    /// Route unicast sends over a cable whenever one exists. Off by
    /// default: every existing scenario keeps its radio path byte for
    /// byte. The broadcast fan-out benchmark turns this on so a 10k-viewer
    /// star topology models a switched LAN instead of an impossible
    /// 10k-station CSMA cell.
    pub fn set_prefer_wired(&mut self, on: bool) {
        self.core.prefer_wired = on;
    }

    /// Add a node running `app`. Nodes must all be added before the first
    /// `run_*` call.
    pub fn add_node(&mut self, nc: NodeConfig, app: Box<dyn NetApp>) -> NodeId {
        assert!(!self.started, "nodes must be added before the network starts");
        let id = self.core.links.add_node(nc.pos);
        let rng = self.core.rng.fork(id.key() ^ 0xA11CE);
        self.core.nodes.push(NodeInfo {
            channel: nc.channel,
            tx_dbm: nc.tx_dbm,
            adapt: nc.adapt,
            mobility: nc.mobility,
            mac: MacNode::new(),
            dedup: HashMap::new(),
            rng,
            up: true,
            timer_epoch: 0,
            skew: 1.0,
        });
        self.core.stats.node.push(NodeStats::default());
        self.apps.push(Some(app));
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.queue.now()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetStats {
        &self.core.stats
    }

    /// Attach a live telemetry recorder. MAC state transitions, retry/drop
    /// causes and service times are recorded from here on, and the event
    /// loop starts a new self-profile: it counts every later event by kind,
    /// times its own runs, and estimates each kind's share of that time
    /// from one event in 32 (DESIGN.md §10).
    pub fn attach_telemetry(&mut self, cfg: TelemetryConfig) {
        self.core.rec = Telemetry::enabled(cfg);
        self.core.profile = LoopProfile::new();
    }

    /// The recorder (for direct recording).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.core.rec
    }

    /// Attach a deterministic fault schedule. Each operation is applied at
    /// its scripted instant; every random decision the injectors make
    /// (burst-loss coin flips) comes from the schedule's own seed, never the
    /// simulation RNG, so an *empty* schedule leaves the run byte-identical
    /// to one without a fault plane. Partition masks address node indices
    /// 0..64. Must be called before the first `run_*`.
    pub fn attach_faults(&mut self, schedule: &FaultSchedule) {
        assert!(
            !self.started,
            "attach the fault plane before the network starts"
        );
        assert!(
            self.core.faults.is_none(),
            "a fault schedule is already attached"
        );
        for (i, &(t, _)) in schedule.ops().iter().enumerate() {
            self.core
                .queue
                .schedule_at(SimTime::from_nanos(t), Event::Fault { index: i as u32 });
        }
        self.core.faults = Some(FaultPlane {
            ops: schedule.ops().to_vec(),
            rng: SimRng::new(schedule.seed()),
            partitions: Vec::new(),
            burst: 0.0,
            stats: FaultStats::default(),
        });
    }

    /// The fault plane's counters; `None` unless a schedule was attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.core.faults.as_ref().map(|fp| &fp.stats)
    }

    /// Is `node` currently powered (fault plane)? Always true without one.
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.core.nodes[node.0 as usize].up
    }

    /// Snapshot the recorder, with one profile entry per event kind that
    /// ran; `None` when telemetry was never attached.
    pub fn telemetry_snapshot(&self) -> Option<Snapshot> {
        let mut snap = self.core.rec.snapshot()?;
        snap.extend_profile(self.core.profile.handlers());
        Some(snap)
    }

    /// Borrow an application back as its concrete type (for post-run
    /// inspection in tests and experiments).
    pub fn app_as<T: NetApp>(&self, node: NodeId) -> Option<&T> {
        let app = self.apps[node.0 as usize].as_deref()?;
        (app as &dyn Any).downcast_ref::<T>()
    }

    /// Mutable variant of [`Network::app_as`].
    pub fn app_as_mut<T: NetApp>(&mut self, node: NodeId) -> Option<&mut T> {
        let app = self.apps[node.0 as usize].as_deref_mut()?;
        (app as &mut dyn Any).downcast_mut::<T>()
    }

    /// Mean interference-free SNR of the `a → b` link, dB.
    pub fn link_snr_db(&mut self, a: NodeId, b: NodeId) -> f64 {
        self.core.link_snr_db(a, b)
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Arm mobility before any app logic runs.
        for i in 0..self.core.nodes.len() {
            if self.core.nodes[i].mobility.is_some() {
                self.core.queue.schedule_now(Event::MobilityTick {
                    node: NodeId(i as u32),
                });
            }
        }
        for i in 0..self.apps.len() {
            self.with_app(NodeId(i as u32), |app, ctx| app.on_start(ctx));
        }
        self.drain_app_calls();
    }

    /// Current position of a node (moves if the node has a trajectory).
    pub fn position_of(&self, node: NodeId) -> Point {
        self.core.links.position(node)
    }

    fn with_app(&mut self, id: NodeId, f: impl FnOnce(&mut dyn NetApp, &mut NetCtx<'_>)) {
        let mut app = self.apps[id.0 as usize]
            .take()
            .expect("re-entrant app dispatch");
        let mut ctx = NetCtx {
            core: &mut self.core,
            node: id,
        };
        f(app.as_mut(), &mut ctx);
        self.apps[id.0 as usize] = Some(app);
    }

    /// Run the queued app calls in order. Callbacks queue further calls,
    /// which run as the next batch; the two buffers trade places, so in
    /// steady state no batch allocates.
    fn drain_app_calls(&mut self) {
        while !self.core.pending.is_empty() {
            let spare = std::mem::take(&mut self.draining);
            let mut calls = std::mem::replace(&mut self.core.pending, spare);
            for call in calls.drain(..) {
                match call {
                    AppCall::Packet {
                        node,
                        from,
                        payload,
                    } => self.with_app(node, |a, c| a.on_packet(c, from, &payload)),
                    AppCall::Timer { node, token } => {
                        self.with_app(node, |a, c| a.on_timer(c, token))
                    }
                    AppCall::Sent { node, to } => self.with_app(node, |a, c| a.on_sent(c, to)),
                    AppCall::SendFailed { node, to, payload } => {
                        self.with_app(node, |a, c| a.on_send_failed(c, to, &payload))
                    }
                    AppCall::Crash { node } => self.with_app(node, |a, c| a.on_crash(c)),
                    AppCall::Restart { node } => self.with_app(node, |a, c| a.on_restart(c)),
                }
            }
            self.draining = calls;
        }
    }

    /// Run the simulation until `deadline` (events at exactly `deadline`
    /// are processed).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_events(deadline);
        self.core.queue.fast_forward(deadline);
    }

    /// Pop and dispatch every event due by `deadline`. While the recorder
    /// is on the loop profiles itself ([`LoopProfile`]): it counts every
    /// event, reads the wall clock on entry and exit, and three times
    /// around each timed event. Wall time is profile-only and never feeds
    /// back into the simulation, so traced runs stay deterministic.
    fn run_events(&mut self, deadline: SimTime) {
        self.start();
        // Recorder off: the plain loop. Folded into the profiled loop behind
        // a flag, it copied each event through the stack twice more and ran
        // the telemetry bench's density run 12–18% slower.
        if !self.core.rec.is_on() {
            while let Some(ev) = self.pop_due(deadline) {
                self.dispatch(ev);
            }
            return;
        }
        // lint:allow(sim-wall-clock): the loop's total feeds only Snapshot's profile section, which deterministic_eq excludes (pinned by traced_profile_never_reaches_deterministic_sections)
        let entered = Instant::now();
        while self.core.queue.peek_time().is_some_and(|t| t <= deadline) {
            if self.core.profile.sample_due() {
                self.dispatch_timed();
            } else if let Some(ev) = self.pop_due(deadline) {
                let kind = ev.kind();
                self.dispatch(ev);
                self.core.profile.calls[kind] += 1;
            }
        }
        self.core.profile.loop_nanos += entered.elapsed().as_nanos() as u64;
    }

    /// The next event, popped, when one is due by `deadline`.
    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        if self.core.queue.peek_time()? > deadline {
            return None;
        }
        self.core.queue.pop().map(|(_, ev)| ev)
    }

    /// Pop and dispatch the next event, timing its pop and its handler.
    fn dispatch_timed(&mut self) {
        // lint:allow(sim-wall-clock): a sampled pop's start, profile-only like the loop's total (pinned by traced_profile_never_reaches_deterministic_sections)
        let start = Instant::now();
        let (_, ev) = self.core.queue.pop().expect("peeked event vanished");
        // lint:allow(sim-wall-clock): a sampled handler's start, profile-only like the loop's total (pinned by traced_profile_never_reaches_deterministic_sections)
        let popped = Instant::now();
        let kind = ev.kind();
        self.dispatch(ev);
        let handler = popped.elapsed();
        self.core.profile.record(kind, popped - start, handler);
    }

    /// Handle one event plus the app callbacks it generated.
    fn dispatch(&mut self, ev: Event) {
        self.core.handle(ev);
        self.drain_app_calls();
    }

    /// Run for a span from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Run until the event queue is exhausted (careful with periodic apps).
    pub fn run_to_quiescence(&mut self, hard_deadline: SimTime) {
        self.run_events(hard_deadline);
    }
}

#[cfg(test)]
mod backoff_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use aroma_sim::SimDuration;

    /// Minimal app: records received payloads with timestamps.
    #[derive(Default)]
    struct Sink {
        got: Vec<(SimTime, NodeId, Vec<u8>)>,
    }
    impl NetApp for Sink {
        fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
            self.got.push((ctx.now(), from, payload.to_vec()));
        }
    }

    /// Sends one frame at start, counts outcomes.
    struct OneShot {
        dst: Address,
        payload: Vec<u8>,
        sent_ok: u32,
        failed: u32,
    }
    impl OneShot {
        fn to(dst: Address, payload: &[u8]) -> Self {
            OneShot {
                dst,
                payload: payload.to_vec(),
                sent_ok: 0,
                failed: 0,
            }
        }
    }
    impl NetApp for OneShot {
        fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
            let p = Bytes::from(self.payload.clone());
            ctx.send(self.dst, p);
        }
        fn on_sent(&mut self, _ctx: &mut NetCtx<'_>, _to: Address) {
            self.sent_ok += 1;
        }
        fn on_send_failed(&mut self, _ctx: &mut NetCtx<'_>, _to: NodeId, _p: &Bytes) {
            self.failed += 1;
        }
    }

    fn quiet_env() -> RadioEnvironment {
        RadioEnvironment {
            shadowing_sigma_db: 0.0,
            ..Default::default()
        }
    }

    fn two_node_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 1);
        let b = NodeConfig::at(Point::new(5.0, 0.0));
        let rx = net.add_node(b, Box::new(Sink::default()));
        let a = NodeConfig::at(Point::new(0.0, 0.0));
        let tx = net.add_node(
            a,
            Box::new(OneShot::to(Address::Node(rx), b"hello world")),
        );
        (net, tx, rx)
    }

    fn traced_two_node_run() -> Option<Snapshot> {
        let (mut net, _, _) = two_node_net();
        net.attach_telemetry(TelemetryConfig::default());
        net.run_for(SimDuration::from_millis(100));
        net.telemetry_snapshot()
    }

    #[test]
    fn telemetry_counters_track_mac_outcomes() {
        let snap = traced_two_node_run().expect("recorder attached");
        assert_eq!(snap.counter("net.mac.tx_completed"), 1);
        assert_eq!(snap.counter("net.rx.delivered"), 1);
        assert_eq!(snap.counter("net.mac.drop.retry_limit"), 0);
        let svc = snap.summary("net.mac.service_time_s").unwrap();
        assert_eq!(svc.count, 1);
        assert!(svc.min.unwrap() > 0.0);
        // The run processed MacTick and TxEnd events, so the profile has
        // wall-time entries for them.
        assert!(snap.profile.iter().any(|p| p.name == "MacTick"));
        assert!(snap.profile.iter().any(|p| p.name == "TxEnd"));
        // State-machine trace: contention precedes transmission precedes
        // idle, all at the Resource layer.
        let names: Vec<_> = snap.trace.iter().map(|e| e.name).collect();
        assert!(names.contains(&"mac.state.contending"));
        assert!(names.contains(&"mac.state.transmitting"));
        assert!(names.contains(&"mac.state.idle"));
        assert!(snap.trace.iter().all(|e| e.layer == Layer::Resource));
    }

    #[test]
    fn traced_runs_are_seed_stable() {
        let a = traced_two_node_run().unwrap();
        let b = traced_two_node_run().unwrap();
        // Wall-clock profile differs run to run; everything else must not.
        assert!(a.deterministic_eq(&b));
    }

    #[test]
    fn unicast_delivery_and_ack() {
        let (mut net, tx, rx) = two_node_net();
        net.run_for(SimDuration::from_millis(100));
        let sink = net.app_as::<Sink>(rx).unwrap();
        assert_eq!(sink.got.len(), 1);
        assert_eq!(sink.got[0].2, b"hello world");
        assert_eq!(sink.got[0].1, tx);
        let shot = net.app_as::<OneShot>(tx).unwrap();
        assert_eq!(shot.sent_ok, 1);
        assert_eq!(shot.failed, 0);
        assert_eq!(net.stats().delivered_frames, 1);
        assert_eq!(net.stats().node[tx.0 as usize].tx_completed, 1);
        assert_eq!(net.stats().service_time.count(), 1);
    }

    #[test]
    fn delivery_takes_realistic_airtime() {
        let (mut net, _, rx) = two_node_net();
        net.run_for(SimDuration::from_millis(100));
        let sink = net.app_as::<Sink>(rx).unwrap();
        let at = sink.got[0].0;
        // preamble 192 µs + DIFS + backoff: must be at least ~250 µs,
        // and surely below 10 ms on a clean 5 m link.
        assert!(at > SimTime::ZERO + SimDuration::from_micros(250), "{at}");
        assert!(at < SimTime::ZERO + SimDuration::from_millis(10), "{at}");
    }

    #[test]
    fn out_of_range_unicast_fails_after_retries() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 2);
        let rx = net.add_node(
            NodeConfig::at(Point::new(5_000.0, 0.0)),
            Box::new(Sink::default()),
        );
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(OneShot::to(Address::Node(rx), b"into the void")),
        );
        net.run_for(SimDuration::from_secs(2));
        let shot = net.app_as::<OneShot>(tx).unwrap();
        assert_eq!(shot.sent_ok, 0);
        assert_eq!(shot.failed, 1);
        let s = &net.stats().node[tx.0 as usize];
        assert_eq!(s.drops_retry, 1);
        // 1 initial + retry_limit retries
        assert_eq!(s.tx_data_attempts as u32, MacConfig::default().retry_limit + 1);
        assert_eq!(net.stats().delivered_frames, 0);
    }

    #[test]
    fn broadcast_reaches_all_in_range() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 3);
        let sinks: Vec<NodeId> = (0..3)
            .map(|i| {
                net.add_node(
                    NodeConfig::at(Point::new(3.0 + i as f64, 2.0)),
                    Box::new(Sink::default()),
                )
            })
            .collect();
        let _tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(OneShot::to(Address::Broadcast, b"to all")),
        );
        net.run_for(SimDuration::from_millis(50));
        for s in sinks {
            let sink = net.app_as::<Sink>(s).unwrap();
            assert_eq!(sink.got.len(), 1, "node {s} missed the broadcast");
        }
    }

    #[test]
    fn broadcast_needs_no_ack() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 4);
        let _rx = net.add_node(NodeConfig::at(Point::new(3.0, 0.0)), Box::new(Sink::default()));
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(OneShot::to(Address::Broadcast, b"x")),
        );
        net.run_for(SimDuration::from_millis(50));
        assert_eq!(net.app_as::<OneShot>(tx).unwrap().sent_ok, 1);
        assert_eq!(net.stats().node[tx.0 as usize].tx_data_attempts, 1);
        assert_eq!(net.stats().total_ack_timeouts(), 0);
    }

    #[test]
    fn timers_fire_with_token() {
        struct TimerApp {
            fired: Vec<(SimTime, u64)>,
        }
        impl NetApp for TimerApp {
            fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(5), 42);
                ctx.set_timer(SimDuration::from_millis(1), 7);
            }
            fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
                self.fired.push((ctx.now(), token));
            }
        }
        let mut net = Network::new(quiet_env(), MacConfig::default(), 5);
        let n = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(TimerApp { fired: vec![] }),
        );
        net.run_for(SimDuration::from_millis(10));
        let app = net.app_as::<TimerApp>(n).unwrap();
        assert_eq!(app.fired.len(), 2);
        assert_eq!(app.fired[0].1, 7);
        assert_eq!(app.fired[1].1, 42);
        assert_eq!(app.fired[1].0, SimTime::ZERO + SimDuration::from_millis(5));
    }

    #[test]
    fn queue_overflow_is_counted_and_reported() {
        struct Flooder {
            dst: NodeId,
            accepted: u32,
            rejected: u32,
        }
        impl NetApp for Flooder {
            fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
                for _ in 0..100 {
                    if ctx.send(Address::Node(self.dst), Bytes::from_static(&[0u8; 100])) {
                        self.accepted += 1;
                    } else {
                        self.rejected += 1;
                    }
                }
            }
        }
        let cfg = MacConfig {
            queue_cap: 10,
            ..Default::default()
        };
        let mut net = Network::new(quiet_env(), cfg, 7);
        let rx = net.add_node(NodeConfig::at(Point::new(3.0, 0.0)), Box::new(Sink::default()));
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(Flooder {
                dst: rx,
                accepted: 0,
                rejected: 0,
            }),
        );
        net.run_for(SimDuration::from_millis(1));
        let f = net.app_as::<Flooder>(tx).unwrap();
        assert_eq!(f.accepted, 10);
        assert_eq!(f.rejected, 90);
        assert_eq!(net.stats().node[tx.0 as usize].drops_queue, 90);
    }

    #[test]
    fn two_senders_share_the_channel() {
        // Both frames eventually get through: CSMA/CA arbitrates.
        let mut net = Network::new(quiet_env(), MacConfig::default(), 8);
        let rx = net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(Sink::default()));
        let _a = net.add_node(
            NodeConfig::at(Point::new(3.0, 0.0)),
            Box::new(OneShot::to(Address::Node(rx), b"from a")),
        );
        let _b = net.add_node(
            NodeConfig::at(Point::new(-3.0, 0.0)),
            Box::new(OneShot::to(Address::Node(rx), b"from b")),
        );
        net.run_for(SimDuration::from_millis(100));
        let sink = net.app_as::<Sink>(rx).unwrap();
        assert_eq!(sink.got.len(), 2);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| -> (u64, u64) {
            let mut net = Network::new(quiet_env(), MacConfig::default(), seed);
            let rx = net.add_node(NodeConfig::at(Point::new(4.0, 0.0)), Box::new(Sink::default()));
            for i in 0..4 {
                net.add_node(
                    NodeConfig::at(Point::new(i as f64, 1.0)),
                    Box::new(OneShot::to(Address::Node(rx), b"ping")),
                );
            }
            net.run_for(SimDuration::from_millis(200));
            (
                net.stats().delivered_frames,
                net.stats().total_tx_attempts(),
            )
        };
        assert_eq!(run(99), run(99));
        // And time never went backwards / nothing scheduled in the past:
        // covered by debug_assert inside; this run exercises it.
    }

    #[test]
    fn link_snr_is_symmetric_and_decays() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 10);
        let a = net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(Sink::default()));
        let b = net.add_node(NodeConfig::at(Point::new(5.0, 0.0)), Box::new(Sink::default()));
        let c = net.add_node(NodeConfig::at(Point::new(50.0, 0.0)), Box::new(Sink::default()));
        assert_eq!(net.link_snr_db(a, b), net.link_snr_db(b, a));
        assert!(net.link_snr_db(a, b) > net.link_snr_db(a, c));
    }

    #[test]
    #[should_panic(expected = "cannot unicast to itself")]
    fn self_send_rejected() {
        struct SelfSend;
        impl NetApp for SelfSend {
            fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
                let me = ctx.node();
                ctx.send(Address::Node(me), Bytes::new());
            }
        }
        let mut net = Network::new(quiet_env(), MacConfig::default(), 11);
        net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(SelfSend));
        net.run_for(SimDuration::from_millis(1));
    }

    #[test]
    fn wired_preferred_unicast_rides_the_cable() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 21);
        let rx = net.add_node(NodeConfig::at(Point::new(5.0, 0.0)), Box::new(Sink::default()));
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(OneShot::to(Address::Node(rx), b"over copper")),
        );
        net.add_wired_link(tx, rx, SimDuration::from_micros(50), 1_000_000_000);
        net.set_prefer_wired(true);
        net.run_for(SimDuration::from_millis(10));
        assert_eq!(net.stats().wired_frames, 1);
        assert_eq!(net.stats().node[tx.0 as usize].tx_data_attempts, 0);
        let sink = net.app_as::<Sink>(rx).unwrap();
        assert_eq!(sink.got.len(), 1);
        assert_eq!(sink.got[0].2, b"over copper");
        // The sender's completion fires at delivery, like the radio ACK.
        assert_eq!(net.app_as::<OneShot>(tx).unwrap().sent_ok, 1);
    }

    #[test]
    fn prefer_wired_is_opt_in_radio_by_default() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 22);
        let rx = net.add_node(NodeConfig::at(Point::new(5.0, 0.0)), Box::new(Sink::default()));
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(OneShot::to(Address::Node(rx), b"airborne")),
        );
        net.add_wired_link(tx, rx, SimDuration::from_micros(50), 1_000_000_000);
        net.run_for(SimDuration::from_millis(10));
        // The cable exists but the flag is off: the frame took the radio.
        assert_eq!(net.stats().wired_frames, 0);
        assert!(net.stats().node[tx.0 as usize].tx_data_attempts > 0);
        assert_eq!(net.app_as::<Sink>(rx).unwrap().got.len(), 1);
    }

    #[test]
    fn mac_queue_space_counts_down_with_accepted_sends() {
        struct SpaceProbe {
            dst: NodeId,
            observed: Vec<usize>,
        }
        impl NetApp for SpaceProbe {
            fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
                self.observed.push(ctx.mac_queue_space());
                for _ in 0..3 {
                    assert!(ctx.send(Address::Node(self.dst), Bytes::from_static(&[1u8; 16])));
                    self.observed.push(ctx.mac_queue_space());
                }
            }
        }
        let cfg = MacConfig {
            queue_cap: 10,
            ..Default::default()
        };
        let mut net = Network::new(quiet_env(), cfg, 23);
        let rx = net.add_node(NodeConfig::at(Point::new(3.0, 0.0)), Box::new(Sink::default()));
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(SpaceProbe {
                dst: rx,
                observed: vec![],
            }),
        );
        net.run_for(SimDuration::from_millis(1));
        let probe = net.app_as::<SpaceProbe>(tx).unwrap();
        assert_eq!(probe.observed, vec![10, 9, 8, 7]);
    }

    #[test]
    fn wired_send_into_downed_host_fails_back_to_the_sender() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 24);
        let rx = net.add_node(NodeConfig::at(Point::new(5.0, 0.0)), Box::new(Sink::default()));
        let tx = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(OneShot::to(Address::Node(rx), b"doomed")),
        );
        // 1 ms of cable latency; the receiver dies at 0.5 ms, before the
        // frame lands.
        net.add_wired_link(tx, rx, SimDuration::from_millis(1), 1_000_000_000);
        net.set_prefer_wired(true);
        let schedule = FaultSchedule::builder(9)
            .power_cycle(500_000, 50_000_000, rx.0)
            .build();
        net.attach_faults(&schedule);
        net.run_for(SimDuration::from_millis(10));
        let shot = net.app_as::<OneShot>(tx).unwrap();
        assert_eq!(shot.sent_ok, 0);
        assert_eq!(shot.failed, 1);
        assert_eq!(net.app_as::<Sink>(rx).unwrap().got.len(), 0);
    }

    #[test]
    #[should_panic(expected = "already cabled")]
    fn duplicate_cable_rejected() {
        let mut net = Network::new(quiet_env(), MacConfig::default(), 25);
        let a = net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(Sink::default()));
        let b = net.add_node(NodeConfig::at(Point::new(5.0, 0.0)), Box::new(Sink::default()));
        net.add_wired_link(a, b, SimDuration::from_micros(50), 1_000_000);
        net.add_wired_link(b, a, SimDuration::from_micros(50), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_payload_rejected() {
        struct Jumbo {
            dst: NodeId,
        }
        impl NetApp for Jumbo {
            fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
                ctx.send(Address::Node(self.dst), Bytes::from(vec![0u8; MTU_BYTES + 1]));
            }
        }
        let mut net = Network::new(quiet_env(), MacConfig::default(), 12);
        let rx = net.add_node(NodeConfig::at(Point::new(1.0, 0.0)), Box::new(Sink::default()));
        net.add_node(NodeConfig::at(Point::new(0.0, 0.0)), Box::new(Jumbo { dst: rx }));
        net.run_for(SimDuration::from_millis(1));
    }
}
