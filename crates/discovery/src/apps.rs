//! The discovery protocol's network roles.
//!
//! Three [`NetApp`]s implement the Jini roles over the simulated WLAN:
//!
//! * [`RegistrarApp`] — the lookup service. Soft state only: a crash
//!   (injectable, for the E3 fault experiment) loses every registration,
//!   exactly as a restarted Jini registrar would before leases are renewed.
//! * [`ProviderApp`] — registers one service and keeps its lease alive,
//!   re-discovering and re-registering after registrar failures.
//! * [`ClientApp`] — discovers the registrar, polls lookups until a match
//!   appears, and records *time-to-service*, the paper's implicit metric for
//!   "automatically discover and use remote services".

use crate::codec::{pack_lookup_reply, EventKind, Msg, ServiceId, ServiceItem, Template};
use crate::registry::{RegistryEvent, ServiceRegistry};
use aroma_net::{Address, NetApp, NetCtx, NodeId};
use aroma_sim::telemetry::Layer;
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;

// Timer tokens (per-app namespaces; apps never share a node). The
// registrar's expiry token carries its timer's generation above the low
// byte.
const T_EXPIRE: u64 = 1;
const T_DISCOVER: u64 = 2;
const T_REG_TIMEOUT: u64 = 3;
const T_RENEW: u64 = 4;
const T_RENEW_TIMEOUT: u64 = 5;
const T_LOOKUP: u64 = 6;

/// How often providers/clients repeat multicast discovery while unanswered.
pub const DISCOVER_PERIOD: SimDuration = SimDuration::from_millis(500);
/// How long a provider waits for a RegisterAck/RenewAck before recovering.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// How often a client repeats an unanswered or empty lookup.
pub const LOOKUP_PERIOD: SimDuration = SimDuration::from_millis(300);
/// Backoff cap: discovery retries never wait more than 4× the base period.
pub const MAX_BACKOFF_SHIFT: u32 = 2;
/// Consecutive unanswered lookups after which a polling client decides the
/// registrar is gone and falls back to discovery.
pub const LOOKUP_GIVE_UP: u32 = 3;

/// The lookup service.
pub struct RegistrarApp {
    /// Registration table (public for post-run inspection).
    pub registry: ServiceRegistry,
    /// False = crashed: ignores all traffic (fault injection).
    pub alive: bool,
    /// Lookups answered.
    pub lookups_served: u64,
    /// Registrations accepted.
    pub registrations: u64,
    /// Renewals granted.
    pub renewals: u64,
    /// Discovery requests answered.
    pub discoveries_answered: u64,
    /// Peer lookup service reachable over a wired link ("connecting
    /// portable wireless devices to traditional networks"): registrations,
    /// renewals and withdrawals from this registrar's radio domain are
    /// mirrored to the peer, so clients in the other room can *find*
    /// services beyond their radio horizon.
    pub federation_peer: Option<NodeId>,
    /// Registrations mirrored to the peer.
    pub federated_out: u64,
    /// Event notifications encoded (one per distinct `(kind, item)` run —
    /// subscribers of the same transition share the encoding).
    pub event_encodings: u64,
    /// Event notifications the MAC refused to accept (full queue). The
    /// subscriber silently misses the transition and resynchronises on its
    /// next lookup; the counter (and `disc.events_dropped`) makes the loss
    /// observable instead of silent.
    pub events_dropped: u64,
    /// The one live expiry timer: the instant it was armed for and its
    /// generation. A firing of any other generation is stale and does
    /// nothing.
    expiry_timer: Option<(SimTime, u64)>,
    /// Generation of the last expiry timer armed.
    expiry_gen: u64,
}

impl RegistrarApp {
    /// A registrar granting leases of at most `max_lease`.
    pub fn new(max_lease: SimDuration) -> Self {
        RegistrarApp {
            registry: ServiceRegistry::new(max_lease),
            alive: true,
            lookups_served: 0,
            registrations: 0,
            renewals: 0,
            discoveries_answered: 0,
            federation_peer: None,
            federated_out: 0,
            event_encodings: 0,
            events_dropped: 0,
            expiry_timer: None,
            expiry_gen: 0,
        }
    }

    /// Federate with a peer registrar over a wired link.
    pub fn federated_with(mut self, peer: NodeId) -> Self {
        self.federation_peer = Some(peer);
        self
    }

    /// Mirror a message to the federation peer over the wire — but never
    /// one that itself arrived from the peer (pairwise federation, no
    /// loops).
    fn mirror(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, msg: &Msg) {
        let Some(peer) = self.federation_peer else {
            return;
        };
        if from == peer {
            return;
        }
        if ctx.send_wired(peer, msg.encode()) {
            self.federated_out += 1;
        }
    }

    /// Simulate a crash: all soft state is lost and traffic is ignored
    /// until [`RegistrarApp::restart`].
    pub fn crash(&mut self) {
        self.alive = false;
        let max = self.registry.max_lease;
        self.registry = ServiceRegistry::new(max);
        self.expiry_timer = None;
    }

    /// Bring a crashed registrar back (empty, as after a reboot).
    pub fn restart(&mut self) {
        self.alive = true;
    }

    /// Make sure a timer fires at or before the earliest lease expiry. One
    /// timer is live at a time: a new one is armed only when no timer is,
    /// or when the earliest expiry now comes before the armed instant (the
    /// older timer then fires stale). A timer that fires before any lease
    /// lapsed sweeps nothing and arms the next one.
    fn schedule_expiry(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(at) = self.registry.next_expiry() else {
            return;
        };
        if self.expiry_timer.is_some_and(|(armed, _)| armed <= at) {
            return;
        }
        self.expiry_gen += 1;
        self.expiry_timer = Some((at, self.expiry_gen));
        ctx.set_timer(at.saturating_since(ctx.now()), T_EXPIRE | self.expiry_gen << 8);
    }

    fn flush_events(&mut self, ctx: &mut NetCtx<'_>, events: Vec<RegistryEvent>) {
        let (encodings, dropped) = notify_subscribers(ctx, events);
        self.event_encodings += encodings;
        self.events_dropped += dropped;
    }
}

/// Push a batch of registry events to their subscribers; both registrars
/// send every notification through here. Each distinct transition is
/// encoded once: the registry emits one event per matching subscriber of
/// the *same* `(kind, item)`, so consecutive events in a batch share
/// their wire bytes (a refcounted [`Bytes`] clone per subscriber, not a
/// re-encode). A full MAC queue drops the notification — counted in
/// `disc.events_dropped` with a `disc.event.drop` trace event, never
/// silent. Returns `(encodings, dropped)` for the caller's counters.
pub(crate) fn notify_subscribers(
    ctx: &mut NetCtx<'_>,
    events: Vec<RegistryEvent>,
) -> (u64, u64) {
    let (mut encodings, mut dropped) = (0, 0);
    let mut cached: Option<(EventKind, ServiceItem, Bytes)> = None;
    for ev in events {
        let reuse = cached
            .as_ref()
            .is_some_and(|(k, it, _)| *k == ev.kind && *it == ev.item);
        if !reuse {
            let wire = Msg::Event {
                kind: ev.kind,
                item: ev.item.clone(),
            }
            .encode();
            encodings += 1;
            cached = Some((ev.kind, ev.item, wire));
        }
        let wire = cached.as_ref().expect("cache populated above").2.clone();
        if !ctx.send(Address::Node(NodeId(ev.subscriber)), wire) {
            dropped += 1;
            let now_ns = ctx.now().as_nanos();
            let rec = ctx.telemetry();
            rec.count("disc.events_dropped", 1);
            rec.event(
                now_ns,
                Layer::Abstract,
                "disc.event.drop",
                ev.subscriber,
                0,
                0,
            );
        }
    }
    (encodings, dropped)
}

impl NetApp for RegistrarApp {
    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        if !self.alive {
            return;
        }
        let Ok(msg) = Msg::decode(payload.clone()) else {
            return; // not ours / corrupt
        };
        match msg {
            Msg::DiscoverReq { nonce } => {
                self.discoveries_answered += 1;
                ctx.send(Address::Node(from), Msg::DiscoverResp { nonce }.encode());
            }
            Msg::Register { item, lease_ms } => {
                self.registrations += 1;
                let id = item.id;
                let msg = Msg::Register {
                    item: item.clone(),
                    lease_ms,
                };
                self.mirror(ctx, from, &msg);
                let (granted, events) =
                    self.registry
                        .register(ctx.now(), item, SimDuration::from_millis(lease_ms));
                let t = ctx.now().as_nanos();
                let rec = ctx.telemetry();
                rec.count("disc.lease.grants", 1);
                rec.event(
                    t,
                    Layer::Abstract,
                    "lease.grant",
                    from.0,
                    id.0 as i64,
                    granted.as_millis() as i64,
                );
                // A mirrored registration from the peer needs no ack (and
                // the peer may be beyond radio range anyway).
                if Some(from) != self.federation_peer {
                    ctx.send(
                        Address::Node(from),
                        Msg::RegisterAck {
                            id,
                            granted_ms: granted.as_millis(),
                        }
                        .encode(),
                    );
                }
                self.flush_events(ctx, events);
                self.schedule_expiry(ctx);
            }
            Msg::Renew { id } => {
                self.mirror(ctx, from, &Msg::Renew { id });
                let granted = self.registry.renew(ctx.now(), id);
                if granted.is_some() {
                    self.renewals += 1;
                }
                let t = ctx.now().as_nanos();
                let rec = ctx.telemetry();
                rec.count(
                    if granted.is_some() {
                        "disc.lease.renewals"
                    } else {
                        "disc.lease.renewals_refused"
                    },
                    1,
                );
                rec.event(
                    t,
                    Layer::Abstract,
                    "lease.renew",
                    from.0,
                    id.0 as i64,
                    granted.is_some() as i64,
                );
                if Some(from) != self.federation_peer {
                    ctx.send(
                        Address::Node(from),
                        Msg::RenewAck {
                            id,
                            ok: granted.is_some(),
                            granted_ms: granted.map(|g| g.as_millis()).unwrap_or(0),
                        }
                        .encode(),
                    );
                }
                self.schedule_expiry(ctx);
            }
            Msg::Unregister { id } => {
                self.mirror(ctx, from, &Msg::Unregister { id });
                let events = self.registry.unregister(id);
                self.flush_events(ctx, events);
            }
            Msg::Lookup { req, template } => {
                self.lookups_served += 1;
                let now = ctx.now();
                // Only leases live at `now` are served: the expiry sweep
                // is timer-driven, so without the filter a lookup landing
                // between a lease's expiry instant and the sweep would
                // return the stale registration (the no-stale-lookup
                // invariant `aroma-check` proves).
                let matches = self.registry.lookup_live(now, &template);
                let (reply, _) = pack_lookup_reply(req, &matches);
                if ctx.telemetry().is_on() {
                    // Stale window: registrations whose lease expired but
                    // whose expiry sweep has not yet run. `lookup_live`
                    // filters them out of the reply; count how many the
                    // filter hid from this lookup.
                    let all = self.registry.lookup(&template).len();
                    let live = matches.len();
                    let stale = (all - live) as i64;
                    let rec = ctx.telemetry();
                    rec.count("disc.lookups", 1);
                    // `live` is what the reply carries: a positive value here
                    // is a successful `lookup_live`, which is the signal the
                    // chaos experiment uses to time discovery recovery.
                    rec.event(
                        now.as_nanos(),
                        Layer::Abstract,
                        "lookup.serve",
                        from.0,
                        live as i64,
                        stale,
                    );
                    if stale > 0 {
                        rec.count("disc.lease.stale_window_hits", stale as u64);
                        rec.event(
                            now.as_nanos(),
                            Layer::Abstract,
                            "lease.stale_window",
                            from.0,
                            stale,
                            live as i64,
                        );
                    }
                }
                ctx.send(Address::Node(from), reply);
            }
            Msg::Subscribe { template } => {
                self.registry.subscribe(from.0, template);
            }
            _ => {} // replies are never addressed to a registrar
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        let live = self.expiry_timer.map(|(_, generation)| T_EXPIRE | generation << 8);
        if live == Some(token) && self.alive {
            self.expiry_timer = None;
            let now = ctx.now();
            // Expiry count comes from the table size, not the event list:
            // registry events are per-subscriber fan-out (zero subscribers
            // means zero events even when leases lapsed).
            let before = self.registry.len();
            let events = self.registry.expire(now);
            let expired = (before - self.registry.len()) as u64;
            if expired > 0 {
                let rec = ctx.telemetry();
                rec.count("disc.lease.expiries", expired);
                rec.event(
                    now.as_nanos(),
                    Layer::Abstract,
                    "lease.expire",
                    0,
                    expired as i64,
                    self.registry.len() as i64,
                );
            }
            self.flush_events(ctx, events);
            self.schedule_expiry(ctx);
        }
    }

    /// Fault-plane crash: lose the soft state, exactly as the manual
    /// [`RegistrarApp::crash`] used by the E3 availability arm.
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.crash();
    }

    /// Fault-plane restart: come back empty and start serving again.
    fn on_restart(&mut self, _ctx: &mut NetCtx<'_>) {
        self.restart();
    }
}

/// Provider lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProviderState {
    /// Multicasting discovery requests.
    Discovering,
    /// Register sent, awaiting ack.
    Registering,
    /// Lease live; renewing on schedule.
    Registered,
}

/// A node offering one service through the lookup service.
pub struct ProviderApp {
    /// The service this node exports (provider field filled at start).
    pub item: ServiceItem,
    /// Lease duration to request, ms.
    pub lease_request_ms: u64,
    /// Current state.
    pub state: ProviderState,
    /// The registrar, once discovered.
    pub registrar: Option<NodeId>,
    /// Completed registrations (re-registrations count).
    pub registrations_completed: u64,
    /// Successful renewals.
    pub renewals_completed: u64,
    /// Times the provider had to fall back to discovery.
    pub rediscoveries: u64,
    /// Times a renewal timeout was recovered by re-registering at a standby
    /// registrar instead of a full re-discovery.
    pub failovers: u64,
    /// Every registrar that has ever answered a discovery round, in
    /// first-seen order (the failover candidates).
    pub known_registrars: Vec<NodeId>,
    /// Consecutive unanswered discovery rounds (drives the backoff).
    attempts: u32,
    nonce: u64,
    /// A Renew is in flight with no answer yet.
    renewal_outstanding: bool,
}

impl ProviderApp {
    /// Provider exporting `item`, requesting `lease_request_ms` leases.
    pub fn new(item: ServiceItem, lease_request_ms: u64) -> Self {
        ProviderApp {
            item,
            lease_request_ms,
            state: ProviderState::Discovering,
            registrar: None,
            registrations_completed: 0,
            renewals_completed: 0,
            rediscoveries: 0,
            failovers: 0,
            known_registrars: Vec::new(),
            attempts: 0,
            nonce: 0,
            renewal_outstanding: false,
        }
    }

    fn note_registrar(&mut self, reg: NodeId) {
        if !self.known_registrars.contains(&reg) {
            self.known_registrars.push(reg);
        }
    }

    /// Delay before the next discovery round.
    ///
    /// The first attempt and the first retry wait exactly
    /// [`DISCOVER_PERIOD`] and draw no randomness, so runs where discovery
    /// succeeds (or loses at most one frame) are bit-identical to the
    /// pre-backoff protocol. From the second consecutive unanswered round
    /// on — i.e. only when the registrar is genuinely gone — the period
    /// doubles up to [`MAX_BACKOFF_SHIFT`] with jitter in
    /// `[0, DISCOVER_PERIOD / 2)` to de-synchronise recovering providers.
    fn retry_delay(&mut self, ctx: &mut NetCtx<'_>) -> SimDuration {
        if self.attempts < 2 {
            return DISCOVER_PERIOD;
        }
        let shift = (self.attempts - 1).min(MAX_BACKOFF_SHIFT);
        let base = DISCOVER_PERIOD.as_nanos() << shift;
        let jitter = ctx.rng().below(DISCOVER_PERIOD.as_nanos() / 2);
        SimDuration::from_nanos(base + jitter)
    }

    fn discover(&mut self, ctx: &mut NetCtx<'_>) {
        self.state = ProviderState::Discovering;
        self.registrar = None;
        self.nonce = ctx.rng().next_u64_raw();
        ctx.send(
            Address::Broadcast,
            Msg::DiscoverReq { nonce: self.nonce }.encode(),
        );
        let delay = self.retry_delay(ctx);
        ctx.set_timer(delay, T_DISCOVER);
    }

    fn register(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(reg) = self.registrar else { return };
        self.state = ProviderState::Registering;
        let msg = Msg::Register {
            item: self.item.clone(),
            lease_ms: self.lease_request_ms,
        };
        ctx.send(Address::Node(reg), msg.encode());
        ctx.set_timer(RPC_TIMEOUT, T_REG_TIMEOUT);
    }
}

impl NetApp for ProviderApp {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.item.provider = ctx.node().0;
        self.discover(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(msg) = Msg::decode(payload.clone()) else {
            return;
        };
        match msg {
            Msg::DiscoverResp { nonce }
                if nonce == self.nonce && self.state == ProviderState::Discovering =>
            {
                self.attempts = 0;
                self.note_registrar(from);
                self.registrar = Some(from);
                self.register(ctx);
            }
            // A further registrar answering the same round: remember it as
            // a failover standby.
            Msg::DiscoverResp { nonce } if nonce == self.nonce => {
                self.note_registrar(from);
            }
            Msg::RegisterAck { id, granted_ms }
                if id == self.item.id && self.state == ProviderState::Registering =>
            {
                self.state = ProviderState::Registered;
                self.registrations_completed += 1;
                ctx.set_timer(SimDuration::from_millis(granted_ms / 2), T_RENEW);
            }
            Msg::RenewAck { id, ok, granted_ms } if id == self.item.id => {
                self.renewal_outstanding = false;
                if ok {
                    self.renewals_completed += 1;
                    ctx.set_timer(SimDuration::from_millis(granted_ms / 2), T_RENEW);
                } else {
                    // Lease lapsed at the registrar (e.g. it restarted):
                    // re-register immediately.
                    self.register(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        match (token, self.state) {
            (T_DISCOVER, ProviderState::Discovering) => {
                self.rediscoveries += 1;
                self.attempts += 1;
                self.discover(ctx);
            }
            (T_REG_TIMEOUT, ProviderState::Registering) => {
                // Ack never came: registrar gone or unreachable.
                self.discover(ctx);
            }
            (T_RENEW, ProviderState::Registered) => {
                if let Some(reg) = self.registrar {
                    self.renewal_outstanding = true;
                    ctx.send(Address::Node(reg), Msg::Renew { id: self.item.id }.encode());
                    ctx.set_timer(RPC_TIMEOUT, T_RENEW_TIMEOUT);
                }
            }
            (T_RENEW_TIMEOUT, ProviderState::Registered)
                // No RenewAck since the Renew went out: registrar is gone or
                // unreachable — fail over to a standby registrar if one ever
                // answered discovery, else fall back to discovery.
                if self.renewal_outstanding => {
                    self.renewal_outstanding = false;
                    let standby = self
                        .known_registrars
                        .iter()
                        .copied()
                        .find(|r| Some(*r) != self.registrar);
                    if let Some(next) = standby {
                        self.failovers += 1;
                        self.registrar = Some(next);
                        self.register(ctx);
                    } else {
                        self.discover(ctx);
                    }
                }
            _ => {}
        }
    }

    /// A node crash loses all protocol state (the lease, the registrar, the
    /// in-flight RPC); the subsequent restart re-enters discovery cold.
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.state = ProviderState::Discovering;
        self.registrar = None;
        self.renewal_outstanding = false;
        self.attempts = 0;
    }
}

/// A node wanting to find and use services.
pub struct ClientApp {
    /// What the client is looking for.
    pub template: Template,
    /// The registrar, once discovered.
    pub registrar: Option<NodeId>,
    /// Services found so far (latest lookup reply).
    pub found: Vec<ServiceItem>,
    /// When discovery succeeded.
    pub discovered_at: Option<SimTime>,
    /// When the first non-empty lookup reply arrived (time-to-service).
    pub service_found_at: Option<SimTime>,
    /// Lookups transmitted.
    pub lookups_sent: u64,
    /// Events received (if subscribed).
    pub events: Vec<(SimTime, EventKind, ServiceId)>,
    /// Subscribe to events after discovery?
    pub subscribe: bool,
    /// Keep polling lookups after the first hit (long-lived clients that
    /// must notice registrar failures and re-discover).
    pub continuous: bool,
    /// Times the client abandoned an unresponsive registrar and went back
    /// to discovery.
    pub rediscoveries: u64,
    /// Lookup replies received (empty or not).
    pub lookup_replies: u64,
    /// Consecutive lookups with no reply of any kind.
    unanswered: u32,
    nonce: u64,
    next_req: u64,
}

impl ClientApp {
    /// Client searching for services matching `template`.
    pub fn new(template: Template) -> Self {
        ClientApp {
            template,
            registrar: None,
            found: Vec::new(),
            discovered_at: None,
            service_found_at: None,
            lookups_sent: 0,
            events: Vec::new(),
            subscribe: false,
            continuous: false,
            rediscoveries: 0,
            lookup_replies: 0,
            unanswered: 0,
            nonce: 0,
            next_req: 1,
        }
    }

    /// Enable event subscription after discovery.
    pub fn with_subscription(mut self) -> Self {
        self.subscribe = true;
        self
    }

    /// Keep polling lookups forever instead of stopping at the first hit,
    /// re-discovering after [`LOOKUP_GIVE_UP`] consecutive silent lookups.
    pub fn polling(mut self) -> Self {
        self.continuous = true;
        self
    }

    fn discover(&mut self, ctx: &mut NetCtx<'_>) {
        self.nonce = ctx.rng().next_u64_raw();
        ctx.send(
            Address::Broadcast,
            Msg::DiscoverReq { nonce: self.nonce }.encode(),
        );
        ctx.set_timer(DISCOVER_PERIOD, T_DISCOVER);
    }

    fn lookup(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(reg) = self.registrar else { return };
        let req = self.next_req;
        self.next_req += 1;
        self.lookups_sent += 1;
        self.unanswered += 1;
        ctx.send(
            Address::Node(reg),
            Msg::Lookup {
                req,
                template: self.template.clone(),
            }
            .encode(),
        );
        ctx.set_timer(LOOKUP_PERIOD, T_LOOKUP);
    }
}

impl NetApp for ClientApp {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.discover(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(msg) = Msg::decode(payload.clone()) else {
            return;
        };
        match msg {
            Msg::DiscoverResp { nonce } if nonce == self.nonce && self.registrar.is_none() => {
                self.registrar = Some(from);
                if self.discovered_at.is_none() {
                    self.discovered_at = Some(ctx.now());
                }
                if self.subscribe {
                    ctx.send(
                        Address::Node(from),
                        Msg::Subscribe {
                            template: self.template.clone(),
                        }
                        .encode(),
                    );
                }
                self.lookup(ctx);
            }
            Msg::LookupReply { items, .. } => {
                self.lookup_replies += 1;
                self.unanswered = 0;
                if !items.is_empty() {
                    if self.service_found_at.is_none() {
                        self.service_found_at = Some(ctx.now());
                    }
                    self.found = items;
                }
            }
            Msg::Event { kind, item } => {
                self.events.push((ctx.now(), kind, item.id));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        match token {
            T_DISCOVER if self.registrar.is_none() => self.discover(ctx),
            T_LOOKUP
                if (self.service_found_at.is_none() || self.continuous)
                    && self.registrar.is_some() =>
            {
                if self.continuous && self.unanswered >= LOOKUP_GIVE_UP {
                    // The registrar has been silent for LOOKUP_GIVE_UP
                    // straight lookups: abandon it and re-discover (the
                    // answer may come from a standby).
                    self.rediscoveries += 1;
                    self.registrar = None;
                    self.unanswered = 0;
                    self.discover(ctx);
                } else {
                    self.lookup(ctx);
                }
            }
            _ => {}
        }
    }

    /// A node crash forgets the registrar binding; restart re-discovers.
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.registrar = None;
        self.unanswered = 0;
    }
}
