//! The Smart Projector node: the Aroma Adapter plus the digital projector.
//!
//! One [`aroma_net::NetApp`] that (a) registers the two services with the
//! Jini-style lookup service and keeps their leases alive, (b) guards both
//! with [`SessionManager`]s, (c) embeds an [`aroma_vnc::VncViewerApp`] that
//! pulls the owning laptop's screen while a projection session is active,
//! and (d) applies control commands to the projector state. Incoming frames
//! are routed by protocol discriminator byte — discovery, VNC, and control
//! traffic share the node, as they shared the real adapter.

use crate::control::{CtlMsg, ProjectorCommand, Service, PROTO_CONTROL};
use crate::session::{SessionManager, SessionPolicy, SessionToken};
use aroma_discovery::codec::{Msg as DiscMsg, ServiceId, ServiceItem, PROTO_DISCOVERY};
use aroma_net::{Address, NetApp, NetCtx, NodeId};
use aroma_sim::{SimDuration, SimTime};
use aroma_vnc::protocol::PROTO_VNC;
use aroma_vnc::VncViewerApp;
use bytes::Bytes;

// Timer tokens ≥ 100 belong to the projector; anything below is forwarded
// to the embedded VNC viewer (it uses 1 and 2).
const T_DISCOVER: u64 = 101;
const T_RENEW_DISPLAY: u64 = 102;
const T_RENEW_CONTROL: u64 = 103;
const T_RENEW_TIMEOUT: u64 = 104;

const DISCOVER_PERIOD: SimDuration = SimDuration::from_millis(500);
const LEASE_REQUEST_MS: u64 = 10_000;
/// How long a renewal may go unanswered before the adapter decides its
/// registrar is gone and re-enters discovery.
const RENEW_TIMEOUT: SimDuration = SimDuration::from_millis(600);

/// Current state of the projector hardware.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProjectorState {
    /// Lamp on?
    pub powered: bool,
    /// Selected input (0 = network display).
    pub input: u8,
    /// Brightness 0–100.
    pub brightness: u8,
}

impl Default for ProjectorState {
    fn default() -> Self {
        ProjectorState {
            powered: false,
            input: 0,
            brightness: 70,
        }
    }
}

/// The Smart Projector application (runs on the Aroma Adapter node).
pub struct SmartProjectorApp {
    /// Screen width served.
    pub width: usize,
    /// Screen height served.
    pub height: usize,
    /// Session guard for the projection service.
    pub projection_sessions: SessionManager,
    /// Session guard for the control service.
    pub control_sessions: SessionManager,
    /// Projector hardware state.
    pub state: ProjectorState,
    /// The embedded VNC viewer while a projection session is live.
    pub viewer: Option<VncViewerApp>,
    /// Commands applied.
    pub commands_applied: u64,
    /// Commands refused (bad/expired token).
    pub commands_denied: u64,
    /// Acquisitions granted (both services).
    pub grants: u64,
    /// Acquisitions denied.
    pub denials: u64,
    /// Completed registrations with the lookup service.
    pub registrations: u64,
    /// The room attribute advertised.
    pub room: String,
    /// Times the adapter process has (re)started; keys the token streams so
    /// a restarted manager can never re-mint a pre-crash token.
    pub incarnation: u32,
    registrar: Option<NodeId>,
    /// A Renew is in flight with no answer yet.
    renew_outstanding: bool,
    nonce: u64,
    /// Maps wire node → user key for session accounting.
    display_service_id: ServiceId,
    control_service_id: ServiceId,
}

impl SmartProjectorApp {
    /// A projector guarding both services with `policy`, serving a
    /// `width`×`height` display.
    pub fn new(width: usize, height: usize, policy: SessionPolicy, room: &str) -> Self {
        // Per-service token streams, keyed by room so two adapters never
        // mint the same sequence: a projection token must not open the
        // control session (and vice versa) — aroma-check's cross-service
        // guess action proves this stays true.
        let (proj_tokens, ctl_tokens) = Self::token_streams(room, 0);
        SmartProjectorApp {
            width,
            height,
            projection_sessions: SessionManager::with_token_rng(policy, proj_tokens),
            control_sessions: SessionManager::with_token_rng(policy, ctl_tokens),
            state: ProjectorState::default(),
            viewer: None,
            commands_applied: 0,
            commands_denied: 0,
            grants: 0,
            denials: 0,
            registrations: 0,
            room: room.to_string(),
            incarnation: 0,
            registrar: None,
            renew_outstanding: false,
            nonce: 0,
            display_service_id: ServiceId(0),
            control_service_id: ServiceId(0),
        }
    }

    /// The digest of the screen currently projected (tests compare against
    /// the laptop's).
    pub fn projected_digest(&self) -> Option<u64> {
        self.viewer.as_ref().map(|v| v.screen_digest())
    }

    /// Per-service token streams for one incarnation of the adapter.
    ///
    /// Incarnation 0 forks by the original stream names, so pre-existing
    /// seeded runs are untouched; every restart forks by a name that mixes
    /// the incarnation counter in, giving the rebooted managers streams
    /// disjoint from anything minted before the crash.
    fn token_streams(room: &str, incarnation: u32) -> (aroma_sim::SimRng, aroma_sim::SimRng) {
        let base = aroma_sim::SimRng::new(aroma_sim::rng::fnv1a(room.as_bytes()));
        if incarnation == 0 {
            (
                base.fork_named("projection-tokens"),
                base.fork_named("control-tokens"),
            )
        } else {
            (
                base.fork_named(&format!("projection-tokens#{incarnation}")),
                base.fork_named(&format!("control-tokens#{incarnation}")),
            )
        }
    }

    fn service_items(&self, me: NodeId) -> (ServiceItem, ServiceItem) {
        let display = ServiceItem {
            id: ServiceId(me.key() * 10 + 1),
            kind: "projector/display".into(),
            attributes: vec![
                ("room".into(), self.room.clone()),
                (
                    "resolution".into(),
                    format!("{}x{}", self.width, self.height),
                ),
            ],
            provider: me.0,
            proxy: Bytes::from_static(b"display-proxy"),
        };
        let control = ServiceItem {
            id: ServiceId(me.key() * 10 + 2),
            kind: "projector/control".into(),
            attributes: vec![("room".into(), self.room.clone())],
            provider: me.0,
            // Real mobile code: clients run this to map a requested
            // brightness onto the lamp's supported ladder.
            proxy: crate::proxy::brightness_proxy_bytes(),
        };
        (display, control)
    }

    fn discover(&mut self, ctx: &mut NetCtx<'_>) {
        self.nonce = ctx.rng().next_u64_raw();
        ctx.send(
            Address::Broadcast,
            DiscMsg::DiscoverReq { nonce: self.nonce }.encode(),
        );
        ctx.set_timer(DISCOVER_PERIOD, T_DISCOVER);
    }

    fn register_both(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(reg) = self.registrar else { return };
        let (display, control) = self.service_items(ctx.node());
        self.display_service_id = display.id;
        self.control_service_id = control.id;
        for item in [display, control] {
            ctx.send(
                Address::Node(reg),
                DiscMsg::Register {
                    item,
                    lease_ms: LEASE_REQUEST_MS,
                }
                .encode(),
            );
        }
    }

    fn handle_discovery(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(msg) = DiscMsg::decode(payload.clone()) else {
            return;
        };
        match msg {
            DiscMsg::DiscoverResp { nonce } if nonce == self.nonce && self.registrar.is_none() => {
                self.registrar = Some(from);
                self.register_both(ctx);
            }
            DiscMsg::RegisterAck { id, granted_ms } => {
                self.registrations += 1;
                let token = if id == self.display_service_id {
                    T_RENEW_DISPLAY
                } else {
                    T_RENEW_CONTROL
                };
                ctx.set_timer(SimDuration::from_millis(granted_ms / 2), token);
            }
            DiscMsg::RenewAck { id, ok, granted_ms } => {
                self.renew_outstanding = false;
                let token = if id == self.display_service_id {
                    T_RENEW_DISPLAY
                } else {
                    T_RENEW_CONTROL
                };
                if ok {
                    ctx.set_timer(SimDuration::from_millis(granted_ms / 2), token);
                } else {
                    self.register_both(ctx);
                }
            }
            _ => {}
        }
    }

    fn handle_control(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(msg) = CtlMsg::decode(payload.clone()) else {
            return;
        };
        let now = ctx.now();
        match msg {
            CtlMsg::Acquire { service } => {
                let mgr = self.manager(service);
                match mgr.acquire(from.key(), now) {
                    Ok(token) => {
                        self.grants += 1;
                        if service == Service::Projection {
                            self.start_projection(ctx, from);
                        }
                        ctx.send(
                            Address::Node(from),
                            CtlMsg::Granted {
                                service,
                                token: token.value(),
                            }
                            .encode(),
                        );
                    }
                    Err(_) => {
                        self.denials += 1;
                        ctx.send(
                            Address::Node(from),
                            CtlMsg::Denied {
                                service,
                                reason: "busy".into(),
                            }
                            .encode(),
                        );
                    }
                }
            }
            CtlMsg::Release { service, token } => {
                let mgr = self.manager(service);
                if mgr.release(SessionToken::from_value(token), now).is_ok()
                    && service == Service::Projection
                {
                    self.stop_projection();
                }
            }
            CtlMsg::Command { token, cmd } => {
                let tok = SessionToken::from_value(token);
                if self.control_sessions.touch(tok, now).is_ok() {
                    self.apply(cmd);
                    self.commands_applied += 1;
                    ctx.send(Address::Node(from), CtlMsg::CommandOk.encode());
                } else {
                    self.commands_denied += 1;
                    ctx.send(
                        Address::Node(from),
                        CtlMsg::CommandDenied {
                            reason: "no control session".into(),
                        }
                        .encode(),
                    );
                }
            }
            _ => {}
        }
    }

    fn manager(&mut self, service: Service) -> &mut SessionManager {
        match service {
            Service::Projection => &mut self.projection_sessions,
            Service::Control => &mut self.control_sessions,
        }
    }

    fn start_projection(&mut self, ctx: &mut NetCtx<'_>, laptop: NodeId) {
        // (Re)point the embedded viewer at the session owner and start
        // pulling. A hijack under SessionPolicy::None lands here too — the
        // new owner's screen simply replaces the old one, which is exactly
        // the failure the paper's session objects exist to prevent.
        // A projector refreshes at display-panel cadence, not line rate.
        let mut viewer = VncViewerApp::new(laptop, self.width, self.height).with_target_fps(10.0);
        viewer.on_start(ctx);
        self.viewer = Some(viewer);
        if self.state.powered {
            self.state.input = 0;
        }
    }

    fn stop_projection(&mut self) {
        self.viewer = None;
    }

    fn apply(&mut self, cmd: ProjectorCommand) {
        match cmd {
            ProjectorCommand::PowerOn => self.state.powered = true,
            ProjectorCommand::PowerOff => self.state.powered = false,
            ProjectorCommand::SelectInput(i) => self.state.input = i,
            ProjectorCommand::Brightness(v) => self.state.brightness = v.min(100),
        }
    }

    /// Expire idle sessions (lazy, driven by traffic); stop projecting if
    /// the projection session lapsed.
    fn sweep_sessions(&mut self, now: SimTime) {
        if self.viewer.is_some() && self.projection_sessions.owner(now).is_none() {
            self.stop_projection();
        }
        let _ = self.control_sessions.owner(now);
    }
}

impl NetApp for SmartProjectorApp {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.discover(ctx);
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        self.sweep_sessions(ctx.now());
        match payload.first() {
            Some(&PROTO_DISCOVERY) => self.handle_discovery(ctx, from, payload),
            Some(&PROTO_CONTROL) => self.handle_control(ctx, from, payload),
            Some(&PROTO_VNC) => {
                // Only the projection owner's frames reach the viewer; the
                // viewer itself also checks the sender.
                if let Some(viewer) = &mut self.viewer {
                    viewer.on_packet(ctx, from, payload);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        self.sweep_sessions(ctx.now());
        match token {
            T_DISCOVER if self.registrar.is_none() => {
                self.discover(ctx);
            }
            T_RENEW_DISPLAY | T_RENEW_CONTROL => {
                if let Some(reg) = self.registrar {
                    let id = if token == T_RENEW_DISPLAY {
                        self.display_service_id
                    } else {
                        self.control_service_id
                    };
                    ctx.send(Address::Node(reg), DiscMsg::Renew { id }.encode());
                    self.renew_outstanding = true;
                    ctx.set_timer(RENEW_TIMEOUT, T_RENEW_TIMEOUT);
                }
            }
            T_RENEW_TIMEOUT if self.renew_outstanding => {
                // The registrar never answered: it is dead or out of reach.
                // Before this timeout existed, a registrar crash orphaned
                // the adapter for good — its leases lapsed and no client
                // could ever find it again. Re-enter discovery (a standby
                // registrar answers just as well) and re-register.
                self.renew_outstanding = false;
                self.registrar = None;
                self.discover(ctx);
            }
            t if t < 100 => {
                if let Some(viewer) = &mut self.viewer {
                    viewer.on_timer(ctx, t);
                }
            }
            _ => {}
        }
    }

    /// Adapter process crash: every session dies with the device, and the
    /// rebooted managers mint tokens from incarnation-fresh streams so
    /// nothing issued before the crash is ever honoured again (no-hijack
    /// survives restarts). Session statistics accumulate across the crash
    /// so post-run assertions see the whole history.
    fn on_crash(&mut self, _ctx: &mut NetCtx<'_>) {
        self.incarnation += 1;
        let (proj_tokens, ctl_tokens) = Self::token_streams(&self.room, self.incarnation);
        self.projection_sessions.reboot(proj_tokens);
        self.control_sessions.reboot(ctl_tokens);
        self.viewer = None;
        self.registrar = None;
        self.renew_outstanding = false;
        self.state = ProjectorState::default();
    }

    /// Reboot complete: rediscover the lookup service and re-register both
    /// services (fresh leases; the old ones lapse at the registrar).
    fn on_restart(&mut self, ctx: &mut NetCtx<'_>) {
        self.discover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projector_state_defaults() {
        let s = ProjectorState::default();
        assert!(!s.powered);
        assert_eq!(s.input, 0);
        assert_eq!(s.brightness, 70);
    }

    #[test]
    fn apply_commands_mutates_state() {
        let mut app = SmartProjectorApp::new(320, 240, SessionPolicy::ManualRelease, "A-101");
        app.apply(ProjectorCommand::PowerOn);
        assert!(app.state.powered);
        app.apply(ProjectorCommand::Brightness(200));
        assert_eq!(app.state.brightness, 100, "brightness clamps");
        app.apply(ProjectorCommand::SelectInput(1));
        assert_eq!(app.state.input, 1);
        app.apply(ProjectorCommand::PowerOff);
        assert!(!app.state.powered);
    }

    #[test]
    fn service_items_describe_both_services() {
        let app = SmartProjectorApp::new(640, 480, SessionPolicy::ManualRelease, "B-202");
        let (d, c) = app.service_items(NodeId(3));
        assert_eq!(d.kind, "projector/display");
        assert_eq!(c.kind, "projector/control");
        assert_ne!(d.id, c.id);
        assert_eq!(d.attr("room"), Some("B-202"));
        assert_eq!(d.attr("resolution"), Some("640x480"));
        assert_eq!(d.provider, 3);
    }
}
