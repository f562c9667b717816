//! The presenter's laptop.
//!
//! Drives the paper's scenario end-to-end: discover the lookup service,
//! look up the projector's two services, acquire sessions on both (in a
//! configurable order — the paper's abstract-layer analysis worries about
//! "attempts by multiple users to access the services in different
//! orders"), serve the screen over the embedded VNC server, send control
//! commands, and either release properly or — as real presenters do —
//! forget.

use crate::control::{CtlMsg, ProjectorCommand, Service, PROTO_CONTROL};
use aroma_discovery::codec::{Msg as DiscMsg, ServiceItem, Template, PROTO_DISCOVERY};
use aroma_net::{Address, NetApp, NetCtx, NodeId};
use aroma_sim::{SimDuration, SimTime};
use aroma_vnc::protocol::PROTO_VNC;
use aroma_vnc::workloads::ScreenSource;
use aroma_vnc::VncServerApp;
use bytes::Bytes;

const T_DISCOVER: u64 = 201;
const T_LOOKUP: u64 = 202;
const T_ACQUIRE_RETRY: u64 = 203;
const T_COMMAND: u64 = 204;
const T_PRESENT_END: u64 = 205;

const DISCOVER_PERIOD: SimDuration = SimDuration::from_millis(500);
const LOOKUP_PERIOD: SimDuration = SimDuration::from_millis(400);
const ACQUIRE_RETRY: SimDuration = SimDuration::from_secs(2);
const COMMAND_PERIOD: SimDuration = SimDuration::from_secs(3);

/// Which service the presenter grabs first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireOrder {
    /// Projection, then control (the documented workflow).
    ProjectionFirst,
    /// Control, then projection (the "different order" the paper worries
    /// about).
    ControlFirst,
}

/// What this presenter intends to do.
#[derive(Clone, Debug)]
pub struct PresenterScript {
    /// When to start trying (staggered arrivals for contention scenarios).
    pub start_after: SimDuration,
    /// Acquire order.
    pub order: AcquireOrder,
    /// How long to present once both sessions are held.
    pub present_for: SimDuration,
    /// Release sessions when done? (The paper's forgetful user says no.)
    pub release_on_finish: bool,
    /// Commands to issue periodically while presenting.
    pub commands: Vec<ProjectorCommand>,
    /// Give up acquiring after this many refusals (None = keep trying).
    pub max_denials: Option<u32>,
}

impl Default for PresenterScript {
    fn default() -> Self {
        PresenterScript {
            start_after: SimDuration::ZERO,
            order: AcquireOrder::ProjectionFirst,
            present_for: SimDuration::from_secs(30),
            release_on_finish: true,
            commands: vec![ProjectorCommand::PowerOn, ProjectorCommand::Brightness(85)],
            max_denials: None,
        }
    }
}

/// Workflow phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Waiting for `start_after`.
    Waiting,
    /// Multicasting for the lookup service.
    Discovering,
    /// Querying for the projector services.
    LookingUp,
    /// Acquiring the first/second session.
    Acquiring,
    /// Both sessions held; presenting.
    Presenting,
    /// Done (released or walked away).
    Finished,
    /// Gave up (too many refusals).
    GaveUp,
}

/// The presenter's laptop application.
pub struct PresenterLaptopApp {
    /// The script this presenter follows.
    pub script: PresenterScript,
    /// Current phase.
    pub phase: Phase,
    /// When both sessions were first held (time-to-projecting, the E5
    /// latency metric).
    pub projecting_at: Option<SimTime>,
    /// Session refusals observed.
    pub denials: u32,
    /// Commands acknowledged.
    pub commands_ok: u32,
    /// Commands refused.
    pub commands_denied: u32,
    /// Times a refused command made the presenter drop its tokens and
    /// re-acquire both sessions (the projector restarted mid-talk).
    pub reacquisitions: u32,
    /// Brightness values translated through the downloaded mobile-code
    /// proxy before sending.
    pub proxy_translations: u32,
    /// The embedded VNC server (answers the projector's pulls).
    pub vnc: VncServerApp,
    registrar: Option<NodeId>,
    /// The projector node and its two services, once looked up.
    pub projector: Option<NodeId>,
    display_item: Option<ServiceItem>,
    control_item: Option<ServiceItem>,
    proj_token: Option<u64>,
    ctl_token: Option<u64>,
    nonce: u64,
    next_req: u64,
    next_cmd: usize,
    /// Command timers in flight. Resuming after a re-acquisition arms a
    /// fresh timer while a stale one may still be pending; only the newest
    /// acts, so the command cadence never doubles.
    pending_cmd_timers: u32,
}

impl PresenterLaptopApp {
    /// A presenter whose screen is rendered by `source`.
    pub fn new(
        script: PresenterScript,
        width: usize,
        height: usize,
        source: Box<dyn ScreenSource>,
    ) -> Self {
        PresenterLaptopApp {
            script,
            phase: Phase::Waiting,
            projecting_at: None,
            denials: 0,
            commands_ok: 0,
            commands_denied: 0,
            reacquisitions: 0,
            proxy_translations: 0,
            vnc: VncServerApp::new(width, height, source),
            registrar: None,
            projector: None,
            display_item: None,
            control_item: None,
            proj_token: None,
            ctl_token: None,
            nonce: 0,
            next_req: 1,
            next_cmd: 0,
            pending_cmd_timers: 0,
        }
    }

    /// Screen digest (tests compare with the projector's viewer).
    pub fn screen_digest(&self) -> u64 {
        self.vnc.screen_digest()
    }

    /// The wire values of the held (projection, control) tokens, for tests
    /// that compare pre- and post-restart sessions.
    pub fn tokens(&self) -> (Option<u64>, Option<u64>) {
        (self.proj_token, self.ctl_token)
    }

    fn discover(&mut self, ctx: &mut NetCtx<'_>) {
        self.phase = Phase::Discovering;
        self.nonce = ctx.rng().next_u64_raw();
        ctx.send(
            Address::Broadcast,
            DiscMsg::DiscoverReq { nonce: self.nonce }.encode(),
        );
        ctx.set_timer(DISCOVER_PERIOD, T_DISCOVER);
    }

    fn lookup(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(reg) = self.registrar else { return };
        self.phase = Phase::LookingUp;
        let req = self.next_req;
        self.next_req += 1;
        ctx.send(
            Address::Node(reg),
            DiscMsg::Lookup {
                req,
                template: Template::of_kind("projector/display"),
            }
            .encode(),
        );
        let req2 = self.next_req;
        self.next_req += 1;
        ctx.send(
            Address::Node(reg),
            DiscMsg::Lookup {
                req: req2,
                template: Template::of_kind("projector/control"),
            }
            .encode(),
        );
        ctx.set_timer(LOOKUP_PERIOD, T_LOOKUP);
    }

    fn first_service(&self) -> Service {
        match self.script.order {
            AcquireOrder::ProjectionFirst => Service::Projection,
            AcquireOrder::ControlFirst => Service::Control,
        }
    }

    fn next_unheld(&self) -> Option<Service> {
        let first = self.first_service();
        let second = match first {
            Service::Projection => Service::Control,
            Service::Control => Service::Projection,
        };
        for s in [first, second] {
            let held = match s {
                Service::Projection => self.proj_token.is_some(),
                Service::Control => self.ctl_token.is_some(),
            };
            if !held {
                return Some(s);
            }
        }
        None
    }

    fn acquire_next(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(projector) = self.projector else {
            return;
        };
        match self.next_unheld() {
            Some(service) => {
                self.phase = Phase::Acquiring;
                ctx.send(
                    Address::Node(projector),
                    CtlMsg::Acquire { service }.encode(),
                );
            }
            None => self.begin_presenting(ctx),
        }
    }

    fn arm_command_timer(&mut self, ctx: &mut NetCtx<'_>, delay: SimDuration) {
        self.pending_cmd_timers += 1;
        ctx.set_timer(delay, T_COMMAND);
    }

    fn begin_presenting(&mut self, ctx: &mut NetCtx<'_>) {
        if self.phase == Phase::Presenting {
            return;
        }
        self.phase = Phase::Presenting;
        // First entry starts the clock; a resume after re-acquisition
        // keeps the original time-to-projecting and end-of-talk schedule.
        if self.projecting_at.is_none() {
            self.projecting_at = Some(ctx.now());
            ctx.set_timer(self.script.present_for, T_PRESENT_END);
        }
        if !self.script.commands.is_empty() {
            self.arm_command_timer(ctx, SimDuration::from_millis(300));
        }
    }

    fn finish(&mut self, ctx: &mut NetCtx<'_>) {
        let Some(projector) = self.projector else {
            self.phase = Phase::Finished;
            return;
        };
        if self.script.release_on_finish {
            if let Some(tok) = self.proj_token.take() {
                ctx.send(
                    Address::Node(projector),
                    CtlMsg::Release {
                        service: Service::Projection,
                        token: tok,
                    }
                    .encode(),
                );
            }
            if let Some(tok) = self.ctl_token.take() {
                ctx.send(
                    Address::Node(projector),
                    CtlMsg::Release {
                        service: Service::Control,
                        token: tok,
                    }
                    .encode(),
                );
            }
        }
        // A forgetful presenter keeps the tokens and simply walks away.
        self.phase = Phase::Finished;
    }

    fn handle_discovery(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        let Ok(msg) = DiscMsg::decode(payload.clone()) else {
            return;
        };
        match msg {
            DiscMsg::DiscoverResp { nonce } if nonce == self.nonce && self.registrar.is_none() => {
                self.registrar = Some(from);
                self.lookup(ctx);
            }
            DiscMsg::LookupReply { items, .. } => {
                for item in items {
                    match item.kind.as_str() {
                        "projector/display" => {
                            self.projector = Some(NodeId(item.provider));
                            self.display_item = Some(item);
                        }
                        "projector/control" => {
                            self.projector = Some(NodeId(item.provider));
                            self.control_item = Some(item);
                        }
                        _ => {}
                    }
                }
                if self.display_item.is_some()
                    && self.control_item.is_some()
                    && self.phase == Phase::LookingUp
                {
                    self.acquire_next(ctx);
                }
            }
            _ => {}
        }
    }

    fn handle_control(&mut self, ctx: &mut NetCtx<'_>, payload: &Bytes) {
        let Ok(msg) = CtlMsg::decode(payload.clone()) else {
            return;
        };
        match msg {
            CtlMsg::Granted { service, token } => {
                match service {
                    Service::Projection => self.proj_token = Some(token),
                    Service::Control => self.ctl_token = Some(token),
                }
                self.acquire_next(ctx);
            }
            CtlMsg::Denied { .. } => {
                self.denials += 1;
                if let Some(max) = self.script.max_denials {
                    if self.denials >= max {
                        self.phase = Phase::GaveUp;
                        return;
                    }
                }
                ctx.set_timer(ACQUIRE_RETRY, T_ACQUIRE_RETRY);
            }
            CtlMsg::CommandOk => self.commands_ok += 1,
            CtlMsg::CommandDenied { .. } => {
                self.commands_denied += 1;
                // Mid-presentation the projector stopped honouring our
                // token — it restarted (tokens die with the device) or the
                // session lapsed. The old tokens are worthless: drop them
                // and acquire fresh sessions instead of failing every
                // remaining command of the talk.
                if self.phase == Phase::Presenting {
                    self.reacquisitions += 1;
                    self.proj_token = None;
                    self.ctl_token = None;
                    self.acquire_next(ctx);
                }
            }
            _ => {}
        }
    }

    fn send_next_command(&mut self, ctx: &mut NetCtx<'_>) {
        let (Some(projector), Some(token)) = (self.projector, self.ctl_token) else {
            return;
        };
        if self.script.commands.is_empty() {
            return;
        }
        let mut cmd = self.script.commands[self.next_cmd % self.script.commands.len()];
        self.next_cmd += 1;
        // Brightness goes through the device's downloaded proxy (mobile
        // code): the client need not know this lamp's supported ladder.
        if let ProjectorCommand::Brightness(requested) = cmd {
            if let Some(item) = &self.control_item {
                if let Some(supported) = crate::proxy::run_brightness_proxy(&item.proxy, requested)
                {
                    self.proxy_translations += 1;
                    cmd = ProjectorCommand::Brightness(supported);
                }
            }
        }
        ctx.send(
            Address::Node(projector),
            CtlMsg::Command { token, cmd }.encode(),
        );
        self.arm_command_timer(ctx, COMMAND_PERIOD);
    }
}

impl NetApp for PresenterLaptopApp {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        if self.script.start_after.is_zero() {
            self.discover(ctx);
        } else {
            ctx.set_timer(self.script.start_after, T_DISCOVER);
        }
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        match payload.first() {
            Some(&PROTO_DISCOVERY) => self.handle_discovery(ctx, from, payload),
            Some(&PROTO_CONTROL) => self.handle_control(ctx, payload),
            Some(&PROTO_VNC) => self.vnc.on_packet(ctx, from, payload),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        match token {
            T_DISCOVER if self.registrar.is_none() && self.phase != Phase::Finished => {
                self.discover(ctx);
            }
            T_LOOKUP
                if self.phase == Phase::LookingUp
                    && (self.display_item.is_none() || self.control_item.is_none()) =>
            {
                self.lookup(ctx);
            }
            T_ACQUIRE_RETRY if self.phase == Phase::Acquiring => {
                self.acquire_next(ctx);
            }
            T_COMMAND => {
                self.pending_cmd_timers = self.pending_cmd_timers.saturating_sub(1);
                if self.phase == Phase::Presenting && self.pending_cmd_timers == 0 {
                    self.send_next_command(ctx);
                }
            }
            T_PRESENT_END if self.phase == Phase::Presenting => {
                self.finish(ctx);
            }
            _ => {}
        }
    }

    fn on_sent(&mut self, ctx: &mut NetCtx<'_>, to: Address) {
        // Forward completions to the embedded VNC server's pump. Spurious
        // completions (control/discovery frames) only widen its window,
        // which the MAC queue cap absorbs.
        self.vnc.on_sent(ctx, to);
    }

    /// A laptop crash loses every binding and both tokens (sessions at the
    /// projector lapse or get admin-cleared; the restart starts over).
    fn on_crash(&mut self, ctx: &mut NetCtx<'_>) {
        self.phase = Phase::Waiting;
        self.registrar = None;
        self.projector = None;
        self.display_item = None;
        self.control_item = None;
        self.proj_token = None;
        self.ctl_token = None;
        self.pending_cmd_timers = 0;
        self.vnc.on_crash(ctx);
    }

    /// Reboot complete: rejoin the room from the top of the workflow.
    fn on_restart(&mut self, ctx: &mut NetCtx<'_>) {
        self.discover(ctx);
    }

    fn on_send_failed(&mut self, ctx: &mut NetCtx<'_>, to: NodeId, payload: &Bytes) {
        self.vnc.on_send_failed(ctx, to, payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aroma_vnc::SlideDeck;

    fn app(order: AcquireOrder) -> PresenterLaptopApp {
        PresenterLaptopApp::new(
            PresenterScript {
                order,
                ..Default::default()
            },
            320,
            240,
            Box::new(SlideDeck::new(10.0)),
        )
    }

    #[test]
    fn acquire_order_respected() {
        let a = app(AcquireOrder::ProjectionFirst);
        assert_eq!(a.next_unheld(), Some(Service::Projection));
        let b = app(AcquireOrder::ControlFirst);
        assert_eq!(b.next_unheld(), Some(Service::Control));
    }

    #[test]
    fn next_unheld_walks_both_services() {
        let mut a = app(AcquireOrder::ProjectionFirst);
        a.proj_token = Some(1);
        assert_eq!(a.next_unheld(), Some(Service::Control));
        a.ctl_token = Some(2);
        assert_eq!(a.next_unheld(), None);
    }

    #[test]
    fn default_script_is_polite() {
        let s = PresenterScript::default();
        assert!(s.release_on_finish);
        assert_eq!(s.order, AcquireOrder::ProjectionFirst);
        assert!(!s.commands.is_empty());
    }

    #[test]
    fn initial_phase_is_waiting() {
        let a = app(AcquireOrder::ProjectionFirst);
        assert_eq!(a.phase, Phase::Waiting);
        assert!(a.projecting_at.is_none());
    }
}
