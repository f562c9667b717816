//! The benchmark's adapter around every application it places in a
//! [`Network`](aroma_net::Network).
//!
//! A [`Probe`] forwards each [`NetApp`] callback to the wrapped app
//! unchanged, so the simulation is the same with or without it. It does two
//! things on the side:
//!
//! * it notes the simulated instants at which the node's wall (the VNC
//!   viewer inside a projector) completes an update that carried content —
//!   the raw data of time-to-projecting and time-to-refresh;
//! * in a traced pass, it records one host-time [`Span`] per callback:
//!   layer, node, callback, start and end. Every span's parent is the pass's
//!   run span (the `run_for` call), which [`Tracer::run_ns`] holds.
//!
//! Spans stay in memory until the pass ends; [`Tracer::write_tsv`] writes
//! them out. Recording a span happens inside the program's dispatch profile
//! but outside the span, so the probes time it too ([`Tracer::probe_ns`])
//! and the per-layer report takes it out of `net`.

use crate::layers::AppNs;
use aroma_discovery::apps::{ClientApp, ProviderApp, RegistrarApp};
use aroma_net::traffic::PoissonSource;
use aroma_net::{Address, NetApp, NetCtx, Network, NodeId};
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;
use smart_projector::{PresenterLaptopApp, SmartProjectorApp};
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

/// The program's crates an application callback runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `aroma-net` apps (the open-loop sensors).
    Net,
    /// `aroma-discovery` apps.
    Discovery,
    /// `smart-projector` apps (projector, presenter laptop).
    Projector,
}

impl Layer {
    /// Name used in span files and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Net => "net",
            Layer::Discovery => "discovery",
            Layer::Projector => "projector",
        }
    }
}

/// Which [`NetApp`] callback a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Callback {
    Start,
    Packet,
    Timer,
    Sent,
    SendFailed,
    Crash,
    Restart,
}

impl Callback {
    fn label(self) -> &'static str {
        match self {
            Callback::Start => "on_start",
            Callback::Packet => "on_packet",
            Callback::Timer => "on_timer",
            Callback::Sent => "on_sent",
            Callback::SendFailed => "on_send_failed",
            Callback::Crash => "on_crash",
            Callback::Restart => "on_restart",
        }
    }
}

/// One application callback, in host nanoseconds since the run span began.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub node: u32,
    pub callback: Callback,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log shared by every probe of one traced pass.
pub struct Tracer {
    origin: Instant,
    /// Host duration of the run span, set by [`run_span`].
    pub run_ns: u64,
    pub spans: Vec<Span>,
    /// Host nanoseconds the probes spent after their callbacks, recording
    /// spans: the benchmark's own cost inside the dispatch profile.
    pub probe_ns: u64,
}

/// Handle the probes of one network share.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh log with room for `capacity` spans, so that recording does
    /// not reallocate mid-run; [`run_span`] opens and closes the run span.
    pub fn shared(capacity: usize) -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            run_ns: 0,
            spans: Vec::with_capacity(capacity),
            probe_ns: 0,
        }))
    }

    /// Host nanoseconds spent in each layer's callbacks.
    fn busy_ns(&self, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Callback span totals of the layers above `net`.
    pub fn app_ns(&self) -> AppNs {
        AppNs {
            discovery: self.busy_ns(Layer::Discovery),
            projector: self.busy_ns(Layer::Projector),
        }
    }

    /// Write the run span and every callback span to
    /// `SPAN_DIR/<workload>-seed<seed>.tsv` as tab-separated lines:
    /// `id parent layer node callback start_ns end_ns`, the run span first
    /// with id 0 and no parent.
    pub fn write_tsv(&self, workload: &str, seed: u64) -> Result<(), String> {
        let path = std::path::Path::new(crate::SPAN_DIR).join(format!("{workload}-seed{seed}.tsv"));
        self.write_to(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))
    }

    fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tlayer\tnode\tcallback\tstart_ns\tend_ns")?;
        writeln!(out, "0\t-\tsim\t-\trun_for\t0\t{}", self.run_ns)?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{}\t0\t{}\t{}\t{}\t{}\t{}",
                i + 1,
                s.layer.label(),
                s.node,
                s.callback.label(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Run `net` for `secs` simulated seconds as the pass's run span and return
/// its host seconds; a tracer records the span.
pub fn run_span(net: &mut Network, tracer: Option<&SharedTracer>, secs: f64) -> f64 {
    let t0 = Instant::now();
    if let Some(t) = tracer {
        t.borrow_mut().origin = t0;
    }
    net.run_for(SimDuration::from_secs_f64(secs));
    let run = t0.elapsed();
    if let Some(t) = tracer {
        t.borrow_mut().run_ns = run.as_nanos() as u64;
    }
    run.as_secs_f64()
}

/// An application the benchmark can wrap: its layer, and how many
/// content-bearing updates its wall has completed.
pub trait Observed: NetApp {
    const LAYER: Layer;

    /// Completed updates that carried at least one tile, for apps that drive
    /// a wall. A projector's count restarts with each projection session.
    fn wall_frames(&self) -> u64 {
        0
    }
}

impl Observed for SmartProjectorApp {
    const LAYER: Layer = Layer::Projector;
    fn wall_frames(&self) -> u64 {
        self.viewer.as_ref().map_or(0, |v| v.frames_with_content)
    }
}

impl Observed for PresenterLaptopApp {
    const LAYER: Layer = Layer::Projector;
}

impl Observed for RegistrarApp {
    const LAYER: Layer = Layer::Discovery;
}

impl Observed for ProviderApp {
    const LAYER: Layer = Layer::Discovery;
}

impl Observed for ClientApp {
    const LAYER: Layer = Layer::Discovery;
}

impl Observed for PoissonSource {
    const LAYER: Layer = Layer::Net;
}

/// The adapter. Retrieve it with `Network::app_as::<Probe<A>>`.
pub struct Probe<A> {
    pub app: A,
    tracer: Option<SharedTracer>,
    frames_seen: u64,
    /// Simulated instants at which the wall completed a content-bearing
    /// update.
    pub content_at: Vec<SimTime>,
}

impl<A: Observed> Probe<A> {
    /// Wrap `app`; pass a tracer to record spans.
    pub fn new(app: A, tracer: Option<&SharedTracer>) -> Box<Self> {
        Box::new(Probe {
            app,
            tracer: tracer.cloned(),
            frames_seen: 0,
            content_at: Vec::new(),
        })
    }

    fn call(
        &mut self,
        ctx: &mut NetCtx<'_>,
        callback: Callback,
        f: impl FnOnce(&mut A, &mut NetCtx<'_>),
    ) {
        let Some(tracer) = &self.tracer else {
            f(&mut self.app, ctx);
            return;
        };
        let start = Instant::now();
        f(&mut self.app, ctx);
        let end = Instant::now();
        let mut t = tracer.borrow_mut();
        let origin = t.origin;
        t.spans.push(Span {
            layer: A::LAYER,
            node: ctx.node().0,
            callback,
            start_ns: start.duration_since(origin).as_nanos() as u64,
            end_ns: end.duration_since(origin).as_nanos() as u64,
        });
        t.probe_ns += end.elapsed().as_nanos() as u64;
    }

    fn note_wall(&mut self, now: SimTime) {
        let frames = self.app.wall_frames();
        if frames != self.frames_seen {
            self.frames_seen = frames;
            if frames > 0 {
                self.content_at.push(now);
            }
        }
    }
}

impl<A: Observed> NetApp for Probe<A> {
    fn on_start(&mut self, ctx: &mut NetCtx<'_>) {
        self.call(ctx, Callback::Start, |a, c| a.on_start(c));
    }

    fn on_packet(&mut self, ctx: &mut NetCtx<'_>, from: NodeId, payload: &Bytes) {
        self.call(ctx, Callback::Packet, |a, c| a.on_packet(c, from, payload));
        self.note_wall(ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut NetCtx<'_>, token: u64) {
        self.call(ctx, Callback::Timer, |a, c| a.on_timer(c, token));
    }

    fn on_sent(&mut self, ctx: &mut NetCtx<'_>, to: Address) {
        self.call(ctx, Callback::Sent, |a, c| a.on_sent(c, to));
    }

    fn on_send_failed(&mut self, ctx: &mut NetCtx<'_>, to: NodeId, payload: &Bytes) {
        self.call(ctx, Callback::SendFailed, |a, c| {
            a.on_send_failed(c, to, payload)
        });
    }

    fn on_crash(&mut self, ctx: &mut NetCtx<'_>) {
        self.call(ctx, Callback::Crash, |a, c| a.on_crash(c));
    }

    fn on_restart(&mut self, ctx: &mut NetCtx<'_>) {
        self.call(ctx, Callback::Restart, |a, c| a.on_restart(c));
    }
}
