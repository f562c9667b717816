//! Per-layer breakdown of one traced pass.
//!
//! The span tree, outermost first:
//!
//! * `sim` — the run span (`run_for`). Its self time is the run span minus
//!   the program's per-event-kind dispatch profile: queue pops and the loop.
//! * `net` — each dispatched event (the program's profile: `MacTick`,
//!   `TxEnd`, `WiredDeliver`, …). Its self time is the dispatch profile minus
//!   the app callbacks of the other layers and minus the probes' own
//!   span recording; `env` propagation and SINR run inside it, and so do the
//!   `aroma-net` sensor apps.
//! * app callbacks — the benchmark's [`Probe`](crate::probe::Probe) spans,
//!   by the crate of the wrapped app: `discovery`, `projector`.
//! * `vnc.render`/`vnc.encode`/`vnc.chunk` — the program's VNC profile,
//!   charged inside whichever app embeds the VNC server. It is the `vnc`
//!   layer and is subtracted from the enclosing `projector` span.

use crate::stats::ratio;
use crate::Metric;
use aroma_sim::telemetry::Snapshot;

/// Everything a traced pass measured, by source.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    /// Host nanoseconds of the run span.
    pub run_ns: u64,
    /// App-callback span totals, host ns, or `None` when the workload's
    /// networks are built inside the program (chaos), so no probe wraps
    /// its apps.
    pub app_ns: Option<AppNs>,
    /// Host ns the probes spent recording spans, inside the dispatch
    /// profile but outside every span.
    pub probe_ns: u64,
    /// The network's telemetry snapshot (counters and dispatch profile).
    pub snapshot: Snapshot,
    /// Data frames delivered to apps over the radio and over cables.
    pub frames_delivered: u64,
    /// `VncServerApp` counters summed over every server in the world:
    /// updates sent, stream bytes sent, buffer-pool misses. `None` when the
    /// servers sit inside the program's own networks.
    pub vnc_servers: Option<(u64, u64, u64)>,
    /// Session counters: acquires, denials, hijacks.
    pub sessions: (u64, u64, u64),
    /// Replicated-registrar counters and discovery recovery times.
    pub repl: Repl,
}

/// What the chaos storms report about discovery failover; zero elsewhere.
#[derive(Clone, Copy, Debug, Default)]
pub struct Repl {
    pub epoch_bumps: u64,
    pub snapshot_installs: u64,
    /// Median time-to-recover of `churn_run`'s replicated primary failover,
    /// sim-s.
    pub failover_ttr_s: f64,
    /// Median time-to-recover after `chaos_run` kills the registrar and the
    /// standby takes over, sim-s.
    pub kill_ttr_s: f64,
}

/// App-callback span totals, host ns.
#[derive(Clone, Copy, Debug, Default)]
pub struct AppNs {
    pub discovery: u64,
    pub projector: u64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them. Every
/// workload reports every metric; one a workload does not exercise reads 0.
pub fn metrics(i: &Inputs) -> Vec<Metric> {
    let snap = &i.snapshot;
    let handler = |name: &str| snap.profile.iter().find(|h| h.name == name);
    let calls = |name: &str| handler(name).map_or(0, |h| h.calls);
    let nanos = |name: &str| handler(name).map_or(0, |h| h.total_nanos);
    let is_vnc = |name: &str| name.starts_with("vnc.");
    let dispatch_ns: u64 = snap
        .profile
        .iter()
        .filter(|h| !is_vnc(h.name))
        .map(|h| h.total_nanos)
        .sum();
    let events: u64 = snap
        .profile
        .iter()
        .filter(|h| !is_vnc(h.name))
        .map(|h| h.calls)
        .sum();
    let vnc_profile_ns: u64 = snap
        .profile
        .iter()
        .filter(|h| is_vnc(h.name))
        .map(|h| h.total_nanos)
        .sum();

    // The VNC profile runs inside the presenter laptops' projector spans
    // (building). Without probes (chaos) it is the only app time visible,
    // and the other apps' callbacks stay inside `net`.
    let app = i.app_ns.unwrap_or_default();
    let (vnc_in_projector, vnc_in_net) = if app.projector > 0 {
        (vnc_profile_ns, 0)
    } else {
        (0, vnc_profile_ns)
    };
    let app_total = app.discovery + app.projector + vnc_in_net;
    let net_ns = dispatch_ns.saturating_sub(app_total + i.probe_ns);
    let vnc_ns = vnc_profile_ns;
    let projector_ns = app.projector.saturating_sub(vnc_in_projector);

    let attempts = snap.counter("net.mac.tx_attempts");
    let drops = snap.counter("net.mac.drop.retry_limit") + snap.counter("net.mac.drop.queue_full");
    let radio_delivered = snap.counter("net.rx.delivered");
    let renders = calls("vnc.render");
    let encodes = calls("vnc.encode");
    let served = snap.counter("vnc.updates_served");
    let (updates, bytes, misses) = i.vnc_servers.unwrap_or((0, 0, 0));
    let (acquires, denials, hijacks) = i.sessions;
    let repl = &i.repl;

    vec![
        Metric::new(
            "sim.busy_s",
            secs(i.run_ns.saturating_sub(dispatch_ns)),
            "s",
        )
        .with_base(format!(
            "run span {:.4} s - dispatch {:.4} s",
            secs(i.run_ns),
            secs(dispatch_ns)
        )),
        Metric::new("sim.events", events as f64, "count"),
        Metric::new("sim.events.mac_tick", calls("MacTick") as f64, "count"),
        Metric::new(
            "sim.events_per_frame",
            ratio(events as f64, i.frames_delivered as f64),
            "ratio",
        )
        .with_base(format!(
            "{events} events / {} frames delivered",
            i.frames_delivered
        )),
        Metric::new("net.busy_s", secs(net_ns), "s").with_base(format!(
            "dispatch {:.4} s - app callbacks {:.4} s - probe recording {:.4} s",
            secs(dispatch_ns),
            secs(app_total),
            secs(i.probe_ns)
        )),
        Metric::new("net.tx_attempts", attempts as f64, "count"),
        Metric::new(
            "net.retries",
            snap.counter("net.mac.retries") as f64,
            "count",
        ),
        Metric::new(
            "net.ack_timeouts",
            snap.counter("net.mac.ack_timeouts") as f64,
            "count",
        ),
        Metric::new("net.drops", drops as f64, "count"),
        Metric::new(
            "net.delivered_per_attempt",
            ratio(radio_delivered as f64, attempts as f64),
            "ratio",
        )
        .with_base(format!(
            "{radio_delivered} radio frames delivered / {attempts} attempts"
        )),
        Metric::new("vnc.busy_s", secs(vnc_ns), "s"),
        Metric::new("vnc.render_s", secs(nanos("vnc.render")), "s"),
        Metric::new("vnc.renders", renders as f64, "count"),
        Metric::new("vnc.encode_s", secs(nanos("vnc.encode")), "s"),
        Metric::new(
            "vnc.encodes_per_render",
            ratio(encodes as f64, renders as f64),
            "ratio",
        )
        .with_base(format!("{encodes} encodes / {renders} renders")),
        Metric::new(
            "vnc.encodes_per_update",
            ratio(encodes as f64, served as f64),
            "ratio",
        )
        .with_base(format!("{encodes} encodes / {served} updates served")),
        Metric::new(
            "vnc.pool_misses_per_update",
            ratio(misses as f64, updates as f64),
            "ratio",
        )
        .with_base(format!("{misses} pool misses / {updates} updates sent")),
        Metric::new(
            "vnc.bytes_per_update",
            ratio(bytes as f64, updates as f64),
            "B",
        )
        .with_base(format!("{bytes} stream bytes / {updates} updates sent")),
        Metric::new("discovery.busy_s", secs(app.discovery), "s"),
        Metric::new(
            "discovery.lookups",
            snap.counter("disc.lookups") as f64,
            "count",
        ),
        Metric::new(
            "discovery.renewals",
            snap.counter("disc.lease.renewals") as f64,
            "count",
        ),
        Metric::new(
            "discovery.stale_rows",
            snap.counter("disc.lease.stale_window_hits") as f64,
            "count",
        ),
        Metric::new(
            "discovery.repl.epoch_bumps",
            repl.epoch_bumps as f64,
            "count",
        ),
        Metric::new(
            "discovery.repl.snapshot_installs",
            repl.snapshot_installs as f64,
            "count",
        ),
        Metric::new("discovery.failover_ttr_s", repl.failover_ttr_s, "sim-s"),
        Metric::new("discovery.kill_ttr_s", repl.kill_ttr_s, "sim-s"),
        Metric::new("projector.busy_s", secs(projector_ns), "s"),
        Metric::new("projector.acquires", acquires as f64, "count"),
        Metric::new("projector.denials", denials as f64, "count"),
        Metric::new("projector.hijacks", hijacks as f64, "count"),
        Metric::new(
            "faults.injected",
            snap.counter("faults.injected") as f64,
            "count",
        ),
        Metric::new(
            "telemetry.trace_dropped",
            snap.trace_dropped as f64,
            "count",
        ),
        Metric::new("telemetry.probe_s", secs(i.probe_ns), "s"),
    ]
}
