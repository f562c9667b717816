//! `chaos`: the E9 walkthrough as `repro e9` runs it — `chaos_run(seed)`
//! plus `churn_run(seed)` — over consecutive seeds. The only workload that
//! exercises `faults`, replicated discovery (`ReplicaNode`, snapshots,
//! failover) and a live telemetry ring.
//!
//! `chaos_run`/`churn_run` build their networks themselves, so no probe
//! wraps these apps: the per-layer breakdown comes from the program's own
//! snapshots, and app callbacks other than VNC stay inside `net.busy_s`.
//! For the same reason the workload's set-up is a warm-up: one untimed
//! `chaos_run` + `churn_run` on the first seed, repeated and the median
//! taken.
//!
//! Per pass:
//! * ttp — per projection session (the first one, and the re-acquisition
//!   after the adapter restart), the time from the projector granting it to
//!   the first update on the wall. The presenter's own intent-to-session time
//!   takes only a few values here, set by discovery retry periods, because
//!   it races the projector's registration;
//! * ttr — per seed, the recoveries that bring the wall back: the session
//!   re-acquired after the adapter crash and VNC delivery after the burst
//!   loss. The discovery recoveries (registrar kill, replicated failover)
//!   take 0.1–1.6 s against 3–9 s for these, so pooled with them the median
//!   would sit in the gap between the two groups and read the slowest
//!   discovery recovery; they are reported per layer instead
//!   (`discovery.kill_ttr_s`, `discovery.failover_ttr_s`);
//! * attempted/failed — all four recoveries (discovery, session, VNC,
//!   failover), and the ones missing or past their deadline.

use crate::layers::{self, Repl};
use crate::stats::{median, mix, Digest};
use crate::Pass;
use aroma_sim::telemetry::Snapshot;
use lpc_bench::experiments::chaos::{chaos_run, churn, churn_run, storm};
use std::time::Instant;

/// Consecutive seeds per pass: two projection sessions and four recoveries
/// each.
pub const SEEDS: u64 = 50;
/// The adapter restart of the storm, ns.
const RESTART_NS: u64 = storm::PROJECTOR_RESTART_S * 1_000_000_000;
/// Warm-ups behind the set-up median.
pub const WARM_UPS: usize = 9;

/// The seeds one run walks, a pure function of the run seed.
#[derive(Clone, Debug)]
pub struct Spec {
    pub seeds: Vec<u64>,
}

impl Spec {
    pub fn generate(seed: u64) -> Spec {
        Spec::sized(seed, SEEDS)
    }

    pub fn sized(seed: u64, seeds: u64) -> Spec {
        let first = mix(seed, 0xE9) >> 16;
        Spec {
            seeds: (first..first + seeds).collect(),
        }
    }
}

/// The workload's set-up time: median of [`WARM_UPS`] untimed walkthroughs,
/// one on each of the first seeds. A walkthrough's cost depends on its seed
/// (0.11–0.14 s), so repeating one seed would carry that seed's cost into
/// the median.
pub fn warm_up(spec: &Spec) -> f64 {
    let times: Vec<f64> = spec
        .seeds
        .iter()
        .cycle()
        .take(WARM_UPS)
        .map(|&seed| {
            let t = Instant::now();
            let _ = chaos_run(seed);
            let _ = churn_run(seed);
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Sum `s`'s counters and profile into `into`; traces are not kept.
fn fold(into: &mut Snapshot, s: &Snapshot) {
    for &(name, v) in &s.counters {
        match into.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => into.counters.push((name, v)),
        }
    }
    for h in &s.profile {
        match into.profile.iter_mut().find(|p| p.name == h.name) {
            Some(p) => {
                p.calls += h.calls;
                p.total_nanos += h.total_nanos;
            }
            None => into.profile.push(h.clone()),
        }
    }
    into.trace_dropped += s.trace_dropped;
}

/// Walk every seed once, check the invariants and measure.
pub fn pass(spec: &Spec, traced: bool) -> Pass {
    let mut pass = Pass {
        sim_s: (storm::HORIZON_S + churn::HORIZON_S) as f64 * spec.seeds.len() as f64,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    let mut merged = Snapshot::default();
    let mut repl = Repl::default();
    let (mut failovers, mut kills) = (Vec::new(), Vec::new());
    for &seed in &spec.seeds {
        let t = Instant::now();
        let run = chaos_run(seed);
        let ch = churn_run(seed);
        pass.host_s += t.elapsed().as_secs_f64();

        // The presenter acquires projection first: the first grant of the
        // run and the first after the restart open projection sessions.
        let trace = &run.snapshot.trace;
        let grants = trace
            .iter()
            .filter(|e| e.name == "session.acquire")
            .map(|e| e.t_nanos);
        let sessions = [
            grants.clone().find(|&t| t < RESTART_NS),
            grants.clone().find(|&t| t >= RESTART_NS),
        ];
        for granted in sessions {
            let shown = granted.and_then(|g| {
                trace
                    .iter()
                    .find(|e| e.name == "vnc.update.deliver" && e.t_nanos >= g)
                    .map(|e| e.t_nanos - g)
            });
            match shown {
                Some(ns) => pass.ttp.push(ns as f64 / 1e9),
                None => pass.problems.push(format!(
                    "seed {seed}: a projection session never reached the wall"
                )),
            }
        }
        if run.snapshot.trace_dropped > 0 {
            pass.problems.push(format!(
                "seed {seed}: the trace ring dropped events the metrics need"
            ));
        }
        for r in run.recoveries.iter().chain([&ch.failover]) {
            pass.attempted += 1;
            if !r.met() {
                pass.failed += 1;
            }
            digest.f64(r.recovered_s.unwrap_or(-1.0));
        }
        // `ChaosRun::recoveries` lists discovery, session and VNC, in order.
        pass.ttr
            .extend(run.recoveries[1..].iter().filter_map(|r| r.ttr_s()));
        if run.hijacks != 0 {
            pass.problems
                .push(format!("seed {seed}: {} session hijacks", run.hijacks));
        }
        if ch.stale_rows != 0 {
            pass.problems.push(format!(
                "seed {seed}: {} stale lookup rows served",
                ch.stale_rows
            ));
        }
        if !ch.tables.windows(2).all(|w| w[0] == w[1]) {
            pass.problems
                .push(format!("seed {seed}: registrar lease tables diverged"));
        }
        digest
            .word(run.reacquisitions as u64)
            .word(run.incarnation as u64)
            .word(run.client_rediscoveries)
            .word(run.degradations)
            .word(run.commands_ok as u64)
            .word(ch.lookups_served)
            .word(ch.epoch_bumps)
            .word(ch.snapshot_installs)
            .word(ch.flap_absorbed);
        for (id, expires) in ch.tables.iter().flatten() {
            digest.word(*id).word(*expires);
        }
        if traced {
            fold(&mut merged, &run.snapshot);
            fold(&mut merged, &ch.snapshot);
            repl.epoch_bumps += ch.epoch_bumps;
            repl.snapshot_installs += ch.snapshot_installs;
            failovers.extend(ch.failover.ttr_s());
            kills.extend(run.recoveries[0].ttr_s());
        }
    }
    for x in &pass.ttp {
        digest.f64(*x);
    }
    pass.digest = digest.value();

    if traced {
        let median_or_0 = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
        repl.failover_ttr_s = median_or_0(&failovers);
        repl.kill_ttr_s = median_or_0(&kills);
        let sessions = (
            merged.counter("proj.session.acquires"),
            merged.counter("proj.session.denials"),
            merged.counter("proj.session.hijacks"),
        );
        pass.layers = layers::metrics(&layers::Inputs {
            run_ns: (pass.host_s * 1e9) as u64,
            app_ns: None,
            probe_ns: 0,
            frames_delivered: merged.counter("net.rx.delivered"),
            snapshot: merged,
            vnc_servers: None,
            sessions,
            repl,
        });
    }
    pass
}
