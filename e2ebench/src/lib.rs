//! End-to-end benchmark of the Aroma/LPC stack.
//!
//! Two workloads drive the program from outside, through its public entry
//! points only (`Network::new`/`add_node`/`run_for`, the public app types,
//! `chaos_run`/`churn_run`, `Network::attach_telemetry` and the snapshot):
//!
//! * [`building`] — the paper's Smart-Projector path over a contended WLAN;
//! * [`chaos`] — the E9 walkthrough (`chaos_run` + `churn_run`) over
//!   consecutive seeds.
//!
//! A run repeats *passes* of one seeded world until its time budget is
//! spent. Every pass of a seed must produce the same digest. End-to-end
//! metrics come from untraced passes; a traced run alternates untraced and
//! traced passes, checks that both give the same digest, and reports the
//! per-layer breakdown of the traced ones. Before every pass a run times
//! the [`yardstick`], and `sim_rate` is reported at the yardstick's
//! reference host speed. See `README.md` for the metric definitions.

pub mod building;
pub mod chaos;
pub mod layers;
pub mod probe;
pub mod stats;
pub mod yardstick;

use stats::{median, percentile};
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["building", "chaos"];

/// Where traced passes write their spans, relative to the checkout.
pub const SPAN_DIR: &str = "target/e2ebench";

/// Passes an untraced run makes at least, whatever its time budget.
pub const MIN_PASSES: usize = 3;

/// One named value with its unit; `base` spells out a ratio's operands.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub base: Option<String>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            value,
            unit,
            base: None,
        }
    }

    pub fn with_base(mut self, base: String) -> Self {
        self.base = Some(base);
        self
    }
}

/// What one pass of a workload yields.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host seconds spent building this pass's world.
    pub setup_s: f64,
    /// Host seconds of the timed part (the run span).
    pub host_s: f64,
    /// Simulated seconds the timed part covered.
    pub sim_s: f64,
    /// Host seconds of the yardstick round timed just before this pass.
    pub yardstick_s: f64,
    /// Digest of every simulated output the pass checks or reports.
    pub digest: u64,
    /// Time-to-projecting samples, simulated seconds.
    pub ttp: Vec<f64>,
    /// Time-to-recover samples, simulated seconds.
    pub ttr: Vec<f64>,
    /// Operations attempted and failed (see each workload's definition).
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub problems: Vec<String>,
    /// Peak resident memory of the process after this pass, MB.
    pub peak_rss_mb: f64,
    /// Per-layer metrics; filled by traced passes only.
    pub layers: Vec<Metric>,
}

/// A finished run: what the last output line reports.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub problems: Vec<String>,
    pub passes: usize,
}

/// Repeat passes until `seconds` of host time are spent, timing the
/// yardstick before each. Untraced runs make at least [`MIN_PASSES`] passes;
/// traced runs alternate untraced and traced passes, at least two of each.
/// Returns `(traced, pass)` pairs.
pub fn measure(seconds: f64, trace: bool, mut pass: impl FnMut(bool) -> Pass) -> Vec<(bool, Pass)> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        let traced = trace && out.len() % 2 == 1;
        let yardstick_s = yardstick::time();
        let mut p = pass(traced);
        p.yardstick_s = yardstick_s;
        p.peak_rss_mb = stats::peak_rss_mb();
        out.push((traced, p));
        let enough = if trace {
            out.len() >= 4 && out.len() % 2 == 0
        } else {
            out.len() >= MIN_PASSES
        };
        if enough && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out
}

/// Fold a run's passes into its outcome: end-to-end metrics from the
/// untraced passes, per-layer metrics (medians over traced passes) when
/// `trace` is set.
pub fn summarize(passes: &[(bool, Pass)], trace: bool) -> Outcome {
    let first = &passes[0].1;
    // Every pass's checks count, traced ones too; passes of one seed repeat
    // the same failures, so each is reported once.
    let mut problems: Vec<String> = Vec::new();
    for problem in passes.iter().flat_map(|(_, p)| &p.problems) {
        if !problems.contains(problem) {
            problems.push(problem.clone());
        }
    }
    if passes.iter().any(|(_, p)| p.digest != first.digest) {
        let digests: Vec<String> = passes
            .iter()
            .map(|(t, p)| format!("{}{:016x}", if *t { "traced:" } else { "" }, p.digest))
            .collect();
        problems.push(format!(
            "passes of one seed disagree: {}",
            digests.join(" ")
        ));
    }
    if passes
        .iter()
        .any(|(_, p)| p.ttp.is_empty() || p.ttr.is_empty())
    {
        problems.push("a pass yielded no time-to-projecting or time-to-recover samples".into());
    }
    let untraced: Vec<&Pass> = passes.iter().filter(|(t, _)| !t).map(|(_, p)| p).collect();
    let host = |ps: &[&Pass]| median(&ps.iter().map(|p| p.host_s).collect::<Vec<_>>());
    let metrics = if trace {
        let traced: Vec<&Pass> = passes.iter().filter(|(t, _)| *t).map(|(_, p)| p).collect();
        let mut out = Vec::new();
        for (i, m) in traced[0].layers.iter().enumerate() {
            let values: Vec<f64> = traced.iter().map(|p| p.layers[i].value).collect();
            out.push(Metric {
                value: median(&values),
                ..m.clone()
            });
        }
        let (t, u) = (host(&traced), host(&untraced));
        out.push(
            Metric::new("telemetry.overhead", t / u, "ratio").with_base(format!(
                "median traced pass {t:.4} s / median untraced pass {u:.4} s"
            )),
        );
        out
    } else {
        let rate: Vec<f64> = untraced.iter().map(|p| p.sim_s / p.host_s).collect();
        let yard: Vec<f64> = untraced.iter().map(|p| p.yardstick_s).collect();
        let (raw, yard) = (median(&rate), median(&yard));
        let setup: Vec<f64> = untraced.iter().map(|p| p.setup_s).collect();
        vec![
            Metric::new("setup_s", median(&setup), "s")
                .with_base(format!("median of {} set-ups", setup.len())),
            // At the reference host speed: a host whose clock runs the
            // yardstick slower ran the program slower too.
            Metric::new("sim_rate", raw * yard / yardstick::REFERENCE_S, "sim-s/s").with_base(
                format!(
                    "median of {} passes of {} sim-s: {raw:.4} sim-s/s here \
                     x yardstick {yard:.5} s / reference {} s",
                    rate.len(),
                    first.sim_s,
                    yardstick::REFERENCE_S
                ),
            ),
            // After the first pass: later passes reuse freed heap, but how
            // much fragmentation piles up depends on how many passes fit.
            Metric::new("peak_rss_mb", first.peak_rss_mb, "MB")
                .with_base("after the first pass".into()),
            Metric::new(
                "success_rate",
                1.0 - stats::ratio(first.failed as f64, first.attempted as f64),
                "fraction",
            )
            .with_base(format!(
                "{} of {} operations succeeded",
                first.attempted - first.failed,
                first.attempted
            )),
            sample_metric("ttp_p50_s", &first.ttp, 50.0),
            sample_metric("ttp_p90_s", &first.ttp, 90.0),
            sample_metric("ttr_p50_s", &first.ttr, 50.0),
            sample_metric("ttr_p90_s", &first.ttr, 90.0),
        ]
    };
    Outcome {
        correct: problems.is_empty(),
        attempted: passes.iter().map(|(_, p)| p.attempted).sum(),
        failed: passes.iter().map(|(_, p)| p.failed).sum(),
        metrics,
        problems,
        passes: passes.len(),
    }
}

fn sample_metric(name: &'static str, samples: &[f64], p: f64) -> Metric {
    let value = if samples.is_empty() {
        f64::NAN
    } else {
        percentile(samples, p)
    };
    Metric::new(name, value, "sim-s").with_base(format!("{} samples", samples.len()))
}

/// Run one workload at `seed` for about `seconds`.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let passes = match workload {
        "building" => {
            let spec = building::Spec::generate(seed);
            measure(seconds, trace, |traced| building::pass(&spec, traced))
        }
        "chaos" => {
            let spec = chaos::Spec::generate(seed);
            let setup_s = chaos::warm_up(&spec);
            let mut passes = measure(seconds, trace, |traced| chaos::pass(&spec, traced));
            for (_, p) in &mut passes {
                p.setup_s = setup_s;
            }
            let mut outcome = summarize(&passes, trace);
            if let Some(m) = outcome.metrics.iter_mut().find(|m| m.name == "setup_s") {
                m.base = Some(format!(
                    "median of {} warm-up walkthroughs, one a seed",
                    chaos::WARM_UPS
                ));
            }
            return Some(outcome);
        }
        _ => return None,
    };
    Some(summarize(&passes, trace))
}

/// The last output line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{x:?}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(problems: &[&str]) -> Pass {
        Pass {
            host_s: 1.0,
            sim_s: 1.0,
            ttp: vec![1.0],
            ttr: vec![1.0],
            attempted: 1,
            problems: problems.iter().map(|p| p.to_string()).collect(),
            ..Pass::default()
        }
    }

    #[test]
    fn sim_rate_is_scaled_to_the_reference_host_speed() {
        let slow_host = |host_s| Pass {
            host_s,
            sim_s: 10.0,
            yardstick_s: 2.0 * yardstick::REFERENCE_S,
            ..pass(&[])
        };
        let passes = [
            (false, slow_host(2.0)),
            (false, slow_host(4.0)),
            (false, slow_host(5.0)),
        ];
        let outcome = summarize(&passes, false);
        let rate = outcome.metrics.iter().find(|m| m.name == "sim_rate").unwrap();
        // The median pass ran 2.5 sim-s/s on a host half the reference speed.
        assert_eq!(rate.value, 5.0);
    }

    #[test]
    fn a_check_failing_in_a_traced_pass_fails_the_run() {
        let passes = [
            (false, pass(&[])),
            (true, pass(&["span file not written"])),
            (false, pass(&[])),
            (true, pass(&["span file not written"])),
        ];
        let outcome = summarize(&passes, true);
        assert!(!outcome.correct);
        assert_eq!(outcome.problems, ["span file not written"]);
        assert!(summarize(&passes[..1], false).correct);
    }
}
