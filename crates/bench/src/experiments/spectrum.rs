//! E2 — "there are many wireless devices operating in the 2.4 GHz radio
//! band, and the effect of a high concentration of these devices needs to
//! be studied."
//!
//! Co-channel device-density sweep: aggregate and per-pair goodput,
//! collision indicators, plus the orthogonal-channel-plan arm showing how
//! much spectral planning recovers.

use super::{ExperimentOutput, RunOpts};
use crate::scenarios::{run_density, run_density_traced, secs, ChannelPlan};
use aroma_net::RateAdaptation;
use aroma_sim::report::{fmt_f, Table};
use aroma_sim::telemetry::snapshot_json;

/// Run E2 with default options.
pub fn e2(quick: bool) -> ExperimentOutput {
    e2_with(RunOpts {
        quick,
        ..RunOpts::default()
    })
}

/// Run E2; with `opts.metrics` the densest co-channel point is re-run with
/// the telemetry recorder attached and its snapshot (MAC retries, drop
/// causes, handler timings) is emitted beside the sweep table.
pub fn e2_with(opts: RunOpts) -> ExperimentOutput {
    let quick = opts.quick;
    let horizon = if quick { secs(1) } else { secs(4) };
    let densities: &[usize] = if quick {
        &[1, 4, 8]
    } else {
        &[1, 2, 4, 8, 12, 16, 24]
    };
    let plans = [
        ("co-channel", ChannelPlan::AllCochannel),
        ("1/6/11 spread", ChannelPlan::OrthogonalSpread),
    ];
    let grid = aroma_sim::sweep::grid(densities, &plans);
    let results = aroma_sim::sweep::run(&grid, |i, &(pairs, (_, plan))| {
        run_density(
            pairs,
            plan,
            RateAdaptation::SnrBased,
            1000,
            horizon,
            0xE2 + i as u64,
        )
    });

    let mut t = Table::new(&[
        "pairs",
        "channel plan",
        "aggregate Mbit/s",
        "per-pair Mbit/s",
        "ACK timeouts/s",
        "retry drops",
    ]);
    for ((pairs, (plan_name, _)), r) in grid.iter().zip(&results) {
        t.row(&[
            pairs.to_string(),
            plan_name.to_string(),
            fmt_f(r.aggregate_bps / 1e6, 2),
            fmt_f(r.per_pair_bps / 1e6, 3),
            fmt_f(r.timeouts_per_s, 1),
            r.retry_drops.to_string(),
        ]);
    }

    let per_pair = |pairs: usize, plan: &str| -> f64 {
        grid.iter()
            .zip(&results)
            .find(|((d, (p, _)), _)| *d == pairs && *p == plan)
            .map(|(_, r)| r.per_pair_bps)
            .unwrap()
    };
    let solo = per_pair(densities[0], "co-channel");
    let dense = per_pair(*densities.last().unwrap(), "co-channel");
    let dense_spread = per_pair(*densities.last().unwrap(), "1/6/11 spread");

    // The snapshot comes from a recorder-attached re-run of the densest
    // co-channel point — the representative congested case — with the same
    // seed that point used in the sweep, so counters line up with the row.
    let metrics = opts.recording().then(|| {
        let idx = grid
            .iter()
            .position(|&(d, (name, _))| d == *densities.last().unwrap() && name == "co-channel")
            .expect("densest co-channel point is in the grid");
        let (_, snap) = run_density_traced(
            *densities.last().unwrap(),
            ChannelPlan::AllCochannel,
            RateAdaptation::SnrBased,
            1000,
            horizon,
            0xE2 + idx as u64,
            Some(opts.telemetry_config()),
        );
        snapshot_json(&snap.expect("recorder was attached"), opts.trace)
    });

    ExperimentOutput {
        id: "e2",
        title: "2.4 GHz device-density sweep (environment-layer congestion claim)",
        tables: vec![(
            format!(
                "saturated 1000-byte senders, {:.0}s horizon, receivers clustered:",
                horizon.as_secs_f64()
            ),
            t,
        )],
        notes: vec![
            format!(
                "per-pair goodput collapses {:.0}x from 1 to {} co-channel pairs",
                solo / dense.max(1.0),
                densities.last().unwrap()
            ),
            format!(
                "spreading over channels 1/6/11 recovers {:.1}x per-pair goodput at the highest density",
                dense_spread / dense.max(1.0)
            ),
        ],
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aroma_net::Rate;

    #[test]
    fn e2_shape_density_collapse() {
        let solo = run_density(
            1,
            ChannelPlan::AllCochannel,
            RateAdaptation::SnrBased,
            1000,
            secs(1),
            1,
        );
        let dense = run_density(
            8,
            ChannelPlan::AllCochannel,
            RateAdaptation::SnrBased,
            1000,
            secs(1),
            1,
        );
        assert!(dense.per_pair_bps < solo.per_pair_bps / 4.0);
        assert!(dense.timeouts_per_s > solo.timeouts_per_s);
    }

    #[test]
    fn e2_metrics_snapshot_rides_along() {
        let out = e2_with(RunOpts {
            quick: true,
            metrics: true,
            ..RunOpts::default()
        });
        let rendered = out.render();
        assert!(rendered.contains("metrics: {"));
        assert!(rendered.contains("net.mac.tx_attempts"));
        assert!(rendered.contains("\"profile\""));
        assert!(
            rendered.contains("\"trace_len\""),
            "no trace embedded without --trace"
        );
        // Default runs carry no snapshot and render without the block.
        assert!(e2(true).metrics.is_none());
    }

    #[test]
    fn e2_shape_channel_spread_helps() {
        let co = run_density(
            6,
            ChannelPlan::AllCochannel,
            RateAdaptation::SnrBased,
            1000,
            secs(1),
            2,
        );
        let spread = run_density(
            6,
            ChannelPlan::OrthogonalSpread,
            RateAdaptation::SnrBased,
            1000,
            secs(1),
            2,
        );
        assert!(
            spread.aggregate_bps > 1.5 * co.aggregate_bps,
            "spread {} vs co {}",
            spread.aggregate_bps,
            co.aggregate_bps
        );
    }

    #[test]
    fn ablation_fixed_rate_underperforms_adaptive_on_clean_links() {
        // With one clean pair, fixed 1 Mbps leaves most capacity unused.
        let fixed1 = run_density(
            1,
            ChannelPlan::AllCochannel,
            RateAdaptation::Fixed(Rate::R1),
            1000,
            secs(1),
            3,
        );
        let adaptive = run_density(
            1,
            ChannelPlan::AllCochannel,
            RateAdaptation::SnrBased,
            1000,
            secs(1),
            3,
        );
        assert!(adaptive.aggregate_bps > 3.0 * fixed1.aggregate_bps);
    }
}
