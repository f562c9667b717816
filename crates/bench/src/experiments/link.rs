//! E1 — "the relatively low bandwidth of current wireless networking
//! adapters … prevents us from displaying rapid animation."
//!
//! VNC frame rate and goodput per screen workload per link rate. The paper
//! shape: slides are fine everywhere; animation collapses at 2 Mbit/s-class
//! rates and becomes usable at 11 Mbit/s; incompressible video is hopeless
//! on any 2.4 GHz DSSS rate.

use super::ExperimentOutput;
use crate::scenarios::{fixed, run_vnc, secs, Workload};
use aroma_net::{Rate, RateAdaptation};
use aroma_sim::report::{fmt_f, Table};

/// Run E1.
pub fn e1(quick: bool) -> ExperimentOutput {
    let horizon = if quick { secs(2) } else { secs(8) };
    let (w, h) = if quick { (320, 240) } else { (640, 480) };
    let arms: [(&str, RateAdaptation); 4] = [
        ("1 Mbps", fixed(Rate::R1)),
        ("2 Mbps", fixed(Rate::R2)),
        ("11 Mbps", fixed(Rate::R11)),
        ("adaptive", RateAdaptation::SnrBased),
    ];
    let grid = aroma_sim::sweep::grid(&Workload::ALL, &arms);
    let results = aroma_sim::sweep::run(&grid, |i, &(wl, (_, adapt))| {
        run_vnc(wl, adapt, w, h, horizon, 0xE1 + i as u64)
    });

    let mut t = Table::new(&[
        "workload",
        "link rate",
        "updates/s",
        "goodput Mbit/s",
        "mean latency ms",
        "recoveries",
    ]);
    for ((wl, (rate_name, _)), r) in grid.iter().zip(&results) {
        t.row(&[
            wl.label().to_string(),
            rate_name.to_string(),
            fmt_f(r.achieved_fps, 1),
            fmt_f(r.goodput_bps / 1e6, 2),
            fmt_f(r.mean_latency_s * 1e3, 1),
            r.recoveries.to_string(),
        ]);
    }
    // Shape notes computed from the data so EXPERIMENTS.md records
    // measured claims, not hopes.
    let fps_of = |wl: Workload, rate: &str| -> f64 {
        grid.iter()
            .zip(&results)
            .find(|((w2, (r2, _)), _)| *w2 == wl && *r2 == rate)
            .map(|(_, r)| r.achieved_fps)
            .unwrap()
    };
    let anim2 = fps_of(Workload::Animation, "2 Mbps");
    let anim11 = fps_of(Workload::Animation, "11 Mbps");
    let slides2 = fps_of(Workload::Slides, "2 Mbps");
    let noise2 = fps_of(Workload::NoiseVideo, "2 Mbps");
    let noise11 = fps_of(Workload::NoiseVideo, "11 Mbps");
    ExperimentOutput {
        id: "e1",
        title: "VNC frame rate vs workload vs link rate (physical-layer bandwidth claim)",
        tables: vec![(
            format!(
                "{}×{} RGB565 screen, {}s horizon, clean 5 m link:",
                w,
                h,
                horizon.as_secs_f64()
            ),
            t,
        )],
        notes: vec![
            format!(
                "box animation at 2 Mbps: {anim2:.1} updates/s vs {anim11:.1} at 11 Mbps ({:.1}x)",
                anim11 / anim2.max(0.01)
            ),
            format!(
                "full-motion (noise) video: {noise2:.2} fps at 2 Mbps vs {noise11:.2} fps at 11 Mbps — 'rapid animation' is unwatchable on the slow rates, exactly the paper's physical-layer finding"
            ),
            format!(
                "slides sustain {slides2:.1} updates/s even at 2 Mbps — static content is cheap"
            ),
        ],
        metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_shape_animation_collapses_on_slow_links() {
        let out = e1(true);
        let table = &out.tables[0].1;
        assert_eq!(table.len(), 12);
        // The notes embed the measured ratio; recompute the core shape here.
        let r2 = run_vnc(Workload::Animation, fixed(Rate::R2), 320, 240, secs(2), 1);
        let r11 = run_vnc(Workload::Animation, fixed(Rate::R11), 320, 240, secs(2), 1);
        assert!(
            r11.achieved_fps > 2.0 * r2.achieved_fps,
            "11 Mbps {} vs 2 Mbps {}",
            r11.achieved_fps,
            r2.achieved_fps
        );
    }

    #[test]
    fn e1_shape_noise_video_is_worst() {
        let noise = run_vnc(Workload::NoiseVideo, fixed(Rate::R11), 320, 240, secs(2), 2);
        let slides = run_vnc(Workload::Slides, fixed(Rate::R11), 320, 240, secs(2), 2);
        assert!(slides.achieved_fps > 2.0 * noise.achieved_fps);
    }
}
