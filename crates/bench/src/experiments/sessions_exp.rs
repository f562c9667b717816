//! E4 — session objects: hijacks, lockouts, and the auto-expiry mechanism.
//!
//! The paper: session objects "ensure that another user cannot
//! inadvertently 'hijack' either the use or control of the projector", and
//! mechanisms are needed for "users who forget to relinquish control …
//! without relying on a system administrator to intervene". N presenters
//! contend for the projector under three policies; one of them always
//! forgets to release.

use super::ExperimentOutput;
use crate::scenarios::{clean_env, secs};
use aroma_discovery::apps::RegistrarApp;
use aroma_env::space::Point;
use aroma_net::{MacConfig, Network, NodeConfig, NodeId};
use aroma_sim::report::{fmt_f, Table};
use aroma_sim::SimDuration;
use aroma_vnc::SlideDeck;
use smart_projector::laptop::{PresenterLaptopApp, PresenterScript};
use smart_projector::session::SessionPolicy;
use smart_projector::{AcquireOrder, SmartProjectorApp};

/// Outcome of one contention run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ContentionResult {
    /// Session hijacks observed (projection + control).
    pub hijacks: u64,
    /// Presenters who never got to present.
    pub locked_out: usize,
    /// Total acquisition refusals.
    pub denials: u64,
    /// Mean time from arrival to presenting, seconds (completers only).
    pub mean_wait_s: f64,
}

/// Run `presenters` staggered presenters under `policy` for `horizon`; the
/// first presenter forgets to release.
pub fn run_contention(
    presenters: usize,
    policy: SessionPolicy,
    horizon: SimDuration,
    seed: u64,
) -> ContentionResult {
    let mut net = Network::new(clean_env(), MacConfig::default(), seed);
    let _registrar = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(60))),
    );
    let projector = net.add_node(
        NodeConfig::at(Point::new(3.0, 0.0)),
        Box::new(SmartProjectorApp::new(160, 128, policy, "A-101")),
    );
    let laptops: Vec<NodeId> = (0..presenters)
        .map(|i| {
            let script = PresenterScript {
                start_after: SimDuration::from_secs(3 * i as u64),
                order: if i % 2 == 0 {
                    AcquireOrder::ProjectionFirst
                } else {
                    AcquireOrder::ControlFirst
                },
                present_for: SimDuration::from_secs(6),
                release_on_finish: i != 0, // the first one forgets
                ..Default::default()
            };
            net.add_node(
                NodeConfig::at(Point::new(1.0 + i as f64, 3.0)),
                Box::new(PresenterLaptopApp::new(
                    script,
                    160,
                    128,
                    Box::new(SlideDeck::new(10.0)),
                )),
            )
        })
        .collect();
    net.run_for(horizon);

    let proj = net.app_as::<SmartProjectorApp>(projector).unwrap();
    let hijacks = proj.projection_sessions.stats.hijacks + proj.control_sessions.stats.hijacks;
    let mut locked_out = 0usize;
    let mut denials = 0u64;
    let mut waits: Vec<f64> = Vec::new();
    for (i, &l) in laptops.iter().enumerate() {
        let app = net.app_as::<PresenterLaptopApp>(l).unwrap();
        denials += app.denials as u64;
        match app.projecting_at {
            Some(t) => {
                let arrival = 3.0 * i as f64;
                waits.push(t.as_secs_f64() - arrival);
            }
            None => locked_out += 1,
        }
    }
    ContentionResult {
        hijacks,
        locked_out,
        denials,
        mean_wait_s: if waits.is_empty() {
            f64::NAN
        } else {
            waits.iter().sum::<f64>() / waits.len() as f64
        },
    }
}

/// Run E4.
pub fn e4(quick: bool) -> ExperimentOutput {
    let horizon = if quick { secs(30) } else { secs(90) };
    let presenter_counts: &[usize] = if quick { &[3] } else { &[2, 4, 6] };
    let policies = [
        ("no sessions", SessionPolicy::None),
        ("sessions, manual release", SessionPolicy::ManualRelease),
        (
            "sessions + 8 s auto-expiry",
            SessionPolicy::AutoExpire {
                idle: SimDuration::from_secs(8),
            },
        ),
    ];
    let grid = aroma_sim::sweep::grid(presenter_counts, &policies);
    let results = aroma_sim::sweep::run(&grid, |i, &(n, (_, policy))| {
        run_contention(n, policy, horizon, 0xE4 + i as u64)
    });

    let mut t = Table::new(&[
        "presenters",
        "policy",
        "hijacks",
        "locked out",
        "denials",
        "mean wait s",
    ]);
    for ((n, (pname, _)), r) in grid.iter().zip(&results) {
        t.row(&[
            n.to_string(),
            pname.to_string(),
            r.hijacks.to_string(),
            r.locked_out.to_string(),
            r.denials.to_string(),
            if r.mean_wait_s.is_nan() {
                "—".into()
            } else {
                fmt_f(r.mean_wait_s, 1)
            },
        ]);
    }
    ExperimentOutput {
        id: "e4",
        title: "session objects under contention (abstract-layer mechanisms)",
        tables: vec![(
            format!(
                "staggered arrivals every 3 s, first presenter forgets to release, {:.0}s horizon:",
                horizon.as_secs_f64()
            ),
            t,
        )],
        notes: vec![
            "no sessions → hijacks; manual release → lockouts behind the forgetful presenter;".into(),
            "auto-expiry eliminates both without an administrator — the mechanism the paper calls for".into(),
        ],
        metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e4_shape_policies() {
        let horizon = secs(40);
        let none = run_contention(3, SessionPolicy::None, horizon, 1);
        let manual = run_contention(3, SessionPolicy::ManualRelease, horizon, 1);
        let auto = run_contention(
            3,
            SessionPolicy::AutoExpire {
                idle: SimDuration::from_secs(8),
            },
            horizon,
            1,
        );
        assert!(none.hijacks >= 1, "no sessions must allow hijack");
        assert_eq!(manual.hijacks, 0);
        assert_eq!(auto.hijacks, 0);
        assert!(
            manual.locked_out >= 1,
            "forgetful presenter must lock others out under manual release"
        );
        assert_eq!(
            auto.locked_out, 0,
            "auto-expiry must let everyone through eventually"
        );
    }
}
