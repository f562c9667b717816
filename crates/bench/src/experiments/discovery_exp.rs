//! E3 — "the ability to automatically discover the projector service is
//! implemented using Jini and relies on having a Jini lookup service
//! present."
//!
//! Three sub-experiments: (a) time-to-service vs how many other services
//! are registered; (b) availability: registrar present / absent / crashed
//! then restarted; (c) lease-duration churn: renewal traffic vs lease
//! length.

use super::ExperimentOutput;
use crate::scenarios::{clean_env, secs};
use aroma_discovery::apps::{ClientApp, ProviderApp, RegistrarApp};
use aroma_discovery::codec::{ServiceId, ServiceItem, Template};
use aroma_env::space::Point;
use aroma_net::{MacConfig, Network, NodeConfig};
use aroma_sim::report::{fmt_f, Table};
use aroma_sim::SimDuration;
use bytes::Bytes;

fn item(id: u64, kind: &str) -> ServiceItem {
    ServiceItem {
        id: ServiceId(id),
        kind: kind.into(),
        attributes: vec![("room".into(), format!("R-{id}"))],
        provider: 0,
        proxy: Bytes::from_static(b"proxy"),
    }
}

/// One time-to-service measurement with `background` extra services.
fn time_to_service_ms(background: usize, seed: u64) -> Option<f64> {
    let mut net = Network::new(clean_env(), MacConfig::default(), seed);
    let _reg = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_secs(30))),
    );
    // Background providers with other service kinds.
    for i in 0..background {
        let angle = i as f64 / background.max(1) as f64 * std::f64::consts::TAU;
        let (s, c) = angle.sin_cos();
        net.add_node(
            NodeConfig::at(Point::new(6.0 * c, 6.0 * s)),
            Box::new(ProviderApp::new(item(100 + i as u64, "sensor/misc"), 20_000)),
        );
    }
    let _wanted = net.add_node(
        NodeConfig::at(Point::new(3.0, 0.0)),
        Box::new(ProviderApp::new(item(1, "projector/display"), 20_000)),
    );
    let client = net.add_node(
        NodeConfig::at(Point::new(0.0, 3.0)),
        Box::new(ClientApp::new(Template::of_kind("projector/display"))),
    );
    net.run_for(secs(10));
    let c = net.app_as::<ClientApp>(client).unwrap();
    c.service_found_at.map(|t| t.as_millis() as f64)
}

/// Availability run: returns (found_before_crash, found_after_restart).
fn availability(seed: u64) -> (bool, bool, bool) {
    // Arm 1: registrar present the whole time.
    let present = time_to_service_ms(0, seed).is_some();

    // Arm 2: registrar absent (crashed from t=0).
    let absent = {
        let mut net = Network::new(clean_env(), MacConfig::default(), seed + 1);
        let reg = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(RegistrarApp::new(SimDuration::from_secs(30))),
        );
        net.add_node(
            NodeConfig::at(Point::new(3.0, 0.0)),
            Box::new(ProviderApp::new(item(1, "projector/display"), 20_000)),
        );
        let client = net.add_node(
            NodeConfig::at(Point::new(0.0, 3.0)),
            Box::new(ClientApp::new(Template::of_kind("projector/display"))),
        );
        net.app_as_mut::<RegistrarApp>(reg).unwrap().crash();
        net.run_for(secs(5));
        net.app_as::<ClientApp>(client)
            .unwrap()
            .service_found_at
            .is_some()
    };

    // Arm 3: crash at 2 s, restart at 4 s, recovery expected.
    let recovered = {
        let mut net = Network::new(clean_env(), MacConfig::default(), seed + 2);
        let reg = net.add_node(
            NodeConfig::at(Point::new(0.0, 0.0)),
            Box::new(RegistrarApp::new(SimDuration::from_secs(5))),
        );
        net.add_node(
            NodeConfig::at(Point::new(3.0, 0.0)),
            Box::new(ProviderApp::new(item(1, "projector/display"), 20_000)),
        );
        net.run_for(secs(2));
        net.app_as_mut::<RegistrarApp>(reg).unwrap().crash();
        net.run_for(secs(2));
        net.app_as_mut::<RegistrarApp>(reg).unwrap().restart();
        net.run_for(secs(10));
        net.app_as::<RegistrarApp>(reg).unwrap().registry.len() == 1
    };
    (present, absent, recovered)
}

/// Lease churn: renewals per minute vs lease duration.
fn lease_churn(lease_ms: u64, seed: u64) -> f64 {
    let mut net = Network::new(clean_env(), MacConfig::default(), seed);
    let reg = net.add_node(
        NodeConfig::at(Point::new(0.0, 0.0)),
        Box::new(RegistrarApp::new(SimDuration::from_millis(lease_ms))),
    );
    for i in 0..5 {
        net.add_node(
            NodeConfig::at(Point::new(2.0 + i as f64, 0.0)),
            Box::new(ProviderApp::new(item(i as u64, "sensor/misc"), lease_ms)),
        );
    }
    let horizon = secs(30);
    net.run_for(horizon);
    let r = net.app_as::<RegistrarApp>(reg).unwrap();
    r.renewals as f64 / horizon.as_secs_f64() * 60.0
}

/// Run E3.
pub fn e3(quick: bool) -> ExperimentOutput {
    let backgrounds: &[usize] = if quick { &[0, 10] } else { &[0, 5, 10, 20, 40] };
    let seeds_per_point: u64 = if quick { 2 } else { 10 };
    let seeds: Vec<u64> = (0..seeds_per_point).collect();
    let grid = aroma_sim::sweep::grid(backgrounds, &seeds);
    let tts = aroma_sim::sweep::run(&grid, |i, &(b, s)| {
        time_to_service_ms(b, 0xE3 + s * 1000 + i as u64)
    });
    let mut t1 = Table::new(&["background services", "mean time-to-service (ms)", "found"]);
    for &b in backgrounds {
        let samples: Vec<f64> = grid
            .iter()
            .zip(&tts)
            .filter(|((b2, _), _)| *b2 == b)
            .filter_map(|(_, ms)| *ms)
            .collect();
        let found = samples.len();
        let mean = if samples.is_empty() {
            f64::NAN
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        t1.row(&[
            b.to_string(),
            if mean.is_nan() { "—".into() } else { fmt_f(mean, 0) },
            format!("{found}/{seeds_per_point}"),
        ]);
    }

    let (present, absent, recovered) = availability(0x3A);
    let mut t2 = Table::new(&["scenario", "service usable"]);
    t2.row(&["lookup service present".into(), present.to_string()]);
    t2.row(&["lookup service absent".into(), absent.to_string()]);
    t2.row(&[
        "crash at 2s, restart at 4s (re-registration)".into(),
        recovered.to_string(),
    ]);

    let leases: &[u64] = if quick { &[2_000, 10_000] } else { &[1_000, 2_000, 5_000, 10_000, 30_000] };
    let churn = aroma_sim::sweep::run(leases, |i, &l| lease_churn(l, 0xE3C + i as u64));
    let mut t3 = Table::new(&["lease (ms)", "renewals/min (5 providers)"]);
    for (l, c) in leases.iter().zip(&churn) {
        t3.row(&[l.to_string(), fmt_f(*c, 1)]);
    }

    ExperimentOutput {
        id: "e3",
        title: "service discovery: latency, availability, lease churn (resource-layer dependency)",
        tables: vec![
            ("(a) time-to-service vs registrar load:".into(), t1),
            ("(b) availability under registrar failure:".into(), t2),
            ("(c) lease-duration vs renewal traffic:".into(), t3),
        ],
        notes: vec![
            "nothing is discoverable without the lookup service — the paper's dependency made falsifiable".into(),
            "shorter leases mean faster failure detection but proportionally more renewal traffic".into(),
        ],
        metrics: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_availability_shape() {
        let (present, absent, recovered) = availability(7);
        assert!(present);
        assert!(!absent);
        assert!(recovered);
    }

    #[test]
    fn e3_lease_churn_monotone() {
        let short = lease_churn(1_000, 1);
        let long = lease_churn(10_000, 1);
        assert!(
            short > 3.0 * long,
            "1 s leases should renew far more often: {short} vs {long}"
        );
    }

    #[test]
    fn e3_time_to_service_found_quickly() {
        let ms = time_to_service_ms(0, 5).expect("service must be found");
        assert!(ms < 3_000.0, "{ms} ms");
    }
}
