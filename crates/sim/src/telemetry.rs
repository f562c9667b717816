//! Re-export of the `aroma-telemetry` recorder plus JSON rendering.
//!
//! `aroma-telemetry` is a dependency leaf (it cannot see [`crate::report`]),
//! so the substrate crates reach it through this module and the JSON glue
//! lives here: [`snapshot_json`] turns a [`Snapshot`] into the same
//! [`Json`] tree the experiment harnesses already emit.

pub use aroma_telemetry::*;

use crate::report::Json;

/// Render a snapshot as JSON. `include_trace` controls whether the (possibly
/// large) trace ring is embedded; metrics, the dropped-events counter and
/// the handler profile are always included.
pub fn snapshot_json(snap: &Snapshot, include_trace: bool) -> Json {
    let counters = Json::Obj(
        snap.counters
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::from(v)))
            .collect(),
    );
    let gauges = Json::Obj(
        snap.gauges
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::from(v)))
            .collect(),
    );
    let summaries = Json::Obj(
        snap.summaries
            .iter()
            .map(|s| {
                (
                    s.name.to_string(),
                    Json::obj(vec![
                        ("count", Json::from(s.count)),
                        ("mean", Json::from(s.mean)),
                        ("std_dev", Json::from(s.std_dev)),
                        ("min", opt_num(s.min)),
                        ("max", opt_num(s.max)),
                    ]),
                )
            })
            .collect(),
    );
    let profile = Json::Arr(
        snap.profile
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("handler", Json::from(p.name)),
                    ("calls", Json::from(p.calls)),
                    ("total_us", Json::from(p.total_nanos as f64 / 1e3)),
                    ("mean_ns", Json::from(p.mean_nanos)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("counters", counters),
        ("gauges", gauges),
        ("summaries", summaries),
        ("profile", profile),
        ("trace_dropped", Json::from(snap.trace_dropped)),
    ];
    if include_trace {
        fields.push((
            "trace",
            Json::Arr(snap.trace.iter().map(trace_event_json).collect()),
        ));
    } else {
        fields.push(("trace_len", Json::from(snap.trace.len())));
    }
    Json::obj(fields)
}

fn trace_event_json(ev: &TraceEvent) -> Json {
    Json::obj(vec![
        ("t_ns", Json::from(ev.t_nanos)),
        ("layer", Json::from(ev.layer.label())),
        ("name", Json::from(ev.name)),
        ("node", Json::from(ev.node as u64)),
        ("a", Json::Num(ev.a as f64)),
        ("b", Json::Num(ev.b as f64)),
    ])
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_to_json() {
        let mut t = Telemetry::enabled(TelemetryConfig::default());
        t.count("mac.retries", 3);
        t.observe("svc", 2.0);
        t.event(10, Layer::Resource, "mac.tx", 4, 1, 0);
        t.profile("MacTick", 500);
        let snap = t.snapshot().unwrap();

        let without = snapshot_json(&snap, false).render();
        assert!(without.contains("\"mac.retries\":3"));
        assert!(without.contains("\"trace_len\":1"));
        assert!(!without.contains("\"mac.tx\""));

        let with = snapshot_json(&snap, true).render();
        assert!(with.contains("\"mac.tx\""));
        assert!(with.contains("\"resource\""));
        assert!(with.contains("\"MacTick\""));
    }
}
