//! End-to-end determinism: the contract `aroma-lint` enforces statically
//! (DESIGN.md §14), checked dynamically over whole experiments.
//!
//! A fixed-seed experiment run twice in the same process must produce
//! **byte-identical** output — tables, notes, trace events, counters,
//! summaries — with exactly one sanctioned exception: the wall-clock
//! handler profile, whose nanos come from the `lint:allow(sim-wall-clock)`
//! sites and which `Snapshot::deterministic_eq` excludes by design. The
//! comparison here mirrors that boundary precisely: everything is
//! byte-compared after surgically deleting the `"profile"` key from the
//! rendered metrics JSON, so a nondeterminism leak anywhere else — hash
//! iteration reaching a reply, an unseeded tiebreak, a wall clock feeding a
//! metric — fails the byte diff.

use aroma_sim::report::Json;
use lpc_bench::experiments::{run_with, RunOpts};

/// Delete every `"profile"` key, anywhere in the tree. This is the ONLY
/// thing allowed to differ between same-seed runs.
fn strip_profile(j: Json) -> Json {
    match j {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "profile")
                .map(|(k, v)| (k, strip_profile(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_profile).collect()),
        other => other,
    }
}

fn run_once(id: &str) -> (String, String) {
    let out = run_with(
        id,
        RunOpts {
            quick: true,
            metrics: true,
            trace: true,
            seed: Some(233),
        },
    )
    .unwrap_or_else(|| panic!("experiment {id} missing"));
    // Tables + notes, rendered without the metrics blob…
    let mut report = String::new();
    report.push_str(out.title);
    report.push('\n');
    for (caption, table) in &out.tables {
        report.push_str(caption);
        report.push('\n');
        report.push_str(&table.render());
    }
    for note in &out.notes {
        report.push_str(note);
        report.push('\n');
    }
    // …and the full telemetry snapshot (metrics AND trace ring) with only
    // the wall-clock profile removed.
    let metrics = out
        .metrics
        .map(|m| strip_profile(m).render())
        .expect("metrics requested");
    (report, metrics)
}

/// E2 (spectrum density sweep, instrumented substrate) and E9 (chaos
/// walkthrough: crash + failover + burst loss) twice each, same process,
/// same seed: reports and telemetry must be byte-identical.
#[test]
fn e2_and_e9_are_run_to_run_byte_identical() {
    for id in ["e2", "e9"] {
        let (report_a, metrics_a) = run_once(id);
        let (report_b, metrics_b) = run_once(id);
        assert_eq!(report_a, report_b, "{id}: report diverged between runs");
        assert_eq!(
            metrics_a, metrics_b,
            "{id}: telemetry (minus wall-clock profile) diverged between runs"
        );
        // Guard the guard: a snapshot with no trace and no counters would
        // make this test vacuous.
        assert!(
            metrics_a.contains("\"trace\""),
            "{id}: trace ring missing from compared snapshot"
        );
        assert!(metrics_a.len() > 500, "{id}: suspiciously empty snapshot");
    }
}

/// The profile section really is present before stripping — i.e. this test
/// would catch a wall-clock leak *because* wall-clock data exists and is
/// confined to the one excluded section.
#[test]
fn profile_section_exists_and_is_the_only_exclusion() {
    let out = run_with(
        "e2",
        RunOpts {
            quick: true,
            metrics: true,
            trace: false,
            seed: Some(233),
        },
    )
    .unwrap();
    let metrics = out.metrics.expect("metrics requested");
    let full = metrics.clone().render();
    let stripped = strip_profile(metrics).render();
    assert!(full.contains("\"profile\""));
    assert!(!stripped.contains("\"profile\""));
    assert!(full.len() > stripped.len());
}
