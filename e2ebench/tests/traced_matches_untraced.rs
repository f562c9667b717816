//! Tracing must not change what is simulated: a traced pass and an
//! untraced pass of the same seed give the same digest and the same
//! simulated-time samples, and both pass every correctness check.

use lpc_e2ebench::{building, chaos, Pass};

fn assert_same(untraced: &Pass, traced: &Pass) {
    assert!(
        untraced.problems.is_empty(),
        "untraced checks failed: {:?}",
        untraced.problems
    );
    assert!(
        traced.problems.is_empty(),
        "traced checks failed: {:?}",
        traced.problems
    );
    assert_eq!(untraced.digest, traced.digest, "digests differ");
    assert_eq!(
        untraced.ttp, traced.ttp,
        "time-to-projecting samples differ"
    );
    assert_eq!(untraced.ttr, traced.ttr, "time-to-recover samples differ");
    assert_eq!(
        (untraced.attempted, untraced.failed),
        (traced.attempted, traced.failed)
    );
    assert_eq!(untraced.sim_s, traced.sim_s);
    assert!(
        untraced.layers.is_empty(),
        "untraced passes report no layers"
    );
    assert!(
        !traced.layers.is_empty(),
        "traced passes report every layer"
    );
    assert!(
        !untraced.ttp.is_empty() && !untraced.ttr.is_empty(),
        "no samples"
    );
}

#[test]
fn building_traced_pass_simulates_the_same_building() {
    let spec = building::Spec::sized(11, 2, 3);
    assert_same(&building::pass(&spec, false), &building::pass(&spec, true));
}

#[test]
fn chaos_traced_pass_simulates_the_same_storms() {
    let spec = chaos::Spec::sized(11, 2);
    assert_same(&chaos::pass(&spec, false), &chaos::pass(&spec, true));
}

#[test]
fn worlds_are_a_pure_function_of_the_seed() {
    let (a, b, c) = (
        building::Spec::sized(5, 2, 3),
        building::Spec::sized(5, 2, 3),
        building::Spec::sized(6, 2, 3),
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_ne!(format!("{a:?}"), format!("{c:?}"));
    assert_ne!(
        chaos::Spec::sized(5, 2).seeds,
        chaos::Spec::sized(6, 2).seeds
    );
}
