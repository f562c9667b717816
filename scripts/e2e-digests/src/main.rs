//! Pass digests of the end-to-end benchmark's workloads: one line per
//! workload, seed and mode (untraced, traced). `scripts/check.sh` diffs the
//! output against the committed `expected.txt`, so a change that claims to
//! leave every simulated output unchanged is held to it. A change that
//! moves simulated output on purpose regenerates that file and says why.
//!
//! ```text
//! cargo run --release --offline --quiet \
//!     --manifest-path scripts/e2e-digests/Cargo.toml > scripts/e2e-digests/expected.txt
//! ```

use lpc_e2ebench::{building, chaos};

/// The seeds every workload is pinned at.
const SEEDS: [u64; 3] = [233, 4242, 977];

fn main() {
    for seed in SEEDS {
        let spec = building::Spec::generate(seed);
        for traced in [false, true] {
            print_digest(
                "building",
                seed,
                traced,
                building::pass(&spec, traced).digest,
            );
        }
    }
    for seed in SEEDS {
        let spec = chaos::Spec::generate(seed);
        for traced in [false, true] {
            print_digest("chaos", seed, traced, chaos::pass(&spec, traced).digest);
        }
    }
}

fn print_digest(workload: &str, seed: u64, traced: bool, digest: u64) {
    let mode = if traced { "traced" } else { "untraced" };
    println!("{workload} seed={seed} {mode} {digest:016x}");
}
