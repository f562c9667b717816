//! Command line of the end-to-end benchmark:
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload building --seed 233 --seconds 30 --trace 0
//! ```
//!
//! Every flag is required; `BENCHMARK.json` holds the default seed and the
//! run length. Prints every metric by name with its unit, then, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero when a correctness check fails. A later
//! `--seed` overrides an earlier one, so a command line can carry a default
//! seed.

use lpc_e2ebench::{result_json, run, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |flag: &str| format!("{flag} is required");
    let args = Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    };
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds {}: expected a finite, non-negative number",
            args.seconds
        ));
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let outcome =
        run(&args.workload, args.seed, args.seconds, args.trace).expect("workload validated");
    println!(
        "{} seed={} trace={} passes={} available_parallelism={}",
        args.workload,
        args.seed,
        args.trace as u8,
        outcome.passes,
        std::thread::available_parallelism().map_or(1, |p| p.get())
    );
    for m in &outcome.metrics {
        match &m.base {
            Some(base) => println!("  {:<34} {:>14.6} {:<8} ({base})", m.name, m.value, m.unit),
            None => println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "  operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for p in &outcome.problems {
        println!("  CHECK FAILED: {p}");
    }
    println!("{}", result_json(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
