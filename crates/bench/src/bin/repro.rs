//! Regenerate the paper's figures and experiments.
//!
//! ```text
//! repro all            # every experiment, full sweeps
//! repro e2 e4          # selected experiments
//! repro --quick all    # reduced sweeps (what the test suite runs)
//! repro --json all     # archival JSON instead of tables
//! repro --metrics e2   # attach the telemetry recorder, emit a metrics snapshot
//! repro --trace e2     # as --metrics plus the structured trace ring
//! repro --experiment e9 --seed 7   # one experiment, with a seed override
//! repro --list         # list experiment ids and titles
//! repro bench          # checker + mcode sweeps, APPENDED to BENCH_check.json / BENCH_mcode.json
//! repro bench --scaling  # scaling-only sweep, APPENDED to BENCH_check.json
//! repro bench --discovery  # lease-table scaling sweep, APPENDED to BENCH_disc.json
//! repro bench --fanout  # broadcast fan-out sweep, APPENDED to BENCH_fanout.json
//! repro fanout-smoke   # deterministic fan-out digest line (check.sh double-runs it)
//! ```

use lpc_bench::experiments::{self, RunOpts, ALL_IDS};
use std::path::Path;

const USAGE: &str = "usage: repro [--quick] [--json] [--metrics] [--trace] [--seed N] [--list] \
                     [--scaling] [--discovery] [--fanout] [--experiment <id>] \
                     <all|bench|fanout-smoke|f1..f5|e1..e11>...";

/// Append one entry to a `BENCH_*.json` ledger (see
/// [`lpc_bench::append_bench_entry`]); a failed read or write ends the run.
fn append_bench_entry(path: &str, entry: &str) {
    if let Err(e) = lpc_bench::append_bench_entry(Path::new(path), entry) {
        panic!("append to {path}: {e}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = RunOpts::default();
    let mut json = false;
    let mut scaling = false;
    let mut discovery = false;
    let mut fanout = false;
    let mut ids: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        let a = &args[i];
        i += 1;
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--json" => json = true,
            "--scaling" => scaling = true,
            "--discovery" => discovery = true,
            "--fanout" => fanout = true,
            "--metrics" => opts.metrics = true,
            "--trace" => opts.trace = true,
            // `--seed N` and `--experiment <id>` take a value argument.
            "--seed" | "--experiment" => {
                let Some(v) = args.get(i) else {
                    eprintln!("{} needs a value\n{USAGE}", a);
                    std::process::exit(2);
                };
                i += 1;
                if a == "--seed" {
                    match v.parse::<u64>() {
                        Ok(s) => opts.seed = Some(s),
                        Err(_) => {
                            eprintln!("--seed wants an unsigned integer, got {v:?}\n{USAGE}");
                            std::process::exit(2);
                        }
                    }
                } else {
                    ids.push(v.clone());
                }
            }
            "--list" => {
                for id in ALL_IDS {
                    let out = experiments::run(id, true).expect("registered id");
                    println!("{id}  {}", out.title);
                }
                return;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    // `fanout-smoke` prints one fully deterministic line for a fixed-seed
    // broadcast run — `scripts/check.sh` runs it twice and byte-diffs the
    // output (the same gate `--fanout`'s scale points apply internally).
    if ids.iter().any(|id| id == "fanout-smoke") {
        if ids.len() > 1 {
            eprintln!("`fanout-smoke` runs alone");
            std::process::exit(2);
        }
        let seed = opts.seed.unwrap_or(233);
        let viewers = if opts.quick { 100 } else { 1_000 };
        println!("{}", lpc_bench::fanoutbench::smoke_line(viewers, seed));
        return;
    }
    // `bench` is not an experiment: it measures the model checker's
    // thread scaling (plus the E9 recovery times) and the mobile-code
    // execution tiers, appending to BENCH_check.json and BENCH_mcode.json
    // in the current directory.
    if ids.iter().any(|id| id == "bench") {
        if ids.len() > 1 {
            eprintln!("`bench` runs alone (it owns the whole machine while timing)");
            std::process::exit(2);
        }
        // Scaling mode: sweep only the checker and *append* the entry, so
        // BENCH_check.json accumulates a trajectory across engine changes
        // instead of overwriting its history.
        if scaling {
            let doc = lpc_bench::checkbench::run_scaling(opts.quick);
            let text = doc.render();
            append_bench_entry("BENCH_check.json", &text);
            println!("{text}");
            eprintln!("appended scaling entry to BENCH_check.json");
            return;
        }
        // Discovery mode: sweep the lease table at 10^4..10^6 leases and
        // *append* to BENCH_disc.json, same trajectory-accumulation
        // contract as --scaling.
        if discovery {
            let doc = lpc_bench::discbench::run(opts.quick);
            let text = doc.render();
            append_bench_entry("BENCH_disc.json", &text);
            println!("{text}");
            eprintln!("appended discovery entry to BENCH_disc.json");
            return;
        }
        // Fan-out mode: broadcast scaling sweep (1 server → 10..10k
        // viewers), *appended* to BENCH_fanout.json, same trajectory-
        // accumulation contract as --scaling/--discovery.
        if fanout {
            let doc = lpc_bench::fanoutbench::run(opts.quick);
            let text = doc.render();
            append_bench_entry("BENCH_fanout.json", &text);
            println!("{text}");
            eprintln!("appended fan-out entry to BENCH_fanout.json");
            return;
        }
        let doc = lpc_bench::checkbench::run(opts.quick);
        let text = doc.render();
        append_bench_entry("BENCH_check.json", &text);
        println!("{text}");
        eprintln!("appended entry to BENCH_check.json");
        let doc = lpc_bench::mcodebench::run(opts.quick);
        let text = doc.render();
        append_bench_entry("BENCH_mcode.json", &text);
        println!("{text}");
        eprintln!("appended entry to BENCH_mcode.json");
        return;
    }
    for id in &ids {
        if experiments::run_exists(id) {
            continue;
        }
        eprintln!("unknown experiment id: {id}");
        std::process::exit(2);
    }

    // Experiments are independent; run them concurrently but print in the
    // requested order as results arrive (a worker per experiment, results
    // funnelled over a channel, reordered by index).
    let outputs = parking_lot::Mutex::new(vec![None; ids.len()]);
    let (tx, rx) = crossbeam::channel::unbounded::<usize>();
    crossbeam::thread::scope(|scope| {
        for (i, id) in ids.iter().enumerate() {
            let tx = tx.clone();
            let outputs = &outputs;
            scope.spawn(move |_| {
                let out = experiments::run_with(id, opts).expect("validated above");
                outputs.lock()[i] = Some(out);
                let _ = tx.send(i);
            });
        }
        drop(tx);
        let mut done = vec![false; ids.len()];
        let mut next = 0usize;
        let mut json_outputs = Vec::new();
        while let Ok(i) = rx.recv() {
            done[i] = true;
            while next < ids.len() && done[next] {
                let out = outputs.lock()[next].take().expect("marked done");
                if json {
                    json_outputs.push(out.json());
                } else {
                    println!("{}", out.render());
                }
                next += 1;
            }
        }
        if json {
            println!("{}", aroma_sim::report::Json::Arr(json_outputs).render());
        }
    })
    .expect("experiment worker panicked");
}
