#!/usr/bin/env bash
# Full local gate: release build, test suite, warning-free clippy,
# warning-free rustdoc (so no intra-doc link dangles), every Criterion
# stub bench function run once (`CRITERION_STUB_MS=0 cargo bench -p
# lpc-bench`, so the 20 bench targets build and run), the model checker
# in smoke mode (bounded exhaustive sweep of the session, lease, and
# registrar-replication protocols — see DESIGN.md §9/§15) run
# sequentially and with 2 and 4 workers and diffed (the sharded engine's
# determinism contract, DESIGN.md §12), one traced smoke experiment
# exercising the telemetry pipeline end to end (DESIGN.md §10), the
# fixed-seed E9 chaos walkthrough — every layer recovered within its
# deadline, zero stale lookups through the registrar-churn storm, and the
# whole report byte-identical across two runs (DESIGN.md §11/§15) — the
# optimizer-validation smoke gate: optimize the shipped brightness
# registration and diff its results against the unoptimized program on
# three seed-driven input sweeps (DESIGN.md §13), and the aroma-lint
# determinism gate: zero unwaived nondet-order or sim-purity findings
# across the workspace, every waiver carrying a reason (DESIGN.md §14), and
# the end-to-end benchmark's own tests plus one short traced run of each of
# its workloads (e2ebench/README.md), and the exactness gate: `repro all`
# must print the committed repro_full_output.txt byte for byte, so an
# optimization that claims to leave the simulated output unchanged
# (DESIGN.md §6) is held to it.
# Run from the repository root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Doc gate: every intra-doc link resolves, so deleting or renaming an item
# cannot leave a doc comment pointing at nothing.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# Bench smoke: a zero budget makes the Criterion stub run each bench
# function for a single iteration, so an API change that breaks a bench
# target, or a bench that panics, fails the gate.
CRITERION_STUB_MS=0 cargo bench -p lpc-bench

# Parallel-determinism gate: the 50k-state smoke sweep must print the
# byte-identical report at 1, 2, and 4 workers (only the
# wall-clock-dependent transitions/s figure is stripped before the diff).
strip_rates='s/([0-9]* transitions\/s)//; s/, [0-9]* worker(s))/)/'
seq_out=$(cargo run --release --example model_check -- --max-states 50000 --workers 1 \
  | sed "$strip_rates")
for workers in 2 4; do
  par_out=$(cargo run --release --example model_check -- --max-states 50000 --workers "$workers" \
    | sed "$strip_rates")
  diff <(printf '%s\n' "$seq_out") <(printf '%s\n' "$par_out") \
    || { echo "FAIL: model-check report at $workers workers diverges from sequential"; exit 1; }
done
printf '%s\n' "$seq_out" | grep -q 'model_check: all protocol properties verified'
# The smoke sweep must include the replication model with zero violations
# (the PR 9 safety gate: at-most-one-active-primary, no-committed-lease-
# lost, no-stale-lookup over the bounded interleaving sweep).
printf '%s\n' "$seq_out" | grep -q 'replication protocol'

# Capture before grepping: `… | grep -q` closes the pipe at the first
# match and the producer's remaining println!s die on EPIPE — a race that
# fails the gate on output that is actually correct.
e2_out=$(cargo run --release -p lpc-bench --bin repro -- --quick --metrics e2)
grep -q '"net.mac.tx_attempts"' <<<"$e2_out"
e9_out=$(cargo run --release -p lpc-bench --bin repro -- --experiment e9 --seed 233)
grep -q 'chaos recovery: all layers within deadline' <<<"$e9_out"
# Registrar-churn gate: the replicated cluster must have served zero
# stale rows through replica rejoin, primary failover, and the flapper…
grep -q 'registrar churn: zero stale lookups' <<<"$e9_out"
# …and the storm must be a pure function of its seed: a second run of
# the same walkthrough diffs byte-for-byte against the first.
e9_out2=$(cargo run --release -p lpc-bench --bin repro -- --experiment e9 --seed 233)
diff <(printf '%s\n' "$e9_out") <(printf '%s\n' "$e9_out2") \
  || { echo "FAIL: E9 chaos walkthrough is not byte-identical across runs"; exit 1; }

# Exactness gate: every experiment's report is a pure function of the
# code, and the committed full report is what this code prints. A change
# that moves a number on purpose regenerates the file (`repro all >
# repro_full_output.txt`) and says why.
cargo run --release -p lpc-bench --bin repro -- all | diff - repro_full_output.txt \
  || { echo "FAIL: repro all diverges from the committed repro_full_output.txt"; exit 1; }

# Broadcast-determinism gate: a fixed-seed multi-viewer fan-out run must
# be a pure function of its seed — `fanout-smoke` prints the run's
# digest, counters, and convergence, and two runs must agree byte-for-
# byte (the same double-run check every `--fanout` scale point applies
# internally; DESIGN.md §16).
fan_a=$(cargo run --release -p lpc-bench --bin repro -- --quick fanout-smoke)
fan_b=$(cargo run --release -p lpc-bench --bin repro -- --quick fanout-smoke)
diff <(printf '%s\n' "$fan_a") <(printf '%s\n' "$fan_b") \
  || { echo "FAIL: broadcast fan-out is not byte-identical across runs"; exit 1; }
grep -q 'converged=100' <<<"$fan_a" \
  || { echo "FAIL: fan-out smoke run left viewers unconverged"; exit 1; }

# Optimizer-validation gate: the translation-validated optimizer's output
# must agree with the unoptimized registration on every probed input, for
# three independent seeds (the example exits non-zero on any divergence).
for seed in 11 42 233; do
  opt_out=$(cargo run --release --example optimize_proxy -- "$seed")
  grep -q 'optimizer validation: OK' <<<"$opt_out" \
    || { echo "FAIL: optimizer validation diverged at seed $seed"; exit 1; }
done

# Determinism gate: every .rs file in the workspace lexes cleanly and
# carries zero unwaived nondet-order / sim-purity findings (DESIGN.md §14).
# --deny exits 1 on any blocking finding, 2 on any unparseable file.
cargo run --release -p aroma-lint -- --deny \
  || { echo "FAIL: aroma-lint found unwaived determinism hazards"; exit 1; }
# JSON smoke: the machine-readable report renders and carries the summary.
lint_json=$(cargo run --release -p aroma-lint -- --json)
grep -q '"files_scanned"' <<<"$lint_json"

# End-to-end benchmark gate: the e2ebench package's tests, then one short
# traced run per workload. A run exits 1 when a correctness check fails or
# two passes of the seed (traced or untraced) disagree on their digest.
cargo test --release --manifest-path e2ebench/Cargo.toml
for workload in building chaos; do
  e2e_out=$(cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
    --workload "$workload" --seed 233 --seconds 1 --trace 1) \
    || { printf '%s\n' "$e2e_out"; echo "FAIL: e2ebench $workload run failed its checks"; exit 1; }
done
