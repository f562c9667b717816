#!/usr/bin/env bash
# Perf trajectory: run the model-checker thread-scaling sweep (states/sec
# at 1/2/4 workers on the session and lease models, cross-checked for
# byte-identical reports) plus the fixed-seed E9 chaos recovery times, and
# append the result to BENCH_check.json at the repository root; then run
# the mobile-code execution-tier sweep (checked interpreter vs verified
# fast path vs translation-validated optimized programs, runs/sec on the
# brightness proxy, a padded registration, and a counted loop) and append
# it to BENCH_mcode.json. Every mode appends: each ledger is a JSON array
# of entries, and a legacy single-object file becomes the array's first
# entry. Numbers are hardware-honest — the JSON records
# available_parallelism, and every point with workers beyond it is tagged
# oversubscribed: true (coordination overhead, not speedup). Pass --quick
# for a reduced sweep (20k-state / 20k-run bounds).
#
# Pass --scaling for the quick sharded-scaling mode: only the checker
# sweep runs (states/sec at 1/2/4 workers with oversubscription flags),
# and the entry is APPENDED to BENCH_check.json.
#
# Pass --discovery for the lease-table scaling mode: the registrars'
# ServiceRegistry is swept at 10^4, 10^5, and 10^6 live leases
# (register/renew throughput, lookup throughput, and p50/p99 lookup
# latency), and the entry is APPENDED to BENCH_disc.json under the same
# trajectory-accumulation contract.
#
# Pass --fanout for the broadcast fan-out mode: one screen server streams
# to 10/100/1k/10k viewers over a wired star (msgs per wall-clock second,
# bytes per update, allocations per update from buffer-pool misses, and
# the encodes-vs-updates ratio that proves encode-once fan-out); each
# scale point runs twice with the same seed and refuses to report unless
# the runs' digests match. The entry is APPENDED to BENCH_fanout.json.
# Run from the repository root:
#   ./scripts/bench.sh [--quick] [--scaling | --discovery | --fanout]
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p lpc-bench
cargo run --release -p lpc-bench --bin repro -- "$@" bench
