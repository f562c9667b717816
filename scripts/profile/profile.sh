#!/usr/bin/env bash
# Sample where a command spends its CPU time, and print the shares.
#
#   scripts/profile/profile.sh [report options --] <command> [args...]
#
# Builds scripts/profile/sampler.c with gcc into target/profile/ (the only
# file this writes in the tree), runs the command with the sampler
# preloaded, its output sent to stderr and its dumps in a temporary
# directory, then prints report.py's exclusive and inclusive tables for the
# process with the most samples. Options before a `--` go to report.py:
#
#   scripts/profile/profile.sh --children Network::dispatch -- \
#       e2ebench/target/release/lpc-e2ebench --workload chaos --seed 233 --seconds 20 --trace 0
#
# Run a built binary, not `cargo run`: cargo would be sampled too, and the
# build would land in the samples. The report exits 1 when a --require
# share is not met.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"

report_args=()
if [[ " $* " == *" -- "* ]]; then
  while [[ "$1" != "--" ]]; do
    report_args+=("$1")
    shift
  done
  shift
fi
[[ $# -gt 0 ]] || { echo "usage: $0 [report options --] <command> [args...]" >&2; exit 2; }

lib="$root/target/profile/libsampler.so"
if [[ ! -f "$lib" || "$here/sampler.c" -nt "$lib" ]]; then
  mkdir -p "$root/target/profile"
  gcc -O2 -fPIC -shared -o "$lib" "$here/sampler.c"
fi

dumps="$(mktemp -d)"
trap 'rm -rf "$dumps"' EXIT
TMPDIR="$dumps" LD_PRELOAD="$lib" "$@" >&2
python3 "$here/report.py" "${report_args[@]}" "$dumps"/sampler.*
