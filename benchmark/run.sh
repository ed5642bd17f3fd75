#!/usr/bin/env bash
# The one command: builds the benchmark package (offline, into
# CARGO_TARGET_DIR or benchmark/target) and runs it.
#
#   run.sh --workload W --seed N --seconds S --trace 0   end-to-end metrics (bench)
#   run.sh --workload W --seed N --seconds S --trace 1   per-layer metrics (bench-trace)
#   run.sh [--quick] [--seed N]       both passes over every workload
#   run.sh --agree | --sets N         A/A agreement / spread table (bench only)
#
# `--trace` picks the binary here rather than inside one program, so the
# end-to-end pass never links against a layer's internals.
set -euo pipefail
manifest="$(dirname "${BASH_SOURCE[0]}")/Cargo.toml"
run() { cargo run --quiet --release --offline --manifest-path "$manifest" --bin "$1" -- "${@:2}"; }

trace=""
for ((i = 1; i <= $#; i++)); do
  case "${!i}" in
    --trace) j=$((i + 1)); trace="${!j:-}" ;;
    --agree | --sets) trace=0 ;;
  esac
done
case "$trace" in
  0) run bench "$@" ;;
  1) run bench-trace "$@" ;;
  "") run bench "$@" && run bench-trace "$@" ;;
  *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac
