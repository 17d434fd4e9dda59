#!/usr/bin/env bash
# The cost ledger: builds the shipped `tps` binary and the ledger, then runs it.
#
#   bench/ledger/run.sh [--seed N]              every workload untraced, then one traced
#                                               pass each; verifies every output; prints
#                                               every metric by name with its unit
#   bench/ledger/run.sh --repeat-check [N]      the untraced set N times (default 3); fails
#                                               if any spread exceeds its metric's bound
#   bench/ledger/run.sh --quick                 scale 0.1 smoke run (<30 s), verifier on,
#                                               no bounds enforced
#   bench/ledger/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one workload, the way BENCHMARK.json's
#                                               driver runs it (last stdout line = JSON)
#
# Build output goes to $CARGO_TARGET_DIR if set, else to the repo's target/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"

# A relative CARGO_TARGET_DIR means "relative to where the caller stands".
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build logs go to stderr: stdout carries results only. A checkout without
# the repo's sources fails here, before any result is printed.
cargo build --release --offline --manifest-path "$root/Cargo.toml" -p tps-cli --bin tps >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" --bin ledger >&2

args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --repeat-check)
      # The count is optional.
      if [ $# -gt 1 ] && [[ "$2" =~ ^[0-9]+$ ]]; then
        args+=(--repeat-check "$2"); shift
      else
        args+=(--repeat-check 3)
      fi
      ;;
    *) args+=("$1") ;;
  esac
  shift
done

exec "$target/release/ledger" --tps "$target/release/tps" --ledger-dir "$here" ${args[@]+"${args[@]}"}
