#!/usr/bin/env bash
# Builds the ledger offline and runs it. Every argument goes to the
# ftr-ledger binary; see README.md beside this file.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload (what the PR driver calls)
#   benchmark/run.sh [--seed N] [--trace 1] [--smoke] [--out FILE]   every workload, each in its own process
#   benchmark/run.sh --selfcheck                                      two full passes through compare
#   benchmark/run.sh compare A.json B.json
set -euo pipefail

# measure repository defaults, not whatever the caller's shell carries
unset FTR_THREADS FTR_BACKEND FTR_TRACE_DIR FTR_RESULTS_DIR

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

LEDGER_RUSTC="$(rustc -V)"
LEDGER_GIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
export LEDGER_RUSTC LEDGER_GIT
exec "$target/release/ftr-ledger" "$@"
