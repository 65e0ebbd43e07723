#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. Arguments pass through to the binary:
#   bash perfbench/run.sh --workload skyserver --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/sqlog-perfbench" "$@"
