#!/usr/bin/env bash
# Builds the shipped `snailqc` binary and the harness from source, then runs
# the harness. Arguments pass through:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --bin snailqc >&2
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --bin "$CARGO_TARGET_DIR/release/snailqc" "$@"
