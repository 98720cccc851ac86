#!/usr/bin/env bash
# Build the `psdp` server and the benchmark from source, then run the
# benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
#
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result. CARGO_TARGET_DIR defaults to .bench_build.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin psdp >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --psdp "$CARGO_TARGET_DIR/release/psdp" "$@"
