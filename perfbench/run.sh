#!/usr/bin/env bash
# Build the benchmark and the production `fedsched-serve` binary from
# source, then run one measurement. Arguments pass through unchanged:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr, so the last stdout line is the result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
case "$CARGO_TARGET_DIR" in
  /*) target="$CARGO_TARGET_DIR" ;;
  *) target="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
cargo build --release --offline --quiet --bin fedsched-serve >&2

PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo none)"
PERFBENCH_SOURCE_DIGEST="$(find Cargo.toml Cargo.lock src crates vendor perfbench/src \
  perfbench/Cargo.toml -type f \( -name '*.rs' -o -name '*.toml' -o -name '*.lock' \) \
  | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"
export PERFBENCH_RUSTC PERFBENCH_COMMIT PERFBENCH_SOURCE_DIGEST

exec "$target/release/fedsched-perfbench" "$@" --serve-bin "$target/release/fedsched-serve"
