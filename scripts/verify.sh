#!/usr/bin/env bash
# Tier-1 verification: formatting, lints, release build, full test suite.
#
# Usage: scripts/verify.sh [--quick]
#   --quick   skip the release build (debug build + tests only)
#
# Scope notes: fmt/clippy run only on the fedsched crates — vendor/ holds
# minimal offline stand-ins for external crates (see vendor/README.md) and
# is exempt from style enforcement.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

FEDSCHED_CRATES=(
  -p fedsched
  -p fedsched-core
  -p fedsched-profiler
  -p fedsched-device
  -p fedsched-net
  -p fedsched-faults
  -p fedsched-bandit
  -p fedsched-robust
  -p fedsched-data
  -p fedsched-nn
  -p fedsched-fl
  -p fedsched-parallel
  -p fedsched-telemetry
  -p fedsched-bench
  -p fedsched-serve
)

echo "==> cargo fmt --check (fedsched crates)"
cargo fmt --check "${FEDSCHED_CRATES[@]}"

echo "==> cargo clippy -D warnings (fedsched crates, all targets)"
cargo clippy -q "${FEDSCHED_CRATES[@]}" --all-targets -- -D warnings

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> cargo build --release"
  cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace (crate unit tests + bench paper-claim smoke tests)"
cargo test -q --workspace

echo "==> chaos suite (pinned seed: fault invariants + replay determinism)"
cargo test -q --test failure_injection
cargo test -q -p fedsched-faults
cargo test -q -p fedsched-fl resilient

echo "==> parallel identity suite (default worker pool)"
cargo test -q --test parallel_identity
cargo test -q -p fedsched-fl cohorts

echo "==> parallel identity suite (forced multi-worker pool)"
FEDSCHED_THREADS=4 cargo test -q --test parallel_identity
FEDSCHED_THREADS=8 cargo test -q --test parallel_identity

echo "==> builder + population-stage differential suite (default worker pool)"
cargo test -q --test builder_identity
cargo test -q --test coordinator_identity
cargo test -q -p fedsched-fl builder
cargo test -q -p fedsched-fl stages

echo "==> builder + population-stage differential suite (forced multi-worker pool)"
FEDSCHED_THREADS=4 cargo test -q --test builder_identity
FEDSCHED_THREADS=4 cargo test -q --test coordinator_identity
FEDSCHED_THREADS=8 cargo test -q --test builder_identity
FEDSCHED_THREADS=8 cargo test -q --test coordinator_identity

echo "==> robustness suite (zero-adversary bit-identity + attacked thread invariance)"
cargo test -q -p fedsched-robust
cargo test -q --test robust_identity
FEDSCHED_THREADS=4 cargo test -q --test robust_identity
FEDSCHED_THREADS=8 cargo test -q --test robust_identity

echo "==> event engine suite (event core vs pinned parent fingerprints)"
cargo test -q -p fedsched-core events
cargo test -q -p fedsched-fl eventsim
cargo test -q --test event_identity
FEDSCHED_THREADS=4 cargo test -q --test event_identity
FEDSCHED_THREADS=8 cargo test -q --test event_identity

echo "==> churn suite (quiet-churn inertness + conservation + thread invariance)"
cargo test -q -p fedsched-fl eventsim
cargo test -q --test event_identity churn
FEDSCHED_THREADS=4 cargo test -q --test event_identity churn
FEDSCHED_THREADS=8 cargo test -q --test event_identity churn
cargo test -q --test golden_trace churn
cargo test -q -p fedsched-bench churn

echo "==> edge-tier suite (flat-vs-hier bit identity + arena + topology proptests)"
cargo test -q -p fedsched-fl tier
cargo test -q -p fedsched-device arena
cargo test -q --test hier_identity
FEDSCHED_THREADS=4 cargo test -q --test hier_identity
FEDSCHED_THREADS=8 cargo test -q --test hier_identity
cargo test -q --test golden_trace hier

echo "==> bandit suite (quiet-knob inertness vs goldens + selection thread invariance)"
cargo test -q -p fedsched-bandit
cargo test -q -p fedsched-fl selection
cargo test -q --test bandit_identity
FEDSCHED_THREADS=4 cargo test -q --test bandit_identity
FEDSCHED_THREADS=8 cargo test -q --test bandit_identity
cargo test -q -p fedsched-bench bandit

echo "==> serve suite (spec round-trip + kill-and-resume bit identity + HTTP parity)"
cargo test -q -p fedsched-fl spec
cargo test -q -p fedsched-serve
cargo test -q --test serve_http_smoke

echo "==> scale smoke (engine speedup sweep + makespan parity)"
cargo test -q -p fedsched-bench scaleout

if [[ "$QUICK" -eq 0 ]]; then
  echo "==> event engine scale smoke (1k and 10k reports vs pinned parent fingerprints)"
  cargo run -q --release -p fedsched-bench --bin exp_scale -- --event-check
  echo "==> hierarchy scale smoke (parity at 1k; arena-vs-hier + budgets at 100k)"
  cargo run -q --release -p fedsched-bench --bin exp_scale -- --hier-check
fi

echo "==> verify OK"
