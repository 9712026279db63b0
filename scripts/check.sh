#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
# Usage: scripts/check.sh  (from anywhere; runs at the repo root)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

echo "==> cargo test -q --release (workspace, optimized)"
cargo test -q --release --offline --workspace

echo "==> bench smoke run (capacity_timeline --test)"
cargo bench --offline -p vod-bench --bench capacity_timeline -- --test

echo "==> bench smoke run (repair_latency --test)"
cargo bench --offline -p vod-bench --bench repair_latency -- --test

echo "==> bench smoke run (sorp_scaling --test)"
cargo bench --offline -p vod-bench --bench sorp_scaling -- --test

echo "==> bench smoke run (sorp_sharded --test)"
cargo bench --offline -p vod-bench --bench sorp_sharded -- --test

echo "==> bench smoke run (cycles_warm --test)"
cargo bench --offline -p vod-bench --bench cycles_warm -- --test

echo "==> bench smoke run (service_overload --test)"
cargo bench --offline -p vod-bench --bench service_overload -- --test

echo "==> bench smoke run (telemetry_overhead --test)"
cargo bench --offline -p vod-bench --bench telemetry_overhead -- --test

echo "==> bench smoke run (bandwidth_ledger --test)"
cargo bench --offline -p vod-bench --bench bandwidth_ledger -- --test

echo "==> bandwidth run (link-capacity sweep through the vodx binary)"
cargo run -q --release --offline -p vod-experiments --bin vodx -- bandwidth --fast >/dev/null

echo "==> sharded-scheduler property suite"
cargo test -q --offline -p vod-core --test shard_props

echo "==> warm-start property suite"
cargo test -q --offline -p vod-core --test warm_start_props

echo "==> service-frontend property + overload suites"
cargo test -q --offline -p vod-core --test service_props
cargo test -q --offline --test service_overload_e2e
cargo run -q --release --offline -p vod-experiments --bin vodx -- service >/dev/null

echo "==> fault-injection suite"
cargo test -q --offline -p vod-faults
cargo test -q --offline -p vod-core repair
cargo test -q --offline -p vod-core --test repair_props
cargo test -q --offline --test fault_injection_e2e --test failure_injection

echo "==> telemetry suite (obs crate + recorder transparency + e2e reconcile)"
cargo test -q --offline -p vod-obs
cargo test -q --offline -p vod-core --test telemetry_props
cargo test -q --offline --test telemetry_e2e
rec="$(mktemp /tmp/vod-flight.XXXXXX.jsonl)"
cargo run -q --release --offline -p vod-experiments --bin vodx -- service --fast --record "$rec" >/dev/null
cargo run -q --release --offline -p vod-experiments --bin vodx -- trace "$rec" >/dev/null
rm -f "$rec"

echo "==> cycles run (service loop, oracle config) + record/trace round trip"
cargo run -q --release --offline -p vod-experiments --bin vodx -- cycles --fast >/dev/null
rec="$(mktemp /tmp/vod-flight.XXXXXX.jsonl)"
cargo run -q --release --offline -p vod-experiments --bin vodx -- cycles --fast --record "$rec" >/dev/null
cargo run -q --release --offline -p vod-experiments --bin vodx -- trace "$rec" >/dev/null
rm -f "$rec"

echo "==> comparator lint (no panicking partial_cmp in first-party code)"
# NaN-poisoned sorts panic at runtime; f64::total_cmp is the workspace rule.
if grep -rn --include='*.rs' -E 'partial_cmp\([^)]*\)\s*\.\s*(unwrap|expect)' \
    crates src tests examples 2>/dev/null; then
  echo "error: use f64::total_cmp instead of partial_cmp().unwrap()" >&2
  exit 1
fi

echo "==> entry-point lint (one public solve entry point per layer)"
# Name variants of a solve entry point were folded into one function
# per layer, with options passed as arguments or config; keep them out.
if grep -rn --include='*.rs' -E 'pub fn [A-Za-z0-9_]+_(seeded|warm|with_mode|traced_with)\b' \
    crates/core/src; then
  echo "error: pub fn *_seeded / *_warm / *_with_mode / *_traced_with is a name variant;" \
    "extend the layer's one entry point instead" >&2
  exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --offline -- -D warnings

echo "All checks passed."
