#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# Every target of every crate: libraries, binaries, tests, examples and
# benches. The plan compiler (crates/core/src/compile.rs) and the
# runtime carry `#![warn(clippy::unwrap_used)]`, so this also keeps them
# unwrap-free.
echo "== cargo clippy --workspace --all-targets (-D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

# The workspace test run includes the parsynt-serve suites: the HTTP
# parser unit tests, the handler/status-mapping unit tests, and the
# live-daemon e2e tests (ephemeral port; cache miss/hit, 504/422/400,
# restart persistence).
echo "== cargo test =="
cargo test --workspace -q

echo "== cargo test (fault injection) =="
cargo test --features fault-inject -q

# Streaming soundness: the any-chunking property suite plus the
# fault-injected variant (seeded sweeps, snapshot prefix-equality).
echo "== cargo test streaming (incl. fault injection) =="
cargo test --test stream_props -q
cargo test --test stream_props --features fault-inject -q
cargo test -p parsynt-runtime stream -q
cargo test -p parsynt-core stream -q

# Engine differential suite: compiled fused kernels vs the tree-walking
# interpreter vs the native oracles, batch and streaming, plus the
# compiled-kernel fault sweep.
echo "== cargo test engine differential (incl. fault injection) =="
cargo test --test native_vs_interpreter -q
cargo test --test native_vs_interpreter --features fault-inject -q
cargo test -p parsynt-core compile -q

echo "CI gate passed."
