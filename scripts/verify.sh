#!/usr/bin/env bash
# Tier-1 verification: release build, every workspace member's tests (the
# root package's integration tests alone miss the per-crate unit tests, e.g.
# the ocean's bitwise goldens), lint-clean clippy, a syntax check of the
# benchmark pairing script (which takes ~10 min per workload to run).
# CI runs exactly this; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

bash -n scripts/bench_pair.sh
cargo build --release
cargo test -q --workspace
cargo clippy --workspace -- -D warnings
