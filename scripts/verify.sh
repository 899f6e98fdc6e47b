#!/usr/bin/env bash
# Tier-1 verification: the format of the crates held to rustfmt (`ap3esm-ocn`
# and `ap3esm-pp`; the others still drift), release build, every workspace
# member's tests (the root package's integration tests alone miss the
# per-crate unit tests, e.g. the ocean's bitwise goldens), lint-clean clippy
# over every target (tests included), rustdoc without a warning
# (a dangling intra-doc link is how a doc comment outlives the code it
# describes), a syntax check of the two benchmark scripts (a pairing takes
# ~10 min per workload, a point ~4 min, too long to run here; CI's
# benchmark-smoke runs the point's quick form); then
# the lanes step, the obs step, the figures step and the kernel step. CI
# runs exactly this (`tier1`, `lanes`, `obs`, `figures` and `kernel` as five
# steps); run it locally before pushing.
#
#   scripts/verify.sh [tier1|lanes|obs|figures|kernel]     (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."
step=${1:-all}

if [[ $step == all || $step == tier1 ]]; then
    bash -n scripts/bench_pair.sh
    bash -n scripts/bench_point.sh
    cargo fmt --check -p ap3esm-ocn -p ap3esm-pp
    cargo build --release
    cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
fi

# The lane team, the atmosphere's and the ocean's goldens across lane counts
# and execution spaces, their allocation counts on a team, and the lanes axis
# of the coupled layouts — optimized, because a lane waits by spinning and a debug build
# times the hand-offs differently. Twice: with a binary's tests side by side
# (more lanes than cores: ranges change hands, lanes yield and park) and one
# at a time (a team has the cores to itself).
lanes() {
    cargo test -q --release -p ap3esm-pp -p ap3esm-atm -p ap3esm-ocn
    cargo test -q --release --test layouts lane_count
}
if [[ $step == all || $step == lanes ]]; then
    lanes
    RUST_TEST_THREADS=1 lanes
fi

# The event model, optimized (that is the build whose allocations count):
# the two crates' tests — the exporters' bytes against the goldens recorded
# on the parent of PR 17 (`obs/tests/exporters_golden.rs`), recording
# without allocating (`obs/tests/no_alloc.rs`), the retention classes and the
# event's size (`comm::events`), the row codec — and the exporters agreeing
# on one recorded run.
if [[ $step == all || $step == obs ]]; then
    cargo test -q --release -p ap3esm-obs -p ap3esm-comm
    cargo test -q --release --test critpath exporters_share_one_fifo_pairing
fi

# Every table and figure binary (a glob, so a new one is picked up) exits 0
# and leaves the CSVs it says it wrote, non-empty, under target/experiments/.
# All of them together take ~10 s, so there is no quick mode to keep in step.
if [[ $step == all || $step == figures ]]; then
    cargo build -q --release -p ap3esm-bench
    rm -rf "${CARGO_TARGET_DIR:-target}/experiments"
    for src in crates/bench/src/bin/*.rs; do
        bin=$(basename "$src" .rs)
        out=$(cargo run -q --release -p ap3esm-bench --bin "$bin") ||
            { echo "figures: $bin exited nonzero" >&2; exit 1; }
        csvs=$(sed -n 's/^wrote \(.*\/experiments\/.*\.csv\)$/\1/p' <<<"$out")
        [[ -n $csvs ]] || { echo "figures: $bin wrote no CSV" >&2; exit 1; }
        for csv in $csvs; do
            [[ -s $csv ]] || { echo "figures: $bin left $csv empty" >&2; exit 1; }
        done
    done
fi

# The conv kernel's AVX2 and AVX-512 tiles keep their accumulators in
# registers: no vector operand on the stack frame in either compilation's
# assembly (`scripts/check_kernel_asm.sh`, DESIGN.md §21); the ocean's row
# sweep, mixing and barotropic tiles do their arithmetic and selects at each
# compilation's vector width (DESIGN.md §17). Those compilations exist only
# on x86-64, so the default run skips the step elsewhere; named (`verify.sh
# kernel`, as CI runs it) it always runs.
if [[ $step == kernel || ($step == all && $(uname -m) == x86_64) ]]; then
    scripts/check_kernel_asm.sh
elif [[ $step == all ]]; then
    echo "kernel: skipped, $(uname -m) is not x86-64"
fi
