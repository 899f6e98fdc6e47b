#!/usr/bin/env bash
# Offline SLO gate: replay a saved telemetry snapshot
# (target/obs/series-<name>.json) through the alert engine and fail if
# any rule fired. Defaults to the coupled_esm snapshot and the built-in
# simulation rules; pass a snapshot path and/or --rules <file> to
# override (arguments are forwarded to `examples/obs.rs slo`).
#
#   scripts/slo_check.sh
#   scripts/slo_check.sh target/obs/series-myrun.json --rules rules.txt
set -euo pipefail
cd "$(dirname "$0")/.."

args=("$@")
have_snapshot=false
for a in "${args[@]:-}"; do
  case "$a" in
    --*) ;;
    "") ;;
    *) have_snapshot=true ;;
  esac
done
if ! $have_snapshot; then
  args+=("target/obs/series-coupled-esm.json")
fi

exec cargo run --release --quiet --example obs -- slo "${args[@]}"
