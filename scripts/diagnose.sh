#!/usr/bin/env bash
# Postmortem a flight-recorder diagnostics bundle: merge the per-rank
# journals, name the first-stalled rank, list the orphaned sends and the
# receive timeouts that detected the silence. With no argument, picks the
# most recently modified target/obs/bundle-*/ — i.e. "diagnose whatever
# just crashed". Arguments are forwarded to `examples/obs.rs postmortem`.
#
#   scripts/diagnose.sh
#   scripts/diagnose.sh target/obs/bundle-campaign-lose-ocean-rank-m0
#   scripts/diagnose.sh target/obs/bundle-pm-kill --expect-blame 1
set -euo pipefail
cd "$(dirname "$0")/.."

args=("$@")
have_bundle=false
skip=false
for a in "${args[@]:-}"; do
  if $skip; then skip=false; continue; fi
  case "$a" in
    --expect-blame) skip=true ;;         # option taking a value
    --bundle) skip=true; have_bundle=true ;;
    --*) ;;
    "") ;;
    *) have_bundle=true ;;
  esac
done
if ! $have_bundle; then
  latest=$(ls -dt target/obs/bundle-*/ 2>/dev/null | head -1 || true)
  if [ -z "${latest:-}" ]; then
    echo "diagnose: no target/obs/bundle-*/ found; pass a bundle directory" >&2
    exit 2
  fi
  echo "diagnose: analyzing ${latest%/}" >&2
  if [ "${#args[@]}" -eq 0 ]; then
    args=("${latest%/}")
  else
    args=("${latest%/}" "${args[@]}")
  fi
fi

exec cargo run --release --quiet --example obs -- postmortem "${args[@]}"
