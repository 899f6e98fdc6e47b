#!/usr/bin/env bash
# Postmortem a troubled run's directory: decode its trace.json, merge every
# rank's journal entries and messages, name the first-stalled rank, list the
# orphaned sends and the receive timeouts that detected the silence. With no directory, picks the newest
# target/obs/*/ whose manifest's reason is not "ok" — i.e. "diagnose
# whatever just broke". Arguments are forwarded to `examples/obs.rs
# postmortem`.
#
#   scripts/diagnose.sh
#   scripts/diagnose.sh target/obs/campaign-lose-ocean-rank-m0
#   scripts/diagnose.sh target/obs/pm-kill --expect-blame 1
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ] || [[ $1 == --* ]]; then
  latest=""
  for manifest in $(ls -t target/obs/*/manifest.json 2>/dev/null); do
    if ! grep -q '"reason":"ok"' "$manifest"; then
      latest=$(dirname "$manifest")
      break
    fi
  done
  if [ -z "$latest" ]; then
    echo "diagnose: no troubled run under target/obs/; pass a run directory" >&2
    exit 2
  fi
  echo "diagnose: analyzing $latest" >&2
  set -- "$latest" "$@"
fi

exec cargo run --release --quiet --example obs -- postmortem "$@"
