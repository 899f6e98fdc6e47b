#!/usr/bin/env bash
# Every run directory under target/obs/ indexes exactly what it holds: its
# manifest's `files` equals the directory listing. Prints one line per
# directory (reason, members); exits 1 naming any directory whose index
# and listing differ. CI runs it after each job that leaves run directories.
#
#   scripts/check_run_dirs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'PY'
import glob, json, os, sys

bad = 0
for manifest in sorted(glob.glob("target/obs/*/manifest.json")):
    doc = json.load(open(manifest))
    if doc.get("schema") != "ap3esm-run/1":
        continue
    run = os.path.dirname(manifest)
    listing = sorted(os.listdir(run))
    if doc["files"] != listing:
        print(f"{run}: files {doc['files']} != listing {listing}", file=sys.stderr)
        bad += 1
    else:
        print(f"{run}: {doc['reason']}: {' '.join(listing)}")
sys.exit(1 if bad else 0)
PY
