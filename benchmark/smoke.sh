#!/bin/bash
# A quick pass (under 20 s after the build) that only validates that every metric
# named in BENCHMARK.json is emitted with its unit and that the result files
# parse. It measures nothing worth reading. Run from the repository root; for
# a later PR to wire into CI.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" -- \
    --all --trace --quick --seconds 1 > "$target/benchmark-smoke.txt" 2> "$target/benchmark-smoke.err" ||
    { cat "$target/benchmark-smoke.err"; exit 1; }
python3 - "$target" <<'PY'
import json, sys
target = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
for w in (w["name"] for w in spec["workloads"]):
    for suffix, kind in (("-ref", "end_to_end"), ("-layers", "per_layer")):
        result = json.load(open(f"{target}/benchmark/result-{w}{suffix}.json"))
        assert result["correct"], (w, kind, result["failures"])
        assert result["nproc"] >= 1
        for m in spec[kind]:
            got = result["metrics"].get(m["name"])
            assert got is not None, (w, m["name"], "missing")
            assert got["unit"] == m["unit"], (w, m["name"], got["unit"])
            assert isinstance(got["value"], (int, float)), (w, m["name"], got["value"])
        assert len(result["metrics"]) == len(spec[kind]), (w, kind, "extra metrics")
    json.load(open(f"{target}/benchmark/trace-{w}.json"))["spans"]
print("benchmark smoke: ok")
PY
