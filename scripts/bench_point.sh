#!/usr/bin/env bash
# Record one point of the performance trajectory: BENCH_<n>.json is a copy
# of one pass of the repo benchmark over every workload of BENCHMARK.json.
#
#   scripts/bench_point.sh <n> [benchmark arguments]
#
# Runs the BENCHMARK.json command in the driver's form, once end to end
# (`--workload W --seed 1 --seconds <run_seconds> --trace 0`) and once per
# layer (`--trace 1`) for each workload, and copies the result files the two
# runs leave under target/benchmark/ -- result-<workload>.json and
# result-<workload>-layers.json -- into BENCH_<n>.json as they are, next to
# the git commit and the core count. Arguments after <n> go to the benchmark
# after the driver's (`--quick --seconds 1` is the form CI runs: it checks
# the names, its timings mean nothing). About 4 minutes in full; keep the
# machine otherwise idle.
#
# A point is a record. Nothing here compares two points: a claim is judged
# by scripts/bench_pair.sh and the driver's paired runs.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
n=$1
shift

target="${CARGO_TARGET_DIR:-target}"
read -r seconds workloads < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], *(w["name"] for w in spec["workloads"]))')

for workload in $workloads; do
    for trace in 0 1; do
        echo "bench point $n: $workload --trace $trace" >&2
        cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" -- \
            --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace" "$@" \
            >/dev/null 2>"$target/bench-point.err" || { cat "$target/bench-point.err" >&2; exit 1; }
    done
done

python3 - "$n" "$target" "$(git rev-parse --short=12 HEAD)$(git diff --quiet HEAD || echo +dirty)" "$(nproc)" <<'PY'
import json, sys

n, target, git_sha, nproc = sys.argv[1:]
spec = json.load(open("BENCHMARK.json"))
result = lambda name: json.load(open(f"{target}/benchmark/result-{name}.json"))
point = {
    "point": n,
    "git_sha": git_sha,
    "nproc": int(nproc),
    "workloads": {
        w["name"]: {"end_to_end": result(w["name"]), "per_layer": result(w["name"] + "-layers")}
        for w in spec["workloads"]
    },
}
with open(f"BENCH_{n}.json", "w") as out:
    json.dump(point, out, separators=(",", ":"))
    out.write("\n")
print(f"wrote BENCH_{n}.json")
PY
