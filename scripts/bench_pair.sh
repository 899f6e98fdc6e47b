#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree
# (choosing-metrics §8: alternate the sides, judge medians and wins).
#
#   scripts/bench_pair.sh <parent-ref> <workload> [pairs=10] [seed=1]
#
# Clones the repository into target/pair/parent at <parent-ref>, builds
# benchmark/ for it and for the working tree into separate target dirs, runs
# the two binaries in alternation (parent first on odd pairs, change first on
# even ones) as the driver does (`--seconds <run_seconds> --trace 0`), and
# prints one markdown row per end-to-end metric of BENCHMARK.json: each
# side's median [q1, q3], change / parent, the metric's bound, and the pairs
# the change won (ties count for neither side). Everything it writes is under
# target/pair/; the clone is removed on exit, the builds are kept.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-1}

root=$PWD
pair=$root/target/pair
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$pair"

parent_sha=$(git rev-parse --verify "$parent_ref^{commit}")
trap 'rm -rf "$pair/parent"' EXIT
rm -rf "$pair/parent"
git clone --quiet --no-checkout "$root" "$pair/parent"
git -C "$pair/parent" checkout --quiet --detach "$parent_sha"

build() { # <side> <checkout>
    CARGO_TARGET_DIR=$pair/build-$1 cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml"
}
build parent "$pair/parent"
build change "$root"

run() { # <side>: the driver line (last stdout line) of one run
    CARGO_TARGET_DIR=$pair/run-$1 "$pair/build-$1/release/ap3esm-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
}
lines=$pair/lines-$workload.jsonl
: >"$lines"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $i/$pairs: $side" >&2
        printf '%s\t%s\t%s\n' "$i" "$side" "$(run "$side")" >>"$lines"
    done
done

python3 - "$lines" "$workload" <<'EOF'
import json, statistics, sys

lines, workload = sys.argv[1:]
manifest = json.load(open("BENCHMARK.json"))
runs = {"parent": {}, "change": {}}
for line in open(lines):
    pair, side, result = line.rstrip("\n").split("\t")
    runs[side][int(pair)] = json.loads(result)

def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return median, f"{median:.4g} [{q1:.4g}, {q3:.4g}]"

print("| workload | metric | parent median [q1, q3] | change median [q1, q3] | change / parent | bound | wins |")
print("|---|---|---|---|---|---|---|")
for metric in manifest["end_to_end"]:
    name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
    value = lambda side, pair: runs[side][pair]["metrics"][name]["value"]
    pairs = sorted(runs["parent"])
    (pm, ptext), (cm, ctext) = (summary([value(side, p) for p in pairs]) for side in ("parent", "change"))
    wins = sum(sign * (value("change", p) - value("parent", p)) > 0 for p in pairs)
    print(f"| `{workload}` | `{name}` {metric['unit']} ({metric['better']} is better) | {ptext} | {ctext} "
          f"| {cm / pm:.3f} | {metric['bound']} | {wins}/{len(pairs)} |")
for side in ("parent", "change"):
    failed, attempted = (sum(r[key] for r in runs[side].values()) for key in ("failed", "attempted"))
    print(f"\n{side}: {failed} failed of {attempted} attempted")
EOF
