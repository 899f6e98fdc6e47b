#!/usr/bin/env bash
# Paired benchmark runs of a parent commit against the working tree
# (choosing-metrics §8: alternate the sides, judge medians and wins).
#
#   scripts/bench_pair.sh <parent-ref> <workload> [pairs=10] [seed=1]
#
# Builds benchmark/ for each side in two directories, because the checkout
# directory alone moves function placement (a path package's symbol hashes
# come from its path): the parent from two clones at <parent-ref>
# (target/pair/parent-{a,b}), the change from the working tree and from a
# copy of it (target/pair/change-b), each into its own target dir. Runs the
# sides in alternation (parent first on odd pairs, change first on even
# ones) with BENCHMARK.json's run length (`--seconds <run_seconds> --trace
# 0`), switching both sides between their two builds every two pairs, and
# prints one
# markdown row per end-to-end metric of BENCHMARK.json: each side's median
# [q1, q3], change / parent, the metric's bound, and the pairs the change won
# (ties count for neither side). Under the table, each side's median per
# build directory and their spread (b / a). Everything it writes is under
# target/pair/; the checkouts are removed on exit, the builds are kept.
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
trap 'rm -rf "$pair/parent-a" "$pair/parent-b" "$pair/change-b"' EXIT
rm -rf "$pair/parent-a" "$pair/parent-b" "$pair/change-b"
for dir in a b; do
    git clone --quiet --no-checkout "$root" "$pair/parent-$dir"
    git -C "$pair/parent-$dir" checkout --quiet --detach "$parent_sha"
done
mkdir -p "$pair/change-b"
tar -C "$root" --exclude=./target --exclude=./.git -cf - . | tar -C "$pair/change-b" -xf -

build() { # <side>-<dir> <checkout>
    CARGO_TARGET_DIR=$pair/build-$1 cargo build --release --offline --quiet \
        --manifest-path "$2/benchmark/Cargo.toml"
}
build parent-a "$pair/parent-a"
build parent-b "$pair/parent-b"
build change-a "$root"
build change-b "$pair/change-b"

run() { # <side>-<dir>: the result line (last stdout line) of one run
    CARGO_TARGET_DIR=$pair/run-$1 "$pair/build-$1/release/ap3esm-benchmark" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1
}
lines=$pair/lines-$workload.jsonl
: >"$lines"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    if (((i - 1) / 2 % 2)); then dir=b; else dir=a; fi
    for side in $order; do
        echo "pair $i/$pairs: $side ($dir)" >&2
        printf '%s\t%s\t%s\t%s\n' "$i" "$side" "$dir" "$(run "$side-$dir")" >>"$lines"
    done
done

python3 - "$lines" "$workload" <<'EOF'
import json, statistics, sys

lines, workload = sys.argv[1:]
manifest = json.load(open("BENCHMARK.json"))
runs = {"parent": {}, "change": {}}
dirs = {}
for line in open(lines):
    pair, side, dir, result = line.rstrip("\n").split("\t")
    runs[side][int(pair)] = json.loads(result)
    dirs[int(pair)] = dir

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

print("\nBetween build directories, each side's median per directory (b / a):\n")
for side in ("parent", "change"):
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        medians = {d: statistics.median(r["metrics"][name]["value"] for p, r in runs[side].items() if dirs[p] == d)
                   for d in ("a", "b") if d in dirs.values()}
        spread = f"{medians['b'] / medians['a']:.3f}" if len(medians) == 2 else "n/a (one directory ran)"
        print(f"- {side} `{name}`: " + ", ".join(f"{d} {m:.4g}" for d, m in medians.items()) + f"; b / a {spread}")
EOF
