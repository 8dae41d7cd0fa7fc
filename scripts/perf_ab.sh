#!/usr/bin/env bash
# Interleaved A/B run of the end-to-end benchmark (perfbench/run.py)
# between two revisions of this repository.
#
#   scripts/perf_ab.sh REV_A REV_B WORKLOAD PAIRS [SECONDS]
#
# Both revisions are exported with `git archive` into a scratch
# directory (so the checkout under test is never touched), each with
# its own CARGO_TARGET_DIR, and built once. Then PAIRS pairs of
# `python3 perfbench/run.py --workload WORKLOAD --seed i --seconds
# SECONDS --trace 0` runs follow, alternating which side goes first.
# Both sides of a pair use the same seed.
#
# For every metric the script prints each side's median and quartiles
# and how many pairs REV_B won (the direction comes from REV_B's
# BENCHMARK.json). Each end-to-end metric also gets a verdict against
# its `bound` in REV_B's BENCHMARK.json:
#   gain        B won at least 9 of 10 pairs and its median beats A's
#               by more than A's interquartile range;
#   worse       B's median is worse than A's by more than the bound;
#   better      A's interquartile range, relative to its median, is
#               wider than the bound, but every run of B beats every run
#               of A (strictly, in the metric's direction);
#   unresolved  A's interquartile range is that wide and B's runs do not
#               all beat A's, so the runs cannot tell;
#   within      otherwise.
# Per-layer metrics have no bound and print `-`. The script exits
# non-zero if any run fails or reports `correct: false` or a nonzero
# `failed`.
#
# REV_A/REV_B are any commit-ish; for uncommitted changes pass
# `$(git stash create)`. SECONDS defaults to 10. The scratch directory
# is PERF_AB_DIR if set (kept afterwards), else a fresh temporary one
# (removed on exit). A run takes minutes, so CI does not call this.
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ $# -lt 4 || $# -gt 5 ]]; then
    echo "usage: $0 REV_A REV_B WORKLOAD PAIRS [SECONDS]" >&2
    exit 2
fi
rev_a="$(git rev-parse --verify "$1^{commit}")"
rev_b="$(git rev-parse --verify "$2^{commit}")"
workload="$3"
pairs="$4"
seconds="${5:-10}"

if [[ -n "${PERF_AB_DIR:-}" ]]; then
    work="$(mkdir -p "$PERF_AB_DIR" && cd "$PERF_AB_DIR" && pwd)"
else
    work="$(mktemp -d)"
    trap 'rm -rf "$work"' EXIT
fi

for side in a b; do
    rev="rev_$side"
    rm -rf "$work/$side"
    mkdir -p "$work/$side" "$work/results"
    git archive "${!rev}" | tar -x -C "$work/$side"
    echo "perf_ab: building $side = ${!rev}" >&2
    # A tiny run builds the binaries and proves the side works at all.
    (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
        python3 perfbench/run.py --workload "$workload" --seed 0 \
        --seconds 1 --trace 0 --size tiny >/dev/null)
done

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(a b); else order=(b a); fi
    for side in "${order[@]}"; do
        out="$work/results/$side-$i.json"
        echo "perf_ab: pair $i/$pairs side $side" >&2
        (cd "$work/$side" && CARGO_TARGET_DIR="$work/target-$side" \
            python3 perfbench/run.py --workload "$workload" --seed "$i" \
            --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1 >"$out") || {
            echo "perf_ab: run failed: pair $i side $side" >&2
            exit 1
        }
    done
done

python3 - "$work" "$pairs" "$workload" "$rev_a" "$rev_b" <<'EOF'
import json
import statistics
import sys

work, pairs, workload, rev_a, rev_b = sys.argv[1], int(sys.argv[2]), *sys.argv[3:]

bench = json.load(open(f"{work}/b/BENCHMARK.json"))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}

runs = {"a": [], "b": []}
bad = []
for i in range(1, pairs + 1):
    for side in "ab":
        res = json.load(open(f"{work}/results/{side}-{i}.json"))
        if not res.get("correct") or res.get("failed", 1) != 0:
            bad.append(f"pair {i} side {side}: correct={res.get('correct')} "
                       f"failed={res.get('failed')}")
        runs[side].append({k: v["value"] for k, v in res["metrics"].items()})

def verdict(name, wins, a, b):
    if name not in bound:
        return "-"
    (qa1, ma, qa3), mb = quartiles(a), quartiles(b)[1]
    # Positive gap: B is better than A.
    gap = ma - mb if better[name] == "lower" else mb - ma
    if wins * 10 >= 9 * pairs and gap > qa3 - qa1:
        return "gain"
    if ma and -gap / ma > bound[name]:
        return "worse"
    if ma and (qa3 - qa1) / ma > bound[name]:
        if better[name] == "lower" and max(b) < min(a):
            return "better"
        if better[name] == "higher" and min(b) > max(a):
            return "better"
        return "unresolved"
    return "within"

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"workload {workload}, {pairs} interleaved pairs")
print(f"  A = {rev_a}")
print(f"  B = {rev_b}")
print(f"{'metric':<34} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
      f"{'change':>8} {'B wins':>7} {'verdict':>10}")
for name in runs["a"][0]:
    a = [r[name] for r in runs["a"]]
    b = [r[name] for r in runs["b"]]
    (qa1, ma, qa3), (qb1, mb, qb3) = quartiles(a), quartiles(b)
    change = f"{(mb - ma) / ma * 100:+.1f}%" if ma else "n/a"
    direction = better.get(name)
    if direction == "lower":
        won = sum(y < x for x, y in zip(a, b))
    elif direction == "higher":
        won = sum(y > x for x, y in zip(a, b))
    else:
        won = None
    wins = "-" if won is None else f"{won}/{pairs}"
    v = verdict(name, won, a, b)
    print(f"{name:<34} {f'{ma:.4g} [{qa1:.4g}, {qa3:.4g}]':>32} "
          f"{f'{mb:.4g} [{qb1:.4g}, {qb3:.4g}]':>32} {change:>8} {wins:>7} {v:>10}")
if bad:
    print("perf_ab: FAILED checks:", *bad, sep="\n  ", file=sys.stderr)
    sys.exit(1)
EOF
