#!/usr/bin/env bash
# Runs the headless perf harness (`repro -- bench`) and writes the
# machine-readable measurements to BENCH_PR7.json at the repo root, or
# compares two such files.
#
#   scripts/bench.sh                        full measurement run (minutes)
#   scripts/bench.sh --smoke                tiny CI run: validates the harness
#                                           and the JSON emitter, numbers
#                                           meaningless
#   scripts/bench.sh --compare OLD NEW      print per-workload ops/sec deltas
#                                           between two BENCH_*.json files and
#                                           fail if any (workload,
#                                           representation) cell measured in
#                                           both regressed by more than 20%.
#                                           Baselines with differing key sets
#                                           diff on the intersection: cells
#                                           only in NEW are reported "new",
#                                           cells only in OLD "removed" —
#                                           informational, not failures. A
#                                           cell measured in both that went
#                                           supported -> unsupported is still
#                                           a capability regression.
#
# Extra arguments are passed through to `repro` (e.g. --json PATH).
set -euo pipefail

cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--compare" ]]; then
    if [[ $# -ne 3 ]]; then
        echo "usage: scripts/bench.sh --compare OLD.json NEW.json" >&2
        exit 2
    fi
    python3 - "$2" "$3" <<'EOF'
import json
import sys

REGRESSION_LIMIT = 0.20  # fail when ops/sec drops by more than this

old_path, new_path = sys.argv[1], sys.argv[2]
old = json.load(open(old_path, encoding="utf-8"))
new = json.load(open(new_path, encoding="utf-8"))

def cells(doc):
    return {
        (m["workload"], m["representation"]): m
        for m in doc["measurements"]
    }

old_cells, new_cells = cells(old), cells(new)
failures = []
print(f"# {old_path} -> {new_path}")
print(f"{'workload':<18} {'representation':<18} {'old ops/s':>12} "
      f"{'new ops/s':>12} {'delta':>8}")
for key, m_new in new_cells.items():
    workload, repr_ = key
    m_old = old_cells.get(key)
    if m_old is None:
        status = "new" if m_new["supported"] else "new (n/a)"
        print(f"{workload:<18} {repr_:<18} {'-':>12} "
              f"{m_new['ops_per_sec']:>12.0f} {status:>8}")
        continue
    if m_old["supported"] and not m_new["supported"]:
        # A cell the old baseline measured is now unsupported: that is
        # a capability regression, not a gap to skip over.
        print(f"{workload:<18} {repr_:<18} {m_old['ops_per_sec']:>12.0f} "
              f"{'n/a':>12} {'LOST':>8}  <-- REGRESSION")
        failures.append((workload, repr_, "supported -> unsupported"))
        continue
    if not m_old["supported"]:
        continue
    old_ops, new_ops = m_old["ops_per_sec"], m_new["ops_per_sec"]
    delta = (new_ops - old_ops) / old_ops if old_ops else 0.0
    flag = ""
    if delta < -REGRESSION_LIMIT:
        flag = "  <-- REGRESSION"
        failures.append((workload, repr_, delta))
    print(f"{workload:<18} {repr_:<18} {old_ops:>12.0f} "
          f"{new_ops:>12.0f} {delta:>+7.1%}{flag}")
for key in old_cells:
    if key not in new_cells:
        # Report cells only the old baseline has. Key sets legitimately
        # differ across baseline generations (new workloads appear,
        # retired ones go away), so this is informational: the 20% gate
        # applies to the intersection only.
        print(f"{key[0]:<18} {key[1]:<18} {'-':>12} {'-':>12} {'removed':>8}")
old_repeat = old.get("config", {}).get("repeat", 1)
new_repeat = new.get("config", {}).get("repeat", 1)
if old_repeat != new_repeat:
    print(f"note: statistics differ — {old_path} is best-of-{old_repeat}, "
          f"{new_path} is best-of-{new_repeat}")
if failures:
    print(f"\nFAIL: {len(failures)} cell(s) regressed more than "
          f"{REGRESSION_LIMIT:.0%}:", file=sys.stderr)
    for workload, repr_, delta in failures:
        what = delta if isinstance(delta, str) else f"{delta:+.1%}"
        print(f"  {workload}/{repr_}: {what}", file=sys.stderr)
    sys.exit(1)
print("\ncompare OK: no cell regressed more than "
      f"{REGRESSION_LIMIT:.0%}")
EOF
    exit 0
fi

cargo run --release --bin repro -- bench "$@"
