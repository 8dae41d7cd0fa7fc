#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at `--size tiny`, untraced and traced, and asserts
that each run exits 0, checks clean, and prints every end-to-end
(untraced) or per-layer (traced) metric of BENCHMARK.json with its unit.
The traced runs must also touch exactly the layers their workload is
meant to touch: a per-layer metric reads 0 on the workloads that never
reach its layer, and not 0 on every other workload.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()

HB = {"analyses.sync_ms", "analyses.sync_edges", "analyses.frontier_ms",
      "analyses.hb_seq_ms", "serve.hello_ms", "serve.frames", "serve.bytes",
      "serve.send_blocked_ms", "serve.client_query_ms",
      "serve.client_finish_ms", "serve.pipeline_feed_ms",
      "serve.pipeline_barrier_ms", "serve.report_bytes"}
PREDICT = {"analyses.feed_ms", "analyses.finish_ms",
           "analyses.findings_per_candidate"}
DELETES = {"core.delete_calls", "core.delete_ms"}
WINDOWS = {"analyses.windows", "analyses.deleted_edges"}

# The per-layer metrics each workload must leave at 0. `predict_full` is
# not in BENCHMARK.json, which gates two workloads to keep the number of
# runs down, but it stays runnable and is tested here.
UNTOUCHED = {
    "hb_online": PREDICT | DELETES | WINDOWS | {"analyses.peak_buffered"},
    "predict_full": HB | WINDOWS,
    "predict_windowed": HB,
}


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, f"{cmd} exited {out.returncode}:\n{out.stderr[-3000:]}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert any(line.startswith("host: ") for line in lines), "no host fingerprint"
    assert any(line.startswith("error_rate = ") for line in lines), "no error_rate"
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(UNTOUCHED), spec["workloads"]
    for workload, untouched in UNTOUCHED.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            metrics = run(workload, trace)["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            assert got == want, f"{workload} trace={trace}: {got} != {want}"
            for name, m in metrics.items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
                zero = trace == 1 and name in untouched
                assert (m["value"] == 0) == zero, (workload, name, m["value"])
            shown = ", ".join(f"{name}={m['value']:.4g} {m['unit']}"
                              for name, m in metrics.items())
            print(f"ok {workload} trace={trace}: {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
