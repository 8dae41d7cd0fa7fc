#!/usr/bin/env python3
"""Build the analysis binaries and the benchmark from source, then run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hb_online --seed 1 --seconds 10 --trace 0

Workloads: hb_online, predict_full, predict_windowed; BENCHMARK.json
lists the first and the last. `--trace 1` makes
the in-process traced run (per-layer metrics) instead of the end-to-end
one. `--size tiny` shrinks every input (for the self-test). The last
line of stdout is the JSON result; build output goes to stderr. Cargo
builds into $CARGO_TARGET_DIR (default `.bench_build`); span logs go
to `.perfbench_out/`.
"""

import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH_DIR = pathlib.Path(__file__).resolve().parent


def build(target: pathlib.Path) -> None:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "csst-analyses", "-p", "csst-serve", "--bins"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(BENCH_DIR / "Cargo.toml")],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def revision() -> str:
    """The git revision, or a hash of the sources when not in a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("**/*")):
        rel = path.relative_to(ROOT).as_posix()
        if not path.is_file() or rel.startswith((".", "target/")) or "/target/" in rel:
            continue
        if path.suffix in (".rs", ".toml", ".lock", ".py"):
            digest.update(rel.encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def host() -> dict:
    model = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "rustc": rustc.stdout.strip(),
        "revision": revision(),
    }


def main() -> int:
    target = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    exe = target / "release" / "perfbench"
    args = [str(exe), *sys.argv[1:],
            "--bin-dir", str(target / "release"),
            "--work-dir", str(ROOT / ".perfbench_out"),
            "--host", json.dumps(host(), sort_keys=True)]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
