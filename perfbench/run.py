#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/ (the benchmark and the library sources it drives, Release) into
$CARGO_TARGET_DIR or .bench_build; later calls rebuild only what changed.
The benchmark binary then runs the workload, checks every output and
prints its metrics; the last line of standard output is the JSON result.
Build output goes to standard error. The exit status is the benchmark's:
0 only when every check passed.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipe_small", "pipe_mtu", "serve_mix", "serve_small")


def build_dir() -> Path:
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    if not path.is_absolute():
        path = Path.cwd() / path
    return path / "perfbench"


def commit_id() -> str:
    """The checkout's git commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build() -> Path:
    """Configure and build; returns the build directory. Exits 2 when the
    library sources are missing or the build fails."""
    if not (ROOT / "src" / "offload" / "server.hpp").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build()
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit_id(),
           "--out-dir", str(out)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
