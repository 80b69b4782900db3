#!/usr/bin/env python3
"""Build and run the mtsched end-to-end benchmark.

One run:
    python3 e2ebench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with one table at the end:
    python3 e2ebench/run.py --summary [--seed N] [--seconds S]

Self-tests of the benchmark's statistics:
    python3 e2ebench/run.py --self-test

Run from the repository root. The benchmark compiles the mtsched sources
in ../src together with the e2ebench program into the build directory
named by $CARGO_TARGET_DIR (default .bench_build). The last line of a
run's standard output is its JSON result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_campaign", "large_dag", "serve_mixed"]

# Seed kept out of every tuning run; a later performance claim must also
# hold on it.
HELD_OUT_SEED = 20111

HERE = Path(__file__).resolve().parent


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def build():
    """Configures (once) and builds e2ebench; returns its path or None."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("e2ebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out / "e2ebench"


def run_one(binary, workload, seed, seconds, trace, capture=False):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(build_dir())]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True)


def summary(binary, seed, seconds):
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"=== {workload} --trace {trace} (seed {seed}) ===",
                  flush=True)
            proc = run_one(binary, workload, seed, seconds, trace,
                           capture=True)
            print(proc.stdout, end="", flush=True)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                rows.append((workload, "layer" if trace else "e2e", name,
                             m["value"], m["unit"]))
            rows.append((workload, "check", "correct", result["correct"],
                         f"{result['failed']}/{result['attempted']} failed"))
    print("=== summary ===")
    for workload, kind, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:15} {kind:6} {name:28} {shown:>14} {unit}")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter,
        epilog=f"held-out seed for confirming claims: {HELD_OUT_SEED}")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--summary", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--self-test", action="store_true",
                        help="test the benchmark's statistics")
    args = parser.parse_args()
    if not (args.summary or args.self_test or args.workload):
        parser.error("one of --workload, --summary, --self-test is required")

    binary = build()
    if binary is None:
        return 1
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"]).returncode
    if args.summary:
        return summary(binary, args.seed, args.seconds)
    return run_one(binary, args.workload, args.seed, args.seconds,
                   args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
