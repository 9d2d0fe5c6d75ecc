#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload compile_deploy --seed 1 --seconds 10 --trace 0

Builds `perfbench/` (its own Cargo package, path-dependent on the SDK
crates) into `$CARGO_TARGET_DIR`, default `.bench_build`, prints the
machine fingerprint, then runs the harness from the repository root and
passes its output through. The harness's last line is the result JSON.

`--record FILE` also appends one JSON line holding the fingerprint, the
arguments and the result to FILE, for `perfbench/compare.py`.

Exit code: the harness's (0 when every correctness check held); 1 when
the harness outlives `--seconds` plus RUN_OVERHEAD_S; 2 when the SDK
sources are missing or the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 870
# Set-up, warm-up, checks and the anchor campaign on top of the window.
RUN_OVERHEAD_S = 140


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def fingerprint():
    """What a result depends on besides the code: the machine and the
    toolchain. `commit` identifies the code and is not part of the
    comparability key."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = command_output(["rustc", "-vV"]).splitlines()
    field = lambda key: next((l.split(":", 1)[1].strip() for l in rustc if l.startswith(key)), "unknown")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "target": field("host:"),
        "rustc": field("release:"),
        "commit": command_output(["git", "rev-parse", "HEAD"]) or "none",
    }


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return None
    return ROOT / env["CARGO_TARGET_DIR"] / "release" / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--record", help="append fingerprint, arguments and result to this file")
    args = parser.parse_args()

    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        print(f"error: no SDK sources under {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    if binary is None:
        return 2

    # glibc malloc: serve allocations up to 32 MiB (the largest the
    # allocator allows) from the heap and never give freed memory back.
    # Set-up repetitions and passes after the first then reuse pages the
    # process already touched, and measure the code's own work instead
    # of the kernel's page-fault path, whose cost on a shared VM swings
    # two- to threefold with the host's load.
    run_env = dict(env, MALLOC_MMAP_THRESHOLD_="33554432", MALLOC_TRIM_THRESHOLD_="4294967295")
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine, sort_keys=True), flush=True)
    argv = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    timeout = args.seconds + RUN_OVERHEAD_S
    try:
        done = subprocess.run(argv, cwd=ROOT, env=run_env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: harness exceeded {timeout:g} s", file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if args.record:
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        record = {"fingerprint": machine, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": int(args.trace), "exit": done.returncode,
                  "result": result}
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(json.dumps(record, sort_keys=True) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
