#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (which pulls
in the library from src/) under .bench_build/perfbench, then runs one
workload. The build log goes to stderr; the benchmark's own output goes to
stdout, and its last line is the JSON result. The exit code is the
benchmark's: nonzero when a build step or an output check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure once, then build the benchmark target incrementally."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)


def arg(args, flag):
    """The value after `flag` in args, or None."""
    i = args.index(flag) if flag in args else -1
    return args[i + 1] if 0 <= i < len(args) - 1 else None


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(os.path.join(BUILD_ROOT, "perfbench"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    workload = os.path.basename(arg(args, "--workload") or "none")
    trace_out = os.path.join(build_dir, f"trace-{workload}.json")
    binary = os.path.join(build_dir, "perfbench")
    try:
        proc = subprocess.run([binary, *args, "--trace-out", trace_out],
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    traced = arg(args, "--trace") == "1"
    if proc.returncode == 0 and not declared_metrics_match(out, traced):
        return 5
    return proc.returncode


def declared_metrics_match(out, traced):
    """The result line must carry exactly the metrics BENCHMARK.json declares."""
    try:
        with open("BENCHMARK.json") as f:
            bench = json.load(f)
        got = list(json.loads(out.strip().splitlines()[-1])["metrics"])
    except (OSError, ValueError, IndexError, KeyError) as e:
        print(f"perfbench: cannot compare metrics with BENCHMARK.json: {e}",
              file=sys.stderr)
        return False
    want = [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]
    if got != want:
        print(f"perfbench: metrics {got} differ from BENCHMARK.json {want}",
              file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
