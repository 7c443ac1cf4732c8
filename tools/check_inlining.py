#!/usr/bin/env python3
"""Inlining guard for the engine's cell loops (GCC only).

Every cell body must be inlined into the block loop that runs it: the
engine marks its block loops SIMAS_CELL_LOOP (src/par/engine.hpp), and a
body GCC still calls out of line costs a call per cell and keeps the loop
scalar. GCC's vectorizer names each such call as "statement clobbers
memory: <callee> (...)"; this script recompiles the solver sources with the
library's own flags plus -O3 -fopt-info-vec-missed and fails if any of
those callees is a cell-body lambda (one taking simas::idx). The pool
hand-off in par/function_ref.hpp is one call per block by design and is
not counted.

Usage:
  python3 tools/check_inlining.py <build-dir>

<build-dir> is a build tree configured with
-DCMAKE_EXPORT_COMPILE_COMMANDS=ON (any build type; -O3 is appended).
Exit status: 0 when no out-of-line cell-body call remains, 1 when some do,
2 on a usage error, a compiler that cannot be run or a failed compile.
A compiler that identifies itself as Clang is skipped with exit 0: the
remark text is GCC's.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

SOURCE_DIRS = ("src/mhd/", "src/solvers/", "src/mpisim/")
# The production library only; simas_shadow compiles the same files.
TARGET_DIR = "/simas.dir/"
CELL_BODY_CALL = re.compile(
    r"statement clobbers memory: .*"
    r"<lambda\([^)]*simas::idx[^)]*\)>::operator\(\) \(")
POOL_HANDOFF = "function_ref.hpp"
# Each -O3 compile of a solver source holds a few hundred MB.
WORKERS = min(4, os.cpu_count() or 1)


def compile_args(entry):
    args = (entry["arguments"] if "arguments" in entry
            else shlex.split(entry["command"]))
    out = []
    skip = False
    for a in args:
        if skip:
            skip = False
            continue
        if a == "-o":
            skip = True
            continue
        out.append(a)
    return out + ["-o", os.devnull, "-O3", "-fopt-info-vec-missed"]


def compiler_version(cxx):
    """`cxx --version` output, or None when the compiler cannot be run."""
    try:
        return subprocess.run([cxx, "--version"], capture_output=True,
                              text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def check(entry):
    proc = subprocess.run(compile_args(entry), cwd=entry["directory"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        return entry["file"], None, proc.stderr
    calls = [line for line in proc.stderr.splitlines()
             if CELL_BODY_CALL.search(line) and POOL_HANDOFF not in line]
    return entry["file"], calls, ""


def main():
    parser = argparse.ArgumentParser(
        description="Fail if a cell body is called out of line "
                    "from a cell loop (GCC only).")
    parser.add_argument("build_dir")
    opts = parser.parse_args()

    db_path = os.path.join(opts.build_dir, "compile_commands.json")
    try:
        with open(db_path) as f:
            db = json.load(f)
    except OSError as e:
        print(f"check_inlining: {e}; configure with "
              "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON", file=sys.stderr)
        return 2
    entries = [e for e in db
               if any(d in e["file"].replace(os.sep, "/")
                      for d in SOURCE_DIRS)
               and TARGET_DIR in e.get("output", e.get("command", ""))]
    if not entries:
        print(f"check_inlining: no solver sources in {db_path}",
              file=sys.stderr)
        return 2
    cxx = compile_args(entries[0])[0]
    version = compiler_version(cxx)
    if version is None:
        print(f"check_inlining: cannot run {cxx} --version", file=sys.stderr)
        return 2
    if "clang" in version.lower():
        print(f"check_inlining: skipped, {cxx} is not GCC")
        return 0

    total = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        for path, calls, err in pool.map(check, entries):
            name = os.path.relpath(path)
            if calls is None:
                print(f"check_inlining: {name} failed to compile:\n{err}",
                      file=sys.stderr)
                return 2
            if calls:
                print(f"{name}: {len(calls)} out-of-line cell-body calls")
            for line in calls:
                print(f"  {line[:240]}")
            total += len(calls)
    print(f"check_inlining: {total} out-of-line cell-body calls in "
          f"{len(entries)} files")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
