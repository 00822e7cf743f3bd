#!/usr/bin/env python3
"""Builds and runs the GeoStreams network-path benchmark.

    python3 netbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 netbench/run.py --selftest

Run from the root of a source checkout. The benchmark (netbench/, a
CMake package of its own) is built from the checkout's src/ tree into
$CARGO_TARGET_DIR (default .bench_build), then driven with the given
arguments. Its last stdout line is the result JSON object; a copy is
appended to netbench-out/results.jsonl, tagged with the arguments, for
netbench/compare.py. Exits non-zero, without a result, when the build
or the run fails.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "netbench",
                    "-j", "4"], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    return build_dir / "netbench"


def arg_value(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main() -> int:
    args = sys.argv[1:]
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_root / "netbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"netbench: build failed: {e}", file=sys.stderr)
        return 1
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("netbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines), file=sys.stderr)
        return proc.returncode or 1
    if "--selftest" in args:
        print("\n".join(lines))
        return 0
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print("\n".join(lines), file=sys.stderr)
        print("netbench: no result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    out = Path("netbench-out")
    out.mkdir(exist_ok=True)
    record = {"workload": arg_value(args, "--workload"),
              "seed": arg_value(args, "--seed"),
              "trace": arg_value(args, "--trace") or "0",
              "result": result}
    with open(out / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
