#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload <closure_tree|point_magic|write_mix>
                             --seed <n> --seconds <s> --trace <0|1> [--short]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root and is incremental after the first run. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BINARY = "dkb_perfbench"
RUN_TIMEOUT_S = 170


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir: Path) -> Path:
    if not (ROOT / "src" / "testbed" / "testbed.h").is_file():
        fail(f"no testbed sources under {ROOT / 'src'}; "
             "run from a checkout of the repository")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", BINARY,
                   "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / BINARY


def main() -> None:
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    cmd = [str(binary), *sys.argv[1:],
           "--scratch", str(ROOT / ".bench_scratch" / f"run-{os.getpid()}"),
           "--out", str(ROOT / ".bench_out")]
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
