#!/usr/bin/env python3
"""Short-mode check of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly (--short, 1 s), untraced and
traced, and checks that each run exits 0, that its last stdout line is the
result object with exactly the contract keys, that every answer checked out,
and that the metric names and units match BENCHMARK.json exactly (the
end-to-end list untraced, the per-layer list traced). Exits 1 on the first
mismatch.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, expected: dict) -> list:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as err:
        return [f"{where}: last stdout line is not JSON ({err})"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{where}: correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted={result.get('attempted')}")
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        errors.append(f"{where}: missing {missing} extra {extra} "
                      f"unit mismatch {units}")
    for name, m in result.get("metrics", {}).items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        elif trace == 0 and value <= 0:
            errors.append(f"{where}: end-to-end {name} is {value}")
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            found = check_run(workload, trace, expected)
            print(f"{workload} --trace {trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            errors += found
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
