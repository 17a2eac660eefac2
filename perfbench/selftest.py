"""Fast self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced, checks that each run
emits exactly the metrics ``BENCHMARK.json`` declares (with the declared
units) and that the program's outputs pass their checks, then runs each
workload with one output deliberately corrupted and checks that the
corruption is counted as a failed operation.  Exits non-zero on the first
mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra,
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            result = run(workload, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                problems.append(
                    f"{workload} trace={trace}: emitted {sorted(units.items())}, "
                    f"declared {sorted(declared[trace].items())}"
                )
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: outputs failed: {result}")
            print(f"ok   {workload} trace={trace} attempted={result['attempted']}")
        result = run(workload, 0, "--corrupt")
        ok_frac = result["metrics"]["ok_frac"]["value"]
        if result["correct"] or result["failed"] < 1 or ok_frac >= 1.0:
            problems.append(f"{workload}: corrupted output not counted: {result}")
        print(f"ok   {workload} corrupted: failed={result['failed']} ok_frac={ok_frac:.3f}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
