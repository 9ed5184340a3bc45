"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Run from the root of an edgelab checkout.  For every workload listed in
BENCHMARK.json it checks that an untraced and a traced run exit 0, report no
failed op, and print exactly the metrics BENCHMARK.json names, each with its
unit; then that a run whose outputs are deliberately damaged reports failed
ops.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--size", "tiny", *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    expected = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    try:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace, units in expected.items():
                result = run(workload, "--trace", trace)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                if got != units:
                    raise AssertionError(f"{workload} trace {trace}: metrics {got} != {units}")
                if not (result["correct"] and result["failed"] == 0 and result["attempted"] > 0):
                    raise AssertionError(f"{workload} trace {trace}: {result['failed']} of "
                                         f"{result['attempted']} ops failed")
            damaged = run(workload, "--corrupt")
            if damaged["correct"] or not damaged["failed"] > 0:
                raise AssertionError(f"{workload}: damaged outputs were not caught")
            print(f"{workload}: ok ({damaged['failed']} of {damaged['attempted']} damaged ops caught)",
                  flush=True)
    except (AssertionError, subprocess.TimeoutExpired) as exc:
        print(f"smoke test failed: {exc}", file=sys.stderr)
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
