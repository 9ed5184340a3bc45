"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 1]
        [--out perfbench/results/NAME.json] [--compare perfbench/results/OTHER.json]

Run from the root of an edgelab checkout.  Reads the workloads, run length
and bounds from BENCHMARK.json, runs ``perfbench/run.py`` once per workload
and seed, one run at a time, and prints for each metric the median and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
at or above a third of the metric's bound is flagged, except for
``setup_s``.  ``--compare`` flags every metric whose median is worse than
the other file's by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=200)
    wall = time.monotonic() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    notes = [line for line in lines[:-1] if not line.startswith("env ")
             and " " in line and line.split()[0] not in result["metrics"]]
    return {"seed": seed, "wall_s": wall, "env": env, "notes": notes, **result}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="'1-10' or '1,4,7'")
    ap.add_argument("--workloads", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write runs and summary to this JSON file")
    ap.add_argument("--compare", help="a file written by an earlier --out")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metric_defs = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metric_defs}
    better = {m["name"]: m["better"] for m in metric_defs}
    other = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}

    record = {"run_seconds": bench["run_seconds"], "trace": args.trace, "env": None, "workloads": {}}
    flags = []
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            run = run_once(name, seed, bench["run_seconds"], args.trace)
            record["env"] = record["env"] or run["env"]
            del run["env"]
            runs.append(run)
            print(f"{name} seed {seed}: {run['wall_s']:.1f} s wall, correct={run['correct']}, "
                  f"{run['failed']}/{run['attempted']} failed", flush=True)
        summary = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        summary["wall_s"] = summarize([r["wall_s"] for r in runs])
        record["workloads"][name] = {"runs": runs, "summary": summary}
        for m, bound in bounds.items():
            s = summary[m]
            line = f"{name:15s} {m:32s} median {s['median']:.6g}  spread {s['spread']:.4f}"
            if bound is not None:
                line += f"  bound {bound}"
                if m != "setup_s" and s["spread"] >= bound / 3:
                    line += "  SPREAD >= bound/3"
                    flags.append((name, m, "spread"))
                if name in other:
                    base = other[name]["summary"][m]["median"]
                    worse = (s["median"] - base) / base if better[m] == "lower" else (base - s["median"]) / base
                    line += f"  vs other {worse:+.4f}"
                    if worse > bound:
                        line += "  WORSE THAN BOUND"
                        flags.append((name, m, "compare"))
            print(line)
        if any(not r["correct"] for r in runs):
            flags.append((name, "correct", "failed ops"))
        print(f"{name:15s} wall per run: median {summary['wall_s']['median']:.1f} s, "
              f"max {max(r['wall_s'] for r in runs):.1f} s", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("flags: " + (", ".join("/".join(f) for f in flags) if flags else "none"))
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
