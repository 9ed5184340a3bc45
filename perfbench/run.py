"""edgelab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an edgelab checkout; edgelab is imported from ./src.
Each run starts WORKERS processes one after another.  Each worker sets up
(interpreter, ``import edgelab.cli``, inputs from the seed, one untimed
warm-up op) and then runs timed ops for SECONDS / WORKERS seconds, checking
every op's output.  The last worker also repeats its warm-up op and compares
the output bytes.

With ``--trace 0`` the result's metrics are the end-to-end ones: the median
set-up time of the workers, the median of the ops' relative times (wall time
over the time of a reference kernel measured next to it, see
``reference.py``), and the median over workers of the peak resident memory
through set-up.  The 90th percentile of the relative times, the wall-time
median and 90th percentile, and the failed fraction are printed above the
result.  With ``--trace 1`` every other op is traced and the metrics are the
per-layer ones.  Every output line but the last is for people; the last is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

WORKERS = 3
DEADLINE_S = 170.0  # the whole run, set-up of every worker included

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench_work")


class WorkerFailed(Exception):
    pass


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return max(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _run_workers(args, work: Path) -> list[dict]:
    env = dict(os.environ)
    env.pop("EDGELAB_THREADS", None)  # the program default, one thread
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve()), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    started = time.monotonic()
    reports = []
    for index in range(WORKERS):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--index", str(index),
               "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
               "--size", args.size, "--work", str(work / str(index))]
        if index == WORKERS - 1:
            cmd.append("--rerun")
        if args.corrupt:
            cmd.append("--corrupt")
        left = DEADLINE_S - (time.monotonic() - started)
        cmd += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker {index} did not finish within the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise WorkerFailed(f"worker {index} exited with code {proc.returncode}")
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return reports


def end_to_end(reports: list[dict]) -> dict:
    return {
        "op_rel_p50": (statistics.median(t for r in reports for t in r["op_rel"]), "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MiB"),
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
    }


def per_layer(reports: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (sums are per traced op) and layer self-time shares."""
    acc = tracing.Accumulator()
    walls, covered = [], []
    for r in reports:
        acc.merge(r["trace"]["acc"])
        walls += r["trace"]["op_walls"]
        covered += r["trace"]["op_covered"]
    n = len(walls)
    metrics = {}
    for name, value in acc.sums.items():
        metrics[name] = (value / n, "s" if name.endswith("_s") else (
            "bytes" if name.endswith("_bytes") else "count"))
    computed = acc.sums["spectrum.eigpairs_computed"]
    metrics["spectrum.kept_ratio"] = (acc.sums["spectrum.eigpairs_kept"] / computed if computed else 0.0,
                                      "ratio")
    del metrics["spectrum.eigpairs_kept"]
    for name in tracing.LOWS + tracing.HIGHS:
        metrics[name] = (acc.lows.get(name, acc.highs.get(name, 0.0)), "ratio")

    layers: dict[str, float] = {}
    for name, (value, unit) in metrics.items():
        if unit == "s":
            layers[name.split(".")[0]] = layers.get(name.split(".")[0], 0.0) + value
    dominant = max(layers, key=layers.get)
    predicted = reports[0]["predicted_layer"]
    plain = [t for r in reports for t in r["op_s"]]
    traced = [t for r in reports for t in r["op_s_traced"]]
    metrics.update({
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
        "trace.coverage_min": (min(c / w for c, w in zip(covered, walls)), "ratio"),
        "trace.traced_ops": (n, "count"),
        "trace.prediction_holds": (int(dominant == predicted), "count"),
    })
    return metrics, {"layers": layers, "dominant": dominant, "predicted": predicted}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every op, for the smoke test")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage every timed op's output before its check (smoke test)")
    args = ap.parse_args()

    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        reports = _run_workers(args, work)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for problem in (p for r in reports for p in r["problems"]):
        print(f"problem: {problem}", file=sys.stderr)
    if not all(r["op_s"] for r in reports) or (args.trace and not all(r["op_s_traced"] for r in reports)):
        print("benchmark failed: a worker completed no timed op", file=sys.stderr)
        return 1
    print("env " + json.dumps(reports[0]["env"], sort_keys=True))
    wall = [t for r in reports for t in r["op_s"]]
    rel = [t for r in reports for t in r["op_rel"]]
    print(f"workload {args.workload} seed {args.seed}: {len(wall)} untraced timed ops, "
          f"{attempted} attempted, {failed} failed")
    print(f"failed_frac {failed / attempted:.6g} ratio")
    print(f"op_s_p50 {statistics.median(wall):.6g} s")
    print(f"op_s_p90 {_p90(wall):.6g} s ({len(wall)} samples)")
    print(f"op_rel_p90 {_p90(rel):.6g} ratio ({len(rel)} samples)")

    if args.trace:
        metrics, shares = per_layer(reports)
        verdict = "holds" if shares["dominant"] == shares["predicted"] else "MISMATCH"
        print("layer self time per traced op: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in sorted(shares["layers"].items(), key=lambda kv: -kv[1])))
        print(f"predicted dominant layer {shares['predicted']}, measured {shares['dominant']}: {verdict}")
    else:
        metrics = end_to_end(reports)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
