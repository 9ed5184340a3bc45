"""One benchmark worker process: set up, warm up, run timed ops, report.

Started by ``run.py``; prints one JSON object as its last line.  Set-up time
runs from ``--t0`` (the parent's monotonic clock just before it started this
process) to the end of the warm-up, so it covers the interpreter,
``import edgelab.cli``, input generation and one untimed warm-up op.  Every
timed op is followed by one call of the workload's reference kernel (see
``reference.py``); an op's relative time divides its wall time by the mean of
the reference times just before and just after it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

MAX_OPS = 2000


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--rerun", action="store_true", help="repeat the warm-up op and compare bytes")
    ap.add_argument("--corrupt", action="store_true",
                    help="damage every timed op's output before its check (smoke test only)")
    args = ap.parse_args()

    import edgelab
    src = Path("src").resolve()
    if src not in Path(edgelab.__file__).resolve().parents:
        print(f"edgelab was imported from {edgelab.__file__}, not from {src}", file=sys.stderr)
        return 2
    import numpy as np

    import envinfo
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.size)
    rng = np.random.default_rng([args.seed, args.index])
    configs = [wl.draw(rng) for _ in range(MAX_OPS)]
    out = Path(args.work) / "op"
    tracer = Tracer() if args.trace else None
    attempted = failed = 0
    problems: list[str] = []

    def attempt(cfg, traced=False, corrupt=False):
        nonlocal attempted, failed
        shutil.rmtree(out, ignore_errors=True)
        attempted += 1
        t = time.perf_counter()
        try:
            with tracer.op() if traced else contextlib.nullcontext():
                result = wl.run(cfg, out)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            failed += 1
            problems.append(f"op raised {exc!r}")
            return None, None
        elapsed = time.perf_counter() - t
        if corrupt:
            _corrupt(out)
        try:
            found = wl.check(cfg, out, result)
        except Exception as exc:
            found = [f"check raised {exc!r}"]
        if found:
            failed += 1
            problems.extend(found)
        return result, elapsed

    warm, _ = attempt(configs[0])
    setup_s = time.monotonic() - args.t0  # the reference kernel is the benchmark's own cost
    # The high-water mark after set-up covers one whole op.  Later ops repeat
    # the same work, but the mark after them moves by a freed array or two
    # with the allocator's history, and the reference kernel adds its own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    warm_digest = wl.digest(out, warm) if warm is not None and args.rerun else None

    reference = wl.reference()
    reference()
    before = reference()
    plain, relative, traced = [], [], []
    start = time.monotonic()
    i = 1
    while i < MAX_OPS and (i <= 2 or time.monotonic() - start < args.seconds):
        is_traced = tracer is not None and i % 2 == 0
        _, elapsed = attempt(configs[i], is_traced, args.corrupt)
        after = reference()
        if elapsed is not None and is_traced:
            traced.append(elapsed)
        elif elapsed is not None:
            plain.append(elapsed)
            relative.append(elapsed / (0.5 * (before + after)))
        before = after
        i += 1

    if args.rerun:
        again, _ = attempt(configs[0])
        if again is not None and warm_digest is not None and wl.digest(out, again) != warm_digest:
            failed += 1
            problems.append("rerun of the warm-up op gave different output bytes")

    report = {
        "setup_s": setup_s,
        "op_s": plain,
        "op_rel": relative,
        "op_s_traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "peak_rss_mb": peak_rss_mb,
        "predicted_layer": wl.PREDICTED_LAYER,
        "trace": tracer.report() if tracer is not None else None,
        "env": envinfo.environment(),
    }
    shutil.rmtree(args.work, ignore_errors=True)
    print(json.dumps(report))
    return 0


def _corrupt(out: Path) -> None:
    """Cut the last output file, in path order, to half its length."""
    path = max(p for p in out.rglob("*") if p.is_file())
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


if __name__ == "__main__":
    sys.exit(main())
