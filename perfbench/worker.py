"""One workload operation in a fresh process (started by ``run.py``).

Prints one JSON line: the set-up time, and in ``op`` mode the wall time, CPU
time and peak RSS of the operation, the check failures and, when traced, the
per-layer metrics, all as measured; ``run.py`` scales the times to the
reference speed.  ``--t0`` is the parent's ``time.perf_counter()`` just
before it started this process; on Linux that clock is CLOCK_MONOTONIC,
shared by all processes, so set-up time counts interpreter start-up too, and
the windows reported (``setup_window``, ``op_window``) are on the clock of
the speed probe's samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("op", "setup"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args(argv)

    import mixdecomp

    if Path(mixdecomp.__file__).resolve().parent != SRC / "mixdecomp":
        print(f"imported mixdecomp from {mixdecomp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    op_dir = args.out / f"{args.workload}-seed{args.seed}"
    inp = workload.prepare(args.seed, op_dir, args.short)
    setup_end = time.perf_counter()
    result = {"setup_s": setup_end - args.t0, "setup_window": [args.t0, setup_end]}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    w0 = time.perf_counter()
    try:
        output = workload.operate(inp)
        error = None
    except Exception:  # the run goes on; the operation counts as failed
        error = traceback.format_exc()
    w1 = time.perf_counter()
    wall = w1 - w0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        op_window=[w0, w1],
        wall_s=wall,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        error=error,
        failures=[],
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wall)
        tracer.write(args.out / "traces" / f"{args.workload}-seed{args.seed}.json")
    if error is None:
        try:
            result["failures"] = workload.check(inp, output)
        except Exception:
            result["failures"] = ["check raised:\n" + traceback.format_exc()]
    if error:
        print(error, file=sys.stderr)
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
