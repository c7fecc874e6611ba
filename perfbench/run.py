"""Benchmark of mixdecomp's certified-bound pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's operation, each time in a fresh worker process, for as
long as the next one is expected (from the last one's duration) to end
within S seconds, and at least once; checks every output; and prints one
JSON line as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
run's operations; ``setup_s`` over at least ``SETUP_SAMPLES`` process
starts).  With ``--trace 1`` they are the per-layer metrics from spans
recorded around mixdecomp's public functions.  Workers run one at a time,
pinned with this process to one CPU, with MIXDECOMP_THREADS and the BLAS
thread pools capped at that one CPU, so the load comes from one process.
A speed probe (``speed.py``) shares that CPU; every time is scaled by the
probe's speed factor over the same window, so times read as seconds at the
reference speed however busy the shared host is.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import probe_cpu, speed_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("cli-two-loop", "calibrated-table", "torus-contraction")
SETUP_SAMPLES = 3
UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
RUN_BUDGET_S = 170.0  # a run must end within 180 s


class SpeedProbe:
    """The ``speed.py`` process, started on this process's CPU."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "speed.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples: list[list[float]] = []
        if self.proc.stdout.readline().strip() != "ready":
            self.stop()
            raise RuntimeError("the speed probe did not start")

    def stop(self) -> None:
        """Stop the probe, wait for it, and keep its samples."""
        if self.proc.poll() is None:
            try:
                out, _ = self.proc.communicate("", timeout=20)
                self.samples = json.loads(out.strip().splitlines()[-1])
            except (subprocess.TimeoutExpired, ValueError, IndexError):
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("the speed probe returned no samples")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def child_env() -> dict[str, str]:
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("MIXDECOMP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(env.get(var, cores))
        except ValueError:
            wanted = cores
        env[var] = str(max(1, min(cores, wanted)))
    return env


def run_worker(args, mode: str, env, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--trace", str(args.trace),
        "--out", str(OUT),
    ]
    if args.short:
        cmd.append("--short")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            timeout=max(5.0, timeout),
            text=True,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"error": f"{mode} worker timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} worker exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def measure(args) -> tuple[dict, dict]:
    # Pin this process, and so the probe and every worker, to one CPU: the
    # probe must run where the worker runs to see the same slowdowns.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    with SpeedProbe() as probe:
        try:
            ops, setups = run_ops(args, env)
        finally:
            probe.stop()
    return summarize(args, ops, setups, probe.samples)


def run_ops(args, env) -> tuple[list[dict], list[dict]]:
    start = time.perf_counter()
    ops: list[dict] = []
    while True:
        began = time.perf_counter()
        ops.append(run_worker(args, "op", env, RUN_BUDGET_S - (began - start)))
        now = time.perf_counter()
        last = now - began
        if now - start + last > args.seconds or now - start + 1.2 * last > RUN_BUDGET_S:
            break
    setups: list[dict] = []  # set-up-only workers, when the run has few operations
    n_setups = SETUP_SAMPLES if args.trace else sum(1 for op in ops if not op.get("error"))
    while n_setups + len(setups) < SETUP_SAMPLES and time.perf_counter() - start < RUN_BUDGET_S - 10:
        extra = run_worker(args, "setup", env, RUN_BUDGET_S - (time.perf_counter() - start))
        if "setup_s" not in extra:
            raise RuntimeError(extra.get("error", "set-up worker failed"))
        setups.append(extra)
    return ops, setups


def summarize(args, ops: list[dict], setups: list[dict], samples) -> tuple[dict, dict]:
    """The result line, and the unscaled figures for the result file: each
    time is scaled by the probe's speed factor over its own window, and each
    metric is the median over the run."""
    done = [op for op in ops if not op.get("error")]
    for op in ops:
        if op.get("error"):
            print(f"operation failed: {op['error'].strip().splitlines()[-1]}", file=sys.stderr)
    result = {
        "correct": all(not op["failures"] for op in done),
        "attempted": len(ops),
        "failed": len(ops) - len(done),
        "metrics": {},
    }
    if not done:
        return result, {}
    raw = {}
    for op in done:
        op["speed"] = speed_factor(samples, *op["op_window"])
    if args.trace:
        from spans import LAYER_UNITS

        result["metrics"] = {
            name: {
                "value": statistics.median(
                    op["layers"][name] * (op["speed"] if unit == "s" else 1) for op in done
                ),
                "unit": unit,
            }
            for name, unit in LAYER_UNITS.items()
        }
    else:
        setups = [(w["setup_s"], speed_factor(samples, *w["setup_window"])) for w in done + setups]
        metrics = {
            # the probe's own units are taken out of the wall time they shared
            "wall_ref_s": [
                (op["wall_s"] - probe_cpu(samples, *op["op_window"])) * op["speed"] for op in done
            ],
            "cpu_ref_s": [op["cpu_s"] * op["speed"] for op in done],
            "peak_rss_mb": [op["peak_rss_mb"] for op in done],
            "setup_s": [s * f for s, f in setups],
        }
        result["metrics"] = {
            name: {"value": statistics.median(values), "unit": UNITS[name]}
            for name, values in metrics.items()
        }
        raw = {
            "wall_s": [op["wall_s"] for op in done],
            "cpu_s": [op["cpu_s"] for op in done],
            "setup_s": [s for s, _ in setups],
            "setup_speed": [f for _, f in setups],
        }
    raw["op_speed"] = [op["speed"] for op in done]
    return result, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true", help="reduced inputs (for the tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (SRC / "mixdecomp" / "__init__.py").is_file():
        print(f"no mixdecomp sources under {SRC}", file=sys.stderr)
        return 2
    # "Build": byte-compile the sources once, so no worker pays for it.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2
    result, raw = measure(args)
    if not result["metrics"]:
        print("every operation failed; no metrics to report", file=sys.stderr)
        return 1
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / stem).write_text(json.dumps(dict(result, unscaled=raw), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
