"""Speed probe: samples how fast the benchmark's CPU runs while a worker runs.

    python3 perfbench/speed.py

``run.py`` starts it on the one CPU that it and its workers are pinned to.
Every ``INTERVAL_S`` seconds the probe wakes, runs ``unit()`` (about 4 ms
of interpreted loop, small numpy row sampling and one tiny transport LP
through scipy's HiGHS; nothing from mixdecomp) and records the unit's end
time and its CPU time.  It prints ``ready``
once warm; when its standard input closes it prints all samples as one
JSON list and exits.

Why: the benchmark's host is shared, and other tenants' load slows every
process on it, by up to a half, in stretches of seconds to minutes; CPU
time slows with wall time, so neither is steady.  Because the probe shares
the worker's CPU and wakes a few dozen times a second, its units see the
same slowdown as the worker at the same moments.  ``speed_factor`` turns the
units timed inside a window into the factor that scales the window's times
to seconds at the reference speed, at which one unit takes ``UNIT_REF_S``.
"""

from __future__ import annotations

import json
import select
import sys
import time

import numpy as np
import scipy.optimize

INTERVAL_S = 0.05
UNIT_REF_S = 3.5e-3  # CPU time of one unit on a quiet reference machine
MIN_SAMPLES = 20  # a window with fewer samples is widened to this many

_N, _PATHS, _STEPS = 32, 256, 10
_CDF = np.cumsum(np.full((_N, _N), 1.0 / _N), axis=1)
_LP_N = 4  # transport between two distributions on a path of 4 points
_COST = np.abs(np.subtract.outer(np.arange(_LP_N), np.arange(_LP_N))).astype(float).ravel()
_A_EQ = np.vstack(
    [np.kron(np.eye(_LP_N), np.ones((1, _LP_N))), np.kron(np.ones((1, _LP_N)), np.eye(_LP_N))]
)


def unit(gen: np.random.Generator) -> float:
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    state = np.arange(_PATHS) % _N
    for _ in range(_STEPS):
        state = np.minimum((_CDF[state] < gen.random(_PATHS)[:, None]).sum(axis=1), _N - 1)
    b_eq = np.concatenate([gen.dirichlet(np.ones(_LP_N)), gen.dirichlet(np.ones(_LP_N))])
    res = scipy.optimize.linprog(_COST, A_eq=_A_EQ, b_eq=b_eq, method="highs")
    return acc + int(state.sum()) + res.fun


def speed_factor(samples: list[list[float]], t0: float, t1: float) -> float:
    """``UNIT_REF_S`` over the mean unit CPU time of the samples that ended
    in ``[t0, t1]``; a window with fewer than ``MIN_SAMPLES`` samples takes
    the nearest ones around its middle instead."""
    inside = [cpu for end, cpu in samples if t0 <= end <= t1]
    if len(inside) < MIN_SAMPLES:
        if len(samples) < MIN_SAMPLES:
            raise ValueError(f"only {len(samples)} speed samples")
        mid = 0.5 * (t0 + t1)
        nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        inside = [cpu for _, cpu in nearest]
    return UNIT_REF_S / (sum(inside) / len(inside))


def probe_cpu(samples: list[list[float]], t0: float, t1: float) -> float:
    """CPU time the probe's units took from a window that they shared."""
    return sum(cpu for end, cpu in samples if t0 <= end <= t1)


def main() -> int:
    gen = np.random.default_rng(0)
    for _ in range(20):  # warm-up
        unit(gen)
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        c0 = time.thread_time()
        unit(gen)
        c1 = time.thread_time()
        samples.append([time.perf_counter(), c1 - c0])
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
