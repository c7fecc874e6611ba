"""Centralized numeric tolerances and runtime knobs.

All validation thresholds used across the package live in one frozen
object so that tests can reference the exact values the library enforces.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared by every module.

    Attributes
    ----------
    row_sum : float
        Maximum deviation of any transition-matrix row sum from 1.
    stationary_residual : float
        Maximum allowed ``||pi K - pi||_1`` for a stationary distribution.
    detailed_balance : float
        Maximum allowed ``|pi(x)K(x,y) - pi(y)K(y,x)|`` for reversibility.
    eigen : float
        Tolerance used when interpreting eigenvalues (e.g. gap > eigen).
    linear_solve : float
        Maximum allowed residual of hitting/escape-time linear systems.
    """

    row_sum: float = 1e-9
    stationary_residual: float = 1e-8
    detailed_balance: float = 1e-9
    eigen: float = 1e-10
    linear_solve: float = 1e-8


DEFAULT_TOLERANCES = Tolerances()

# Dense-representation ceiling: one n x n float64 matrix at the cap takes
# 200 MB.  Larger chains need the sampler interface.
MAX_DENSE_STATES = 5_000


def thread_count() -> int:
    """Worker count for parallelizable loops (env var MIXDECOMP_THREADS)."""
    env = os.environ.get("MIXDECOMP_THREADS", "").strip()
    if env:
        value = int(env)
        if value < 1:
            raise ValueError(f"MIXDECOMP_THREADS must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1
