"""Centralized numeric tolerances and size budgets.

All validation thresholds used across the package live in one frozen
object so that tests can reference the exact values the library enforces.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ProductSpaceTooLarge


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
        Relative residual bound of the hitting-time linear system:
        ``||(I - K_BB) h - 1||_inf <= linear_solve * (1 + ||h||_inf)``.
    forward_error : float
        The row sums of trace kernels and exit distributions may miss 1 by
        ``forward_error * eps * n * (1 + ||h||_inf)``, the forward-error
        scale of a backward-stable solve of the n-state system: machine
        epsilon, n, and h the mean return or escape time.  The zoo's and the
        tests' solves stay below 1/200 of it.
    """

    row_sum: float = 1e-9
    stationary_residual: float = 1e-8
    detailed_balance: float = 1e-9
    eigen: float = 1e-10
    linear_solve: float = 1e-8
    forward_error: float = 100.0


DEFAULT_TOLERANCES = Tolerances()

# Dense-representation ceiling: one n x n float64 matrix at the cap takes
# 200 MB.  Larger chains need the sampler interface.
MAX_DENSE_STATES = 5_000

# Byte budget of each array sized from a caller's inputs (paths, events, DP
# buffers, audit slots and tables, sampler tables); each check names its formula.
MAX_PATH_BYTES = 2**31


def check_bytes(what: str, nbytes: int) -> None:
    """Refuse ``nbytes`` of ``what`` over ``MAX_PATH_BYTES``, read at call time."""
    if nbytes > MAX_PATH_BYTES:
        raise ProductSpaceTooLarge(f"{what} need {nbytes:,} B > budget {MAX_PATH_BYTES:,} B")
