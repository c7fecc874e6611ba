"""Exit-distribution coupling: Wasserstein contraction certificates.

For a state x in block i, the exit mixture ``mu_x`` places mass 1/2 on block
i and 1/2 on the block where the chain first lands after leaving i.  The
chain satisfies a coupling contraction when, for some factor < 1 and a small
additive slack,

    W_d(mu_x, mu_y) <= factor * d(block(x), block(y)) + slack

for all state pairs.  :class:`ContractionEstimate` stores the fitted factor
as ``alpha`` and the slack as ``beta``; the per-step contraction *strength*
consumed by ``bounds.bound_contraction`` is ``1 - alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.optimize

from . import rng as rngmod
from .decomposition import Partition, escape_analyses, escape_analysis, escape_tails_at
from .errors import AssertionFailed, DimensionMismatch, TooLarge
from .kernel import StochasticKernel


# Largest level of integer 1-Lipschitz functions listed while building a
# metric's dual vertex table; above it the table raises ``TooLarge``.
MAX_LIPSCHITZ_POINTS = 1 << 18

# Entries of one ``(pairs x vertices)`` product block in ``wasserstein``.
_PRODUCT_ENTRIES = 1 << 22


@dataclass(frozen=True)
class BlockMetric:
    """A metric on block indices with integer off-diagonal distances >= 1."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1] or d.size == 0:
            raise DimensionMismatch("metric must be a nonempty square matrix")
        n = d.shape[0]
        if not (np.isfinite(d).all() and np.array_equal(d, np.round(d))):
            raise ValueError("metric distances must be finite integers")
        if np.diag(d).any():
            raise ValueError("metric diagonal must be zero")
        if not np.array_equal(d, d.T):
            raise ValueError("metric must be symmetric")
        if (d[~np.eye(n, dtype=bool)] < 1).any():
            raise ValueError("off-diagonal distances must be at least 1")
        for k in range(n):  # triangle inequality
            if (d > d[:, [k]] + d[[k], :]).any():
                raise ValueError("triangle inequality fails")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def d_max(self) -> float:
        if self.n == 1:
            return 0.0
        return float(self.d[~np.eye(self.n, dtype=bool)].max())

    @cached_property
    def lipschitz_vertices(self) -> np.ndarray:
        """Vertices of ``{f : f_0 = 0, f_i - f_j <= d_ij}``, one per row.

        The difference constraints of an integral metric form a network
        matrix, so every vertex is an integer point.  The integer 1-Lipschitz
        functions are listed coordinate by coordinate (each partial function
        extends, so no level dead-ends), and a point is a vertex exactly when
        its tight pairs ``|f_i - f_j| = d_ij`` connect all points.  A level
        over ``MAX_LIPSCHITZ_POINTS`` raises ``TooLarge`` before it is
        allocated.
        """
        d = self.d
        f = np.zeros((1, 1))
        for k in range(1, self.n):
            lo = (f - d[:k, k]).max(axis=1)
            counts = (f + d[:k, k]).min(axis=1) - lo + 1
            size = counts.sum()
            if size > MAX_LIPSCHITZ_POINTS:
                raise TooLarge(f"vertex table level {k} holds {size:.4g} > {MAX_LIPSCHITZ_POINTS} points")
            counts = counts.astype(np.intp)
            parent = np.repeat(np.arange(f.shape[0]), counts)
            offset = np.arange(int(size)) - np.repeat(np.cumsum(counts) - counts, counts)
            f = np.column_stack([f[parent], lo[parent] + offset])
        # Tight pairs as bitmasks, then breadth-first search from point 0 on
        # bitmasks.  Every 0/1 function is 1-Lipschitz, so within the budget
        # n - 1 <= 18 and a mask fits an int64.  Level k lists the d_0k + 1
        # functions min(v, d_0.), so d_max <= 2 MAX_LIPSCHITZ_POINTS here.
        bits = 1 << np.arange(self.n, dtype=np.int64)
        small = np.min_scalar_type(-int(d.max()) - 1)  # holds every |f_i - f_j| <= d_max
        d_small = d.astype(small)
        keep = np.empty(f.shape[0], dtype=bool)
        chunk = 4096
        for s in range(0, f.shape[0], chunk):
            g = f[s : s + chunk].astype(small)
            tight = (np.abs(g[:, :, None] - g[:, None, :]) == d_small) @ bits
            reach = np.ones(g.shape[0], dtype=np.int64)
            for _ in range(self.n - 1):
                grown = reach.copy()
                for i in range(self.n):
                    grown |= np.where(reach >> i & 1, tight[:, i], 0)
                if (grown == reach).all():
                    break
                reach = grown
            keep[s : s + chunk] = reach == bits.sum()
        vertices = f[keep]
        vertices.setflags(write=False)
        return vertices

    @classmethod
    def uniform(cls, n: int) -> "BlockMetric":
        d = np.ones((n, n)) - np.eye(n)
        return cls(d)

    @classmethod
    def hamming_on_bitmasks(cls, n_bits: int) -> "BlockMetric":
        """Distance = popcount(xor) between blocks indexed by bitmasks."""
        n = 1 << n_bits
        idx = np.arange(n)
        xor = idx[:, None] ^ idx[None, :]
        d = np.zeros((n, n))
        for b in range(n_bits):
            d += (xor >> b) & 1
        return cls(d)

    @classmethod
    def path(cls, n: int) -> "BlockMetric":
        idx = np.arange(n)
        return cls(np.abs(idx[:, None] - idx[None, :]).astype(float))


@dataclass(frozen=True)
class PairEvidence:
    x: int
    y: int
    block_x: int
    block_y: int
    distance: float
    w: float


@dataclass(frozen=True)
class ContractionEstimate:
    """Fitted exit-coupling contraction certificate.

    ``alpha`` is the certified contraction factor and ``beta`` the additive
    slack: every inspected pair satisfies
    ``W <= alpha * d + beta + 1e-9``.  ``margin = (1 - alpha) - 2 beta`` is
    the quantity the coupling mixing bound needs positive; ``certified``
    requires a positive margin and full or sampled evidence re-verified.
    """

    alpha: float
    beta: float
    margin: float
    certified: bool
    coverage: str  # "exact-all-pairs" | "sampled"
    n_pairs: int
    worst_pairs: tuple[PairEvidence, ...]

    @property
    def strength(self) -> float:
        return 1.0 - self.alpha

    def to_dict(self) -> dict:
        worst = self.worst_pairs[0] if self.worst_pairs else None
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "certified": self.certified,
            "coverage": self.coverage,
            "worst_pair": None
            if worst is None
            else {
                "x": worst.x,
                "y": worst.y,
                "blocks": [worst.block_x, worst.block_y],
                "distance": worst.distance,
                "w": worst.w,
            },
            "margin": self.margin,
        }


def exit_distribution(kernel: StochasticKernel, partition: Partition, x: int) -> np.ndarray:
    """Exit mixture ``mu_x``: half the block of x, half its first-exit block."""
    i = int(partition.block_of[x])
    stats = escape_analysis(kernel, partition, i)
    row = int(np.nonzero(stats.members == x)[0][0])
    mu = 0.5 * stats.exit_block_distribution[row]
    mu[i] += 0.5
    return mu


def exit_distributions_all(kernel: StochasticKernel, partition: Partition) -> np.ndarray:
    """Exit mixtures for every state, the blocks' escape systems solved in
    stacks of equal size (:func:`~mixdecomp.decomposition.escape_analyses`)."""
    n = kernel.n_states
    nb = partition.n_blocks
    out = np.zeros((n, nb))
    for i, stats in enumerate(escape_analyses(kernel, partition, range(nb))):
        mus = 0.5 * stats.exit_block_distribution
        mus[:, i] += 0.5
        out[stats.members] = mus
    return out


def wasserstein(mu: np.ndarray, nu: np.ndarray, metric: BlockMetric) -> float | np.ndarray:
    """Exact optimal-transport distance between distributions on blocks.

    ``mu`` and ``nu`` are probability vectors on the metric's points, or
    stacked ``(k, n)`` rows of them; a batch returns the ``(k,)`` distances.
    By Kantorovich-Rubinstein duality ``W(mu, nu)`` is the largest
    ``f . (mu - nu)`` over 1-Lipschitz f with ``f(0) = 0``, attained at a
    vertex of that polytope, so every row is one product with the metric's
    vertex table (:attr:`BlockMetric.lipschitz_vertices`) and a row max.
    A metric whose table exceeds its budget raises ``TooLarge``.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    n = metric.n
    if mu.shape != nu.shape or mu.ndim not in (1, 2) or mu.shape[-1] != n:
        raise DimensionMismatch("distributions must live on the metric's points")
    mus, nus = np.atleast_2d(mu), np.atleast_2d(nu)
    for p in (mus, nus):  # a NaN fails both comparisons, an inf the row sum
        if not ((p >= -1e-9).all() and (np.abs(p.sum(axis=1) - 1.0) <= 1e-9).all()):
            raise ValueError("inputs must be probability vectors")
    vertices = metric.lipschitz_vertices
    diff = mus - nus
    w = np.zeros(diff.shape[0])
    # einsum's own loops, not BLAS: each row is summed in one fixed order
    # whatever the batch size, so a pair's W does not depend on its batch
    rows = max(1, _PRODUCT_ENTRIES // vertices.shape[0])
    for s in range(0, diff.shape[0], rows):
        w[s : s + rows] = np.einsum("kn,vn->kv", diff[s : s + rows], vertices).max(axis=1)
    w[np.abs(diff).max(axis=1, initial=0.0) < 1e-15] = 0.0
    return float(w[0]) if mu.ndim == 1 else w


# HiGHS' tightest feasibility tolerances (smaller values are rejected as
# invalid and replaced by the 1e-7 defaults, which leave errors of 1e-7 in W).
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def wasserstein_dual(mu: np.ndarray, nu: np.ndarray, metric: BlockMetric) -> float:
    """Same distance through the potential-form dual LP (test oracle)."""
    n = metric.n
    diff = np.asarray(mu, dtype=float) - np.asarray(nu, dtype=float)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    A_ub = np.zeros((len(pairs), n))
    b_ub = np.zeros(len(pairs))
    for r, (i, j) in enumerate(pairs):
        A_ub[r, i] = 1.0
        A_ub[r, j] = -1.0
        b_ub[r] = metric.d[i, j]
    res = scipy.optimize.linprog(
        c=-diff, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs", options=_HIGHS_OPTIONS
    )
    if res.status != 0:  # pragma: no cover - the potential LP is feasible and bounded
        raise AssertionFailed("dual-transport-lp-solved", f"HiGHS status {res.status}: {res.message}")
    return float(-res.fun)


def _alpha_candidates(ws: np.ndarray, ds: np.ndarray) -> np.ndarray:
    # dyadic-fraction family, a uniform grid, and the data-driven ratios;
    # np.unique sorts and drops repeats
    dyadic = 1.0 - np.ldexp(1.0, -np.arange(11))[:, None] / np.arange(1, 17)
    grid = np.unique(
        np.concatenate(
            [dyadic.ravel(), np.linspace(1.0 / 256.0, 1.0, 256), ws[ds > 0] / ds[ds > 0], [1e-6]]
        )
    )
    return grid[(grid > 0) & (grid <= 1.0)]


# Number of worst pairs kept as evidence in a contraction estimate.
KEEP_WORST = 8

# (candidate factor, distance) entries evaluated per chunk of the margin fit.
_FIT_ENTRIES = 1 << 20


def estimate_contraction(
    kernel: StochasticKernel,
    partition: Partition,
    metric: BlockMetric,
    pair_budget: int | None = None,
    seed: int = 0,
) -> ContractionEstimate:
    """Fit the tightest certified (factor, slack) pair from exit couplings.

    All state pairs are inspected exactly when the squared state count is at
    most 1e6 (same-block pairs included: they only strengthen the
    certificate); otherwise a seeded sample stratified by block pair is used
    and the result is labeled non-certified coverage.  Among factors alpha
    with fitted slack ``beta(alpha)``, the returned pair maximizes the
    coupling-bound margin ``(1 - alpha) - 2 beta``.  The ``KEEP_WORST``
    pairs with the largest excess over ``alpha d`` are kept as evidence.
    """
    n = kernel.n_states
    if metric.n != partition.n_blocks:
        raise DimensionMismatch("metric must live on the partition blocks")
    mus = exit_distributions_all(kernel, partition)
    lab = partition.block_of
    exact = n * n <= 10**6
    if exact and pair_budget is None:
        xs, ys = np.triu_indices(n, 1)
        coverage = "exact-all-pairs"
    else:
        gen = rngmod.stream(seed, 0)
        budget = pair_budget or 4 * n
        members = [np.nonzero(lab == b)[0] for b in range(partition.n_blocks)]
        nb = partition.n_blocks
        strata = [(bi, bj) for bi in range(nb) for bj in range(bi, nb)]
        per = max(1, budget // len(strata))
        chosen = set()
        for bi, bj in strata:
            xs = gen.choice(members[bi], size=min(per, members[bi].size * 4), replace=True)
            ys = gen.choice(members[bj], size=xs.size, replace=True)
            for x, y in zip(xs, ys):
                if x != y:
                    chosen.add((min(int(x), int(y)), max(int(x), int(y))))
        xs, ys = np.array(sorted(chosen), dtype=np.intp).reshape(-1, 2).T
        coverage = "sampled"
    bx, by = lab[xs], lab[ys]
    ws = wasserstein(mus[xs], mus[ys], metric)
    ds = metric.d[bx, by]
    # beta(a) = max over pairs of w - a d needs only the largest w at each
    # distinct d: float subtraction is monotone, so the maximum is the same
    dist, at = np.unique(ds, return_inverse=True)
    w_top = np.full(dist.size, -np.inf)
    np.maximum.at(w_top, at, ws)

    def slack(a: np.ndarray) -> np.ndarray:
        out = np.empty(a.size)
        rows = max(1, _FIT_ENTRIES // dist.size)
        for r in range(0, a.size, rows):
            excess = w_top - a[r : r + rows, None] * dist
            out[r : r + rows] = excess.max(axis=1, initial=0.0)
        return np.maximum(out, 1e-12)

    alphas = _alpha_candidates(ws, ds)  # sorted ascending, distinct
    betas = slack(alphas)
    margins = (1.0 - alphas) - 2.0 * betas
    best_margin = margins.max()
    best_beta = betas[margins == best_margin].min()
    # margins within the slack's own scale are indistinguishable evidence-wise;
    # prefer the largest (most conservative) certified factor among them
    k = np.flatnonzero(margins >= (best_margin - 2.0 * best_beta) - 1e-15)[-1]
    margin, alpha, beta = float(margins[k]), float(alphas[k]), float(betas[k])
    if alpha < 2.0 * beta:  # keep 0 < beta < alpha in degenerate fits
        alpha = min(1.0, 2.0 * beta + 1e-9)
        beta = float(slack(np.array([alpha]))[0])
        margin = (1.0 - alpha) - 2.0 * beta
    violations = ws - (alpha * ds + beta) > 1e-9
    if violations.any():  # pragma: no cover - excluded by construction
        raise AssertionFailed(
            "contraction-fit-covers-evidence", f"{int(violations.sum())} pairs above alpha d + beta"
        )
    order = np.argsort(-(ws - alpha * ds), kind="stable")
    worst = tuple(
        PairEvidence(int(xs[k]), int(ys[k]), int(bx[k]), int(by[k]), float(ds[k]), float(ws[k]))
        for k in order[:KEEP_WORST]
    )
    return ContractionEstimate(
        alpha=float(alpha),
        beta=float(beta),
        margin=float(margin),
        certified=bool(margin > 0 and coverage == "exact-all-pairs"),
        coverage=coverage,
        n_pairs=len(ws),
        worst_pairs=worst,
    )


@dataclass(frozen=True)
class RegularityReport:
    """Escape-time regularity constants at two thresholds.

    ``delta1``: every state stays in its block past ``a1 phi_max log(n)``
    with at least this probability.  ``delta2``: every state leaves by
    ``a2 phi_max log(n)`` with at least this probability.
    """

    delta1: float
    delta2: float
    threshold1: float
    threshold2: float
    verified: bool
    method: str = "exact"


def occupation_regularity(
    kernel: StochasticKernel,
    partition: Partition,
    a1: float,
    a2: float,
    phi_max: float,
) -> RegularityReport:
    """Exact escape-tail regularity constants via squared block powers.

    Binary exponentiation evaluates ``P_x[tau_esc > s]`` exactly at any
    integer threshold, so no horizon cap applies.  ``n`` in the thresholds
    is the number of blocks.
    """
    if a1 < 0 or a2 < 0:
        raise ValueError("a1 and a2 must be nonnegative")
    n = partition.n_blocks
    logn = math.log(n) if n >= 2 else 0.0
    s1 = a1 * phi_max * logn
    s2 = a2 * phi_max * logn
    blocks = range(partition.n_blocks)
    stay1 = [float(tail.min()) for tail in escape_tails_at(kernel, partition, blocks, s1)]
    stay2 = [float(tail.max()) for tail in escape_tails_at(kernel, partition, blocks, s2)]
    delta1 = min(stay1)
    delta2 = 1.0 - max(stay2)
    return RegularityReport(
        delta1=delta1,
        delta2=delta2,
        threshold1=s1,
        threshold2=s2,
        verified=delta1 > 0 and delta2 > 0,
    )
