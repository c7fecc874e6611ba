"""Well-covering times: oracle, certified bounds, comparisons, bootstrap.

The well-covering time of a kernel Q on block indices is the least horizon
T beyond which every plausible pair of rescaled occupation counts kappa and
transition counts N (plausible = satisfying concentration-style interval
constraints with constant B) puts every block's occupation above its
threshold ``t_i / T``.  Plausibility constraints, for all ordered pairs
(i, j) including the diagonal:

    |N(i,j) - kappa(i) Q(i,j)| <= B sqrt(kappa(i)) / sqrt(T)
    |N(i,j) - kappa(j) Q(j,i)| <= B sqrt(kappa(i)) / sqrt(T)
    |sum_j N(i,j) - kappa(i)| <= 1/T,  |sum_i N(i,j) - kappa(j)| <= 1/T

with kappa in the simplex and N summing to 1.

The oracle and the propagation bound are covering predicates ("is horizon
T covered?"), monotone in T and False at every ``T <= max_i t_i``: there a
share ``t_i / T`` is at least 1, which no occupation clears.
:func:`feasibility_oracle` answers such T without testing a grid point (its
threshold guard); the bounds of :func:`propagation_covers` never get that
far.  :func:`oracle_wc_time` and :func:`propagation_bound` search the least
covered T; :func:`bootstrap_mixing_bound` takes such a predicate as
``covers(thresholds, B, T)`` and probes it once per outer horizon, since T
exceeds the least covered horizon exactly when ``T >= 3`` and ``T - 1`` is
covered.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .bounds import BoundResult, PeresSousiConstants, least_horizon
from .config import check_bytes
from .decomposition import Partition, _is_integer, block_mixing_times, projected_kernel
from .errors import (
    HorizonCap,
    InvalidComparison,
    NoFiniteT,
    NoFixedPoint,
    NotTreeWalk,
    TooManyBlocks,
)
from .kernel import StationaryDistribution, StochasticKernel, stationary_distribution
from .simulate import RowSampler, row_width, wilson_interval
from . import rng as rngmod


@dataclass(frozen=True)
class WellCoveringQuery:
    """Kernel on blocks, per-block occupation thresholds, and constant B."""

    q: StochasticKernel
    thresholds: np.ndarray
    B: float

    def __post_init__(self):
        t = np.asarray(self.thresholds, dtype=float)
        if t.ndim != 1 or t.shape[0] != self.q.n_states:
            raise ValueError("one threshold per block required")
        if not ((t >= 0).all() and np.isfinite(t).all() and 0 < self.B < math.inf):
            raise ValueError("thresholds must be finite and >= 0, and B finite and > 0")
        t = t.copy()
        t.setflags(write=False)
        object.__setattr__(self, "thresholds", t)

    @property
    def n(self) -> int:
        return self.q.n_states


@dataclass(frozen=True)
class OracleOutcome:
    covered: bool
    witnesses: tuple
    grid_tolerance: float
    T: int


@dataclass(frozen=True)
class WellCoveringCertificate:
    """A certified upper bound on a well-covering time with its derivation.

    ``provenance`` records every comparison step applied after the base
    method, as human-readable multiplicative factors.
    """

    value: float
    method: str  # oracle | tree | propagation | comparison
    thresholds: tuple
    B: float
    kernel: StochasticKernel | None = None
    provenance: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "thresholds": list(self.thresholds),
            "B": self.B,
            "provenance": list(self.provenance),
        }


# ---------------------------------------------------------------------------
# Feasibility oracle (n <= 3)
# ---------------------------------------------------------------------------


# Resolution of the oracle's kappa grid: its points are k / ORACLE_GRID.
ORACLE_GRID = 64


@functools.lru_cache(maxsize=None)
def _kappa_grid(n: int) -> np.ndarray:
    """Grid points ``k / ORACLE_GRID`` of the n-simplex, built once per n."""
    resolution = ORACLE_GRID
    if n == 1:
        grid = np.array([[1.0]])
    elif n == 2:
        k = np.arange(resolution + 1) / resolution
        grid = np.stack([k, 1.0 - k], axis=1)
    elif n == 3:
        a, b = np.meshgrid(np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij")
        keep = a + b <= resolution
        a, b = a[keep], b[keep]
        grid = np.stack([a, b, resolution - a - b], axis=1) / resolution
    else:
        raise TooManyBlocks("feasibility oracle supports n <= 3")
    grid.setflags(write=False)
    return grid


@functools.lru_cache(maxsize=None)
def _cut_incidence(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(arcs, cuts)`` 0/1 matrices of the arcs entering, and leaving, each cut.

    Nodes: source 0, rows 1..n, columns n+1..2n, sink 2n+1.  Arcs: source to
    each row, row to column (row-major), each column to sink, sink to source.
    Cuts: the nonempty proper node subsets, as bit masks ``1 .. 2^(2n+2) - 2``.
    """
    rows, cols, sink = np.arange(1, n + 1), np.arange(n + 1, 2 * n + 1), 2 * n + 1
    tail = np.concatenate([np.zeros(n, dtype=int), np.repeat(rows, n), cols, [sink]])
    head = np.concatenate([rows, np.tile(cols, n), np.full(n, sink), [0]])
    inside = (np.arange(1, 2 ** (2 * n + 2) - 1) >> np.arange(2 * n + 2)[:, None]) & 1 == 1
    enter = (~inside[tail] & inside[head]).astype(float)
    enter.setflags(write=False)
    # an arc leaves a cut iff it enters its complement, which sits at the mirrored column
    return enter, enter[:, ::-1]


def _plausible(kappa: np.ndarray, Q: np.ndarray, B: float, T: float) -> np.ndarray:
    """For each row of ``kappa``, is there an N matrix compatible with it at horizon T?

    N is a circulation: source to row i within ``kappa_i -+ 1/T``, row i to
    column j within the bounds on N(i, j), column j to sink within ``kappa_j
    -+ 1/T``, sink to source 1.  By Hoffman's circulation theorem one exists
    iff no arc's lower bound exceeds its upper bound and no cut takes in
    more lower bound than it lets out upper bound: exact, with no LP.
    """
    m, n = kappa.shape
    r = B * np.sqrt(kappa) / math.sqrt(T)  # radius indexed by the first block
    a = kappa[:, :, None] * Q
    b = kappa[:, None, :] * Q.T
    lo = np.maximum(np.maximum(a, b) - r[:, :, None], 0.0)
    hi = np.minimum(np.minimum(a, b) + r[:, :, None], 1.0)
    slack, one = 1.0 / T, np.ones((m, 1))
    lower = np.hstack([kappa - slack, lo.reshape(m, n * n), kappa - slack, one])
    upper = np.hstack([kappa + slack, hi.reshape(m, n * n), kappa + slack, one])
    enter, leave = _cut_incidence(n)
    return (lower <= upper).all(axis=1) & (lower @ enter <= upper @ leave).all(axis=1)


def feasibility_oracle(query: WellCoveringQuery, T: int) -> OracleOutcome:
    """Search a discretized simplex for covering violations at horizon T.

    A violation is a plausible (kappa, N) pair with some block occupation at
    or below its threshold share ``t_i / T``; the first four in grid order
    are listed.  All candidate points are tested at once, in about 4 KB each
    for 3 blocks (2,145 points).  Coverage is certified only up to the grid
    tolerance ``2 / ORACLE_GRID``, which is reported.  At ``T <= max_i t_i``
    some share is at least 1, which no occupation clears, so the horizon is
    not covered whatever the grid says (and no witness is listed); this guard
    makes the outcome monotone from the first T on.
    """
    if query.n > 3:
        raise TooManyBlocks("feasibility oracle supports n <= 3")
    if T <= query.thresholds.max():
        return OracleOutcome(False, (), 2.0 / ORACLE_GRID, T)
    grid = _kappa_grid(query.n)
    # the 1e-15 keeps a share that equals a grid point up to rounding
    candidates = grid[(grid <= query.thresholds / T + 1e-15).any(axis=1)]
    feasible = candidates[_plausible(candidates, query.q.rows, query.B, T)]
    witnesses = tuple(tuple(kappa) for kappa in np.round(feasible[:4], 9))
    return OracleOutcome(not len(feasible), witnesses, 2.0 / ORACLE_GRID, T)


def oracle_wc_time(query: WellCoveringQuery) -> WellCoveringCertificate:
    """Least horizon up to 2^40 the oracle certifies as covered (integer bisection).

    The search starts at ``max_i t_i``, below which the oracle's threshold
    guard already rules every horizon out, so for a monotone oracle
    ``T > value`` holds exactly when ``T >= 3`` and ``T - 1`` is covered.
    """
    T = least_horizon(
        lambda horizon: feasibility_oracle(query, horizon).covered,
        int(query.thresholds.max()),
        2**40,
    )
    if T is None:
        raise NoFiniteT("oracle found no covered horizon up to 2^40")
    return WellCoveringCertificate(
        value=float(T),
        method="oracle",
        thresholds=tuple(query.thresholds.tolist()),
        B=query.B,
        kernel=query.q,
        provenance=(f"oracle(grid={ORACLE_GRID})",),
    )


# ---------------------------------------------------------------------------
# Tree walks and the generalized propagation bound
# ---------------------------------------------------------------------------


def tree_bound(q: StochasticKernel, phi: float, B: float) -> WellCoveringCertificate:
    """Closed-form covering bound for the canonical lazy walk on a tree.

    The kernel must have all off-diagonal entries equal to ``1 / (2 Delta)``
    on the edges of a tree with maximum degree at most Delta.  The certified
    value is ``n * max(1000 Delta^2 B^2 D^2, 4 phi)`` with D the diameter.
    """
    K = q.rows
    n = q.n_states
    off = K.copy()
    np.fill_diagonal(off, 0.0)
    vals = off[off > 0]
    if n > 1:
        if vals.size == 0:
            raise NotTreeWalk("no off-diagonal transitions")
        v = vals[0]
        if not np.allclose(vals, v, atol=1e-12):
            raise NotTreeWalk("off-diagonal rates are not all equal")
        if not np.allclose(off, off.T, atol=1e-12):
            raise NotTreeWalk("edge structure is not symmetric")
        delta = 1.0 / (2.0 * v)
        if abs(delta - round(delta)) > 1e-9:
            raise NotTreeWalk(f"rate {v} is not 1/(2 Delta) for integer Delta")
        delta = int(round(delta))
        adj = off > 0
        degrees = adj.sum(axis=1)
        if degrees.max() > delta:
            raise NotTreeWalk("maximum degree exceeds Delta implied by the rate")
        n_edges = int(adj.sum()) // 2
        dist = csgraph.shortest_path(csr_matrix(adj), unweighted=True)
        if n_edges != n - 1 or np.isinf(dist).any():
            raise NotTreeWalk("support graph is not a tree")
        D = int(dist.max())
    else:
        delta, D = 1, 0
    value = n * max(1000.0 * delta**2 * B**2 * D**2, 4.0 * phi)
    return WellCoveringCertificate(
        value=float(value),
        method="tree",
        thresholds=tuple([phi] * n),
        B=B,
        kernel=q,
        provenance=(f"tree(n={n},Delta={delta},D={D})",),
    )


def _propagation_measure(q: StochasticKernel) -> StationaryDistribution:
    if not q.is_irreducible():
        raise InvalidComparison("propagation requires an irreducible kernel")
    return stationary_distribution(q)


def propagation_covers(
    query: WellCoveringQuery, T: int, mu: StationaryDistribution | None = None
) -> bool:
    """Do propagated occupation lower bounds clear every threshold at horizon T?

    Some block holds occupation share at least 1/n; from any such root the
    plausibility constraints force, for each support edge (l, j),

        kappa(j) >= (mu(j)/mu(l)) kappa(l) (1 - c_lj B / (sqrt(kappa(l) T)))

    with ``c_lj = 4 / Q(l, j)`` (a weakening of the interval constraints, so
    every step is sound for reversible Q).  T is covered when the propagated
    bounds from every possible root exceed all threshold shares ``t_i / T``.
    The bounds only grow with T, and from the heaviest root none exceeds
    1/n, so the answer is monotone in T and False at ``T <= max_i t_i``.
    A given ``mu`` must be the stationary distribution of the irreducible
    ``query.q``; without it both are computed here.
    """
    q = query.q
    n = query.n
    if mu is None:
        mu = _propagation_measure(q)
    w = mu.weights.tolist()
    Q = q.rows.tolist()
    sqrt_T = math.sqrt(T)
    # per support edge (l, j): mu(j)/mu(l) and c_lj B, as Python floats
    edges = [
        (l, j, w[j] / w[l], (4.0 / Q[l][j]) * query.B)
        for l in range(n)
        for j in range(n)
        if l != j and Q[l][j] > 0
    ]

    def lower_bounds(root: int) -> list[float]:
        lb = [0.0] * n
        lb[root] = 1.0 / n
        for _ in range(n):
            improved = False
            for l, j, ratio, cB in edges:
                if lb[l] <= 0:
                    continue
                shrink = 1.0 - cB / (math.sqrt(lb[l]) * sqrt_T)
                cand = ratio * lb[l] * max(0.0, shrink)
                if cand > lb[j] + 1e-18:
                    lb[j] = cand
                    improved = True
            if not improved:
                break
        return lb

    shares = query.thresholds / T
    return all((np.asarray(lower_bounds(root)) > shares).all() for root in range(n))


def propagation_bound(query: WellCoveringQuery) -> WellCoveringCertificate:
    """Least integer horizon up to 2^60 :func:`propagation_covers` certifies as covered.

    This extends the tree induction to arbitrary irreducible kernels and is
    labeled as such in the provenance.
    """
    mu = _propagation_measure(query.q)
    T = least_horizon(lambda horizon: propagation_covers(query, horizon, mu), 2, 2**60)
    if T is None:
        raise NoFiniteT("propagation found no covering horizon up to 2^60")
    return WellCoveringCertificate(
        value=float(T),
        method="propagation",
        thresholds=tuple(query.thresholds.tolist()),
        B=query.B,
        kernel=query.q,
        provenance=("propagation(extension beyond trees)",),
    )


# ---------------------------------------------------------------------------
# Comparison steps
# ---------------------------------------------------------------------------


def compare_wc(
    cert: WellCoveringCertificate,
    transform: str,
    alpha: float | None = None,
    target: StochasticKernel | None = None,
) -> WellCoveringCertificate:
    """Derive a covering certificate for a transformed problem.

    transform:
      * ``"monotone"``: ``target`` dominates the certified kernel entrywise
        off the diagonal and shares its stationary measure; factor 9.
      * ``"lazify"``: the certified kernel is half-lazy; the new kernel is
        its alpha-mixture with the identity; factor ``alpha**-2``.
      * ``"scale_thresholds"``: thresholds multiplied by ``alpha > 1``;
        factor alpha.
      * ``"scale_B"``: B multiplied by ``alpha > 1``; factor ``alpha**2``.
    """
    if transform == "monotone":
        if target is None or cert.kernel is None:
            raise InvalidComparison("monotone comparison needs both kernels")
        base = cert.kernel
        if target.n_states != base.n_states:
            raise InvalidComparison("kernels must share the block space")
        off_old = base.rows.copy()
        off_new = target.rows.copy()
        np.fill_diagonal(off_old, 0.0)
        np.fill_diagonal(off_new, 0.0)
        if (off_new < off_old - 1e-12).any():
            raise InvalidComparison("target kernel does not dominate off-diagonal entries")
        mu_old = stationary_distribution(base).weights
        mu_new = stationary_distribution(target).weights
        if np.abs(mu_old - mu_new).max() > 1e-8:
            raise InvalidComparison("stationary measures differ")
        return WellCoveringCertificate(
            value=9.0 * cert.value,
            method="comparison",
            thresholds=cert.thresholds,
            B=cert.B,
            kernel=target,
            provenance=cert.provenance + ("monotone: x9",),
        )
    if transform == "lazify":
        if alpha is None or not (0 < alpha < 1):
            raise InvalidComparison("lazify needs alpha in (0, 1)")
        if cert.kernel is None or cert.kernel.min_diagonal() < 0.5 - 1e-12:
            raise InvalidComparison("lazify comparison needs a half-lazy base kernel")
        lazy_rows = alpha * cert.kernel.rows + (1 - alpha) * np.eye(cert.kernel.n_states)
        return WellCoveringCertificate(
            value=cert.value / alpha**2,
            method="comparison",
            thresholds=cert.thresholds,
            B=cert.B,
            kernel=StochasticKernel(lazy_rows),
            provenance=cert.provenance + (f"lazify(alpha={alpha}): x{alpha**-2:g}",),
        )
    if transform == "scale_thresholds":
        if alpha is None or alpha <= 1:
            raise InvalidComparison("threshold scaling needs alpha > 1")
        return WellCoveringCertificate(
            value=alpha * cert.value,
            method="comparison",
            thresholds=tuple(alpha * t for t in cert.thresholds),
            B=cert.B,
            kernel=cert.kernel,
            provenance=cert.provenance + (f"scale_thresholds(alpha={alpha}): x{alpha:g}",),
        )
    if transform == "scale_B":
        if alpha is None or alpha <= 1:
            raise InvalidComparison("B scaling needs alpha > 1")
        return WellCoveringCertificate(
            value=alpha**2 * cert.value,
            method="comparison",
            thresholds=cert.thresholds,
            B=alpha * cert.B,
            kernel=cert.kernel,
            provenance=cert.provenance + (f"scale_B(alpha={alpha}): x{alpha**2:g}",),
        )
    raise InvalidComparison(f"unknown transform {transform!r}")


# ---------------------------------------------------------------------------
# Bootstrap mixing bound
# ---------------------------------------------------------------------------


def bootstrap_mixing_bound(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    partition: Partition,
    I: Sequence[int],
    alpha: float,
    beta: float,
    covers: Callable[[np.ndarray, float, int], bool],
    constants: PeresSousiConstants,
    phi: Sequence[float] | None = None,
) -> BoundResult:
    """Mixing bound through a certified well-covering horizon.

    ``covers(thresholds, B, T)`` must certify that the projected kernel is
    well covered at horizon T; it must be monotone in T and False at every
    ``T <= max(thresholds)`` (:func:`feasibility_oracle` and
    :func:`propagation_covers` both are).  The search finds the least
    integer T exceeding the least covered horizon at thresholds
    ``8 c' phi_i`` (phi zeroed off I) and concentration constant
    ``B(T) = sqrt(8 phi_max log(64 n^2 T))``, which is the least T >= 3 with
    ``covers(thresholds, B(T), T - 1)``: one covering probe per horizon.
    The mixing time is then at most ``(4/3) c_alpha T``.  The B term grows
    only logarithmically in T, so the crossing exists and doubling finds it;
    the search looks up to 2^60.  Without ``phi``, the block mixing times
    are computed up to 2^20 steps.
    """
    I = [int(i) for i in I]
    masses = partition.masses(pi)
    cover = float(masses[I].sum())
    if not (cover >= beta > 0.5):
        raise ValueError(f"need mass(I) >= beta > 1/2, got mass {cover:.4f}, beta {beta}")
    if not (0 < alpha < 0.5 and 1 - alpha < beta < 1):
        raise ValueError("need 0 < alpha < 1/2 and 1 - alpha < beta < 1")
    n = partition.n_blocks
    if phi is None:
        phis, _, _ = block_mixing_times(kernel, pi, partition, 2**20)
        if any(p is None for p in phis):
            raise NoFixedPoint("a block mixing time exceeded its horizon")
        phi = [float(p) for p in phis]
    phi = np.asarray(phi, dtype=float)
    phi_max = float(phi.max())
    gamma = min(0.5, (alpha + beta - 1.0) / beta)
    cp = constants.c_alpha_prime
    thresholds = np.where(np.isin(np.arange(n), I), 8.0 * cp * phi, 0.0)

    def B_of(T: int) -> float:
        return math.sqrt(8.0 * phi_max * math.log(64.0 * n * n * T))

    def ok(T: int) -> bool:
        return T >= 3 and covers(thresholds, B_of(T), T - 1)

    T = least_horizon(ok, 2, 2**60)
    if T is None:
        raise NoFixedPoint("no self-consistent horizon up to 2^60")
    value = (4.0 / 3.0) * constants.c_alpha * T
    return BoundResult(
        name="bootstrap_well_covering",
        value=value,
        ingredients={
            "T": T,
            "phi": phi.tolist(),
            "phi_max": phi_max,
            "I": I,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "B_at_T": B_of(T),
            "c_alpha": constants.c_alpha,
            "c_alpha_prime": cp,
        },
        universal_constant_flag=not constants.calibrated,
    )


# ---------------------------------------------------------------------------
# Concentration audit of transition counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    orientation: str
    t: int
    c: float
    empirical: float
    wilson_hi: float
    bound: float
    reps: int

    def holds(self) -> bool:
        return self.wilson_hi <= self.bound or self.bound >= 1.0


# Fewest replicas per (orientation, t) run of a concentration audit.
MIN_AUDIT_REPS = 1000


def concentration_audit(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    partition: Partition,
    i: int,
    j: int,
    t_grid: Sequence[int],
    c_grid: Sequence[float],
    reps: int,
    seed: int,
    phi_max: float,
) -> list[AuditRow]:
    """Empirical exceedance of transition-count concentration vs its bound.

    For each t, replicas run until block ``clock`` has been occupied t + 1
    times; the count of i -> j crossings per clock tick is compared to the
    projected rate, and the frequency of deviations above each c is tabled
    against ``4 exp(-c^2 (t+1) / (8 phi_max))``.  Both orientations (clocked
    by i against Kbar(i,j), clocked by j against Kbar(j,i)) are audited.
    Every replica starts at state 0.  Both runs at ``t_grid[idx_t]`` draw
    the same stream ``rng.stream(seed + 7 * idx_t, 1)``, so their first
    ``max(t, 1) - 1`` steps are the same and are stepped once; then all
    runs step together in one loop (:func:`_transition_ratio_samples`).

    Raises
    ------
    ValueError
        If ``i`` or ``j`` is not a block index, a ``t_grid`` entry is not a
        nonnegative integer, or ``phi_max`` is not positive; the value is
        named.
    ProductSpaceTooLarge
        If the replicas' slot arrays and the counter-step tables would
        exceed the byte budget.
    HorizonCap
        If a run's replicas do not all finish within its step cap; the
        first such run in (orientation, t) order is named.

    The inputs and the budget are checked before anything is allocated.
    """
    if reps < MIN_AUDIT_REPS:
        raise ValueError(f"need reps >= {MIN_AUDIT_REPS} for a meaningful audit")
    n_blocks = partition.n_blocks
    for name, block in (("i", i), ("j", j)):
        if not (_is_integer(block) and 0 <= block < n_blocks):
            raise ValueError(f"block {name} = {block!r} is not one of 0..{n_blocks - 1}")
    for t in t_grid:
        if not (_is_integer(t) and t >= 0):
            raise ValueError(f"t_grid entry {t!r} is not a nonnegative integer")
    if not phi_max > 0:
        raise ValueError(f"phi_max must be > 0, not {phi_max!r}")
    proj = projected_kernel(kernel, pi, partition)
    samples = iter(_transition_ratio_samples(kernel, partition, i, j, t_grid, reps, seed))
    rows: list[AuditRow] = []
    for orient, target in (("ij", proj.rows[i, j]), ("ji", proj.rows[j, i])):
        for t in t_grid:
            stats = next(samples)
            for c in c_grid:
                exceed = int((np.abs(stats - target) > c).sum())
                _, hi = wilson_interval(exceed, reps)
                bound = 4.0 * math.exp(-(c * c) * (t + 1) / (8.0 * phi_max))
                rows.append(
                    AuditRow(
                        orientation=orient,
                        t=int(t),
                        c=float(c),
                        empirical=exceed / reps,
                        wilson_hi=hi,
                        bound=bound,
                        reps=reps,
                    )
                )
    return rows


# Bytes per replica slot: state, packed counter, slot origin, word, draw
# buffer and result (8 B each) and the liveness flag (1 B), and as much
# again for one step's temporaries or compaction's copies.
_AUDIT_SLOT_BYTES = 2 * (6 * 8 + 1)

# Bytes per transition index x * w + slot: the crossing mask (1 B) and the
# two int64 counter-step tables.
_AUDIT_TABLE_BYTES = 1 + 2 * 8

# Finished slots stay in the arrays, stepped on stale words, until the
# live ones fall below this share of them; then every array is compacted.
_COMPACT_BELOW = 0.9


def _shared_steps(
    sampler: RowSampler,
    tables: list[np.ndarray],
    gens: list[np.random.Generator],
    ages: list[int],
    reps: int,
    state: np.ndarray,
    counter: np.ndarray,
    u: np.ndarray,
    spare: np.ndarray,
) -> None:
    """Step every pair of runs through the steps it shares, in place.

    Run k and run ``len(ages) + k`` draw the same stream from the same
    start, and no replica finishes before its ``max(t, 1)``-th step, so the
    pair is stepped once for its first ``ages[k] = max(t_k, 1) - 1`` steps,
    on words from ``gens[k]``, with the counter steps of both clocks
    (``tables``) kept.  Meanwhile the pairs sit in the slots by age, longest
    first, so the pairs still sharing steps are always a prefix of them:
    each pair's states once, its counters clocked by i in the first half and
    by j in the second.  Then ``state`` and ``counter`` are regrouped
    run-major through ``spare``, and each run's generator is set where its
    pair's is.  ``state`` comes in filled with state 0, and ``u`` and
    ``spare`` are scratch, so only one step's temporaries are allocated, as
    in the loop.
    """
    n_pairs = len(ages)
    half = n_pairs * reps
    order = sorted(range(n_pairs), key=lambda k: -ages[k])
    for p, k in enumerate(order):
        counter[p * reps : (p + 1) * reps] = (ages[k] + 1) << 32
    counter[half:] = counter[:half]
    sharing = n_pairs
    for age in range(max(ages, default=0)):
        while ages[order[sharing - 1]] <= age:
            sharing -= 1
        m = sharing * reps
        for p, k in enumerate(order[:sharing]):
            u[p * reps : (p + 1) * reps] = gens[k].bit_generator.random_raw(reps)
        move = sampler.transitions(state[:m], u[:m])
        sampler.cols.take(move, out=state[:m])
        counter[:m] += tables[0].take(move)
        counter[half : half + m] += tables[1].take(move)
    state[half:] = state[:half]
    for a in (state, counter):
        regrouped = spare.view(a.dtype)
        for p, k in enumerate(order):
            for lo in (0, half):
                regrouped[lo + k * reps : lo + (k + 1) * reps] = a[lo + p * reps : lo + (p + 1) * reps]
        a[:] = regrouped
    for k in range(n_pairs):
        gens[n_pairs + k].bit_generator.state = gens[k].bit_generator.state


def _transition_ratio_samples(
    kernel: StochasticKernel,
    partition: Partition,
    i: int,
    j: int,
    t_grid: Sequence[int],
    reps: int,
    seed: int,
) -> list[np.ndarray]:
    """Per-replica ``N_ij(kappa_clock^{-1}(t)) / (t + 1)`` for every run.

    The runs are clocked by block i for each t of ``t_grid``, then by block
    j; every replica starts at state 0, and both runs ``(i, t_grid[k])``
    and ``(j, t_grid[k])`` draw from ``rng.stream(seed + 7 k, 1)``.  A
    replica finishes on its ``max(t, 1)``-th arrival in the clock block, so
    none finishes before its ``max(t, 1)``-th step and the two runs of a
    pair take the same first ``max(t, 1) - 1`` steps: those are stepped
    once, with both clocks' counters kept.  Then the ``2 * len(t_grid) * reps`` replicas
    are slots laid out run-major, replicas in index order, and advance
    together.  Each step, every run with live replicas draws one raw word
    per live replica from its own generator's ``random_raw`` in slot order,
    so each run's numbers are those of simulating it alone.  The crossing
    on a replica's finishing step is not counted.  Run r stops at its step
    cap ``200 (t + 1) max(1, n)``.
    """
    runs = [(clock, int(t), seed + 7 * k) for clock in (i, j) for k, t in enumerate(t_grid)]
    n_runs = len(runs)
    n_pairs = n_runs // 2
    n_slots = n_runs * reps
    n_moves = kernel.n_states * row_width(kernel)
    check_bytes(
        f"replica slots for {n_runs} audit runs x {reps} replicas and counter-step tables "
        f"for {n_moves:,} transition indices",
        n_slots * _AUDIT_SLOT_BYTES + n_moves * _AUDIT_TABLE_BYTES,
    )
    sampler = RowSampler(kernel)
    # transition index x * w + slot moves x to cols[index]
    cols, block_of = sampler.cols, partition.block_of
    crossing = np.repeat(block_of == i, cols.size // kernel.n_states) & (block_of == j)[cols]
    tables = []  # counter step per transition index for the runs clocked by i, then j
    for c in (i, j):
        tables.append(crossing.astype(np.int64))
        tables[-1][(block_of == c)[cols]] -= 1 << 32
    firsts = [0, n_slots // 2]  # the runs clocked by j fill the second half of the slots
    gens = [rngmod.stream(run_seed, 1) for _, _, run_seed in runs]
    caps = [200 * (t + 1) * max(1, kernel.n_states) for _, t, _ in runs]
    ages = [max(t, 1) - 1 for _, t, _ in runs[:n_pairs]]
    due: dict[int, list[int]] = {}  # loop step -> runs whose cap it is, in order
    for r, cap in enumerate(caps):
        due.setdefault(cap - ages[r % n_pairs], []).append(r)

    origin = np.arange(n_slots, dtype=np.intp)
    state = np.zeros(n_slots, dtype=np.intp)
    # (clock arrivals still due) << 32 | crossings.  A finished slot parks at
    # 2^62.  A step adds at most one crossing and takes at most 2^32, so the
    # packing is exact for the first 2^30 steps (hours of looping).
    counter = np.empty(n_slots, dtype=np.int64)
    live = np.ones(n_slots, dtype=bool)
    u = np.empty(n_slots, dtype=np.uint64)
    fresh = np.empty(n_slots, dtype=np.uint64)
    result = np.empty(n_slots, dtype=np.int64)
    _shared_steps(sampler, tables, gens, ages, reps, state, counter, u, fresh)
    live_count = np.full(n_runs, reps)
    n_live = n_slots
    edges = [*firsts, n_slots]  # slot range of each clock's runs
    failed: tuple[int, int] | None = None  # (run, replicas left at its cap)
    step = 0
    while n_live:
        step += 1
        # all live: draw in place; else dead slots keep their stale words
        dest = u if n_live == state.size else fresh
        at = 0
        for r, k in enumerate(live_count.tolist()):
            if k:
                dest[at : at + k] = gens[r].bit_generator.random_raw(k)
                at += k
        if dest is fresh:
            u[live] = fresh[:n_live]
        move = sampler.transitions(state, u)
        state = cols.take(move)
        for table, lo, hi in zip(tables, edges, edges[1:]):
            counter[lo:hi] += table.take(move[lo:hi])
        fin = np.flatnonzero(counter < 1 << 32)
        if fin.size:
            result[origin[fin]] = counter[fin] - crossing.take(move[fin])
            counter[fin] = 1 << 62
            live[fin] = False
            live_count -= np.bincount(origin[fin] // reps, minlength=n_runs)
            n_live -= fin.size
        for r in due.get(step, ()):
            if live_count[r]:
                # the runs from r on can no longer change which run is named
                failed = (r, int(live_count[r]))
                cut = int(np.searchsorted(origin, r * reps))
                state, counter, origin, live, u = (a[:cut] for a in (state, counter, origin, live, u))
                live_count[r:] = 0
                n_live = int(live_count.sum())
        if n_live < _COMPACT_BELOW * state.size:
            keep = np.flatnonzero(live)
            state, counter, origin = (a[keep] for a in (state, counter, origin))
            live = np.ones(keep.size, dtype=bool)
            u = u[: keep.size]
        if state.size < edges[-1]:
            edges = [*np.searchsorted(origin, firsts).tolist(), state.size]
    if failed is not None:
        r, left = failed
        clock_block, t, _ = runs[r]
        raise HorizonCap(
            f"{left} of {reps} audit replicates did not reach {t} visits to "
            f"block {clock_block} within {caps[r]} steps"
        )
    return [result[r * reps : (r + 1) * reps] / (t + 1.0) for r, (_, t, _) in enumerate(runs)]
