"""State-space partitions, trace (restriction) and projected kernels.

The trace of a chain on a block is the chain watched only while it visits
that block; the projected chain moves on block indices with stationary-flow
transition rates.  Escape statistics and the subset hitting scale
``phi_bar_hit`` are computed exactly by linear solves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.linalg

from . import rng as rngmod
from .config import DEFAULT_TOLERANCES
from .errors import (
    AbsorbingBlock,
    DimensionMismatch,
    NoExit,
    SingularReturn,
    TooManyBlocks,
)
from .kernel import (
    MixingProfile,
    StationaryDistribution,
    StochasticKernel,
    hitting_analysis,
    mixing_profile,
    search_closed_classes,
)


@dataclass(frozen=True)
class Partition:
    """Surjective assignment of states to blocks ``0 .. n_blocks - 1``.

    Blocks are nonempty, disjoint and cover the state space by construction.
    """

    block_of: np.ndarray
    n_blocks: int

    def __post_init__(self):
        lab = np.asarray(self.block_of, dtype=int)
        if lab.ndim != 1:
            raise DimensionMismatch("block_of must be a vector")
        if self.n_blocks < 1:
            raise ValueError("need at least one block")
        if lab.min(initial=0) < 0 or (lab.size and lab.max() >= self.n_blocks):
            raise ValueError("block indices out of range")
        counts = np.bincount(lab, minlength=self.n_blocks)
        if (counts == 0).any():
            empty = np.nonzero(counts == 0)[0]
            raise ValueError(f"empty blocks: {empty.tolist()}")
        lab = lab.copy()
        lab.setflags(write=False)
        object.__setattr__(self, "block_of", lab)

    @classmethod
    def from_block_of(cls, block_of) -> "Partition":
        lab = np.asarray(block_of, dtype=int)
        return cls(lab, int(lab.max()) + 1 if lab.size else 1)

    @classmethod
    def single_block(cls, n_states: int) -> "Partition":
        return cls(np.zeros(n_states, dtype=int), 1)

    @property
    def n_states(self) -> int:
        return self.block_of.shape[0]

    def members(self, block: int) -> np.ndarray:
        return np.nonzero(self.block_of == block)[0]

    def masses(self, pi: StationaryDistribution) -> np.ndarray:
        if pi.n_states != self.n_states:
            raise DimensionMismatch("pi length must equal partition size")
        return np.bincount(self.block_of, weights=pi.weights, minlength=self.n_blocks)


@dataclass(frozen=True)
class EscapeStatistics:
    """Exact escape-time data for one partition block.

    ``expected[k]`` is the mean first exit time from the block started at its
    k-th member state; ``exit_block_distribution[k, j]`` is the probability
    the first state outside the block lies in block j.  Escape tails come
    from :func:`escape_tail_at`.
    """

    block: int
    members: np.ndarray
    expected: np.ndarray
    exit_block_distribution: np.ndarray


@dataclass(frozen=True)
class DecompositionReport:
    """Per-block traces, the projected kernel, and block mixing times."""

    trace_kernels: tuple[StochasticKernel, ...]
    projected: StochasticKernel
    block_masses: np.ndarray
    block_mixing_times: tuple[int | None, ...]
    phi_max: int | None
    block_profiles: tuple[MixingProfile, ...] = ()


@dataclass(frozen=True)
class AvgHitResult:
    """Worst expected hitting time of heavy block unions.

    ``value`` is ``max over I with pi(union) >= alpha/2`` of the worst-start
    expected hitting time of the union; None with ``no_qualifying_set`` set
    when the mass floor excludes every subset.  ``n_qualifying`` counts the
    subsets solved: the minimal heavy ones in exact mode.  Sampled mode only
    inspects a random subset family, so its value is a lower bound.
    """

    value: float | None
    alpha: float
    mode: str
    n_qualifying: int
    no_qualifying_set: bool = False
    lower_bound_only: bool = False
    argmax_subset: tuple[int, ...] | None = None


def trace_kernel(
    kernel: StochasticKernel,
    partition: Partition,
    block: int,
) -> StochasticKernel:
    """Trace (watched-on-a-block) kernel ``K_A + K_AB (I - K_BB)^{-1} K_BA``.

    The trace inherits irreducibility, reversibility and any diagonal
    laziness of the parent kernel, and its stationary distribution is the
    parent's restricted to the block and renormalized.

    Raises
    ------
    SingularReturn
        If ``I - K_BB`` is numerically singular, which signals that
        excursions out of the block need not return.
    """
    A, B = _block_and_rest(partition, block)
    if A.size == 0:
        raise ValueError(f"block {block} is empty")
    KAA, KAB = _sub_blocks(kernel, A, A, B)
    if B.size == 0:
        return StochasticKernel(KAA, _sub_labels(kernel, A))
    KBB, KBA = _sub_blocks(kernel, B, B, A)
    try:
        # the return law and, in the last column, the mean time outside A
        sol = scipy.linalg.solve(np.eye(B.size) - KBB, np.column_stack([KBA, np.ones(B.size)]))
    except scipy.linalg.LinAlgError as exc:
        raise SingularReturn(f"(I - K_BB) singular for block {block}: {exc}") from exc
    rows = KAA + KAB @ sol[:, :-1]
    err = np.abs(rows.sum(axis=1) - 1.0).max()
    # long excursions carry round-off in proportion, in the row sums and as
    # slightly negative entries, which are clipped
    allowed = _forward_error(B.size, sol[:, -1])
    if not max(err, -rows.min()) <= allowed:
        raise SingularReturn(
            f"trace rows sum to 1 +- {err:.2e}, least entry {rows.min():.2e}, "
            f"allowed {allowed:.2e}; block {block} may be escaping"
        )
    rows = np.maximum(rows, 0.0)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return StochasticKernel(rows, _sub_labels(kernel, A))


def _block_and_rest(partition: Partition, block: int) -> tuple[np.ndarray, np.ndarray]:
    """A block's states and the states outside it, both increasing."""
    inside = partition.block_of == block
    return np.flatnonzero(inside), np.flatnonzero(~inside)


def _sub_blocks(
    kernel: StochasticKernel, rows: np.ndarray, *cols: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The C-contiguous sub-blocks ``K[rows][:, c]`` for each column set c.

    The rows are taken once, and that ``len(rows) x n`` copy is freed on
    return, before any solve allocates.
    """
    taken = kernel.rows.take(rows, axis=0)
    return tuple(taken.take(c, axis=1) for c in cols)


def _forward_error(n: int, h: np.ndarray) -> float:
    """Round-off allowed in a row sum from an n-state solve with mean times h."""
    scale = np.finfo(float).eps * n * (1.0 + float(np.abs(h).max()))
    return DEFAULT_TOLERANCES.forward_error * scale


def _sub_labels(kernel: StochasticKernel, idx: np.ndarray):
    return tuple(kernel.labels[i] for i in idx) if kernel.labels is not None else None


def projected_kernel(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    partition: Partition,
) -> StochasticKernel:
    """Projected kernel on block indices.

    ``Kbar(i, j)`` aggregates the stationary flow from block i to block j,
    normalized by the mass of block i; the result is reversible with respect
    to the block masses whenever the parent kernel is reversible.
    """
    n = partition.n_blocks
    masses = partition.masses(pi)
    flux = pi.weights[:, None] * kernel.rows
    member = np.zeros((kernel.n_states, n))
    member[np.arange(kernel.n_states), partition.block_of] = 1.0
    agg = member.T @ flux @ member
    rows = agg / masses[:, None]
    rows = rows / rows.sum(axis=1, keepdims=True)
    return StochasticKernel(rows)


def less_lazy_projection(projected: StochasticKernel) -> StochasticKernel:
    """Renormalize a projected kernel so every row has off-diagonal mass 1/2.

    Off-diagonal entries become ``Kbar(i,j) / (2 (1 - Kbar(i,i)))``; the
    diagonal fills to 1, so the output is half-lazy by construction.

    Raises
    ------
    AbsorbingBlock
        If some diagonal entry equals 1 (no off-diagonal mass to scale).
    """
    K = projected.rows
    n = projected.n_states
    diag = np.diag(K)
    stay = 1.0 - diag
    if (stay <= 1e-14).any():
        bad = np.nonzero(stay <= 1e-14)[0]
        raise AbsorbingBlock(f"blocks with no exit mass: {bad.tolist()}")
    rows = K / (2.0 * stay[:, None])
    np.fill_diagonal(rows, 0.0)
    np.fill_diagonal(rows, 1.0 - rows.sum(axis=1))
    return StochasticKernel(rows, projected.labels)


def escape_analysis(
    kernel: StochasticKernel,
    partition: Partition,
    block: int,
) -> EscapeStatistics:
    """Exact escape-time expectations and exit-block distribution.

    Raises
    ------
    NoExit
        If the block has no transition leaving it.
    """
    A, B = _block_and_rest(partition, block)
    KII, KIB = _sub_blocks(kernel, A, A, B)
    out_mass = 1.0 - KII.sum(axis=1)
    if B.size == 0 or out_mass.max() <= 1e-14:
        raise NoExit(f"block {block} is closed")
    try:
        expected = scipy.linalg.solve(np.eye(A.size) - KII, np.ones(A.size))
    except scipy.linalg.LinAlgError as exc:
        raise NoExit(f"block {block}: escape system singular ({exc})") from exc
    # exit-block distribution: first outside state aggregated by block
    hit_outside = scipy.linalg.solve(np.eye(A.size) - KII, KIB)  # (|A| x |B|)
    exit_blocks = np.zeros((A.size, partition.n_blocks))
    lab_B = partition.block_of[B]
    for j in range(partition.n_blocks):
        cols = np.nonzero(lab_B == j)[0]
        if cols.size:
            exit_blocks[:, j] = hit_outside[:, cols].sum(axis=1)
    # metastable blocks make (I - K_II) ill-conditioned; allow round-off in
    # proportion to the longest expected escape time before renormalizing
    row_err = np.abs(exit_blocks.sum(axis=1) - 1.0).max()
    allowed = _forward_error(A.size, expected)
    if not row_err <= allowed:
        raise NoExit(f"exit distribution rows sum to 1 +- {row_err:.2e} > {allowed:.2e}")
    exit_blocks /= exit_blocks.sum(axis=1, keepdims=True)
    return EscapeStatistics(
        block=block,
        members=A,
        expected=expected,
        exit_block_distribution=exit_blocks,
    )


def escape_tail_at(
    kernel: StochasticKernel, partition: Partition, block: int, t: float
) -> np.ndarray:
    """Exact ``P[tau_esc > floor(t)]`` per in-block start, via squaring.

    A threshold within 4 ulp below an integer counts as that integer, so a
    product such as ``(1 / 49) * 49`` is one step, not zero.
    """
    A = partition.members(block)
    KII = kernel.rows.take(A, axis=0).take(A, axis=1)
    t = max(float(t), 0.0)
    s = math.floor(t + 4 * math.ulp(t))
    if s == 0:
        return np.ones(A.size)
    # binary exponentiation on the substochastic block
    result = np.ones(A.size)
    base = KII
    e = s
    while e:
        if e & 1:
            result = base @ result
        e >>= 1
        if e:
            base = base @ base
    return result


def block_mixing_times(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    partition: Partition,
    horizon: int,
) -> tuple[tuple[int | None, ...], tuple[MixingProfile, ...], tuple[StochasticKernel, ...]]:
    """Mixing time of every block trace (the per-block time scale phi_i).

    Each profile stops at its 1/4 crossing, so it carries only that time.
    The traces are built first and share one strong-component search.
    """
    traces = tuple(trace_kernel(kernel, partition, i) for i in range(partition.n_blocks))
    search_closed_classes(traces)
    profiles = []
    for i, Ki in enumerate(traces):
        sub = pi.weights[partition.members(i)]
        sub_pi = StationaryDistribution(sub / sub.sum())
        profiles.append(mixing_profile(Ki, sub_pi, horizon, epsilons=(0.25,)))
    phis = tuple(p.mixing_time for p in profiles)
    return phis, tuple(profiles), traces


def decompose(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    partition: Partition,
    horizon: int,
) -> DecompositionReport:
    """Full decomposition report: traces, projection, masses, phi values."""
    phis, profiles, traces = block_mixing_times(kernel, pi, partition, horizon)
    proj = projected_kernel(kernel, pi, partition)
    masses = partition.masses(pi)
    known = [p for p in phis if p is not None]
    phi_max = max(known) if len(known) == len(phis) else None
    return DecompositionReport(
        trace_kernels=tuple(traces),
        projected=proj,
        block_masses=masses,
        block_mixing_times=phis,
        phi_max=phi_max,
        block_profiles=profiles,
    )


def _mass(masses: np.ndarray, I) -> float:
    """A block subset's mass as every subset family tests it: ``I`` lists the
    blocks in increasing order, and they are summed in that order."""
    return float(masses[np.asarray(I, dtype=np.intp)].sum())


def qualifying_subsets(masses: np.ndarray, floor: float) -> list[tuple[int, ...]]:
    """All block subsets whose stationary mass reaches ``floor``, by size then
    lexicographic (``2^n`` subsets are tested, so callers bound n)."""
    n = len(masses)
    return [
        I
        for r in range(1, n + 1)
        for I in itertools.combinations(range(n), r)
        if _mass(masses, I) >= floor
    ]


# Budget of minimal heavy sets, each one hitting-time solve in avg_hit_time.
MAX_HEAVY_SETS = 2**14


def minimal_heavy_sets(masses: np.ndarray, floor: float) -> list[tuple[int, ...]]:
    """The inclusion-minimal members of :func:`qualifying_subsets`, in its order.

    The sets are counted in a first search, which holds one set at a time,
    and collected in a second only if they are within budget.  Blocks
    lighter than the rounding of the sums (zero mass, say) are the one
    case where minimality holds only up to that rounding.

    Raises
    ------
    TooManyBlocks
        As soon as more than ``MAX_HEAVY_SETS`` sets are found.
    """
    masses = np.asarray(masses, dtype=float)
    for count, _ in enumerate(_minimal_heavy_search(masses, floor), 1):
        if count > MAX_HEAVY_SETS:
            raise TooManyBlocks(
                f"more than {MAX_HEAVY_SETS} minimal block sets of mass >= {floor:.6g} "
                f"among {masses.size} blocks"
            )
    found = [tuple(I.tolist()) for I in _minimal_heavy_search(masses, floor)]
    found.sort(key=lambda I: (len(I), I))
    return found


def _minimal_heavy_search(masses: np.ndarray, floor: float) -> Iterator[np.ndarray]:
    """Yield each minimal heavy set once, as an increasing index array.

    An iterative depth-first search over the blocks in order of decreasing
    mass: a branch stops as soon as its set reaches ``floor``, so the block
    added last is the lightest and every proper subset stays below the floor,
    and it is pruned when even all the lighter blocks cannot lift it to the
    floor.  Only where a set's mass less that lightest block lies within
    rounding of the floor are its one-block-smaller subsets tested as well.
    """
    n = masses.size
    order = np.argsort(-masses, kind="stable")
    m = masses[order]
    rest = np.append(np.cumsum(m[::-1])[::-1], 0.0)  # rest[k]: mass of m[k:]
    # bound on the rounding of any subset sum, so pruning never cuts a set
    # that the floating-point test would pass
    slack = 4.0 * (n + 1) * np.finfo(float).eps * (rest[0] + abs(floor))
    path: list[int] = []  # positions in `order` of the current set, increasing
    below = [0.0]  # masses of the current set and of its prefixes
    chosen = np.empty(0, dtype=np.intp)  # the current set's blocks, increasing
    k = 0  # next position to try at the current depth
    while True:
        if k < n and below[-1] + rest[k] >= floor - slack:
            at = np.searchsorted(chosen, order[k])
            cand = np.concatenate((chosen[:at], order[k : k + 1], chosen[at:]))
            total = _mass(masses, cand)
            if total < floor:
                path.append(k)
                below.append(total)
                chosen = cand
            elif below[-1] < floor - 2 * slack or not any(
                m[p] <= m[k] + 2 * slack and _mass(masses, cand[cand != order[p]]) >= floor
                for p in path
            ):
                yield cand
            k += 1
        elif path:
            k = path.pop()
            chosen = chosen[chosen != order[k]]
            below.pop()
            k += 1
        else:
            return


def sampled_subsets(masses: np.ndarray, floor: float, budget: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded random subsets with mass at least ``floor``, and the full set.

    Each of at most ``4 budget`` draws picks a uniform size, then a uniform
    subset of that size, until ``budget`` distinct subsets qualify.  The
    full set ``(0, .., n - 1)`` joins them when its mass reaches ``floor``,
    so the family holds at most ``budget + 1`` subsets; it is returned
    sorted.
    """
    n = len(masses)
    gen = rngmod.stream(seed, 0)
    family = set()
    for _ in range(budget * 4):
        if len(family) >= budget:
            break
        size = int(gen.integers(1, n + 1))
        I = tuple(sorted(gen.choice(n, size=size, replace=False).tolist()))
        if masses[list(I)].sum() >= floor:
            family.add(I)
    if masses.sum() >= floor:
        family.add(tuple(range(n)))
    return sorted(family)


def avg_hit_time(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    partition: Partition,
    alpha: float,
    mode: str = "exact",
    sample_budget: int = 64,
    seed: int = 0,
) -> AvgHitResult:
    """Worst expected hitting time over heavy block unions.

    The max over subsets I of blocks with stationary mass at least
    ``alpha / 2`` of the worst-start expected hitting time of the union.
    Hitting a larger set is never slower, so exact mode solves exactly on
    the family of :func:`minimal_heavy_sets` only, and ``n_qualifying``
    counts those sets.  ``mode='sampled'`` checks only the seeded family of
    :func:`sampled_subsets`, and returns a flagged lower bound.

    Raises
    ------
    TooManyBlocks
        In exact mode with more than ``MAX_HEAVY_SETS`` minimal sets,
        before any solve.
    """
    if not (0.0 < alpha):
        raise ValueError("alpha must be positive")
    masses = partition.masses(pi)
    floor = alpha / 2.0
    if mode == "exact":
        subsets = minimal_heavy_sets(masses, floor)
        lower_bound_only = False
    elif mode == "sampled":
        subsets = sampled_subsets(masses, floor, sample_budget, seed)
        lower_bound_only = True
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not subsets:
        return AvgHitResult(None, alpha, mode, 0, no_qualifying_set=True)
    best = -1.0
    arg = None
    for I in subsets:
        states = np.concatenate([partition.members(i) for i in I])
        worst = hitting_analysis(kernel, states).worst_expected()
        if worst > best:
            best, arg = worst, I
    return AvgHitResult(
        value=best,
        alpha=alpha,
        mode=mode,
        n_qualifying=len(subsets),
        lower_bound_only=lower_bound_only,
        argmax_subset=arg,
    )
