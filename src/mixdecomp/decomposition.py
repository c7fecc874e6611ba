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
from typing import Callable, Iterator, Sequence

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
    mixing_profiles,
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
    parent's restricted to the block and renormalized.  It is the one-block
    case of :func:`trace_kernels`.

    Raises
    ------
    SingularReturn
        If ``I - K_BB`` is numerically singular, which signals that
        excursions out of the block need not return.
    ValueError
        If ``block`` is not a block index.
    """
    return trace_kernels(kernel, partition, [block])[0]


def trace_kernels(
    kernel: StochasticKernel, partition: Partition, blocks: Sequence[int]
) -> tuple[StochasticKernel, ...]:
    """The :func:`trace_kernel` of each of ``blocks``, in order.

    The return systems ``(I - K_BB)`` of blocks of equal size are solved as
    one stack by one ``scipy.linalg.solve`` call, which solves slice by
    slice, so each trace is the one its block alone gives, byte for byte.
    A failing block raises only once every stack is solved, and the first
    in the order of ``blocks`` is named, as one block at a time would.

    Raises
    ------
    SingularReturn
        If some block's ``I - K_BB`` is numerically singular or its solved
        rows fail the forward-error check.
    ValueError
        If a block is not a block index, before anything is solved.
    """
    n = kernel.n_states
    return _in_block_order(
        partition,
        blocks,
        lambda s: (n - s) * (n + 1),
        lambda ids, inside: _trace_stack(kernel, ids, inside),
    )


def _trace_stack(kernel: StochasticKernel, blocks: list, inside: np.ndarray) -> list:
    """Traces of the equal-size blocks whose states ``inside`` marks, or for
    a failing block the SingularReturn naming it."""
    K = kernel.rows
    A, B = _rows(inside), _rows(~inside)
    KAA = K[A[:, :, None], A[:, None, :]]
    b, r = B.shape
    if r == 0:
        return [StochasticKernel(KAA[k], _sub_labels(kernel, A[k])) for k in range(b)]
    s = A.shape[1]
    KAB = K[A[:, :, None], B[:, None, :]]
    # the return law and, in the last column, the mean time outside A
    rhs = np.empty((b, r, s + 1))
    rhs[:, :, :s] = K[B[:, :, None], A[:, None, :]]
    rhs[:, :, s] = 1.0
    M = _identity_minus(K[B[:, :, None], B[:, None, :]])
    (sol,), errors = _solve_each(M, rhs)
    rows = KAA + KAB @ sol[:, :, :-1]
    err = np.abs(rows.sum(axis=2) - 1.0).max(axis=1)
    least = rows.min(axis=(1, 2))
    # long excursions carry round-off in proportion, in the row sums and as
    # slightly negative entries, which are clipped
    allowed = _forward_error(r, sol[:, :, -1])
    rows = np.maximum(rows, 0.0)
    rows = rows / rows.sum(axis=2, keepdims=True)
    out: list = []
    for k, block in enumerate(blocks):
        if errors[k] is not None:
            out.append(SingularReturn(f"(I - K_BB) singular for block {block}: {errors[k]}"))
            out[-1].__cause__ = errors[k]
        elif not max(err[k], -least[k]) <= allowed[k]:
            out.append(
                SingularReturn(
                    f"trace rows sum to 1 +- {err[k]:.2e}, least entry {least[k]:.2e}, "
                    f"allowed {allowed[k]:.2e}; block {block} may be escaping"
                )
            )
        else:
            out.append(StochasticKernel(rows[k], _sub_labels(kernel, A[k])))
    return out


def _is_integer(value) -> bool:
    """Is ``value`` a Python or numpy integer (a bool is not)?"""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# A stack of equal-size blocks holds at most this many n x n float64 arrays'
# worth of per-block systems, n the kernel's state count, so a stacked solve
# holds a bounded multiple of the kernel's own bytes however many blocks.
_STACK_KERNELS = 4


def _stacks(
    partition: Partition, blocks: Sequence[int], entries: Callable[[int], int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks grouped by size into stacks, each ``(at, inside)``.

    ``at`` lists the positions in ``blocks`` of the stack's blocks,
    increasing, and ``inside[k]`` marks the states of block ``blocks[at[k]]``.
    Blocks of size s are stacked at most ``_STACK_KERNELS n^2 / entries(s)``
    at a time (at least one), ``entries(s)`` being the entries one block
    adds to the stack's arrays.

    Raises
    ------
    ValueError
        If a block is not an integer in ``0 .. n_blocks - 1`` (a bool is
        not one); the value is named.  Checked before anything is allocated.
    """
    n_blocks = partition.n_blocks
    for block in blocks:
        if not (_is_integer(block) and 0 <= block < n_blocks):
            raise ValueError(f"block {block!r} is not one of 0..{n_blocks - 1}")
    ids = np.asarray(blocks, dtype=np.intp)
    n = partition.n_states
    sizes = np.bincount(partition.block_of, minlength=n_blocks)[ids]
    stacks = []
    for size in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == size)
        per = max(1, _STACK_KERNELS * n * n // max(1, entries(size)))
        for cut in range(0, group.size, per):
            at = group[cut : cut + per]
            stacks.append((at, partition.block_of == ids[at, None]))
    return stacks


def _identity_minus(M: np.ndarray) -> np.ndarray:
    """``I - M[k]`` for each square matrix of a stack, in place, equal entry
    for entry to ``np.eye(r) - M[k]`` (``0.0 - x`` is ``+0.0`` at ``x = 0``)."""
    np.subtract(0.0, M, out=M)
    diagonal = np.arange(M.shape[-1])
    M[:, diagonal, diagonal] += 1.0
    return M


def _in_block_order(
    partition: Partition,
    blocks: Sequence[int],
    entries: Callable[[int], int],
    per_stack: Callable[[list, np.ndarray], Sequence],
) -> tuple:
    """``per_stack(stack's blocks, their inside mask)`` over the stacks of
    :func:`_stacks`, its per-block results put back in the order of
    ``blocks``.  A result may be an exception: the first in that order is
    raised once every stack is done, as one block at a time would raise."""
    found: list = [None] * len(blocks)
    for at, inside in _stacks(partition, blocks, entries):
        for k, item in zip(at, per_stack([blocks[k] for k in at], inside)):
            found[k] = item
    for item in found:
        if isinstance(item, Exception):
            raise item
    return tuple(found)


def _rows(mask: np.ndarray) -> np.ndarray:
    """The columns set in each row of a 2-D mask with equal row counts."""
    return np.nonzero(mask)[1].reshape(mask.shape[0], -1)


def _solve_each(M: np.ndarray, *rhs: np.ndarray) -> tuple[list[np.ndarray], list]:
    """Solve ``M[k] x = r[k]`` for each stack r of right-hand sides.

    Each right-hand side stack is one ``scipy.linalg.solve`` call.  Returns
    the solution stacks and, per system k, None or the ``LinAlgError`` that
    solving it alone raises: when a stacked call fails, the systems are
    solved one at a time, so that each failing one is known.  So are 1 x 1
    systems, which scipy divides when alone but factors in a stack.
    """
    if M.shape[-1] > 1:
        try:
            return [scipy.linalg.solve(M, r) for r in rhs], [None] * len(M)
        except scipy.linalg.LinAlgError:
            pass
    sols = [np.zeros(r.shape) for r in rhs]
    errors: list = []
    for k in range(len(M)):
        try:
            for sol, r in zip(sols, rhs):
                sol[k] = scipy.linalg.solve(M[k], r[k])
            errors.append(None)
        except scipy.linalg.LinAlgError as exc:
            errors.append(exc)
    return sols, errors


def _forward_error(n: int, h: np.ndarray) -> np.ndarray:
    """Round-off allowed in a row sum from an n-state solve with mean times
    ``h[k]``, for each system k of a stack."""
    scale = np.finfo(float).eps * n * (1.0 + np.abs(h).max(axis=-1))
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

    The one-block case of :func:`escape_analyses`.

    Raises
    ------
    NoExit
        If the block has no transition leaving it.
    ValueError
        If ``block`` is not a block index.
    """
    return escape_analyses(kernel, partition, [block])[0]


def escape_analyses(
    kernel: StochasticKernel, partition: Partition, blocks: Sequence[int]
) -> tuple[EscapeStatistics, ...]:
    """The :func:`escape_analysis` of each of ``blocks``, in order.

    The escape systems ``(I - K_II)`` of blocks of equal size are solved as
    one stack in two ``scipy.linalg.solve`` calls, against ``1`` and against
    ``K_IB``; each solves slice by slice, so every block's statistics are
    the ones it alone gives, byte for byte.  A failing block raises only
    once every stack is solved, and the first in the order of ``blocks`` is
    named.

    Raises
    ------
    NoExit
        If some block has no transition leaving it, or its escape system is
        singular or its exit rows fail the forward-error check.
    ValueError
        If a block is not a block index, before anything is solved.
    """
    return _in_block_order(
        partition,
        blocks,
        lambda s: s * (partition.n_states + 1),
        lambda ids, inside: _escape_stack(kernel, partition, ids, inside),
    )


def _escape_stack(
    kernel: StochasticKernel, partition: Partition, blocks: list, inside: np.ndarray
) -> list:
    """Escape statistics of the equal-size blocks whose states ``inside``
    marks, or for a failing block the NoExit naming it."""
    K = kernel.rows
    A, B = _rows(inside), _rows(~inside)
    b, s = A.shape
    KII = K[A[:, :, None], A[:, None, :]]
    out: list = [None] * b
    if B.shape[1] == 0:
        closed = np.ones(b, dtype=bool)
    else:
        closed = (1.0 - KII.sum(axis=2)).max(axis=1) <= 1e-14
    for k in np.flatnonzero(closed):
        out[k] = NoExit(f"block {blocks[k]} is closed")
    open_ = np.flatnonzero(~closed)
    if open_.size == 0:
        return out
    A, B = A[open_], B[open_]
    M = _identity_minus(KII[open_])
    KIB = K[A[:, :, None], B[:, None, :]]
    (expected, hit_outside), errors = _solve_each(M, np.ones((open_.size, s, 1)), KIB)
    for k, exc in zip(open_, errors):
        if exc is not None:
            out[k] = NoExit(f"block {blocks[k]}: escape system singular ({exc})")
            out[k].__cause__ = exc
    solved = np.flatnonzero([exc is None for exc in errors])
    open_, A, B = open_[solved], A[solved], B[solved]
    expected, hit_outside = expected[solved, :, 0], hit_outside[solved]  # (b, |A|), (b, |A|, |B|)
    # exit-block distribution: first outside state aggregated by block.  Block
    # j's columns, in the order they have in B, are its members.  Each block's
    # gather is laid out as numpy lays out one block's ``hit[:, cols]``
    # (column by column), so that the sums add in the same order.
    b = open_.size
    hit = np.zeros((b, kernel.n_states, s))  # hit[k, y] = hit_outside[k][:, position of y]
    hit[np.arange(b)[:, None], B] = hit_outside.transpose(0, 2, 1)
    exit_blocks = np.zeros((b, s, partition.n_blocks))
    for j in range(partition.n_blocks):
        gathered = np.take(hit, partition.members(j), axis=1).transpose(0, 2, 1)
        exit_blocks[:, :, j] = gathered.sum(axis=2)
    # metastable blocks make (I - K_II) ill-conditioned; allow round-off in
    # proportion to the longest expected escape time before renormalizing
    row_err = np.abs(exit_blocks.sum(axis=2) - 1.0).max(axis=1)
    allowed = _forward_error(s, expected)
    exit_blocks /= exit_blocks.sum(axis=2, keepdims=True)
    for j, k in enumerate(open_):
        if not row_err[j] <= allowed[j]:
            out[k] = NoExit(
                f"exit distribution rows sum to 1 +- {row_err[j]:.2e} > {allowed[j]:.2e}"
            )
        else:
            out[k] = EscapeStatistics(
                block=blocks[k],
                members=A[j],
                expected=expected[j],
                exit_block_distribution=exit_blocks[j],
            )
    return out


def escape_tail_at(
    kernel: StochasticKernel, partition: Partition, block: int, t: float
) -> np.ndarray:
    """Exact ``P[tau_esc > floor(t)]`` per in-block start, via squaring.

    A threshold within 4 ulp below an integer counts as that integer, so a
    product such as ``(1 / 49) * 49`` is one step, not zero.  The one-block
    case of :func:`escape_tails_at`.

    Raises
    ------
    ValueError
        If ``block`` is not a block index.
    """
    return escape_tails_at(kernel, partition, [block], t)[0]


def escape_tails_at(
    kernel: StochasticKernel, partition: Partition, blocks: Sequence[int], t: float
) -> tuple[np.ndarray, ...]:
    """The :func:`escape_tail_at` of each of ``blocks`` at ``t``, in order.

    The substochastic blocks ``K_II`` of equal size are raised to the power
    together, one stacked binary exponentiation, whose products are the
    per-block ones byte for byte.

    Raises
    ------
    ValueError
        If a block is not a block index, before anything is computed.
    """
    t = max(float(t), 0.0)
    steps = math.floor(t + 4 * math.ulp(t))
    return _in_block_order(
        partition, blocks, lambda s: s * s, lambda ids, inside: _tail_stack(kernel, inside, steps)
    )


def _tail_stack(kernel: StochasticKernel, inside: np.ndarray, steps: int) -> np.ndarray:
    """``P[tau_esc > steps]`` per start in each of the equal-size blocks
    whose states ``inside`` marks, by binary exponentiation."""
    A = _rows(inside)
    result = np.ones(A.shape)
    base = kernel.rows[A[:, :, None], A[:, None, :]]
    e = steps
    while e:
        if e & 1:
            result = (base @ result[:, :, None])[:, :, 0]
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
    The traces are built first (:func:`trace_kernels`), then profiled
    together (:func:`mixing_profiles`), with one strong-component search.
    """
    blocks = range(partition.n_blocks)
    traces = trace_kernels(kernel, partition, blocks)
    pis = []
    for i in blocks:
        sub = pi.weights[partition.members(i)]
        pis.append(StationaryDistribution(sub / sub.sum()))
    profiles = mixing_profiles(traces, pis, horizon, (0.25,), False)
    phis = tuple(p.mixing_time for p in profiles)
    return phis, profiles, traces


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
