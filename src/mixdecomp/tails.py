"""Worst-start occupation tails ``max_z P_z[kappa_i(T) < t]`` of the blocks.

Occupation-tail ingredients come in two flavors with explicit provenance:
exact dynamic programming over (state, counter) product chains, and Monte
Carlo with Wilson 99% upper confidence bounds.  A search that an exact
escape probability already decides runs on vacuous tails instead.

A per-block provider (:class:`BlockTails`) answers ``query(i, T, t)``, a
joint one (:class:`JointTails`) ``query_joint(I, T, t)``; some answer both.
Each answers a scalar threshold t with a float, and an array of thresholds
with an array of the same shape, equal entry by entry to the scalar
queries.  A horizon search asks each family member once per probed horizon,
for its whole threshold grid.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .config import MAX_PATH_BYTES
from .decomposition import Partition
from .errors import ProductSpaceTooLarge
from .kernel import StochasticKernel
from .simulate import WILSON_LEVEL, PathStream, index_dtype, wilson_interval


@runtime_checkable
class BlockTails(Protocol):
    """Worst-start tails ``max_z P_z[kappa_i(T) < t]`` of single blocks."""

    provenance: str

    def max_t(self) -> int: ...

    def query(self, i: int, T: int, t): ...


@runtime_checkable
class JointTails(Protocol):
    """Worst-start tails ``max_z P_z[every kappa_i(T) < t]`` of block sets I."""

    provenance: str

    def max_t(self) -> int: ...

    def query_joint(self, I: Sequence[int], T: int, t): ...


# Label entries counted per chunk of _count_rows, eight to a plane byte.  It
# bounds the temporaries of the counting tree: about two plane chunks of
# 128 KB per bit plane.
_CHUNK_ENTRIES = 1 << 20


def _thresholds(t) -> np.ndarray:
    """The thresholds of a query, scalar or array, as a flat float array."""
    return np.asarray(t, dtype=float).ravel()


def _shaped(values, t):
    """Per-threshold ``values`` in the shape of ``t``: a float for a scalar t."""
    if np.ndim(t) == 0:
        return float(np.asarray(values).ravel()[0])
    return np.reshape(values, np.shape(t))


class ExactTailProvider:
    """Worst-start occupation tails by exact DP, one sweep per block.

    ``query(i, T, t)`` returns ``max_z P_z[kappa_i(T) < t]`` exactly for
    ``T <= T_max`` and ``t <= t_cap``, by one masked gather from block i's
    table; kappa is an integer, so a threshold t counts as ``ceil(t)``.
    """

    provenance = "exact"

    def __init__(
        self,
        kernel: StochasticKernel,
        partition: Partition,
        T_max: int,
        t_cap: int,
        starts: Sequence[int] | None = None,
    ):
        self.kernel = kernel
        self.partition = partition
        self.T_max = int(T_max)
        self.t_cap = int(t_cap)
        self.starts = starts
        self._tables: dict[int, np.ndarray] = {}

    def max_t(self) -> int:
        return self.t_cap

    def query(self, i: int, T: int, t):
        u = np.ceil(_thresholds(t))
        # 0 below one step; past t_cap or T_max unknown, so the vacuous 1.0;
        # past T certain
        out = np.where(u <= 0, 0.0, 1.0)
        known = (u > 0) & (u <= min(self.t_cap, T))
        if T <= self.T_max and known.any():
            if i not in self._tables:
                self._tables[i] = occupation_tail_table(
                    self.kernel, self.partition, i, self.T_max, self.t_cap, starts=self.starts
                )
            out[known] = self._tables[i][T - 1, u[known].astype(np.intp) - 1]
        return _shaped(out, t)


class MCTailProvider:
    """Occupation tails from cached simulated paths, Wilson 99% upper bounds.

    Paths start from every start state (``reps_per_start`` replicas each)
    and come from one resumable :class:`PathStream`, simulated lazily: a
    query at horizon T extends them to the next power of two at least T,
    capped at ``T_max``, which is as far as a doubling search looks.

    The paths are kept only as block labels, in ``ceil(log2 n_blocks)`` bit
    planes: bit b of byte row r of plane j holds bit j of the label at step
    ``8 r + b + 1``, one contiguous byte row per 8 steps.  A step ORs one
    gather from a per-state "spread" table, which places the label's bits at
    the step's bit position of every plane, into a per-path accumulator; a
    full accumulator is flushed as one byte row per plane.  ``kappa_i`` over
    a range of steps is the popcount of the AND of the planes (or their
    complements) that spell label i, under a mask for partial bytes.

    The planes are an append-only list of segments, one per extension, each
    holding the byte rows from its first new step on; nothing is copied when
    the paths grow.  An extension that starts inside a byte row drops that
    partial row from the previous segment and writes it again, complete up
    to the carried accumulator, as its own first row.

    Occupation counts of every block are cached for horizon 0, for the
    simulated horizon and for the two latest probes; a new T is filled from
    the nearest cached horizon by counting the steps in between.  Counts are
    exact integers, so the base they start from does not change them, and a
    bisection's next probe counts only the rows inside its bracket, whose
    last probe is cached.

    A query reads one occupation vector per path: ``kappa_i``, or for a
    joint key ``max_{i in I} kappa_i``, since every ``kappa_i < t`` exactly
    when their maximum is.  Sorted within each start, that vector gives
    every threshold's per-start count of paths below it by one
    ``searchsorted``.  Each threshold's answer is the largest per-start
    Wilson 99% upper bound (a per-query confidence level), which is a sound
    (conservative) ingredient for the bound searches.

    Before the first step, ``paths x (T_max + 1) x (state bytes + label
    bytes)`` is checked against ``MAX_PATH_BYTES``, with the labels'
    ``index_dtype`` bytes, not their planes' bits: a deliberately
    conservative bound.  Over it, queries raise ``ProductSpaceTooLarge``.
    """

    def __init__(
        self,
        kernel: StochasticKernel,
        partition: Partition,
        T_max: int,
        reps_per_start: int,
        seed: int,
        starts: Sequence[int] | None = None,
    ):
        self.kernel = kernel
        self.partition = partition
        self.T_max = int(T_max)
        self.reps = int(reps_per_start)
        self.seed = seed
        if starts is None:
            starts = range(kernel.n_states)
        self.start_list = [int(s) for s in starts]
        n_paths = len(self.start_list) * self.reps
        self._chunk_rows = max(1, _CHUNK_ENTRIES // (8 * max(n_paths, 1)))
        n_planes = (partition.n_blocks - 1).bit_length()
        # Accumulator words hold a byte per plane, up to 8 planes a word.
        # spread[b, w, x]: the label bits of state x in word w, plane j at bit
        # 8 * (j % 8) + b, so each little-endian byte of a word is one
        # plane's byte row.
        word = np.dtype(f"<u{next(size for size in (1, 2, 4, 8) if size >= min(n_planes, 8))}")
        spread = np.zeros((8, -(-n_planes // 8), kernel.n_states), dtype=word)
        for j in range(n_planes):
            bits = ((partition.block_of >> j) & 1).astype(word)
            for b in range(8):
                spread[b, j // 8] |= bits << word.type(8 * (j % 8) + b)
        self._stream: PathStream | None = None
        self._T_sim = 0
        # (first byte row, planes (n_planes, rows, paths)), one per extension
        self._segments: list[tuple[int, np.ndarray]] = []
        acc = np.zeros((n_paths, spread.shape[1]), dtype=word)
        # per bit position, the (accumulator word, spread table) pairs a step ORs
        self._or_tables = [list(zip(acc.T, spread[b])) for b in range(8)]
        # the accumulator's bytes, one row per plane
        self._acc_planes = acc.view(np.uint8).T[:n_planes]
        # T -> (n_blocks, paths), least recently probed first
        self._counts: dict[int, np.ndarray] = {}
        self._wilson_hi = np.array([wilson_interval(k, self.reps)[1] for k in range(self.reps + 1)])

    @property
    def provenance(self) -> str:
        return (
            f"mc(reps={self.reps},seed={self.seed},level={WILSON_LEVEL}/query,"
            f"T_sim={self.simulated_T})"
        )

    @property
    def simulated_T(self) -> int:
        """Steps simulated so far (0 before the first query)."""
        return self._T_sim

    def max_t(self) -> int:
        return self.T_max

    def _ensure_labels(self, T: int) -> None:
        """Extend the labels to ``min(T_max, next power of two >= T)`` steps."""
        n_planes, n_paths = self._acc_planes.shape
        if self._stream is None:
            item = index_dtype(self.kernel.n_states).itemsize
            item += index_dtype(self.partition.n_blocks).itemsize
            nbytes = n_paths * (self.T_max + 1) * item
            if nbytes > MAX_PATH_BYTES:
                raise ProductSpaceTooLarge(
                    f"{n_paths} paths x {self.T_max} steps need {nbytes:,} B of states and "
                    f"block labels > budget {MAX_PATH_BYTES:,} B"
                )
            starts = np.repeat(np.asarray(self.start_list, dtype=np.int64), self.reps)
            self._stream = PathStream(self.kernel, starts, self.seed)
            self._counts[0] = np.zeros(
                (self.partition.n_blocks, n_paths), dtype=index_dtype(self.T_max + 1)
            )
        have = self._T_sim
        if T <= have:
            return
        # least_horizon doubles from 2 and bisects below its first feasible
        # doubling, so power-of-two growth never simulates past 2x its probes
        grow = min(self.T_max, 1 << (int(T) - 1).bit_length())
        first = have // 8
        if have % 8:
            # the new segment writes the partial row again from the accumulator
            head, planes = self._segments.pop()
            if planes.shape[1] > 1:
                self._segments.append((head, planes[:, :-1]))
        planes = np.empty((n_planes, -(-grow // 8) - first, n_paths), dtype=np.uint8)
        for s, state in enumerate(self._stream.extend(grow - have), have):
            bit = s % 8
            for word, spread in self._or_tables[bit]:
                word |= spread.take(state)
            if bit == 7:
                planes[:, s // 8 - first] = self._acc_planes
                self._acc_planes[:] = 0
        if grow % 8:
            # a partial row; the accumulator keeps its bits for the next extension
            planes[:, -1] = self._acc_planes
        self._segments.append((first, planes))
        self._T_sim = grow

    def _count_rows(self, a: int, b: int) -> np.ndarray:
        """Per-path visits to every block at times ``a .. b - 1``."""
        n_planes, n_paths = self._acc_planes.shape
        counts = np.zeros((self.partition.n_blocks, n_paths), dtype=np.int64)
        if a >= b:
            return counts
        lo, hi = a - 1, b - 1  # bit positions
        r0, r1 = lo // 8, -(-hi // 8)
        mask = np.full((r1 - r0, 1), 0xFF, dtype=np.uint8)
        mask[0] &= (0xFF << lo % 8) & 0xFF
        mask[-1] &= 0xFF >> (-hi % 8)
        for first, planes in self._segments:
            stop = min(r1, first + planes.shape[1])
            for r in range(max(r0, first), stop, self._chunk_rows):
                end = min(r + self._chunk_rows, stop)
                rows = planes[:, r - first : end - first]
                self._count_tree(counts, rows, mask[r - r0 : end - r0], n_planes, 0)
        return counts

    def _count_tree(self, counts, planes, sel, j: int, label: int) -> None:
        """Add to ``counts`` the set bits of ``sel`` split by the labels' low j bits.

        ``sel`` marks the entries whose label's bits from j up equal those
        of ``label``.  Labels at or above ``n_blocks`` never occur, so a
        branch that can only reach them is skipped and its sibling keeps
        ``sel`` unchanged.
        """
        if j == 0:
            counts[label] += np.bitwise_count(sel).sum(axis=0, dtype=np.int32)
            return
        j -= 1
        if label | 1 << j >= self.partition.n_blocks:
            self._count_tree(counts, planes, sel, j, label)
            return
        one = sel & planes[j]
        self._count_tree(counts, planes, sel ^ one, j, label)
        self._count_tree(counts, planes, one, j, label | 1 << j)

    def _kappa(self, T: int) -> np.ndarray:
        """Occupation counts ``kappa_i(T)`` of every block i, one column per path."""
        kappa = self._counts.pop(T, None)
        if kappa is None:
            self._ensure_labels(T)
            near = min(self._counts, key=lambda h: abs(h - T))
            base = self._counts[near]
            delta = self._count_rows(min(T, near) + 1, max(T, near) + 1)
            if T < near:
                np.negative(delta, out=delta)
            delta += base
            kappa = delta.astype(base.dtype)
        self._counts[T] = kappa
        # keep 0, the simulated horizon and the two latest probes: the next
        # probe of a bisection lies between its last probe and an earlier one
        keep = {0, self._T_sim, *list(self._counts)[-2:]}
        for h in [h for h in self._counts if h not in keep]:
            del self._counts[h]
        return kappa

    def query(self, i: int, T: int, t):
        return self._tails([i], T, t)

    def query_joint(self, I: Sequence[int], T: int, t):
        return self._tails(I, T, t)

    def _tails(self, I: Sequence[int], T: int, t):
        """``max_z`` Wilson upper bound on ``P_z[every kappa_i(T) < t]``, i in I."""
        u = np.ceil(_thresholds(t))
        out = np.where(u <= 0, 0.0, 1.0)
        live = u > 0
        if T > self.T_max or not live.any():
            return _shaped(out, t)
        ns, reps = len(self.start_list), self.reps
        # kappa <= T, so T + 1 stands for every larger threshold; start s's
        # occupations, shifted by s (T + 2), sort into a run of their own
        offsets = np.arange(ns)[:, None] * (T + 2)
        occupation = self._kappa(T)[[int(i) for i in I]].max(axis=0, initial=0)
        runs = occupation.reshape(ns, reps) + offsets
        runs.sort(axis=1)
        needles = offsets + np.minimum(u[live], T + 1).astype(np.int64)
        below = np.searchsorted(runs.ravel(), needles) - np.arange(ns)[:, None] * reps
        out[live] = self._wilson_hi[below].max(axis=0, initial=0.0)
        return _shaped(out, t)


class EscapeCertifiedTails:
    """Vacuous tails for a search that an exact escape bound has decided.

    A start in block j that never leaves j has ``kappa_i = 0`` for every
    ``i != j``, so ``P_z[kappa_i(T) < t] >= P_z[tau_esc(j) > T_max]`` for
    every ``T <= T_max`` and ``t >= 1``.  Once that probability reaches 1/4
    no probe of a search over such an i can pass, and every query returns
    the vacuous upper bound 1.0, so the unchanged search reports the
    horizon infeasible without simulating anything.
    """

    def __init__(self, block: int, stay: float, T_max: int):
        self.T_max = T_max
        self.provenance = f"exact-escape(block={block},stay={stay:.6g},T={T_max})"
        self.notes = (
            f"exact escape certificate: block {block} is kept through T = {T_max} "
            f"with probability {stay:.6g} >= 1/4"
        )

    def max_t(self) -> int:
        return self.T_max

    def query(self, i: int, T: int, t):
        return _shaped(np.ones(np.size(t)), t)

    query_joint = query


class MinMarginalJointTails:
    """Joint tails upper-bounded by the smallest per-block tail.

    ``P[all kappa_i < t] <= min_i P[kappa_i < t]`` holds pointwise, so any
    per-block provider lifts to a sound joint provider.  Each block's tails
    at the current horizon and thresholds are kept, so a family of subsets
    asked at the same (T, t) asks every block once.
    """

    def __init__(self, per_block: BlockTails):
        self.per_block = per_block
        self._key = None
        self._block_tails: dict[int, np.ndarray] = {}

    @property
    def provenance(self) -> str:
        return f"min-marginal({self.per_block.provenance})"

    def max_t(self) -> int:
        return self.per_block.max_t()

    def query_joint(self, I: Sequence[int], T: int, t):
        u = _thresholds(t)
        key = (T, u.tobytes())
        if key != self._key:
            self._key, self._block_tails = key, {}
        tails = self._block_tails
        for i in map(int, I):
            if i not in tails:
                tails[i] = self.per_block.query(i, T, u)
        return _shaped(np.minimum.reduce([tails[int(i)] for i in I]), t)


def occupation_tail_table(
    kernel: StochasticKernel,
    partition: Partition,
    block: int,
    T_max: int,
    t_cap: int,
    starts: Sequence[int] | None = None,
) -> np.ndarray:
    """Exact worst-start occupation tails for a whole grid in one sweep.

    Returns ``table`` with ``table[s - 1, u - 1] = max_z P_z[kappa_i(s) < u]``
    for ``s = 1 .. T_max`` and ``u = 1 .. t_cap`` (max restricted to
    ``starts`` when given).  One forward DP over (counter, start, state).

    Raises
    ------
    ProductSpaceTooLarge
        If its float64 buffers would exceed ``MAX_PATH_BYTES``; checked
        before anything is allocated.  They are the DP array ``(t_cap + 1,
        starts, n_states)``, a second one that each step's product is
        written into, the per-counter sums ``(t_cap + 1, starts)`` and
        their running sums ``(t_cap, starts)``, and the table.  Every step
        works in them, in place.
    """
    n = kernel.n_states
    K = kernel.rows
    in_block = partition.block_of == block
    if starts is None:
        starts = range(n)
    start_idx = np.asarray(list(starts), dtype=int)
    ns = start_idx.size
    nbytes = 8 * ((t_cap + 1) * ns * (2 * n + 1) + t_cap * ns + T_max * t_cap)
    if nbytes > MAX_PATH_BYTES:
        raise ProductSpaceTooLarge(
            f"occupation DP over {t_cap + 1} counters x {ns} starts x {n} states, its step "
            f"buffer and a {T_max} x {t_cap} table need {nbytes:,} B > budget "
            f"{MAX_PATH_BYTES:,} B"
        )
    # p[k, z, y] = P_z[X_s = y, kappa(s) = k], with k = t_cap meaning ">= t_cap"
    p = np.zeros((t_cap + 1, ns, n))
    p[0, np.arange(ns), start_idx] = 1.0
    q = np.empty_like(p)
    counter_mass = np.empty((t_cap + 1, ns))
    cum = np.empty((t_cap, ns))
    table = np.empty((T_max, t_cap))
    mask_in = in_block.astype(float)
    mask_out = 1.0 - mask_in
    for s in range(1, T_max + 1):
        np.matmul(p.reshape(-1, n), K, out=q.reshape(-1, n))
        # a step out of the block keeps the counter, a step into it moves the
        # counter up one, and the top counter keeps its own mass as well
        np.multiply(q, mask_out, out=p)
        q *= mask_in
        p[1:] += q[:-1]
        p[t_cap] += q[t_cap]
        p.sum(axis=2, out=counter_mass)
        counter_mass[:-1].cumsum(axis=0, out=cum)  # P[kappa < u] per start
        cum.max(axis=1, out=table[s - 1])
    return table


def exact_occupation_tail(
    kernel: StochasticKernel,
    partition: Partition,
    block: int,
    T: int,
    t: float,
    start: int | None = None,
) -> float:
    """Exact ``P[kappa_i(T) < t]`` from :class:`ExactTailProvider`.

    With ``start=None`` the max over all point-mass starts is returned.

    Raises
    ------
    ProductSpaceTooLarge
        If the DP of :func:`occupation_tail_table` would exceed its budget.
    """
    starts = None if start is None else [start]
    return ExactTailProvider(kernel, partition, T, min(T, np.ceil(t)), starts).query(block, T, t)
