"""Worst-start occupation tails ``max_z P_z[kappa_i(T) < t]`` of the blocks.

Occupation-tail ingredients come in two flavors with explicit provenance:
:class:`ExactTailProvider`, an exact backward recursion over (state,
counter) pairs for every start at once, and :class:`MCTailProvider`, the
package's one Monte Carlo path, with Wilson 99% upper confidence bounds.
Both check their starts with :func:`simulate.start_rows`.  A search that
an exact escape probability already decides runs on vacuous tails instead.

A per-block provider (:class:`BlockTails`) answers ``query(i, T, t)``, a
joint one (:class:`JointTails`) ``query_joint(I, T, t)``; some answer both.
Each answers a scalar threshold t with a float, and an array of thresholds
with an array of the same shape, equal entry by entry to the scalar
queries.  A horizon search asks each family member once per horizon it
tries, for its whole threshold grid.

Both protocols also name, by ``horizons(T)``, the horizons ``H <= T``,
increasing and ending at T, at which a search may try to certify its probe
T.  A provider whose tails at T are never above its tails at any ``H <= T``
lets a probe pass on tails it already holds (the Monte Carlo provider's
paths); one that cannot promise that bit for bit answers ``[T]``.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .config import check_bytes
from .decomposition import Partition
from .kernel import StochasticKernel
from .simulate import WILSON_LEVEL, PathStream, index_dtype, start_rows, wilson_interval


@runtime_checkable
class BlockTails(Protocol):
    """Worst-start tails ``max_z P_z[kappa_i(T) < t]`` of single blocks."""

    provenance: str

    def max_t(self) -> int: ...

    def horizons(self, T: int) -> Sequence[int]: ...

    def query(self, i: int, T: int, t): ...


@runtime_checkable
class JointTails(Protocol):
    """Worst-start tails ``max_z P_z[every kappa_i(T) < t]`` of block sets I."""

    provenance: str

    def max_t(self) -> int: ...

    def horizons(self, T: int) -> Sequence[int]: ...

    def query_joint(self, I: Sequence[int], T: int, t): ...


# Events per chunk of the block-change log and per piece of a count; a
# piece's temporaries are a few int64 arrays of its length.
_PIECE = 1 << 14

# Path-steps whose labels are gathered before one pass finds their changes.
_BATCH = 1 << 16

# A search tries its probe T at horizons max(_HORIZON_STEP_MIN, T //
# _HORIZON_PARTS) apart, from the simulated horizon up.
_HORIZON_PARTS = 16
_HORIZON_STEP_MIN = 64


def _pieces(e0: int, e1: int):
    """The events ``e0 .. e1 - 1`` as ranges ``[a, b)`` that lie in one chunk each."""
    a = e0
    while a < e1:
        b = min(e1, (a // _PIECE + 1) * _PIECE)
        yield a, b
        a = b


def _thresholds(t) -> np.ndarray:
    """The thresholds of a query, scalar or array, as a flat float array."""
    return np.asarray(t, dtype=float).ravel()


def _shaped(values, t):
    """Per-threshold ``values`` in the shape of ``t``: a float for a scalar t."""
    if np.ndim(t) == 0:
        return float(np.asarray(values).ravel()[0])
    return np.reshape(values, np.shape(t))


class ExactTailProvider:
    """Worst-start occupation tails by exact DP, one backward sweep per block.

    ``query(i, T, t)`` returns ``max_z P_z[kappa_i(T) < t]`` exactly for
    ``T <= T_max`` and ``t <= t_cap``, by one masked gather from block i's
    table, which :func:`occupation_tail_table` fills for every start at once
    in two ``(n_states, t_cap + 1)`` buffers; kappa is an integer, so a
    threshold t counts as ``ceil(t)``.  An empty ``starts``, or a start
    outside ``0 .. n_states - 1``, raises ``ValueError`` at construction.
    A search certifies a probe T at T alone: the DP's float tails fall in T
    mathematically, but rounding need not keep that order bit for bit.
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
        self.starts = None if starts is None else start_rows(starts, kernel.n_states)
        self._tables: dict[int, np.ndarray] = {}

    def max_t(self) -> int:
        return self.t_cap

    def horizons(self, T: int) -> list[int]:
        return [T]

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
    query at horizon T extends them to T, capped at ``T_max``.

    A search certifies its probe T from the paths already simulated where
    it can: ``horizons(T)`` yields ``min(T_sim, T)`` first, then every
    ``max(64, T // 16)`` steps, and T last.  On fixed paths ``kappa_i``
    never falls as the horizon grows, so each start's count of paths below
    a threshold never rises; its Wilson upper bound rises with the count,
    and the max over starts and over a joint key keep that order.  So a
    probe's criterion met with the tails at some ``H <= T`` is met at T
    itself, bit for bit on the same paths, and the search stops simulating
    at the first horizon that certifies the probe.

    The paths are kept only as a log of block changes: a path of a
    decomposable chain stays in one block for long runs, so the log holds
    one event per step on which a path's block label changes, made of the
    path in ``index_dtype(paths)`` and its old and new labels in
    ``index_dtype(n_blocks)``.  Events fill chunks of ``_PIECE`` events,
    so growth copies none of them, and a cumulative per-step offset array
    gives each step's events.  Each step of the stream writes every path's
    new label, gathered from its guide, into a buffer of about ``_BATCH``
    path-steps; a full buffer is compared with the labels one step earlier
    in one pass, and its changes are appended.

    Occupation counts of every block, with the paths' labels, are cached
    for horizon 0, for the simulated horizon and for the two latest probes;
    a new T is filled from the nearest cached horizon T0 by the events
    between them.  Upward, with the events (step t_e, label a_e to b_e) of
    ``T0 < t_e <= T``::

        kappa(T) = kappa(T0) + (T - T0) onehot(L(T0))
                   + sum_e (T + 1 - t_e) (onehot(b_e) - onehot(a_e))
        L(T) = L(T0) + sum_e (b_e - a_e)

    and downward the same sums with the signs turned.  They are exact
    integer scatter-adds over pieces of at most ``_PIECE`` events, so the
    base a count starts from does not change it, and a bisection's next
    probe counts only the events inside its bracket, whose last probe is
    cached.

    A query reads one occupation vector per path: ``kappa_i``, or for a
    joint key ``max_{i in I} kappa_i``, since every ``kappa_i < t`` exactly
    when their maximum is.  Sorted within each start, that vector gives
    every threshold's per-start count of paths below it by one
    ``searchsorted``.  Each threshold's answer is the largest per-start
    Wilson 99% upper bound (a per-query confidence level), which is a sound
    (conservative) ingredient for the bound searches.

    An empty ``starts``, or a start outside ``0 .. n_states - 1``, raises
    ``ValueError`` at construction: with no paths every tail would read 0.
    Before the first step, ``paths x (T_max + 1) x (state bytes + label
    bytes)`` is checked against the byte budget; before each extension,
    the events held plus one event per path and new step, the most that
    the extension can record.  Over either, queries raise
    ``ProductSpaceTooLarge`` before the extension's first step.
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
        self.start_list = start_rows(starts, kernel.n_states).tolist()
        n_paths = len(self.start_list) * self.reps
        label = index_dtype(partition.n_blocks)
        self._block_of = partition.block_of.astype(label)
        self._event = np.dtype([("path", index_dtype(n_paths)), ("old", label), ("new", label)])
        self._stream: PathStream | None = None
        self._T_sim = 0
        self._chunks: list[np.ndarray] = []  # of _PIECE events; only the last is partly filled
        # events at steps 1 .. s, for s = 0 .. T_sim
        self._offsets = np.zeros(1, dtype=np.int64)
        self._offset_buf = self._offsets  # _offsets is its first T_sim + 1 entries
        self._now: np.ndarray | None = None  # every path's label at T_sim
        # T -> (n_blocks, paths) counts and (paths,) labels, least recently probed first
        self._counts: dict[int, np.ndarray] = {}
        self._labels: dict[int, np.ndarray] = {}
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

    def horizons(self, T: int) -> list[int]:
        """``min(T_sim, T)`` if positive, then every ``max(64, T // 16)`` steps, then T.

        A horizon past ``T_max`` answers the vacuous 1.0, so a probe there
        is tried at T alone, as a search that never looked below it would.
        """
        if T > self.T_max:
            return [T]
        step = max(_HORIZON_STEP_MIN, T // _HORIZON_PARTS)
        return [*range(min(self._T_sim, T) or step, T, step), T]

    def _extend(self, T: int) -> None:
        """Log the block changes up to ``min(T_max, T)`` steps.

        The paths grow to the horizon asked, so a search that certifies a
        probe below it never simulates the steps in between.  The offsets'
        capacity at least doubles when it is outgrown, so many small
        extensions copy them ``O(log T_max)`` times.
        """
        n_paths = len(self.start_list) * self.reps
        if self._stream is None:
            item = index_dtype(self.kernel.n_states).itemsize + self._block_of.itemsize
            nbytes = n_paths * (self.T_max + 1) * item
            check_bytes(f"states and labels of {n_paths} paths x {self.T_max + 1} steps", nbytes)
            starts = np.repeat(np.asarray(self.start_list, dtype=np.int64), self.reps)
            self._stream = PathStream(self.kernel, starts, self.seed, self._block_of)
            self._counts[0] = np.zeros(
                (self.partition.n_blocks, n_paths), dtype=index_dtype(self.T_max + 1)
            )
            self._labels[0] = self._now = self._block_of[starts]
        have = self._T_sim
        if T <= have:
            return
        grow = min(self.T_max, int(T))
        held = int(self._offsets[-1])
        check_bytes(
            f"events for {held:,} block changes held and {n_paths} paths x {grow - have} new steps",
            (held + n_paths * (grow - have)) * self._event.itemsize,
        )
        offsets = self._offset_buf
        if offsets.size <= grow:
            capacity = min(self.T_max, max(grow, 2 * (offsets.size - 1)))
            offsets = np.empty(capacity + 1, dtype=np.int64)
            offsets[: have + 1] = self._offsets
            self._offset_buf = offsets
        # labels[0] holds the labels one step before the batch's first step
        batch = max(1, _BATCH // max(n_paths, 1))
        labels = np.empty((batch + 1, n_paths), dtype=self._block_of.dtype)
        labels[0] = self._now
        k = 0
        for s in range(have + 1, grow + 1):
            k += 1
            self._stream.step(labels[k])
            if k == batch or s == grow:
                self._record(labels[: k + 1], offsets[s - k : s + 1])
                labels[0] = labels[k]
                k = 0
        self._offsets = offsets[: grow + 1]
        self._now = labels[0].copy()
        self._T_sim = grow

    def _record(self, labels: np.ndarray, offsets: np.ndarray) -> None:
        """Append the changes between consecutive rows of ``labels`` to the log.

        ``offsets[0]`` is the number of events before the batch; the rest of
        ``offsets`` is filled with the running totals after each step.
        """
        n_paths = labels.shape[1]
        flat = np.flatnonzero(labels[1:] != labels[:-1])
        ends = np.arange(1, len(offsets)) * n_paths  # flat index past each step
        offsets[1:] = offsets[0] + np.searchsorted(flat, ends)
        path = flat % n_paths
        old = labels[:-1].reshape(-1).take(flat)
        new = labels[1:].reshape(-1).take(flat)
        first = int(offsets[0])
        for a, b in _pieces(first, first + flat.size):
            if a % _PIECE == 0:
                self._chunks.append(np.empty(_PIECE, dtype=self._event))
            chunk = self._chunks[-1][a % _PIECE : a % _PIECE + b - a]
            i, j = a - first, b - first
            chunk["path"], chunk["old"], chunk["new"] = path[i:j], old[i:j], new[i:j]

    def _count(self, T0: int, T: int) -> tuple[np.ndarray, np.ndarray]:
        """Counts and labels at T from those cached at T0."""
        labels0 = self._labels[T0]
        n_paths = labels0.size
        # the sums between T0 and T, signs turned below for a count downward
        acc = np.zeros((self.partition.n_blocks, n_paths), dtype=np.int64)
        acc[labels0, np.arange(n_paths)] = abs(T - T0)
        flat = acc.reshape(-1)
        moved = np.zeros(n_paths, dtype=np.int64)
        offsets = self._offsets
        lo, hi = min(T0, T), max(T0, T)
        for a, b in _pieces(int(offsets[lo]), int(offsets[hi])):
            events = self._chunks[a // _PIECE][a % _PIECE : a % _PIECE + b - a]
            # the steps of events a .. b - 1, from the offsets clipped to them
            s0 = int(np.searchsorted(offsets, a, side="right"))
            s1 = int(np.searchsorted(offsets, b - 1, side="right"))
            runs = np.diff(np.clip(offsets[s0 - 1 : s1 + 1], a, b))
            weight = np.repeat(np.arange(T + 1 - s0, T - s1, -1, dtype=np.int64), runs)
            path = events["path"].astype(np.intp)
            old = events["old"].astype(np.intp)
            new = events["new"].astype(np.intp)
            np.add.at(flat, new * n_paths + path, weight)
            np.add.at(flat, old * n_paths + path, -weight)
            np.add.at(moved, path, new - old)
        if T < T0:
            np.negative(acc, out=acc)
            np.negative(moved, out=moved)
        acc += self._counts[T0]
        moved += labels0
        return acc.astype(self._counts[T0].dtype), moved.astype(labels0.dtype)

    def _kappa(self, T: int) -> np.ndarray:
        """Occupation counts ``kappa_i(T)`` of every block i, one column per path."""
        kappa = self._counts.pop(T, None)
        if kappa is None:
            self._extend(T)
            near = min(self._counts, key=lambda h: abs(h - T))
            kappa, labels = self._count(near, T)
        else:
            labels = self._labels.pop(T)
        self._counts[T], self._labels[T] = kappa, labels
        # keep 0, the simulated horizon and the two latest probes: the next
        # probe of a bisection lies between its last probe and an earlier one
        keep = {0, self._T_sim, *list(self._counts)[-2:]}
        for h in [h for h in self._counts if h not in keep]:
            del self._counts[h], self._labels[h]
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

    def horizons(self, T: int) -> list[int]:
        return [T]

    def query(self, i: int, T: int, t):
        return _shaped(np.ones(np.size(t)), t)

    query_joint = query


class MinMarginalJointTails:
    """Joint tails upper-bounded by the smallest per-block tail.

    ``P[all kappa_i < t] <= min_i P[kappa_i < t]`` holds pointwise, so any
    per-block provider lifts to a sound joint provider.  Each block's tails
    at the current horizon and thresholds are kept, so a family of subsets
    asked at the same (T, t) asks every block once.  A minimum of tails
    that each keep their order in T keeps it too, so a search tries the
    per-block provider's horizons.
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

    def horizons(self, T: int) -> Sequence[int]:
        return self.per_block.horizons(T)

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
    ``starts`` when given).  One backward recursion gives every start at
    once: ``g_s(x, c) = P_x[kappa_i(s) < c]``, ``c = 0 .. t_cap``, starts at
    ``g_0(x, c) = 1[c >= 1]`` and steps by::

        g_s(x, c) = sum_y K(x, y) g_{s-1}(y, c - 1[y in B_i])

    Each step copies the ``(n_states, t_cap + 1)`` array g into a second
    one, h, with the in-block rows shifted one counter up (column 0 is
    ``P[kappa < 0] = 0``), then writes ``K @ h`` back into g.

    Raises
    ------
    ProductSpaceTooLarge
        If its float64 buffers would exceed the byte budget; checked
        before anything is allocated: g, h, the table and, given
        ``starts``, their ``(starts, t_cap)`` rows that each step gathers
        from g.  Every step works in them, in place.
    ValueError
        If ``starts`` is empty or a start lies outside ``0 .. n_states - 1``.
    """
    n = kernel.n_states
    in_block = (partition.block_of == block)[:, None]
    rows = slice(None) if starts is None else start_rows(starts, n)
    gathered = 0 if starts is None else rows.size
    check_bytes(
        f"two {n} x {t_cap + 1} float64 occupation DP buffers, {gathered} gathered starts "
        f"and a {T_max} x {t_cap} table",
        8 * (2 * n * (t_cap + 1) + (gathered + T_max) * t_cap),
    )
    g = np.zeros((n, t_cap + 1))
    g[:, 1:] = 1.0
    h = np.zeros_like(g)
    table = np.empty((T_max, t_cap))
    for s in range(1, T_max + 1):
        np.copyto(h[:, 1:], g[:, 1:])
        np.copyto(h[:, 1:], g[:, :-1], where=in_block)
        np.matmul(kernel.rows, h, out=g)
        g[rows, 1:].max(axis=0, out=table[s - 1])
    return table
