"""Seeded Monte Carlo engine: trajectories, occupation records, path streams.

Batched paths advance together through :class:`RowSampler`, which maps
one raw 64-bit word per path and step to the next state by inverse CDF
over the row's nonzeros.  The words come from a counter-based Philox
stream keyed by the seed, so a seed fixes every path.  A word ``w`` stands
for the uniform ``(w >> 11) 2^-53`` that ``Generator.random`` would make
of it; the sampler compares the words with exact integer keys instead of
comparing that uniform with cumulative sums, and picks the same state.
A :class:`PathStream` steps through the sampler's guide table instead:
one gather per path-step settles every word whose bucket of top bits
holds no key, and the search settles the rest, so the paths are the
search's.  :func:`start_rows` checks every start a stream, a tail
provider or an audit is given, before anything is allocated.  Occupation
counts follow the convention that time 0 is excluded: ``kappa_i(T)``
counts steps ``u = 1 .. T`` with ``X_u`` in block i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import rng as rngmod
from .config import check_bytes
from .decomposition import Partition
from .errors import AssertionFailed
from .kernel import StochasticKernel

# 2^53: Generator.random() makes (w >> 11) 2^-53 of a raw word w.
_TWO53 = float(1 << 53)

# log2 of the most entries of a path stream's guide; its shifted next
# states stay below 2^15 and are kept in int16, 64 KB.
_GUIDE_LOG2 = 15
# Bytes per guide entry counted by the budget besides its label: the peak
# of building the table, when the next states are held in intp (8 B) with
# the row and word arrays (16 B) while the search at the last words runs
# (18 B: its index array, a gathered key array and two compare masks).
_GUIDE_BUILD_BYTES = 42

# 99% two-sided normal quantile, used by every Wilson interval here.
WILSON_LEVEL = 0.99
_Z99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int, z: float = _Z99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The lower end is exactly 0.0 when nothing succeeds and the upper end
    exactly 1.0 when everything does, where the float formula misses by
    rounding.

    Raises
    ------
    ValueError
        If ``successes`` lies outside ``0 .. trials``.
    """
    if not 0 <= successes <= max(trials, 0):
        raise ValueError(f"successes {successes} outside 0..{trials}")
    if trials <= 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    lo = 0.0 if successes == 0 else max(0.0, (centre - half) / denom)
    hi = 1.0 if successes == trials else min(1.0, (centre + half) / denom)
    return lo, hi


@dataclass(frozen=True)
class OccupationRecord:
    """Per-trajectory block occupation and transition counters.

    ``kappa[i]`` counts times ``u in 1..T`` with the state in block i, so the
    entries sum to T.  ``transitions[i, j]`` counts moves with the previous
    state in block i and the next in block j occurring strictly before T
    (arrival index ``s < T``), hence they total ``T - 1``.
    """

    T: int
    start: object
    kappa: np.ndarray
    transitions: np.ndarray

    def __post_init__(self):
        if int(self.kappa.sum()) != self.T:
            raise AssertionFailed(
                "occupation-counts-sum-to-horizon", f"sum {int(self.kappa.sum())} != T = {self.T}"
            )


def row_width(kernel: StochasticKernel) -> int:
    """Width of :class:`RowSampler`'s padded rows: the widest row's nonzeros, to a power of two."""
    d = int((kernel.rows > 0).sum(axis=1).max())
    return 1 << (d - 1).bit_length()


class RowSampler:
    """Vectorized next-state sampling from a transition matrix.

    Each row is sampled by inverse CDF over its own nonzeros: with the word
    ``w`` it picks the state the full-row search ``(cumsum(K)[s] < u).sum()``
    would at ``u = (w >> 11) 2^-53``, and never a column of probability 0.
    The slot is found by a branch-free binary search over the row's
    cumulative sums, padded with 1.0 to a power-of-two width ``w``, so a
    step costs ``log2(w)`` gathers whatever the row's width.

    The search compares words with ``uint64`` keys, not uniforms with
    sums.  For a cumulative sum ``c``, ``c < (w >> 11) 2^-53`` holds exactly
    when ``w > key``, where ``key = 2^11 (floor(c 2^53) + 1) - 1``: ``c 2^53``
    and its floor are exact in float64.  Where ``floor(c 2^53) + 1 >= 2^53``
    (the 1.0 padding, ``c = 1 - 2^-53``, a sum that rounds above 1) the key
    is ``2^64 - 1``, which no word exceeds.

    :meth:`step` takes its words from the caller, one per state in the same
    order, so each caller decides which generator feeds which path.
    :meth:`guide` tabulates the search for :class:`PathStream`.

    Raises
    ------
    ProductSpaceTooLarge
        Before allocating its tables, ``8 n (2w - 1)`` B, over the byte budget.
    """

    def __init__(self, kernel: StochasticKernel):
        K = kernel.rows
        n = kernel.n_states
        w = row_width(kernel)
        check_bytes(f"sampler tables for {n} states x {w} slots", 8 * n * (2 * w - 1))
        # The search probes sum pos + h - 1 for h = w/2 .. 1 and adds h to
        # pos where that sum's key is below the word.  The table of level h
        # holds the keys of sums h - 1 + 2hk of every row, row-major, so the
        # flat index into the next level is 2 * index + (key < word): it
        # starts at the row and ends at row * w + slot, the index into the
        # column table.  Sum w - 1 (1.0, never below) is never probed.
        halves = [w >> k for k in range(1, w.bit_length())]
        levels = [np.empty((n, w // (2 * h)), dtype=np.uint64) for h in halves]
        # Per row: the columns of its nonzeros, padded to w by repeating the
        # last, and the full-row cumulative sums at them, with the last
        # nonzero and the padding set to 1.0.
        cols = np.empty((n, w), dtype=np.intp)
        for x in range(n):
            nz = np.flatnonzero(K[x] > 0)
            cols[x, : nz.size] = nz
            cols[x, nz.size :] = nz[-1]
            cums = np.ones(w)
            cums[: nz.size - 1] = np.cumsum(K[x])[nz[:-1]]
            # floor(c 2^53), saturated at 2^53 - 1, then 2^11 of it plus 2^11 - 1
            top = np.minimum(np.floor(cums * _TWO53), _TWO53 - 1).astype(np.uint64)
            keys = top << np.uint64(11) | np.uint64(0x7FF)
            for h, level in zip(halves, levels):
                level[x] = keys[h - 1 :: 2 * h]
        self._levels = [level.ravel() for level in levels]
        self.cols = cols.ravel()
        self.n_states = n

    def step(self, states: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Next state of each ``states[k]`` drawn with the raw word ``words[k]``."""
        return self.cols.take(self.transitions(states, words))

    def guide(self, block_of: np.ndarray | None = None) -> tuple[int, np.ndarray, np.ndarray | None]:
        """Guide table of the search: ``(b, next, labels)`` for words cut into ``2^b`` buckets.

        ``b`` is the largest with ``n 2^b <= 2^15``.  Entry ``x << b | j`` of
        ``next`` holds ``x' << b`` when the search picks state ``x'`` from row
        ``x`` for every word ``w`` with ``w >> (64 - b) == j``, and -1 where a
        key ``k`` of the row lies in the bucket below its last word,
        ``j 2^(64-b) <= k < (j + 1) 2^(64-b) - 1``: inside such a bucket the
        pick changes.  The pick only grows with the word, so an entry is the
        search's own answer at its bucket's first word, marked where the
        answer at the last word differs.  ``next`` is kept in the smallest
        signed dtype that holds its indices (int16).  Given ``block_of``,
        ``labels`` holds ``block_of[x']`` of each unmarked entry, in its dtype.

        Raises
        ------
        ProductSpaceTooLarge
            Before anything is allocated, if ``n 2^b (42 + label bytes)``
            B, the table and the temporaries of building it, is over the
            byte budget.
        """
        n = self.n_states
        bits = _GUIDE_LOG2 - (n - 1).bit_length()
        size = n << bits
        label = 0 if block_of is None else block_of.itemsize
        check_bytes(
            f"guide of {n} states x {1 << bits} word buckets", size * (_GUIDE_BUILD_BYTES + label)
        )
        rows = np.repeat(np.arange(n, dtype=np.intp), 1 << bits)
        words = np.arange(size, dtype=np.uint64)
        words &= np.uint64((1 << bits) - 1)
        words <<= np.uint64(64 - bits)
        nxt = self.transitions(rows, words)
        words |= np.uint64((1 << (64 - bits)) - 1)
        straddle = self.transitions(rows, words) != nxt
        del rows, words
        self.cols.take(nxt, out=nxt, mode="clip")
        labels = None if block_of is None else block_of.take(nxt)
        nxt <<= bits
        nxt[straddle] = -1
        return bits, nxt.astype(index_dtype(size)), labels

    def transitions(self, states: np.ndarray, words: np.ndarray) -> np.ndarray:
        """Index ``states[k] * w + slot`` into ``cols`` of the transition drawn with ``words[k]``.

        Raises
        ------
        TypeError
            If ``words`` is not a ``uint64`` array: uniforms compared with
            the keys would pick wrong transitions without an error.
        """
        if words.dtype != np.uint64:
            raise TypeError(f"words must be raw uint64 draws, not {words.dtype}")
        idx = states = states.astype(np.intp, copy=False)
        for level, keys in enumerate(self._levels):
            below = keys.take(idx) < words
            if level:
                idx <<= 1
            else:
                idx = states << 1  # level 0 reads the rows themselves
            idx += below
        return idx


def simulate(
    chain,
    x0,
    T: int,
    seed: int,
    partition: Partition | None = None,
    n_blocks: int | None = None,
) -> tuple[np.ndarray | list, OccupationRecord]:
    """One trajectory of length T with its occupation record.

    ``chain`` is either a :class:`StochasticKernel` (states are indices,
    blocks come from ``partition``) or any object with a scalar
    ``step(state, generator)`` method (states are opaque; the chain's own
    ``block_of(state)`` method, if it has one, classifies them into
    ``n_blocks`` blocks, else everything is block 0).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if isinstance(chain, StochasticKernel):
        part = partition or Partition.single_block(chain.n_states)
        traj = simulate_states(chain, [x0], T, seed)[0].astype(np.int64)
        blocks = part.block_of[traj]
        nb = part.n_blocks
    else:
        gen = rngmod.stream(seed, 0)
        traj = [x0]
        state = x0
        for _ in range(T):
            state = chain.step(state, gen)
            traj.append(state)
        block_of = getattr(chain, "block_of", None)
        if block_of is None:
            blocks = np.zeros(T + 1, dtype=np.int64)
            nb = 1
        else:
            blocks = np.array([block_of(s) for s in traj], dtype=np.int64)
            nb = n_blocks if n_blocks is not None else int(blocks.max()) + 1
    kappa = np.bincount(blocks[1:], minlength=nb).astype(np.int64)
    trans = np.zeros((nb, nb), dtype=np.int64)
    np.add.at(trans, (blocks[:-1][: T - 1], blocks[1:][: T - 1]), 1)
    return traj, OccupationRecord(T=T, start=x0, kappa=kappa, transitions=trans)


def start_rows(starts: Sequence[int], n: int) -> np.ndarray:
    """``starts`` as an index array, each checked to be one of ``0 .. n - 1``.

    Raises
    ------
    ValueError
        If ``starts`` is not a flat sequence of numbers (a nested list
        would make paths share words, a string or a bool is no state), if
        there is no start, or naming the first start outside the chain or
        not an integer.
    """
    values = np.asarray(starts)
    if values.ndim != 1:
        raise ValueError(f"starts must be a flat sequence of states, not of shape {values.shape}")
    if values.size == 0:
        raise ValueError("no starts given")
    if values.dtype.kind not in "iuf":
        raise ValueError(f"starts must be state indices, not {values.dtype}")
    inside = (values >= 0) & (values < n) & (values == np.floor(values))
    if not inside.all():
        raise ValueError(f"start {values[~inside][0]} outside 0..{n - 1}")
    return values.astype(np.intp)


def index_dtype(n: int) -> np.dtype:
    """Smallest signed integer dtype that holds the indices ``0 .. n - 1``."""
    for dt in (np.int8, np.int16, np.int32):
        if n - 1 <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(np.int64)


class PathStream:
    """Resumable batched trajectories from one seeded stream.

    Holds a :class:`RowSampler`, its :meth:`~RowSampler.guide`, the bit
    generator of ``rng.stream(seed, 0)`` and every path's current state
    ``x``, kept as the guide row ``x << b``.  Each step draws one raw word
    ``w`` per path from it with ``random_raw`` and gathers the next state
    from guide entry ``x << b | w >> (64 - b)``; the few paths whose entry
    is marked go through the sampler's search.  A step picks what the
    search picks, so paths extended in segments are bit-identical to paths
    simulated in one go, and to the search's paths.  No start, or a start
    outside ``0 .. n_states - 1``, raises ``ValueError`` before the sampler
    is built.

    Given ``block_of``, the guide also holds every next state's label, and
    :meth:`step` can write them.
    """

    def __init__(
        self,
        kernel: StochasticKernel,
        starts: np.ndarray,
        seed: int,
        block_of: np.ndarray | None = None,
    ):
        rows = start_rows(starts, kernel.n_states)
        self._sampler = RowSampler(kernel)
        self._shift, self._next, self._labels = self._sampler.guide(block_of)
        self._drop = np.uint64(64 - self._shift)
        self._block_of = block_of
        self._guided = (rows << self._shift).astype(self._next.dtype)
        self._bits = rngmod.stream(seed, 0).bit_generator

    @property
    def states(self) -> np.ndarray:
        """Every path's current state."""
        return self._guided >> self._shift

    def step(self, labels: np.ndarray | None = None) -> None:
        """Advance every path one step.

        With ``labels``, the block label of each path's new state is
        written into it; the stream must have been given ``block_of``.
        """
        words = self._bits.random_raw(self._guided.size)
        entry = (words >> self._drop).view(np.intp)
        entry |= self._guided
        # entries are in range; "clip" gathers into the output without a buffer
        self._next.take(entry, out=self._guided, mode="clip")
        if labels is not None:
            self._labels.take(entry, out=labels, mode="clip")
        odd = np.flatnonzero(self._guided < 0)
        if odd.size:
            states = self._sampler.step(entry[odd] >> self._shift, words[odd])
            self._guided[odd] = states << self._shift
            if labels is not None:
                labels[odd] = self._block_of.take(states)

    def extend(self, k: int) -> Iterator[np.ndarray]:
        """Advance every path k steps, yielding the states after each step.

        The stream advances only as far as the caller iterates.
        """
        for _ in range(k):
            self.step()
            yield self.states


def simulate_states(
    kernel: StochasticKernel, x0: Sequence[int] | int, T: int, seed: int, reps: int | None = None
) -> np.ndarray:
    """Batched trajectories; returns an int array of shape (reps, T + 1).

    States are stored in ``index_dtype(n_states)``.  Each step is written as
    one contiguous row of a time-major ``(T + 1, reps)`` array, and its
    transpose is returned.

    Raises
    ------
    ValueError
        If there is no start, or one lies outside ``0 .. n_states - 1``.
    ProductSpaceTooLarge
        If the path array would exceed the byte budget.

    Both are checked before the path array is allocated.
    """
    if np.isscalar(x0):
        if reps is None:
            raise ValueError("reps required for a scalar start")
        x0 = np.full(reps, x0)
    stream = PathStream(kernel, x0, seed)
    starts = stream.states
    dtype = index_dtype(kernel.n_states)
    nbytes = starts.size * (T + 1) * dtype.itemsize
    check_bytes(f"{starts.size} paths x {T + 1} {dtype} states", nbytes)
    out = np.empty((T + 1, starts.size), dtype=dtype)
    out[0] = starts
    for t, state in enumerate(stream.extend(T), 1):
        out[t] = state
    return out.T
