"""Finite reversible Markov kernels and their exact analysis.

Everything downstream consumes :class:`StochasticKernel`.  The functions in
this module compute stationary measures, detailed-balance residuals, total
variation mixing profiles, relaxation times and hitting-time tables, all by
exact linear algebra at desk scale.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.sparse import csgraph, csr_matrix

from .config import DEFAULT_TOLERANCES, MAX_DENSE_STATES
from .errors import (
    AssertionFailed,
    DimensionMismatch,
    InvalidAlpha,
    NotReversible,
    ReducibleKernel,
    SingularSystem,
    StateSpaceTooLarge,
    UnreachableTarget,
)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def require_dense(n: int) -> None:
    """Raise StateSpaceTooLarge when an n x n dense matrix exceeds the cap."""
    if n > MAX_DENSE_STATES:
        raise StateSpaceTooLarge(f"dense kernels capped at {MAX_DENSE_STATES} states, got {n}")


@dataclass(frozen=True)
class StochasticKernel:
    """A finite row-stochastic transition matrix with optional state labels.

    Parameters
    ----------
    rows : (n, n) array_like
        Transition probabilities; every row must sum to 1 within the
        row-sum tolerance and all entries must be nonnegative.
    labels : sequence of str, optional
        Per-state identifiers, purely informational.
    """

    rows: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[0] != rows.shape[1]:
            raise DimensionMismatch(f"transition matrix must be square, got {rows.shape}")
        n = rows.shape[0]
        if n < 1:
            raise DimensionMismatch("kernel needs at least one state")
        require_dense(n)
        tol = DEFAULT_TOLERANCES
        if not np.isfinite(rows).all():
            raise ValueError("transition probabilities must be finite")
        if rows.min(initial=0.0) < -1e-15:
            raise ValueError(f"negative transition probability {rows.min()}")
        err = np.abs(rows.sum(axis=1) - 1.0).max()
        if err > tol.row_sum:
            raise ValueError(f"row sums deviate from 1 by {err:.3e} > {tol.row_sum:.0e}")
        object.__setattr__(self, "rows", _frozen(np.clip(rows, 0.0, None)))
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != n:
                raise DimensionMismatch("label count must match state count")
            object.__setattr__(self, "labels", labels)

    @property
    def n_states(self) -> int:
        return self.rows.shape[0]

    def support(self) -> np.ndarray:
        """Boolean adjacency of the support digraph (diagonal included)."""
        return self.rows > 0.0

    def is_irreducible(self) -> bool:
        labels, _ = self._closed_classes
        return labels.max() == 0

    @property
    def _closed_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """Communicating class of every state, and the classes no edge leaves."""
        # the rows are frozen, so the support digraph is searched once
        if _CLASSES not in vars(self):
            search_closed_classes([self])
        return vars(self)[_CLASSES]

    def min_diagonal(self) -> float:
        return float(np.diag(self.rows).min())


# instance-dict key of a kernel's closed classes, written only by search_closed_classes
_CLASSES = "_closed_classes_cache"


def search_closed_classes(kernels: Sequence[StochasticKernel]) -> None:
    """Fill the closed-class cache of every kernel with one strong-component search.

    The support digraphs of the kernels not yet searched are laid side by
    side, state offsets added, as the diagonal blocks of one sparse digraph;
    no edge joins two blocks, so one ``connected_components`` call finds the
    communicating classes of all of them.  Each kernel then gets its own
    states' labels, renumbered ``0 .. c - 1`` in the order of the search's
    labels, and the sorted labels of its closed classes (the classes no edge
    leaves).  Irreducibility is one class; a target is reachable from every
    state when it meets every closed class (:func:`_reachable_from_all`).
    """
    todo = [k for k in kernels if _CLASSES not in vars(k)]
    if not todo:
        return
    offsets = np.cumsum([0] + [k.n_states for k in todo])
    total = int(offsets[-1])
    edges = [np.nonzero(k.support()) for k in todo]  # row-major: sources ascend
    src = np.concatenate([r + o for (r, _), o in zip(edges, offsets)])
    dst = np.concatenate([c + o for (_, c), o in zip(edges, offsets)])
    indptr = np.searchsorted(src, np.arange(total + 1))
    graph = csr_matrix((np.ones(src.size, dtype=bool), dst, indptr), shape=(total, total))
    _, found = csgraph.connected_components(graph, directed=True, connection="strong")
    # rank the classes by kernel, then by label: each kernel's are consecutive
    owner = np.repeat(np.arange(len(todo)), np.diff(offsets))
    keys, ranks = np.unique(owner * total + found, return_inverse=True)
    first = np.searchsorted(keys // total, np.arange(len(todo) + 1))
    tail, head = ranks[src], ranks[dst]
    closed = np.ones(keys.size, dtype=bool)
    closed[tail[tail != head]] = False
    labels = ranks - first[owner]
    labels.setflags(write=False)
    for j, k in enumerate(todo):
        cut = slice(offsets[j], offsets[j + 1])
        vars(k)[_CLASSES] = (labels[cut], np.flatnonzero(closed[first[j] : first[j + 1]]))


@dataclass(frozen=True)
class StationaryDistribution:
    """Probability vector fixed by a kernel, normalized to sum 1."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionMismatch("stationary weights must be a vector")
        if not np.isfinite(w).all():
            raise ValueError("stationary weights must be finite")
        if w.min(initial=0.0) < -1e-15:
            raise ValueError("stationary weights must be nonnegative")
        s = w.sum()
        if abs(s - 1.0) > 1e-9:
            raise ValueError(f"stationary weights sum to {s}, expected 1")
        object.__setattr__(self, "weights", _frozen(np.clip(w, 0.0, None) / s))

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]

    def mass(self, states) -> float:
        return float(self.weights[np.asarray(states, dtype=int)].sum())


class ReversibilityReport(NamedTuple):
    is_reversible: bool
    residual: float


@dataclass(frozen=True)
class MixingProfile:
    """Worst-start total variation distance to stationarity per step.

    ``distances[t]`` is ``max_x || K^t(x, .) - pi ||_TV`` for ``t = 0 .. horizon``
    (truncated early once every requested epsilon threshold has been crossed,
    unless a full sweep was forced).  ``mixing_time`` is the least ``t >= 1``
    with distance below 1/4, or None with ``horizon_exceeded`` set.
    """

    distances: np.ndarray
    epsilon_times: dict[float, int | None]
    mixing_time: int | None
    horizon: int
    horizon_exceeded: bool = False


@dataclass(frozen=True)
class HittingTimeTable:
    """Expected hitting times and exact tail probabilities for a target set.

    ``expected[x]`` solves the harmonic system ``h = 1 + K h`` off the target
    with ``h = 0`` on it.  ``tail[t, x] = P_x[tau > t]`` for ``t = 0 .. horizon``
    where ``tau`` is the first time the chain (started at x, time 0 included)
    sits inside the target.
    """

    target: tuple[int, ...]
    expected: np.ndarray
    tail: np.ndarray | None = None
    residual: float = 0.0

    def worst_expected(self) -> float:
        return float(self.expected.max())


def stationary_distribution(kernel: StochasticKernel) -> StationaryDistribution:
    """Compute the stationary distribution of an irreducible kernel.

    A direct solve of ``(K^T - I) pi = 0`` with a normalization row.

    Raises
    ------
    ReducibleKernel
        If the support digraph is not strongly connected.
    """
    if not kernel.is_irreducible():
        raise ReducibleKernel("kernel support digraph is not strongly connected")
    K = kernel.rows
    n = kernel.n_states
    if n == 1:
        return StationaryDistribution(np.ones(1))
    A = K.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = scipy.linalg.solve(A, b)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - irreducible => regular
        raise SingularSystem(str(exc)) from exc
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ K - pi).sum())
    tol = DEFAULT_TOLERANCES.stationary_residual
    if residual > tol:
        raise SingularSystem(f"stationary residual {residual:.3e} > {tol:.0e}")
    return StationaryDistribution(pi)


def check_reversible(kernel: StochasticKernel, pi: StationaryDistribution) -> ReversibilityReport:
    """Detailed-balance check; returns (is_reversible, max residual)."""
    if pi.n_states != kernel.n_states:
        raise DimensionMismatch("pi length must equal the kernel's state count")
    flux = pi.weights[:, None] * kernel.rows
    residual = float(np.abs(flux - flux.T).max())
    return ReversibilityReport(residual <= DEFAULT_TOLERANCES.detailed_balance, residual)


def lazify(kernel: StochasticKernel, alpha: float) -> StochasticKernel:
    """Return ``alpha * K + (1 - alpha) * Id`` for ``alpha`` in (0, 1].

    Preserves the stationary distribution and reversibility; the output
    diagonal is at least ``1 - alpha``.
    """
    if not (0.0 < alpha <= 1.0):
        raise InvalidAlpha(f"alpha must lie in (0, 1], got {alpha}")
    if alpha == 1.0:
        return kernel
    rows = alpha * kernel.rows + (1.0 - alpha) * np.eye(kernel.n_states)
    return StochasticKernel(rows, kernel.labels)


def time_reversal(kernel: StochasticKernel, pi: StationaryDistribution) -> StochasticKernel:
    """Time-reversed kernel ``K*(x,y) = pi(y) K(y,x) / pi(x)``."""
    if pi.n_states != kernel.n_states:
        raise DimensionMismatch("pi length must equal the kernel's state count")
    w = pi.weights
    rows = (kernel.rows.T * w[None, :]) / w[:, None]
    rows /= rows.sum(axis=1, keepdims=True)
    return StochasticKernel(rows, kernel.labels)


def mixing_profile(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    horizon: int,
    epsilons: Sequence[float] = (0.25, 0.1, 0.05, 0.01),
    full: bool = False,
) -> MixingProfile:
    """Exact TV mixing profile over all point-mass starts.

    Parameters
    ----------
    horizon : int
        Maximum number of steps to iterate.
    epsilons : sequence of float
        Thresholds for which crossing times are reported.
    full : bool
        Iterate all the way to the horizon even after every threshold is met.

    Raises
    ------
    ReducibleKernel
        If the kernel is not irreducible.
    """
    return mixing_profiles([kernel], [pi], horizon, epsilons, full)[0]


def mixing_profiles(
    kernels: Sequence[StochasticKernel],
    pis: Sequence[StationaryDistribution],
    horizon: int,
    epsilons: Sequence[float],
    full: bool,
) -> tuple[MixingProfile, ...]:
    """The :func:`mixing_profile` of each kernel, in order.

    The kernels of equal size are iterated as one ``(b, n, n)`` stack of
    powers, and each leaves the stack at its own last step, so every
    profile is the one its kernel alone gives, byte for byte.  The stacks
    hold a few copies of the kernels' own bytes.  The irreducibility of all
    the kernels is one class search.

    Raises
    ------
    ReducibleKernel
        If some kernel is not irreducible.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    search_closed_classes(kernels)
    for kernel, pi in zip(kernels, pis, strict=True):
        if not kernel.is_irreducible():
            raise ReducibleKernel("mixing profile needs an irreducible kernel")
        if pi.n_states != kernel.n_states:
            raise DimensionMismatch("pi length must equal the kernel's state count")
    eps_sorted = sorted(set(epsilons))
    smallest = min(eps_sorted) if eps_sorted else 0.25
    target_eps = min(smallest, 0.25)
    sizes = np.array([k.n_states for k in kernels], dtype=np.intp)
    profiles: list[MixingProfile | None] = [None] * len(kernels)
    for n in np.unique(sizes):
        group = np.flatnonzero(sizes == n)
        K = np.stack([kernels[j].rows for j in group])
        w = np.stack([pis[j].weights for j in group])
        for j, dist in zip(group, _tv_distances(K, w, horizon, target_eps, full)):
            eps_times = {e: _first_below(dist, e) for e in eps_sorted}
            mix = _first_below(dist, 0.25)
            profiles[j] = MixingProfile(
                distances=_frozen(dist),
                epsilon_times=eps_times,
                mixing_time=mix,
                horizon=horizon,
                horizon_exceeded=mix is None,
            )
    return tuple(profiles)


def _first_below(dist: np.ndarray, eps: float) -> int | None:
    """The least step ``t >= 1`` with ``dist[t] < eps``, or None."""
    below = np.flatnonzero(dist[1:] < eps)
    return int(below[0]) + 1 if below.size else None


def _tv_distances(
    K: np.ndarray, w: np.ndarray, horizon: int, target_eps: float, full: bool
) -> list[np.ndarray]:
    """Worst-start TV distances of each kernel of the ``(b, n, n)`` stack K
    to its stationary law ``w[k]``, from step 0 to its first step below
    ``target_eps`` (or to the horizon when ``full``, or when none is)."""
    b, n, _ = K.shape
    W = np.repeat(w[:, None, :], n, axis=1)  # a full subtrahend: no broadcast per step
    P = np.empty_like(K)
    P[:] = np.eye(n)
    nxt = np.empty_like(K)
    dev = np.empty_like(K)
    live = np.arange(b)  # the stack's slices, by index into K as given
    table = np.empty((64, b))  # table[t, k]: distance of live slice k at step t
    done: list[np.ndarray | None] = [None] * b
    for t in range(horizon + 1):
        if t:
            np.matmul(P, K, out=nxt)
            P, nxt = nxt, P
        if t == table.shape[0]:
            table = np.concatenate([table, np.empty_like(table)])
        np.subtract(P, W, out=dev)
        np.abs(dev, out=dev)
        d = table[t]
        np.multiply(0.5, dev.sum(axis=2).max(axis=1), out=d)
        if full or not t or min(d.tolist()) >= target_eps:
            continue
        crossed = d < target_eps
        for k in np.flatnonzero(crossed):
            done[live[k]] = table[: t + 1, k].copy()
        keep = ~crossed
        if not keep.any():
            return done
        live, K, W, P, table = live[keep], K[keep], W[keep], P[keep], table[:, keep]
        nxt, dev = np.empty_like(P), np.empty_like(P)
    for k, j in enumerate(live):
        done[j] = table[: horizon + 1, k].copy()
    return done


def relaxation_time(kernel: StochasticKernel, pi: StationaryDistribution) -> float:
    """Reciprocal spectral gap ``1 / (1 - lambda_2)`` of a reversible kernel.

    The kernel is symmetrized as ``D^{1/2} K D^{-1/2}`` with ``D = diag(pi)``,
    which is symmetric exactly when detailed balance holds.

    Raises
    ------
    NotReversible
        If detailed balance fails beyond tolerance, making the
        symmetrization invalid.
    """
    ok, residual = check_reversible(kernel, pi)
    if not ok:
        raise NotReversible(f"detailed-balance residual {residual:.3e}")
    d = np.sqrt(pi.weights)
    S = (kernel.rows * d[:, None]) / d[None, :]
    S = 0.5 * (S + S.T)
    eigs = scipy.linalg.eigvalsh(S)
    if kernel.n_states == 1:
        return 1.0
    lam2 = float(eigs[-2])
    gap = 1.0 - lam2
    if gap <= DEFAULT_TOLERANCES.eigen:
        return float("inf")
    return 1.0 / gap


def _reachable_from_all(kernel: StochasticKernel, target: np.ndarray) -> bool:
    # Every state reaches some closed class, and reaches all of it; no state
    # of a closed class reaches outside it.  So every state reaches the target
    # exactly when the target meets every closed class.
    labels, closed = kernel._closed_classes
    met = np.zeros(labels.max() + 1, dtype=bool)
    met[labels[target]] = True
    return bool(met[closed].all())


def hitting_analysis(
    kernel: StochasticKernel,
    target: Sequence[int],
    horizon: int = 0,
) -> HittingTimeTable:
    """Expected hitting times of a state set, plus exact tail probabilities.

    The expectations solve ``(I - K_BB) h = 1`` on the complement B of the
    target; the tails are an exact dynamic program on the substochastic
    restriction of K to B.  Tail submultiplicativity
    ``max_x P_x[tau > k t] <= (max_x P_x[tau > t])^k`` is asserted internally.

    Raises
    ------
    UnreachableTarget
        If some state cannot reach the target.
    """
    A = np.unique(np.asarray(target, dtype=int))
    n = kernel.n_states
    if A.size == 0:
        raise ValueError("target must be nonempty")
    if A.min() < 0 or A.max() >= n:
        raise DimensionMismatch("target indices out of range")
    if not _reachable_from_all(kernel, A):
        raise UnreachableTarget("target not reachable from every state")
    outside = np.ones(n, dtype=bool)
    outside[A] = False
    B = np.flatnonzero(outside)
    expected = np.zeros(n)
    residual = 0.0
    if B.size:
        KBB = kernel.rows.take(B, axis=0).take(B, axis=1)
        try:
            h = scipy.linalg.solve(np.eye(B.size) - KBB, np.ones(B.size))
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover
            raise SingularSystem(str(exc)) from exc
        expected[B] = h
        residual = float(np.abs((np.eye(B.size) - KBB) @ h - 1.0).max())
        # relative to the solution: large hitting times carry round-off in proportion
        allowed = DEFAULT_TOLERANCES.linear_solve * (1.0 + float(np.abs(h).max()))
        if residual > allowed:
            raise SingularSystem(f"hitting solve residual {residual:.3e} > {allowed:.3e}")
    tail = None
    if horizon > 0:
        tails = np.zeros((horizon + 1, n))
        u = np.zeros(n)
        u[B] = 1.0
        tails[0] = u
        KB = kernel.rows.copy()
        KB[:, A] = 0.0  # paths surviving t steps never enter the target
        for t in range(1, horizon + 1):
            u = KB @ u
            u[A] = 0.0
            tails[t] = u
        tail = tails
        _assert_subgeometric(tails)
    return HittingTimeTable(
        target=tuple(int(a) for a in A), expected=_frozen(expected), tail=tail, residual=residual
    )


def _assert_subgeometric(tails: np.ndarray, max_k: int = 4) -> None:
    # max_x P[tau > k t] <= (max_x P[tau > t])^k, up to float round-off.
    worst = tails.max(axis=1)
    T = len(worst) - 1
    for t in range(1, T + 1):
        for k in range(2, max_k + 1):
            if k * t > T:
                break
            if worst[k * t] > worst[t] ** k + 1e-12:
                raise AssertionFailed(
                    "hitting-tail-submultiplicativity",
                    f"t={t}, k={k}: {worst[k * t]:.3e} > {worst[t] ** k:.3e}",
                )


def kernel_hash(kernel: StochasticKernel) -> str:
    """Stable hex digest of the transition matrix (for report provenance)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(kernel.rows).tobytes())
    h.update(str(kernel.n_states).encode())
    return h.hexdigest()[:16]
