"""Independent oracles used only by the tests.

Each recomputes a package quantity by a different route: the trace law by
absorbing power iteration, joint occupation tails by a product-space
dynamic program, stream independence by a lag-1 correlation, transport
distances by the full n x n transportation LP, the bootstrap horizon by
a nested search that finds a whole covering time at every outer probe, the
concentration audit by simulating each (orientation, t) run on its own, the
heavy-set hitting maximum by one solve for every qualifying subset, the
occupation horizon search by one scalar tail query per (time, member), the
exact occupation DP by the forward (counter, start, state) sweep, by its own
backward recursion with fresh arrays at every step and by a forward sweep in
exact rationals, the batched closed-class search by one strong-component
search per kernel, the covering oracle's cut test by an
interval-transportation LP per grid point, and expected hitting times by
Monte Carlo.  ``exact_occupation_tail`` asks the exact tail provider one
query, for tests that compare single tails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
import scipy.optimize
from scipy.sparse import csgraph, csr_matrix

from mixdecomp import rng as rngmod
from mixdecomp.bounds import PeresSousiConstants, _t_grid, least_horizon
from mixdecomp.decomposition import Partition, projected_kernel, qualifying_subsets
from mixdecomp.errors import HorizonCap, ProductSpaceTooLarge
from mixdecomp.kernel import StationaryDistribution, StochasticKernel, hitting_analysis
from mixdecomp.simulate import RowSampler, wilson_interval
from mixdecomp.tails import ExactTailProvider
from mixdecomp.wellcovering import AuditRow, OracleOutcome, WellCoveringQuery, _kappa_grid


def trace_kernel_dp_oracle(
    kernel: StochasticKernel, partition: Partition, block: int, eps: float = 1e-13
) -> np.ndarray:
    """One-step trace law by absorbing power iteration (independent oracle).

    Accumulates ``K_AB K_BB^t K_BA`` until the surviving excursion mass drops
    below ``eps``; avoids the matrix inverse used by :func:`trace_kernel`.
    """
    A = partition.members(block)
    n = kernel.n_states
    B = np.setdiff1d(np.arange(n), A)
    K = kernel.rows
    rows = K[np.ix_(A, A)].copy()
    if B.size == 0:
        return rows
    KAB = K[np.ix_(A, B)]
    KBB = K[np.ix_(B, B)]
    KBA = K[np.ix_(B, A)]
    out = KAB.copy()  # mass currently wandering outside, per outside state
    for _ in range(10_000_000):
        rows += out @ KBA
        out = out @ KBB
        if out.sum(axis=1).max() < eps:
            break
    return rows


def closed_classes_reference(
    kernel: StochasticKernel,
) -> tuple[set[frozenset[int]], set[frozenset[int]]]:
    """Communicating classes and closed classes of one kernel, as state sets.

    One strong-component search of the kernel's own support digraph; a class
    is closed when no support edge leaves it.
    """
    support = kernel.support()
    n_classes, labels = csgraph.connected_components(
        csr_matrix(support), directed=True, connection="strong"
    )
    classes, closed = set(), set()
    for c in range(n_classes):
        inside = labels == c
        states = frozenset(np.flatnonzero(inside).tolist())
        classes.add(states)
        if not support[inside][:, ~inside].any():
            closed.add(states)
    return classes, closed


def brute_minimal_heavy_sets(masses: np.ndarray, floor: float) -> list[tuple[int, ...]]:
    """The members of ``qualifying_subsets`` none of whose proper subsets
    qualifies, by testing every proper subset."""
    family = qualifying_subsets(masses, floor)
    heavy = set(family)
    return [
        I
        for I in family
        if not any(J in heavy for r in range(1, len(I)) for J in itertools.combinations(I, r))
    ]


def avg_hit_all_subsets(
    kernel: StochasticKernel, partition: Partition, masses: np.ndarray, floor: float
) -> tuple[float, tuple[int, ...]]:
    """Worst expected hitting time over every block union of mass >= floor.

    One hitting solve per subset of ``qualifying_subsets``, in its order; the
    first strict maximum is the argmax.
    """
    best, arg = -1.0, None
    for I in qualifying_subsets(masses, floor):
        states = np.concatenate([partition.members(i) for i in I])
        worst = hitting_analysis(kernel, states).worst_expected()
        if worst > best:
            best, arg = worst, I
    return best, arg


def exact_occupation_tail(
    kernel: StochasticKernel,
    partition: Partition,
    block: int,
    T: int,
    t: float,
    start: int | None = None,
) -> float:
    """Exact ``P[kappa_i(T) < t]`` from one :class:`ExactTailProvider` query.

    With ``start=None`` the max over all point-mass starts is returned.
    The provider raises ``ProductSpaceTooLarge`` over the DP's budget and
    ``ValueError`` for a start outside ``0 .. n_states - 1``.
    """
    starts = None if start is None else [start]
    return ExactTailProvider(kernel, partition, T, min(T, np.ceil(t)), starts).query(block, T, t)


def exact_joint_occupation_tail(
    kernel: StochasticKernel,
    partition: Partition,
    blocks: Sequence[int],
    T: int,
    t: int,
    start: int | None = None,
) -> float:
    """Exact ``P[kappa_i(T) < t for all i in blocks]`` for at most 2 blocks."""
    blocks = [int(b) for b in blocks]
    if len(blocks) == 1:
        return exact_occupation_tail(kernel, partition, blocks[0], T, t, start)
    if len(blocks) != 2:
        raise ProductSpaceTooLarge("exact joint tails support at most 2 blocks")
    n = kernel.n_states
    if n * t * t > 10**7:
        raise ProductSpaceTooLarge(f"n * t^2 = {n * t * t} > 1e7")
    K = kernel.rows
    in1 = (partition.block_of == blocks[0]).astype(float)
    in2 = (partition.block_of == blocks[1]).astype(float)
    starts = range(n) if start is None else [start]
    worst = 0.0
    cap = t
    for z in starts:
        p = np.zeros((cap + 1, cap + 1, n))
        p[0, 0, z] = 1.0
        for _ in range(T):
            q = p.reshape(-1, n) @ K
            q = q.reshape(cap + 1, cap + 1, n)
            stay = q * (1.0 - in1) * (1.0 - in2)
            nxt = stay.copy()
            inc1 = q * in1
            inc2 = q * in2
            nxt[1:, :] += inc1[:-1, :]
            nxt[cap, :] += inc1[cap, :]
            nxt[:, 1:] += inc2[:, :-1]
            nxt[:, cap] += inc2[:, cap]
            p = nxt
        prob = p[:t, :t].sum()
        worst = max(worst, float(prob))
    return worst


def scalar_occupation_horizon(
    family: Sequence, hit_term: Callable, tail: Callable, t_cap: int, T_horizon: int
) -> int | None:
    """Least horizon T at which some grid time t < T meets the 1/4 criterion.

    The search one threshold at a time: at each probe the grid times are
    tried largest first, each over the family in order until a member
    fails, and ``tail(x, T, t)`` is asked with a scalar t only where the
    hitting term ``hit_term(x, t)`` is below 1/4.
    """

    def meets(x, T: int, t) -> bool:
        h = hit_term(x, t)
        return h < 0.25 and h + tail(x, T, t) < 0.25

    def feasible(T: int) -> bool:
        return any(all(meets(x, T, t) for x in family) for t in _t_grid(T, t_cap)[::-1])

    return least_horizon(feasible, 2, T_horizon)


def occupation_tail_table_fresh(
    kernel: StochasticKernel, partition: Partition, block: int, T_max: int, t_cap: int, starts=None
) -> np.ndarray:
    """``tails.occupation_tail_table`` by the forward sweep, one DP per start.

    ``p[k, z, y] = P_z[X_s = y, kappa(s) = k]``, with ``k = t_cap`` meaning
    ``>= t_cap``; every product of a step is a new array.
    """
    n = kernel.n_states
    K = kernel.rows
    in_block = partition.block_of == block
    start_idx = np.arange(n) if starts is None else np.asarray(list(starts), dtype=int)
    ns = start_idx.size
    p = np.zeros((t_cap + 1, ns, n))
    p[0, np.arange(ns), start_idx] = 1.0
    table = np.empty((T_max, t_cap))
    mask_in = in_block.astype(float)[None, None, :]
    mask_out = 1.0 - mask_in
    for s in range(1, T_max + 1):
        q = (p.reshape(-1, n) @ K).reshape(t_cap + 1, ns, n)
        nxt = q * mask_out
        nxt[1:] += q[:-1] * mask_in
        nxt[t_cap] += q[t_cap] * mask_in[0]
        p = nxt
        table[s - 1] = np.cumsum(p.sum(axis=2)[:-1], axis=0).max(axis=1)
    return table


def occupation_tail_table_backward_fresh(
    kernel: StochasticKernel, partition: Partition, block: int, T_max: int, t_cap: int, starts=None
) -> np.ndarray:
    """``tails.occupation_tail_table``'s backward recursion with new arrays at every step."""
    n = kernel.n_states
    in_block = (partition.block_of == block)[:, None]
    rows = np.arange(n) if starts is None else np.asarray(list(starts), dtype=int)
    g = np.zeros((n, t_cap + 1))
    g[:, 1:] = 1.0
    table = np.empty((T_max, t_cap))
    for s in range(1, T_max + 1):
        h = np.zeros((n, t_cap + 1))
        h[:, 1:] = np.where(in_block, g[:, :-1], g[:, 1:])
        g = kernel.rows @ h
        table[s - 1] = g[rows, 1:].max(axis=0)
    return table


def occupation_tail_table_rational(
    kernel: StochasticKernel, partition: Partition, block: int, T_max: int, t_cap: int, starts=None
) -> list[list[Fraction]]:
    """The occupation tail table in exact rationals, by the forward sweep per start.

    The kernel's floats are read exactly as ``Fraction``s; ``p[y][k]`` is
    ``P_z[X_s = y, kappa(s) = k]`` with ``k = t_cap`` meaning ``>= t_cap``.
    """
    n = kernel.n_states
    K = [[Fraction(float(v)) for v in row] for row in kernel.rows]
    inside = [bool(b == block) for b in partition.block_of]
    table = [[Fraction(0)] * t_cap for _ in range(T_max)]
    for z in range(n) if starts is None else starts:
        p = [[Fraction(int(y == z and k == 0)) for k in range(t_cap + 1)] for y in range(n)]
        for s in range(T_max):
            nxt = [[Fraction(0)] * (t_cap + 1) for _ in range(n)]
            for x in range(n):
                for y in range(n):
                    if K[x][y]:
                        for k, mass in enumerate(p[x]):
                            nxt[y][min(k + inside[y], t_cap)] += mass * K[x][y]
            p = nxt
            below = list(itertools.accumulate(sum(p[y][k] for y in range(n)) for k in range(t_cap)))
            table[s] = [max(a, b) for a, b in zip(table[s], below)]
    return table


def stream_correlation(seed: int, n_draws: int = 10**6) -> float:
    """Lag-1 cross-correlation between two replica streams (sanity check)."""
    a = rngmod.stream(seed, 0).random(n_draws)
    b = rngmod.stream(seed, 1).random(n_draws)
    a = a - a.mean()
    b = b - b.mean()
    return float((a[:-1] * b[1:]).sum() / math.sqrt((a * a).sum() * (b * b).sum()))


@dataclass(frozen=True)
class HittingEstimate:
    """Sample mean of a hitting time with a 3-standard-error band."""

    mean: float
    half_width: float
    reps: int


def empirical_hitting(
    kernel: StochasticKernel,
    target: Sequence[int],
    x0: int,
    reps: int,
    seed: int,
    step_cap: int = 10**9,
) -> HittingEstimate:
    """Monte Carlo hitting-time mean with a 3-standard-error band.

    The cross-check of ``kernel.hitting_analysis``: ``reps`` replicas from
    ``x0`` step through one :class:`RowSampler` on ``rng.stream(seed, 0)``
    until each reaches ``target``; ``HorizonCap`` past ``step_cap`` steps.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    in_target = np.zeros(kernel.n_states, dtype=bool)
    in_target[np.asarray(target, dtype=int)] = True
    sampler = RowSampler(kernel)
    gen = rngmod.stream(seed, 0)
    state = np.full(reps, x0, dtype=np.int64)
    times = np.zeros(reps, dtype=np.int64)
    active = ~in_target[state]
    t = 0
    while active.any():
        t += 1
        if t > step_cap:
            raise HorizonCap(f"{int(active.sum())} replicates exceeded {step_cap} steps")
        idx = np.nonzero(active)[0]
        state[idx] = sampler.step(state[idx], gen.bit_generator.random_raw(idx.size))
        done = in_target[state[idx]]
        times[idx[done]] = t
        active[idx[done]] = False
    mean = float(times.mean())
    se = float(times.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return HittingEstimate(mean=mean, half_width=3.0 * se, reps=reps)


def full_transport_lp(mu: np.ndarray, nu: np.ndarray, d: np.ndarray) -> float:
    """Optimal transport cost as the full n x n transportation LP (HiGHS).

    At HiGHS' tightest feasibility tolerances: its 1e-7 defaults leave errors
    of about 1e-7 in the cost.
    """
    n = d.shape[0]
    rows = np.kron(np.eye(n), np.ones((1, n)))  # sum_j plan[i, j] = mu_i
    cols = np.kron(np.ones((1, n)), np.eye(n))  # sum_i plan[i, j] = nu_j
    res = scipy.optimize.linprog(
        c=d.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([mu, nu]),
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.status == 0, res.message
    return float(res.fun)


def interval_transport_feasible(kappa: np.ndarray, Q: np.ndarray, B: float, T: float) -> bool:
    """Is there an N matrix compatible with kappa at horizon T? (HiGHS LP)

    Cheap necessary conditions with 1e-15 slacks first, then the
    interval-transportation LP over the n^2 entries of N: each within its
    plausibility bounds, each row and column sum within ``kappa -+ 1/T``,
    all summing to 1.
    """
    n = kappa.size
    r = B * np.sqrt(kappa) / math.sqrt(T)  # radius indexed by the first block
    a = kappa[:, None] * Q
    b = kappa[None, :] * Q.T
    lo = np.maximum(np.maximum(a, b) - r[:, None], 0.0)
    hi = np.minimum(np.minimum(a, b) + r[:, None], 1.0)
    if (lo > hi + 1e-15).any():
        return False
    slack = 1.0 / T
    row_lo, row_hi = kappa - slack, kappa + slack
    if (lo.sum(axis=1) > row_hi + 1e-15).any() or (hi.sum(axis=1) < row_lo - 1e-15).any():
        return False
    if (lo.sum(axis=0) > row_hi + 1e-15).any() or (hi.sum(axis=0) < row_lo - 1e-15).any():
        return False
    if lo.sum() > 1.0 + 1e-15 or hi.sum() < 1.0 - 1e-15:
        return False
    # (4n, n^2) rows bounding each row sum, then each column sum, of N
    eye = np.eye(n)
    rows, cols = np.repeat(eye, n, axis=1), np.tile(eye, n)
    A = np.empty((4 * n, n * n))
    A[0 : 2 * n : 2], A[1 : 2 * n : 2] = rows, -rows
    A[2 * n :: 2], A[2 * n + 1 :: 2] = cols, -cols
    res = scipy.optimize.linprog(
        c=np.zeros(n * n),
        A_ub=A,
        b_ub=np.tile(np.stack([row_hi, -row_lo], axis=1).ravel(), 2),
        A_eq=np.ones((1, n * n)),
        b_eq=np.array([1.0]),
        bounds=np.stack([lo.ravel(), hi.ravel()], axis=1),
        method="highs",
    )
    return res.status == 0


def feasibility_oracle_reference(
    query: WellCoveringQuery, T: int, grid_resolution: int = 64, max_witnesses: int = 4
) -> OracleOutcome:
    """``feasibility_oracle`` by one :func:`interval_transport_feasible` call per grid point."""
    tolerance = 2.0 / grid_resolution
    if T <= query.thresholds.max():
        return OracleOutcome(False, (), tolerance, T)
    grid = _kappa_grid(query.n, grid_resolution)
    witnesses = []
    for kappa in grid[(grid <= query.thresholds / T + 1e-15).any(axis=1)]:
        if interval_transport_feasible(kappa, query.q.rows, query.B, T):
            witnesses.append(tuple(np.round(kappa, 9)))
            if len(witnesses) >= max_witnesses:
                break
    return OracleOutcome(not witnesses, tuple(witnesses), tolerance, T)


def nested_bootstrap_horizon(
    n_blocks: int,
    I: Sequence[int],
    phi: Sequence[float],
    wc_time: Callable[[np.ndarray, float], float],
    constants: PeresSousiConstants,
) -> tuple[int, float]:
    """Bootstrap horizon T and value, one full covering-time search per probe.

    The least T with ``T > wc_time(thresholds, B(T))``, thresholds
    ``8 c' phi_i`` on I and ``B(T) = sqrt(8 phi_max log(64 n^2 T))``; the
    value is ``(4/3) c_alpha T``.
    """
    phi = np.asarray(phi, dtype=float)
    thresholds = np.where(np.isin(np.arange(n_blocks), I), 8.0 * constants.c_alpha_prime * phi, 0.0)

    def B_of(T: int) -> float:
        return math.sqrt(8.0 * phi.max() * math.log(64.0 * n_blocks * n_blocks * T))

    T = least_horizon(lambda T: T > wc_time(thresholds, B_of(T)), 2, 2**60)
    return T, (4.0 / 3.0) * constants.c_alpha * T


def transition_ratio_sample(
    kernel: StochasticKernel,
    partition: Partition,
    i: int,
    j: int,
    clock_block: int,
    t: int,
    reps: int,
    seed: int,
    start: int,
) -> np.ndarray:
    """Per-replica ``N_ij(kappa_clock^{-1}(t)) / (t + 1)`` for one run alone.

    Each step gathers the live replicas through ``np.nonzero``, draws one
    raw word each from ``rng.stream(seed, 1)`` and scatters them back.
    """
    sampler = RowSampler(kernel)
    gen = rngmod.stream(seed, 1)
    in_i = partition.block_of == i
    in_j = partition.block_of == j
    in_clock = partition.block_of == clock_block
    state = np.full(reps, start, dtype=np.int64)
    visits = np.zeros(reps, dtype=np.int64)
    crossings = np.zeros(reps, dtype=np.int64)
    active = np.ones(reps, dtype=bool)
    cap = 200 * (t + 1) * max(1, kernel.n_states)
    for _ in range(cap):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        prev = state[idx]
        nxt = sampler.step(prev, gen.bit_generator.random_raw(idx.size))
        state[idx] = nxt
        arrived_clock = in_clock[nxt]
        done_now = arrived_clock & (visits[idx] + 1 >= t)
        crossing = in_i[prev] & in_j[nxt]
        crossings[idx] += (crossing & ~done_now).astype(np.int64)
        visits[idx] += arrived_clock.astype(np.int64)
        active[idx[done_now]] = False
    if active.any():
        raise HorizonCap(
            f"{int(active.sum())} of {reps} audit replicates did not reach {t} visits to "
            f"block {clock_block} within {cap} steps"
        )
    return crossings / (t + 1.0)


def sequential_concentration_audit(
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
    start: int = 0,
) -> list[AuditRow]:
    """The concentration audit's rows, one run after another in (orientation, t) order."""
    proj = projected_kernel(kernel, pi, partition)
    rows = []
    for orient, clock, target in (("ij", i, proj.rows[i, j]), ("ji", j, proj.rows[j, i])):
        for idx_t, t in enumerate(t_grid):
            stats = transition_ratio_sample(
                kernel, partition, i, j, clock, int(t), reps, seed + 7 * idx_t, start
            )
            for c in c_grid:
                exceed = int((np.abs(stats - target) > c).sum())
                rows.append(
                    AuditRow(
                        orientation=orient,
                        t=int(t),
                        c=float(c),
                        empirical=exceed / reps,
                        wilson_hi=wilson_interval(exceed, reps)[1],
                        bound=4.0 * math.exp(-(c * c) * (t + 1) / (8.0 * phi_max)),
                        reps=reps,
                    )
                )
    return rows
