"""Closed-form mixing-time bound evaluators and the hitting-time audit.

Universal constants relating hitting and mixing times are never guessed:
they default to 1 with a flag recording that every emitted value is "up to
a universal constant".  A calibration helper can pin them on a reference
chain instead.

The occupation bounds search horizons over the tail providers of
:mod:`.tails`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from .decomposition import (
    Partition,
    avg_hit_time,
    escape_analyses,
    escape_tails_at,
    qualifying_subsets,
    sampled_subsets,
)
from .errors import (
    ContractionTooWeak,
    DriftViolated,
    EpsilonTooLarge,
    HypothesisUnverified,
    MTooSmall,
    NoFeasibleT,
    TooLarge,
    TooManyBlocks,
)
from .kernel import StationaryDistribution, StochasticKernel, mixing_profile
from .tails import BlockTails, EscapeCertifiedTails, JointTails, MCTailProvider, MinMarginalJointTails


@dataclass(frozen=True)
class PeresSousiConstants:
    """Universal constants of the hitting-time / mixing-time equivalence.

    ``c_alpha`` multiplies upper bounds (mixing <= c_alpha * worst hitting),
    ``c_alpha_prime`` the reverse direction.  Uncalibrated values default to
    1 and poison every downstream bound with a universal-constant flag.
    """

    c_alpha: float = 1.0
    c_alpha_prime: float = 1.0
    calibrated: bool = False

    def __post_init__(self):
        if not (0 < self.c_alpha < math.inf and 0 < self.c_alpha_prime < math.inf):
            raise ValueError("constants must be finite and positive")


@dataclass
class BoundResult:
    """Value of one bound evaluator plus everything needed to reproduce it."""

    name: str
    value: float
    ingredients: dict
    universal_constant_flag: bool
    feasible: bool = True
    notes: str = ""

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("bound values must be nonnegative")

    def scaled(self, factor: float) -> "BoundResult":
        out = BoundResult(
            self.name,
            self.value * factor,
            dict(self.ingredients, calibration_scale=factor),
            False,
            self.feasible,
            self.notes,
        )
        return out


# ---------------------------------------------------------------------------
# Horizon searches
# ---------------------------------------------------------------------------


# Occupation thresholds t probed per horizon T: a geometric grid on [1, T).
T_GRID_POINTS = 64

# Exact subset enumeration in bound_basic2 is capped at this many blocks.
MAX_EXACT_BLOCKS = 12


def _t_grid(T: int, t_cap: int) -> np.ndarray:
    hi = min(T - 1, t_cap)
    if hi < 1:
        return np.array([], dtype=int)
    grid = np.unique(np.round(np.geomspace(1, hi, num=min(T_GRID_POINTS, hi))).astype(int))
    return grid


# math.exp(-k) for k = 0 .. 745, then 0.0, which math.exp(-k) is for every
# k >= 746; np.exp may differ from math.exp in the last place
_EXP_NEG = np.array([math.exp(-k) for k in range(746)] + [0.0])


def _exp_hit_sums(phi: np.ndarray, c_prime: float, t: np.ndarray) -> Callable:
    """``I -> sum_{i in I} exp(-floor(c' t / (e phi_i)))`` for every t of an array.

    Each block's terms are gathered once.  A sum is bit for bit the value of
    Python's ``sum`` of ``math.exp`` terms: block by block in the order of
    I, starting from 0.
    """
    k = np.floor(c_prime * t / (math.e * phi[:, None]))
    terms = _EXP_NEG[np.minimum(k, _EXP_NEG.size - 1).astype(np.intp)]

    def exp_sum(I: Sequence[int]) -> np.ndarray:
        total = np.zeros(np.shape(t))
        for i in I:
            total += terms[i]
        return total

    return exp_sum


def least_horizon(feasible: Callable[[int], bool], T_start: int, T_horizon: int) -> int | None:
    """Least integer T with feasible(T), by doubling then bisection.

    Doubling starts at ``max(2, T_start)``; bisection then searches above
    half the first feasible doubling, so ``feasible`` must be monotone in T.
    When the doublings step over ``T_horizon``, it is probed itself before
    giving up, and the bisection runs below it.  Returns None when neither
    a doubling up to ``T_horizon`` nor ``T_horizon`` is feasible, or when
    ``T_horizon`` lies below the first doubling.
    """
    T0 = T = max(2, T_start)
    while T <= T_horizon and not feasible(T):
        T *= 2
    lo, hi = T // 2, T
    if T > T_horizon:
        if T0 > T_horizon or lo == T_horizon or not feasible(T_horizon):
            return None
        hi = T_horizon
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _least_occupation_horizon(
    family: Sequence,
    hit_terms: Callable,
    tail: Callable,
    horizons: Callable,
    t_cap: int,
    T_horizon: int,
) -> int | None:
    """Least horizon T at which some grid time t < T meets the 1/4 criterion.

    With ``hit = hit_terms(grid)`` for ``grid = _t_grid(T, t_cap)``, T is
    feasible when, for some t on the grid, every x in ``family`` has
    ``hit(x) < 1/4`` and ``hit(x) + tail(x, T, grid) < 1/4`` at t; both
    answer for the whole grid as an array.  A walk at horizon H goes
    through the family in order with a mask of the grid times that every
    earlier member meets with its tail at H.  Tails are nonnegative, so a
    member's tail is asked only while some masked time has its hitting
    term below 1/4, and the walk stops at the first empty mask.  At H = T
    that asks the same (T, member) pairs as trying the times one by one,
    largest first, each over the family until a member fails.

    Probe T walks at each of ``horizons(T)`` in turn, the last being T, and
    passes at the first walk that ends with a time left, keeping T's own
    grid and hitting terms throughout.  A provider yields a horizon
    ``H < T`` only when its tails at T are never above those at H, bit for
    bit; the criterion only gets easier as tails fall, so a walk that
    passes at H would pass at T, and every probe answers as the walk at T
    alone does.  A probe fails at once when the hitting terms of the
    members read so far leave no grid time below 1/4.
    """

    def feasible(T: int) -> bool:
        grid = _t_grid(T, t_cap)
        hit = hit_terms(grid)
        terms = []  # the hitting terms of the members read so far
        below = np.ones(grid.size, dtype=bool)  # times every one of them is below 1/4 at
        for H in horizons(T):
            met = np.ones(grid.size, dtype=bool)
            for k, x in enumerate(family):
                if k == len(terms):
                    terms.append(hit(x))
                    below &= terms[k] < 0.25
                    if not below.any():
                        return False
                met &= terms[k] < 0.25
                if not met.any():
                    break
                met &= terms[k] + tail(x, H, grid) < 0.25
            if met.any():
                return True
        return False

    return least_horizon(feasible, 2, T_horizon)


def bound_basic(
    phi: Sequence[float],
    tails: BlockTails,
    alpha: float,
    beta: float,
    I: Sequence[int],
    constants: PeresSousiConstants,
    block_masses: Sequence[float] | None = None,
    T_horizon: int = 2**26,
) -> BoundResult:
    """Mixing bound from per-block occupation tails.

    Searches for the least horizon T admitting a time t < T at which every
    block in I has both a small hitting term ``phi_i / (c' t)`` and a small
    worst-start probability of under-occupation ``P[kappa_i(T) < t]``; the
    mixing time is then at most ``(4/3) c_alpha T``.
    """
    if not (0 < alpha < 0.5):
        raise ValueError("need 0 < alpha < 1/2")
    if not (1 - alpha < beta < 1):
        raise ValueError("need 1 - alpha < beta < 1")
    I = [int(i) for i in I]
    if block_masses is not None:
        mass = float(np.asarray(block_masses)[I].sum())
        if mass <= beta:
            raise ValueError(f"blocks I carry mass {mass:.4f} <= beta = {beta}")
    gamma = min(0.5, (alpha + beta - 1.0) / beta)
    cpg = constants.c_alpha_prime
    phi = np.asarray(phi, dtype=float)
    T_star = _least_occupation_horizon(
        I,
        lambda t: lambda i: phi[i] / (cpg * t),
        tails.query,
        tails.horizons,
        tails.max_t(),
        T_horizon,
    )
    return BoundResult(
        name="basic_occupation",
        value=math.inf if T_star is None else (4.0 / 3.0) * constants.c_alpha * T_star,
        ingredients={
            "T": T_star,
            "phi": phi.tolist(),
            "I": I,
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "tail_provenance": tails.provenance,
            "c_alpha": constants.c_alpha,
            "c_alpha_prime": constants.c_alpha_prime,
        },
        universal_constant_flag=not constants.calibrated,
        feasible=T_star is not None,
        notes="" if T_star is not None else f"no feasible horizon up to {T_horizon}",
    )


def bound_basic2(
    phi: Sequence[float],
    block_masses: Sequence[float],
    joint_tails: JointTails,
    alpha: float,
    constants: PeresSousiConstants,
    subset_mode: str = "exact",
    subset_budget: int = 32,
    seed: int = 0,
    T_horizon: int = 2**26,
) -> BoundResult:
    """Mixing bound from joint occupation tails over heavy block subsets.

    Only the probability that *every* block of a heavy subset is
    under-occupied needs to be small, at the cost of a max over all subsets
    I with stationary mass at least alpha / 2 and an exponential hitting sum
    ``sum_i exp(-floor(c' t / (e phi_i)))``.

    In sampled mode only the seeded family of :func:`sampled_subsets` is
    checked, which makes the reported value a lower-bound flavor of the
    exact search.
    """
    if not (0 < alpha < 0.5):
        raise ValueError("need 0 < alpha < 1/2")
    phi = np.asarray(phi, dtype=float)
    masses = np.asarray(block_masses, dtype=float)
    n = masses.size
    floor_mass = alpha / 2.0
    if subset_mode == "exact":
        if n > MAX_EXACT_BLOCKS:
            raise TooManyBlocks(f"exact subset enumeration capped at {MAX_EXACT_BLOCKS} blocks")
        family = qualifying_subsets(masses, floor_mass)
    elif subset_mode == "sampled":
        family = sampled_subsets(masses, floor_mass, subset_budget, seed)
    else:
        raise ValueError(f"unknown subset_mode {subset_mode!r}")
    if not family:
        raise NoFeasibleT("no block subset reaches mass alpha / 2")
    cpo = constants.c_alpha_prime  # constant at level alpha / 2

    T_star = _least_occupation_horizon(
        family,
        lambda t: _exp_hit_sums(phi, cpo, t),
        joint_tails.query_joint,
        joint_tails.horizons,
        joint_tails.max_t(),
        T_horizon,
    )
    return BoundResult(
        name="basic_joint_occupation",
        value=math.inf if T_star is None else (4.0 / 3.0) * constants.c_alpha * T_star,
        ingredients={
            "T": T_star,
            "alpha": alpha,
            "subset_mode": subset_mode,
            "n_subsets": len(family),
            "tail_provenance": joint_tails.provenance,
            "c_alpha": constants.c_alpha,
            "c_alpha_prime": constants.c_alpha_prime,
        },
        universal_constant_flag=not constants.calibrated,
        feasible=T_star is not None,
        notes="" if T_star is not None else f"no feasible horizon up to {T_horizon}",
    )


def bound_regular(
    epsilon: float,
    delta: float,
    phi_bar_hit: float,
    n: int,
    constants: PeresSousiConstants,
    envelope: float = 1.0,
    hypothesis_verified: bool = False,
) -> BoundResult:
    """Escape-regularity bound ``C / (epsilon delta) * phi_hit * n log n``.

    The hypothesis -- every state survives inside its block for
    ``epsilon * phi_max`` steps with probability at least delta -- must be
    verified upstream from escape tails; an unverified call warns.
    """
    if min(epsilon, delta, phi_bar_hit) <= 0 or n < 1:
        raise ValueError("inputs must be positive")
    if not hypothesis_verified:
        warnings.warn("escape-time hypothesis was not verified", HypothesisUnverified)
    value = envelope * (1.0 / (epsilon * delta)) * phi_bar_hit * n * math.log(max(n, 2))
    return BoundResult(
        name="regular_escape",
        value=value,
        ingredients={
            "epsilon": epsilon,
            "delta": delta,
            "phi_bar_hit": phi_bar_hit,
            "n": n,
            "envelope": envelope,
            "hypothesis_verified": hypothesis_verified,
        },
        universal_constant_flag=not constants.calibrated,
    )


def occupation_bounds(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    partition: Partition,
    phi: Sequence[float],
    I: Sequence[int],
    alpha: float,
    beta: float,
    constants: PeresSousiConstants,
    T_max: int,
    seed: int,
) -> list[BoundResult]:
    """Every occupation bound that applies to one instance.

    One Monte Carlo tail provider (``T_max`` steps, 200 replicas per start)
    feeds ``basic_occupation`` over the blocks I and, up to
    ``MAX_EXACT_BLOCKS`` blocks, ``basic_joint_occupation`` over min-marginal
    joint tails; both searches stop at ``T_max``.  The paths are simulated
    only as far as a search asks: a probe is tried first on the paths
    already simulated, then on paths grown by ``max(64, T // 16)`` steps at
    a time, and passes at the first horizon whose tails meet its criterion.
    On fixed paths a tail never rises with the horizon, so that answer is
    the probe's own, bit for bit, and only the provenance's ``T_sim`` tells
    how far the paths went.  A search is first checked
    against the exact probability ``stay_j`` of never leaving block j by
    ``T_max``: when ``stay_j >= 1/4`` for a block j outside some searched
    block (basic) or outside some qualifying subset (joint), no horizon can
    be feasible, and the search runs on :class:`EscapeCertifiedTails`
    instead, which names the certificate and simulates nothing.
    ``regular_escape`` follows with ``epsilon = 1 / phi_max``, so its stay
    threshold ``epsilon phi_max`` is one step, and delta the least one-step
    stay probability.  It is left out when delta is 0, when no block subset
    reaches the hitting scale's mass floor, or when the exact hitting scale
    has more than ``MAX_HEAVY_SETS`` minimal heavy sets to solve.
    """
    masses = partition.masses(pi)
    nb = partition.n_blocks
    stay = [float(tail.max()) for tail in escape_tails_at(kernel, partition, range(nb), T_max)]
    mc = MCTailProvider(kernel, partition, T_max, reps_per_start=200, seed=seed)

    def run(search, tails, leaves_out: Callable[[int], bool]) -> BoundResult:
        """Run search on tails, or on the escape certificate of the first
        block j with ``stay_j >= 1/4`` that the search's family leaves out."""
        j = next((j for j in range(nb) if stay[j] >= 0.25 and leaves_out(j)), None)
        if j is None:
            return search(tails)
        cert = EscapeCertifiedTails(j, stay[j], T_max)
        result = search(cert)
        result.notes = f"{result.notes}; {cert.notes}"
        return result

    results = [
        run(
            lambda tails: bound_basic(phi, tails, alpha, beta, I, constants, masses, T_horizon=T_max),
            mc,
            lambda j: any(i != j for i in I),
        )
    ]
    if nb <= MAX_EXACT_BLOCKS:
        # the complement of j is qualifying_subsets' own sum, so it is in the family
        results.append(
            run(
                lambda tails: bound_basic2(phi, masses, tails, alpha, constants, T_horizon=T_max),
                MinMarginalJointTails(mc),
                lambda j: masses[np.arange(nb) != j].sum() >= alpha / 2.0,
            )
        )
    delta = min(float(tail.min()) for tail in escape_tails_at(kernel, partition, range(nb), 1))
    try:
        hit_scale = avg_hit_time(kernel, pi, partition, alpha).value if delta > 0 else None
    except TooManyBlocks:  # more minimal heavy sets than the solve budget
        hit_scale = None
    if hit_scale is not None:
        results.append(
            bound_regular(
                1.0 / max(phi),
                delta,
                hit_scale,
                nb,
                constants,
                envelope=constants.c_alpha,
                hypothesis_verified=True,
            )
        )
    return results


@dataclass(frozen=True)
class GraphHitResult:
    edges: tuple[tuple[int, int], ...]
    diameter: float
    delta: float
    bound: BoundResult


def bound_graph_hit(
    kernel: StochasticKernel,
    partition: Partition,
    c: float,
    epsilon: float,
    phi_max: float,
    constants: PeresSousiConstants | None = None,
) -> GraphHitResult:
    """Hitting-scale bound through the exit-probability digraph.

    Vertices are blocks; (i, j) is an edge when every state of block i exits
    into block j with probability at least c.  With D the directed diameter,
    ``phi_bar_hit <= epsilon phi_max D (c delta)^{-D}`` where delta comes
    from the exact escape-tail condition at threshold ``epsilon phi_max``.
    A disconnected digraph yields an infinite (vacuous) bound, reported
    rather than raised.
    """
    if not (0 < c <= 1):
        raise ValueError("need c in (0, 1]")
    nb = partition.n_blocks
    constants = constants or PeresSousiConstants()
    if nb == 1:
        bound = BoundResult(
            name="graph_hit",
            value=0.0,
            ingredients={"c": c, "epsilon": epsilon, "phi_max": phi_max, "delta": 1.0, "D": 0},
            universal_constant_flag=not constants.calibrated,
            notes="single block: nothing to hit",
        )
        return GraphHitResult((), 0.0, 1.0, bound)
    threshold = epsilon * phi_max
    worst_stay = 0.0
    edges = []
    blocks = range(nb)
    escapes = escape_analyses(kernel, partition, blocks)
    tails = escape_tails_at(kernel, partition, blocks, threshold)
    for i, stats, tail in zip(blocks, escapes, tails):
        worst_stay = max(worst_stay, float(tail.max()))
        mins = stats.exit_block_distribution.min(axis=0)
        for j in range(nb):
            if j != i and mins[j] >= c:
                edges.append((i, j))
    delta = 1.0 - worst_stay
    diameter = _directed_diameter(nb, edges)
    if math.isinf(diameter):
        bound = BoundResult(
            name="graph_hit",
            value=math.inf,
            ingredients={"c": c, "epsilon": epsilon, "phi_max": phi_max, "delta": delta, "D": None},
            universal_constant_flag=not constants.calibrated,
            feasible=False,
            notes="exit graph disconnected at this c; bound vacuous",
        )
        return GraphHitResult(tuple(edges), diameter, delta, bound)
    if delta <= 0:
        raise ValueError(f"escape condition fails: delta = {delta:.3e} at threshold {threshold:.1f}")
    D = diameter
    value = epsilon * phi_max * D * (c * delta) ** (-D) if D > 0 else 0.0
    bound = BoundResult(
        name="graph_hit",
        value=value,
        ingredients={
            "c": c,
            "epsilon": epsilon,
            "phi_max": phi_max,
            "delta": delta,
            "D": D,
        },
        universal_constant_flag=not constants.calibrated,
    )
    return GraphHitResult(tuple(edges), diameter, delta, bound)


def _directed_diameter(n: int, edges: Sequence[tuple[int, int]]) -> float:
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = True
    return float(csgraph.shortest_path(csr_matrix(adj), unweighted=True).max())


# ---------------------------------------------------------------------------
# Drift bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftCertificate:
    """Lyapunov data ``E[V(X_{t+k}) | X_t] <= (1 - a) V + b`` with a check.

    ``residual`` is the largest pointwise violation of the inequality under
    exact k-step expectations (nonpositive when verified).
    """

    V: np.ndarray
    a: float
    b: float
    k: int
    v_max: float
    verified: bool
    residual: float


def verify_drift(
    kernel: StochasticKernel, V: np.ndarray, a: float, b: float, k: int = 1
) -> DriftCertificate:
    """Exact pointwise check of the k-step drift inequality."""
    V = np.asarray(V, dtype=float)
    if not (0 < a <= 1) or b < 0 or k < 1:
        raise ValueError("need 0 < a <= 1, b >= 0, k >= 1")
    if (V < 0).any():
        raise ValueError("Lyapunov function must be nonnegative")
    KV = V.copy()
    for _ in range(k):
        KV = kernel.rows @ KV
    residual = float((KV - ((1.0 - a) * V + b)).max())
    return DriftCertificate(
        V=V, a=a, b=b, k=k, v_max=float(V.max()), verified=residual <= 1e-12, residual=residual
    )


# Size of the grid of contraction rates searched by fit_drift.
DRIFT_A_GRID = 64


def fit_drift(kernel: StochasticKernel, V: np.ndarray, k: int) -> DriftCertificate:
    """Largest-contraction drift certificate for a given V and step count.

    The contraction rate a is chosen from a uniform grid of ``DRIFT_A_GRID``
    values in (0, 1].
    """
    V = np.asarray(V, dtype=float)
    KV = V.copy()
    for _ in range(k):
        KV = kernel.rows @ KV
    best = None
    for a in np.linspace(1.0 / DRIFT_A_GRID, 1.0, DRIFT_A_GRID):
        b = float((KV - (1.0 - a) * V).max())
        if b < 0:
            b = 0.0
        cert = DriftCertificate(V, float(a), b, k, float(V.max()), True, 0.0)
        score = b / a  # smaller sublevel scale is a better certificate
        if best is None or score < best[0]:
            best = (score, cert)
    return best[1]


def bound_drift(
    drift: DriftCertificate,
    M: float,
    tau_mix_trace: float,
    constants: PeresSousiConstants,
) -> BoundResult:
    """Mixing bound from a drift condition and the sublevel-trace mixing time.

    ``(16 c / (3 a)) * max(16 tau' / c', k log(16 V_max), 8 log 16)`` where
    tau' is the mixing time of the trace on the sublevel set ``{V <= M}``.
    Requires ``M >= 4 b / a`` so that the sublevel set carries mass >= 3/4.
    """
    if not drift.verified:
        raise DriftViolated(f"certificate residual {drift.residual:.3e} > 0")
    if M < 4.0 * drift.b / drift.a:
        raise MTooSmall(f"need M >= 4 b / a = {4.0 * drift.b / drift.a:.4f}, got {M}")
    c, cp = constants.c_alpha, constants.c_alpha_prime
    inner = max(16.0 * tau_mix_trace / cp, drift.k * math.log(16.0 * drift.v_max), 8.0 * math.log(16.0))
    value = (16.0 * c / (3.0 * drift.a)) * inner
    return BoundResult(
        name="drift_sublevel",
        value=value,
        ingredients={
            "a": drift.a,
            "b": drift.b,
            "k": drift.k,
            "v_max": drift.v_max,
            "M": M,
            "tau_mix_trace": tau_mix_trace,
            "c": c,
            "c_prime": cp,
        },
        universal_constant_flag=not constants.calibrated,
    )


def bound_contraction(
    alpha: float,
    beta: float,
    a1: float,
    a2: float,
    delta1: float,
    delta2: float,
    phi_max: float,
    phi_bar: float,
    D_max: float,
    n: int,
    constants: PeresSousiConstants,
) -> BoundResult:
    """Mixing bound under an exit-coupling contraction with strength alpha.

    Here alpha is the per-step contraction *strength*: coupled exit mixtures
    satisfy ``E[d'] <= (1 - alpha) d + beta`` (see
    ``contraction.estimate_contraction`` whose fitted factor is 1 - alpha).
    Requires ``0 < beta < alpha / 2 <= 1/2``.  Both logarithm factors that
    are negative as raw formulas enter through absolute values so the result
    is a meaningful nonnegative time.
    """
    if not (0 < alpha <= 1):
        raise ValueError("need 0 < alpha <= 1")
    if not (0 < beta < alpha / 2):
        raise ContractionTooWeak(f"need 0 < beta < alpha/2, got beta={beta}, alpha={alpha}")
    if n < 2:
        raise ValueError("need at least 2 blocks")
    if min(a1, a2, delta1, delta2) <= 0 or delta1 > 1 or delta2 > 1:
        raise ValueError("regularity constants must lie in (0, 1]")
    gamma = 0.5 - beta / alpha
    eps = 0.25 - gamma / 16.0
    c2e = constants.c_alpha
    cpe = constants.c_alpha_prime
    exponent = math.ceil(8.0 * math.e / (a1 * cpe))
    # log(1 - delta1^exponent) needs log1p accuracy; for per-visit success
    # probabilities that underflow entirely the prefactor is unbounded
    success = delta1**exponent if exponent * math.log(delta1) > -700 else 0.0
    if success == 0.0:
        visits = math.inf  # required visit count diverges with vanishing success
    else:
        visits = max(1.0, math.log(16.0) / abs(math.log1p(-success)))
    C1 = (1024.0 / gamma) * c2e * (a2 / delta2) * visits
    C2 = math.log2(8.0 / gamma)
    C3 = math.log(8.0 / gamma) + math.log(D_max)
    contraction_log = abs(math.log(1.0 - alpha)) if alpha < 1 else math.inf
    second = C3 / contraction_log if math.isfinite(contraction_log) else 0.0
    value = C1 * phi_max * math.log(n) * max(C2 * phi_bar + 1.0, second)
    return BoundResult(
        name="contraction_coupling",
        value=value,
        ingredients={
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "epsilon": eps,
            "a1": a1,
            "a2": a2,
            "delta1": delta1,
            "delta2": delta2,
            "phi_max": phi_max,
            "phi_bar": phi_bar,
            "D_max": D_max,
            "n": n,
            "C1": C1,
            "C2": C2,
            "C3": C3,
        },
        universal_constant_flag=not constants.calibrated,
    )


def bound_coupling_point(T: float, epsilon: float) -> BoundResult:
    """Coupling-to-one-point bound ``ceil(e T) * ceil(log(4(1-eps)/(1-4eps)))``.

    T bounds the worst expected hitting time of a privileged state carrying
    stationary mass at least ``1 - epsilon``; requires ``epsilon < 1/4``.
    The log argument is the reciprocal of the raw negative-argument form so
    the factor is a positive round count.
    """
    if epsilon >= 0.25:
        raise EpsilonTooLarge(f"need epsilon < 1/4, got {epsilon}")
    if T < 1:
        raise ValueError("need T >= 1")
    rounds = math.ceil(math.log(4.0 * (1.0 - epsilon) / (1.0 - 4.0 * epsilon)))
    value = float(math.ceil(math.e * T) * rounds)
    return BoundResult(
        name="coupling_point",
        value=value,
        ingredients={"T": T, "epsilon": epsilon, "rounds": rounds},
        universal_constant_flag=False,
    )


# ---------------------------------------------------------------------------
# Hitting-time / mixing-time audit and calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HittingMixingAudit:
    tau_mix: int
    max_hit: float
    ratio: float
    n_sets: int
    mode: str
    argmax_set: tuple[int, ...]


def exact_mixing_time(kernel: StochasticKernel, pi: StationaryDistribution) -> int:
    """Exact TV mixing time (least t with worst-start distance below 1/4, t <= 2^22)."""
    prof = mixing_profile(kernel, pi, horizon=2**22, epsilons=(0.25,))
    if prof.mixing_time is None:
        raise NoFeasibleT("mixing time exceeds 2^22")
    return prof.mixing_time


def peres_sousi_audit(
    kernel: StochasticKernel,
    pi: StationaryDistribution,
    alpha: float,
    subset_mode: str = "exact",
    budget: int = 128,
    seed: int = 0,
) -> HittingMixingAudit:
    """Measure the ratio between the mixing time and worst heavy-set hitting.

    The heavy-set hitting maximum is ``avg_hit_time`` over singleton blocks
    at level 2 alpha, whose mass floor is alpha: exact mode solves on every
    minimal state subset with stationary mass >= alpha (``n_sets`` counts
    them, and more than ``MAX_HEAVY_SETS`` raise ``TooManyBlocks``), sampled
    mode draws a seeded family plus the full set, which is hit at time 0.  The
    ratio ``tau_mix / max_hit`` is the instance-level value of the universal
    constant tying the two time scales together.
    """
    n = kernel.n_states
    hit = avg_hit_time(kernel, pi, Partition(np.arange(n), n), 2 * alpha, subset_mode, budget, seed)
    if not hit.value:
        raise TooLarge(f"no proper state subset reaches stationary mass {alpha}")
    tau = exact_mixing_time(kernel, pi)
    return HittingMixingAudit(
        tau_mix=tau,
        max_hit=hit.value,
        ratio=tau / hit.value,
        n_sets=hit.n_qualifying,
        mode=subset_mode,
        argmax_set=hit.argmax_subset,
    )


def calibrate_constants(
    kernel: StochasticKernel, pi: StationaryDistribution, alpha: float, subset_mode: str = "exact"
) -> PeresSousiConstants:
    """Pin both universal constants to the audit ratio of a reference chain.

    The ratio ``tau_mix / max_hit`` makes both directions of the
    hitting-mixing equivalence tight on the reference instance.
    """
    audit = peres_sousi_audit(kernel, pi, alpha, subset_mode)
    return PeresSousiConstants(
        c_alpha=audit.ratio, c_alpha_prime=audit.ratio, calibrated=True
    )
