"""Seeded generators for the benchmark chain families.

Each generator returns an explicit :class:`StochasticKernel` together with
its canonical partition; the constrained-spin family also exposes an
implicit bit-set sampler for large graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from . import rng as rngmod
from .config import MAX_DENSE_STATES
from .decomposition import Partition, trace_kernel
from .errors import AssertionFailed, GraphGenerationFailed, StateSpaceTooLarge
from .kernel import StationaryDistribution, StochasticKernel, require_dense


# The parameters each family takes from a config's [chain] section.
FAMILY_PARAMS = {
    "pince_nez": ("m",),
    "expander_pair": ("m", "d", "epsilon"),
    "toy_kcip": ("m", "d"),
    "kcip": ("graph", "size", "c", "n_cap"),
    "torus_metropolis": ("m", "l", "C", "k_trace"),
}


@dataclass(frozen=True)
class ChainSpec:
    """Config-style description of a generated chain."""

    family: str
    params: dict
    seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown chain family {self.family!r}")
        for key in self.params:
            if key not in FAMILY_PARAMS[self.family]:
                raise ValueError(
                    f"unknown key {key!r} in [chain]: {self.family} takes "
                    f"{', '.join(FAMILY_PARAMS[self.family])}"
                )
        graph = self.params.get("graph", "cycle")
        if self.family == "kcip" and graph not in KCIP_GRAPHS:
            raise ValueError(f"[chain] graph must be {' or '.join(KCIP_GRAPHS)}, not {graph!r}")


def pince_nez(m: int) -> tuple[StochasticKernel, Partition]:
    """Two m-cycles joined by a single edge, every edge at rate 1/6.

    States 0..m-1 form the first cycle, m..2m-1 the second; the joining edge
    connects state 0 to state m, giving two degree-3 vertices.  The kernel is
    symmetric, hence doubly stochastic with uniform stationary measure.
    """
    if m < 3:
        raise ValueError("pince_nez needs m >= 3")
    n = 2 * m
    require_dense(n)
    K = np.zeros((n, n))

    def link(a, b):
        K[a, b] = K[b, a] = 1.0 / 6.0

    for i in range(m):
        link(i, (i + 1) % m)
        link(m + i, m + (i + 1) % m)
    link(0, m)
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    partition = Partition.from_block_of([0] * m + [1] * m)
    return StochasticKernel(K), partition


def random_regular_graph(n: int, d: int, gen: np.random.Generator) -> np.ndarray:
    """Adjacency matrix of a random d-regular graph via the pairing model.

    Stubs are shuffled and paired; colliding stubs (self-loops or repeated
    edges) are collected and re-paired until none remain or no suitable pair
    exists, in which case the whole attempt is rejected and redrawn, up to
    100 times.
    """
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    if not 0 < d < n:
        raise ValueError("need 0 < d < n")

    def suitable(edges, leftover):
        for i, u in enumerate(leftover):
            for v in leftover[i + 1 :]:
                if u != v and (min(u, v), max(u, v)) not in edges:
                    return True
        return not leftover

    for _ in range(100):
        edges: set[tuple[int, int]] = set()
        stubs = np.repeat(np.arange(n), d).tolist()
        failed = False
        while stubs:
            gen.shuffle(stubs)
            leftover = []
            it = iter(stubs)
            for u, v in zip(it, it):
                key = (min(u, v), max(u, v))
                if u != v and key not in edges:
                    edges.add(key)
                else:
                    leftover.extend((u, v))
            if not suitable(edges, leftover):
                failed = True
                break
            stubs = leftover
        if failed or len(edges) != n * d // 2:
            continue
        adj = np.zeros((n, n), dtype=bool)
        for u, v in edges:
            adj[u, v] = adj[v, u] = True
        return adj
    raise GraphGenerationFailed(f"no simple {d}-regular pairing found in 100 tries")


@dataclass(frozen=True)
class ExpanderPair:
    """Two-level chain over an expander: fast lower level, slow upper level."""

    kernel: StochasticKernel
    partition: Partition
    lower_states: np.ndarray
    upper_states: np.ndarray
    walk_kernel: StochasticKernel  # 3/4-lazy walk on the base graph
    adjacency: np.ndarray


def expander_pair(m: int, d: int, epsilon: float, seed: int = 0) -> ExpanderPair:
    """Fast/slow pair chain over a seeded random d-regular base graph.

    State (0, u) is the lower copy of vertex u, state (1, u) the upper copy
    (indices u and m + u).  Lower states walk the graph with the 3/4-lazy
    kernel and jump up with probability 1/2; upper states drop down with
    probability ``epsilon``.  The base graph is regenerated (new substream)
    until its simple-walk second eigenvalue is at most 0.9.
    """
    if d < 3:
        raise ValueError("need degree d >= 3")
    if (m * d) % 2 != 0:
        raise ValueError("m * d must be even")
    if not (0 < epsilon <= min(0.25, 1.0 / np.log(m))):
        raise ValueError("epsilon must lie in (0, min(1/4, 1/log m)]")
    require_dense(2 * m)
    adj = None
    for attempt in range(100):
        gen = rngmod.stream(seed, attempt)
        cand = random_regular_graph(m, d, gen)
        walk = cand.astype(float) / d
        lam2 = float(np.linalg.eigvalsh(walk)[-2])
        if lam2 <= 0.9:
            adj = cand
            break
    if adj is None:
        raise GraphGenerationFailed("no spectral-gap-certified graph in 100 attempts")
    Q = 0.25 * (adj.astype(float) / d)
    np.fill_diagonal(Q, 0.75)
    n = 2 * m
    K = np.zeros((n, n))
    K[:m, :m] = Q
    np.fill_diagonal(K[:m, :m], 0.0)
    for u in range(m):
        K[u, m + u] = 0.5
        K[m + u, u] = epsilon
    np.fill_diagonal(K, 0.0)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    if K.diagonal().min() < 0.25 - 1e-12:
        raise AssertionFailed("pair-chain-diagonal-at-least-1/4", f"min {K.diagonal().min():.3e}")
    block_of = np.concatenate([np.arange(m), np.arange(m)])
    return ExpanderPair(
        kernel=StochasticKernel(K),
        partition=Partition.from_block_of(block_of),
        lower_states=np.arange(m),
        upper_states=np.arange(m, 2 * m),
        walk_kernel=StochasticKernel(Q),
        adjacency=adj,
    )


def toy_kcip(m: int, d: int) -> tuple[StochasticKernel, Partition]:
    """Backbone-with-pendant-ladders chain: m blocks of 3 states each.

    State (i, 0) sits on a drifting backbone path (up rate 1/6, down rate
    1/3); states (i, 1) and (i, 2) hang off it through slow rungs of rate
    ``1 / (6 m^d)``.  Block i is {(i,0), (i,1), (i,2)}; state index 3i + j.
    """
    if m < 2 or d < 1:
        raise ValueError("need m >= 2, d >= 1")
    n = 3 * m
    require_dense(n)
    K = np.zeros((n, n))
    slow = 1.0 / (6.0 * m**d)

    def s(i, j):
        return 3 * i + j

    for i in range(m):
        if i + 1 < m:
            K[s(i, 0), s(i + 1, 0)] = 1.0 / 6.0
        if i > 0:
            K[s(i, 0), s(i - 1, 0)] = 1.0 / 3.0
        K[s(i, 0), s(i, 1)] = 1.0 / 6.0
        K[s(i, 1), s(i, 0)] = slow
        K[s(i, 1), s(i, 2)] = slow
        K[s(i, 2), s(i, 1)] = slow
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    partition = Partition.from_block_of(np.repeat(np.arange(m), 3))
    return StochasticKernel(K), partition


def toy_kcip_backbone_trace(m: int, d: int) -> StochasticKernel:
    """Trace of the ladder chain on its backbone states (exact)."""
    kernel, _ = toy_kcip(m, d)
    backbone = Partition.from_block_of(np.tile([0, 1, 1], m))
    return trace_kernel(kernel, backbone, 0)


# ---------------------------------------------------------------------------
# Kinetically constrained spin chain
# ---------------------------------------------------------------------------


@dataclass
class KcipSampler:
    """Implicit one-step sampler over bit-set states (all-zeros excluded).

    Each step picks a uniform vertex v and a uniform threshold; if some
    neighbor of v is occupied, v is set with probability p and cleared
    otherwise, except that a move to the empty configuration is refused.
    """

    neighbor_masks: np.ndarray  # uint64 bitmask of N(v) per vertex
    n_vertices: int
    p: float

    def step(self, state: int, gen: np.random.Generator) -> int:
        v = int(gen.integers(self.n_vertices))
        lam = float(gen.random())
        if state & int(self.neighbor_masks[v]):
            bit = 1 << v
            new = (state | bit) if lam <= self.p else (state & ~bit)
            return new if new != 0 else state
        return state

    def run(self, state: int, steps: int, seed: int) -> np.ndarray:
        """Particle-count trace along one trajectory (popcount per step)."""
        gen = rngmod.stream(seed, 0)
        vs = gen.integers(0, self.n_vertices, size=steps)
        lams = gen.random(steps)
        counts = np.empty(steps + 1, dtype=np.int64)
        counts[0] = bin(state).count("1")
        masks = [int(x) for x in self.neighbor_masks]
        p = self.p
        for i in range(steps):
            v = vs[i]
            if state & masks[v]:
                bit = 1 << int(v)
                if lams[i] <= p:
                    state |= bit
                else:
                    nxt = state & ~bit
                    if nxt:
                        state = nxt
            counts[i + 1] = bin(state).count("1")
        return counts


@dataclass
class KcipChain:
    sampler: KcipSampler
    kernel: StochasticKernel | None
    partition: Partition | None
    states: np.ndarray | None  # bitmask per enumerated state index
    pi: StationaryDistribution | None
    p: float
    block_description: tuple[str, ...] = ()


def cycle_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = True
    return adj


def lattice3d_adjacency(L: int) -> np.ndarray:
    """Nearest-neighbor adjacency of the periodic cube with side L."""
    n = L**3
    adj = np.zeros((n, n), dtype=bool)

    def idx(x, y, z):
        return (x % L) * L * L + (y % L) * L + (z % L)

    for x in range(L):
        for y in range(L):
            for z in range(L):
                a = idx(x, y, z)
                for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    b = idx(x + dx, y + dy, z + dz)
                    if a != b:
                        adj[a, b] = adj[b, a] = True
    return adj


def kcip(adjacency: np.ndarray, c: float, n_cap: int = 3) -> KcipChain:
    """Constrained single-spin chain on a graph at density ``p = c / |V|``.

    Updates of vertex v are allowed only while some state in N(v) is
    occupied; permitted updates set v with probability p.  The empty
    configuration is excluded from the state space.  The explicit kernel is
    enumerated when ``2^|V|`` fits ``MAX_DENSE_STATES``; the partition groups
    states by their count of pairwise non-adjacent particles (k = 1 ..
    n_cap) with one remainder block, dropping empty groups.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    nv = adjacency.shape[0]
    if nv > 63:
        raise StateSpaceTooLarge("bitmask sampler supports at most 63 vertices")
    p = c / nv
    if not (0 < p < 1):
        raise ValueError("need 0 < c/|V| < 1")
    if csgraph.connected_components(csr_matrix(adjacency), directed=False)[0] != 1:
        raise ValueError("graph must be connected")
    nbr_masks = np.array(
        [sum(1 << u for u in np.nonzero(adjacency[v])[0]) for v in range(nv)], dtype=np.uint64
    )
    sampler = KcipSampler(neighbor_masks=nbr_masks, n_vertices=nv, p=p)
    if 2**nv > MAX_DENSE_STATES:
        return KcipChain(sampler, None, None, None, None, p)

    states = np.arange(1, 2**nv, dtype=np.int64)
    index_of = {int(s): i for i, s in enumerate(states)}
    ns = states.size
    K = np.zeros((ns, ns))
    masks = [int(x) for x in nbr_masks]
    for i, s in enumerate(states):
        s = int(s)
        for v in range(nv):
            if s & masks[v]:
                bit = 1 << v
                up = s | bit
                down = s & ~bit
                if down == 0:
                    down = s
                K[i, index_of[up]] += p / nv
                K[i, index_of[down]] += (1.0 - p) / nv
            else:
                K[i, i] += 1.0 / nv
    kernel = StochasticKernel(K)

    weights = np.array([p ** bin(int(s)).count("1") * (1 - p) ** (nv - bin(int(s)).count("1")) for s in states])
    pi = StationaryDistribution(weights / weights.sum())

    raw = np.empty(ns, dtype=int)
    for i, s in enumerate(states):
        bits = [v for v in range(nv) if int(s) >> v & 1]
        k = len(bits)
        independent = all(not adjacency[u, v] for u, v in itertools.combinations(bits, 2))
        raw[i] = (k - 1) if (independent and 1 <= k <= n_cap) else n_cap
    present = sorted(set(raw.tolist()))
    remap = {b: j for j, b in enumerate(present)}
    block_of = np.array([remap[b] for b in raw])
    desc = tuple(
        (f"{b + 1} non-adjacent particles" if b < n_cap else "remainder") for b in present
    )
    return KcipChain(sampler, kernel, Partition.from_block_of(block_of), states, pi, p, desc)


# ---------------------------------------------------------------------------
# Metropolis chain on a discrete torus with a separable energy
# ---------------------------------------------------------------------------


@dataclass
class TorusSampler:
    """One-step sampler for the torus chain (states are coordinate tuples)."""

    m: int
    ell: int
    C: float

    def step(self, state: tuple[int, ...], gen: np.random.Generator) -> tuple[int, ...]:
        side = 2 * self.ell
        j = int(gen.integers(self.m))
        delta = int(gen.integers(3)) - 1  # proposal mass 1/(3m) per option
        u = float(gen.random())
        nxt = state[j] + delta
        if delta == 0 or not (0 <= nxt < side):
            return state
        dh = min(nxt, side - 1 - nxt) - min(state[j], side - 1 - state[j])
        if dh > 0 and u > self.m ** (-self.C * dh):
            return state
        out = list(state)
        out[j] = nxt
        return tuple(out)

    def block_of(self, state: tuple[int, ...]) -> int:
        return int(sum((1 << i) for i, v in enumerate(state) if v >= self.ell))


@dataclass
class TorusChain:
    kernel: StochasticKernel
    partition: Partition
    pi: StationaryDistribution
    states: np.ndarray  # (n, m) coordinate table
    coord_weight: np.ndarray  # unnormalized per-coordinate weight w(u)
    m: int
    ell: int
    c_exponent: float
    trace_states: np.ndarray | None = None  # indices into the full chain


def torus_energy(coords: np.ndarray, ell: int) -> np.ndarray:
    """Separable energy: sum over coordinates of min(u, 2*ell - 1 - u)."""
    return np.minimum(coords, 2 * ell - 1 - coords).sum(axis=-1)


def torus_product_mass(m: int, ell: int, C: float, coord_set: Sequence[int]) -> float:
    """Exact stationary mass of a per-coordinate product region."""
    u = np.arange(2 * ell)
    w = np.exp(-C * np.minimum(u, 2 * ell - 1 - u) * np.log(m))
    sel = np.zeros(2 * ell, dtype=bool)
    sel[list(coord_set)] = True
    return float((w[sel].sum() / w.sum()) ** m)


def torus_metropolis(
    m: int, ell: int, C: float, k_trace: int | None = None, explicit_limit: int = MAX_DENSE_STATES
) -> TorusChain:
    """Metropolis chain on ``Z_{2 ell}^m`` targeting a product measure.

    The proposal moves one uniform coordinate by -1, 0 or +1 (each with
    probability ``1/(3m)``, cyclically); moves are accepted with the usual
    ratio ``min(1, pi(y)/pi(x))`` against ``pi(x) \\propto m^{-C H(x)}`` where
    H sums the cyclic distance of each coordinate from 0.  Rejected mass
    folds into the diagonal.  The canonical partition groups states by the
    subset z of coordinates sitting in the upper half.

    With ``k_trace`` set, the returned chain is the trace on the states whose
    coordinates all stay at least k away from the half boundary, partitioned
    the same way.
    """
    if ell < 2 or C <= 1:
        raise ValueError("need ell >= 2 and C > 1")
    side = 2 * ell
    n = side**m
    if n > explicit_limit:
        if k_trace is not None:
            raise StateSpaceTooLarge(
                f"(2 ell)^m = {n} exceeds {explicit_limit}; traces need the explicit kernel"
            )
        return TorusSampler(m, ell, C)
    coords = np.stack(np.meshgrid(*[np.arange(side)] * m, indexing="ij"), axis=-1).reshape(-1, m)
    H = torus_energy(coords, ell)
    logpi = -C * H * np.log(m)
    K = np.zeros((n, n))
    powers = side ** np.arange(m - 1, -1, -1)
    base = 1.0 / (3.0 * m)
    # Coordinate moves are clipped at 0 and 2*ell - 1 (the two energy wells
    # communicate only over the central barrier); invalid proposals and the
    # stay proposal fold into the diagonal below.
    for j in range(m):
        for delta in (-1, 1):
            nxt = coords.copy()
            nxt[:, j] = nxt[:, j] + delta
            valid = (nxt[:, j] >= 0) & (nxt[:, j] < side)
            rows = np.nonzero(valid)[0]
            to = nxt[rows] @ powers
            accept = np.minimum(1.0, np.exp(logpi[to] - logpi[rows]))
            K[rows, to] += base * accept
    np.fill_diagonal(K, np.diag(K) + 1.0 - K.sum(axis=1))
    weights = np.exp(logpi - logpi.max())
    pi = StationaryDistribution(weights / weights.sum())
    upper = coords >= ell
    z_index = upper @ (1 << np.arange(m))
    kernel = StochasticKernel(K)
    u = np.arange(side)
    coord_weight = np.exp(-C * np.minimum(u, side - 1 - u) * np.log(m))
    if k_trace is None:
        return TorusChain(
            kernel, Partition.from_block_of(z_index), pi, coords, coord_weight, m, ell, C
        )
    k = k_trace
    if not (0 <= k <= ell - 1):
        raise ValueError("k_trace must lie in 0 .. ell-1")
    keep = ((coords <= ell - 1 - k) | (coords >= ell + k)).all(axis=1)
    keep_idx = np.nonzero(keep)[0]
    marker = np.zeros(n, dtype=int)
    marker[keep_idx] = 1
    split = Partition.from_block_of(marker) if (~keep).any() else Partition.single_block(n)
    traced = trace_kernel(kernel, split, 1 if (~keep).any() else 0)
    sub_w = pi.weights[keep_idx]
    sub_pi = StationaryDistribution(sub_w / sub_w.sum())
    return TorusChain(
        traced,
        Partition.from_block_of(z_index[keep_idx]),
        sub_pi,
        coords[keep_idx],
        coord_weight,
        m,
        ell,
        C,
        trace_states=keep_idx,
    )


# The graphs a config's kcip chain can name, checked by ChainSpec.
KCIP_GRAPHS = {"cycle": cycle_adjacency, "lattice3d": lattice3d_adjacency}


def generate(spec: ChainSpec):
    """Dispatch a ChainSpec to its generator."""
    fam, p = spec.family, dict(spec.params)
    if fam == "pince_nez":
        return pince_nez(int(p["m"]))
    if fam == "expander_pair":
        return expander_pair(int(p["m"]), int(p["d"]), float(p["epsilon"]), spec.seed or 0)
    if fam == "toy_kcip":
        return toy_kcip(int(p["m"]), int(p["d"]))
    if fam == "kcip":
        adj = KCIP_GRAPHS[p.get("graph", "cycle")](int(p.get("size", 5)))
        return kcip(adj, float(p.get("c", 1.0)), n_cap=int(p.get("n_cap", 3)))
    if fam == "torus_metropolis":
        kt = p.get("k_trace")
        return torus_metropolis(
            int(p["m"]), int(p["l"]), float(p["C"]), None if kt is None else int(kt)
        )
    raise ValueError(fam)
