"""Property tests of the horizon search and of the graph walks.

The breadth-first loops below are the reference: they are the hand-written
searches that ``scipy.sparse.csgraph`` and the closed-class rule of
``kernel._reachable_from_all`` replaced, kept here to check that
reachability and diameters are unchanged on random small digraphs,
disconnected ones included.  The batched closed-class search is checked
against one search per kernel (``oracles.closed_classes_reference``).
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixdecomp.bounds import _directed_diameter, least_horizon
from mixdecomp.errors import NotTreeWalk
from mixdecomp.kernel import StochasticKernel, _reachable_from_all, search_closed_classes
from mixdecomp.wellcovering import tree_bound
from oracles import closed_classes_reference

SETTINGS = settings(max_examples=200, deadline=None)


def _reference_reachable_from_all(kernel, target):
    adj = kernel.support()
    seen = np.zeros(kernel.n_states, dtype=bool)
    seen[target] = True
    frontier = list(target)
    while frontier:
        nxt = []
        for y in frontier:
            preds = np.nonzero(adj[:, y] & ~seen)[0]
            seen[preds] = True
            nxt.extend(preds.tolist())
        frontier = nxt
    return bool(seen.all())


def _reference_directed_diameter(n, edges):
    if n == 1:
        return 0.0
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
    worst = 0
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        if min(dist) < 0:
            return math.inf
        worst = max(worst, max(dist))
    return float(worst)


def _reference_connected(adj):
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for v in np.nonzero(adj[u] & ~seen)[0]:
            seen[v] = True
            stack.append(v)
    return bool(seen.all())


def _reference_graph_diameter(adj):
    n = adj.shape[0]
    worst = 0
    for s in range(n):
        dist = np.full(n, -1)
        dist[s] = 0
        queue = [s]
        for u in queue:
            for v in np.nonzero(adj[u])[0]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        worst = max(worst, int(dist.max()))
    return worst


@st.composite
def digraphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    flat = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adj = np.array(flat, dtype=bool).reshape(n, n)
    np.fill_diagonal(adj, False)
    return adj


@SETTINGS
@given(
    k=st.integers(0, 5000),
    T_start=st.integers(0, 3000),
    T_horizon=st.integers(1, 10_000),
)
@example(k=5, T_start=40, T_horizon=100)  # T_start > k, as the covering oracle starts
@example(k=3, T_start=3, T_horizon=2)  # horizon below the first probe
@example(k=3, T_start=0, T_horizon=3)  # the doubling to 4 steps over the feasible horizon
@example(k=5, T_start=0, T_horizon=4)  # the horizon is the last doubling, probed once
def test_least_horizon_matches_scan(k, T_start, T_horizon):
    def feasible(T):
        return T >= k

    T0 = max(2, T_start)
    doublings = list(
        itertools.takewhile(lambda T: T <= T_horizon, (T0 << i for i in itertools.count()))
    )
    # after at least one doubling, T_horizon itself is probed before giving up
    probed = doublings + [T_horizon] if doublings else []
    if any(feasible(T) for T in probed):
        expected = next(T for T in itertools.count(T0 // 2 + 1) if feasible(T))
    else:
        expected = None
    assert least_horizon(feasible, T_start, T_horizon) == expected


@SETTINGS
@given(adj=digraphs(), data=st.data())
def test_reachability_matches_bfs(adj, data):
    n = adj.shape[0]
    rows = adj + np.eye(n)  # every state keeps a self-loop, so rows normalize
    kernel = StochasticKernel(rows / rows.sum(axis=1, keepdims=True))
    target = np.unique(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    assert _reachable_from_all(kernel, target) == _reference_reachable_from_all(kernel, target)


def _support_kernel(adj: np.ndarray, loops: np.ndarray) -> StochasticKernel:
    rows = adj.astype(float)
    rows[np.diag_indices_from(rows)] = loops | ~adj.any(axis=1)  # no empty row
    return StochasticKernel(rows / rows.sum(axis=1, keepdims=True))


@st.composite
def support_kernels(draw):
    adj = draw(digraphs())
    loops = np.array(draw(st.lists(st.booleans(), min_size=len(adj), max_size=len(adj))))
    return _support_kernel(adj, loops)


_CYCLE = np.roll(np.eye(3, dtype=bool), 1, axis=1)  # irreducible, no self-loops
_TWO_CLOSED = np.zeros((5, 5), dtype=bool)  # {0, 1} and {3, 4} closed, 2 transient
_TWO_CLOSED[[0, 1, 2, 2, 3, 4], [1, 0, 1, 3, 4, 3]] = True


@SETTINGS
@given(kernels=st.lists(support_kernels(), min_size=1, max_size=5))
@example(
    kernels=[
        _support_kernel(_CYCLE, np.zeros(3, dtype=bool)),
        _support_kernel(_TWO_CLOSED, np.ones(5, dtype=bool)),
        StochasticKernel([[1.0]]),
    ]
)
def test_batched_class_search_matches_per_kernel_search(kernels):
    search_closed_classes(kernels)
    for k in kernels:
        labels, closed = k._closed_classes
        classes, closed_ref = closed_classes_reference(k)
        # labels run over 0 .. c - 1, and the closed ones are listed increasing
        assert sorted(set(labels.tolist())) == list(range(len(classes)))
        members = [frozenset(np.flatnonzero(labels == c).tolist()) for c in range(len(classes))]
        assert set(members) == classes
        assert {members[c] for c in closed} == closed_ref
        assert closed.tolist() == sorted(set(closed.tolist()))
        assert k.is_irreducible() == (len(classes) == 1)


@SETTINGS
@given(adj=digraphs())
def test_directed_diameter_matches_bfs(adj):
    n = adj.shape[0]
    edges = list(zip(*np.nonzero(adj)))
    assert _directed_diameter(n, edges) == _reference_directed_diameter(n, edges)


@SETTINGS
@given(data=st.data())
def test_tree_bound_diameter_matches_bfs(data):
    # n - 1 undirected edges: a tree exactly when the graph is connected
    n = data.draw(st.integers(2, 8))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=n - 1, max_size=n - 1, unique=True))
    adj = np.zeros((n, n), dtype=bool)
    for a, b in chosen:
        adj[a, b] = adj[b, a] = True
    delta = int(adj.sum(axis=1).max())
    K = adj / (2.0 * delta)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    q = StochasticKernel(K)
    if _reference_connected(adj):
        cert = tree_bound(q, phi=1.0, B=1.0)
        assert f"D={_reference_graph_diameter(adj)})" in cert.provenance[0]
    else:
        with pytest.raises(NotTreeWalk):
            tree_bound(q, phi=1.0, B=1.0)
