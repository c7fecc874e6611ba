"""Shared test helpers: seeded random reversible chains and partitions, and a
counter of strong-component searches."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csgraph

from mixdecomp import rng as rngmod
from mixdecomp.decomposition import Partition
from mixdecomp.kernel import StochasticKernel


def random_reversible_kernel(
    n: int, gen: np.random.Generator, half_lazy: bool = False, density: float = 0.6
) -> StochasticKernel:
    """Random walk on a weighted graph: reversible w.r.t. its degree measure.

    A random spanning tree keeps the support connected; extra symmetric
    edges are added with the given density, plus positive self-loops so the
    chain is aperiodic.
    """
    W = np.zeros((n, n))
    order = gen.permutation(n)
    for a, b in zip(order[:-1], order[1:]):  # spanning tree backbone
        W[a, b] = W[b, a] = gen.uniform(0.2, 1.0)
    mask = gen.random((n, n)) < density
    extra = gen.uniform(0.05, 1.0, size=(n, n)) * mask
    extra = np.triu(extra, 1)
    W += extra + extra.T
    W[np.diag_indices(n)] = gen.uniform(0.2, 1.5, size=n)
    K = W / W.sum(axis=1, keepdims=True)
    if half_lazy:
        K = 0.5 * (np.eye(n) + K)
    return StochasticKernel(K)


def reversible_pi(kernel: StochasticKernel) -> np.ndarray:
    from mixdecomp.kernel import stationary_distribution

    return stationary_distribution(kernel).weights


def random_partition(n: int, gen: np.random.Generator, n_blocks: int | None = None) -> Partition:
    nb = int(n_blocks if n_blocks is not None else gen.integers(2, 4))
    nb = min(nb, n)
    while True:
        labels = gen.integers(0, nb, size=n)
        if len(np.unique(labels)) == nb:
            return Partition(labels, nb)


@pytest.fixture
def gen():
    return rngmod.stream(20240817, 0)


@pytest.fixture
def class_searches(monkeypatch):
    """The ``csgraph.connected_components`` calls made while the test runs."""
    calls = []
    search = csgraph.connected_components

    def counting(*args, **kwargs):
        calls.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counting)
    return calls
