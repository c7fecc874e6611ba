import math

import numpy as np
import pytest

from mixdecomp import rng as rngmod
from mixdecomp.chains import (
    ChainSpec,
    KcipSampler,
    TorusSampler,
    cycle_adjacency,
    expander_pair,
    generate,
    kcip,
    lattice3d_adjacency,
    pince_nez,
    random_regular_graph,
    torus_metropolis,
    torus_product_mass,
    toy_kcip,
    toy_kcip_backbone_trace,
)
from mixdecomp.decomposition import Partition, trace_kernel
from mixdecomp.errors import StateSpaceTooLarge
from mixdecomp.kernel import check_reversible, stationary_distribution
from mixdecomp.simulate import simulate


def test_chainspec_validation():
    with pytest.raises(ValueError):
        ChainSpec("unknown_family", {})
    spec = ChainSpec("pince_nez", {"m": 8})
    k, p = generate(spec)
    assert k.n_states == 16


def test_pince_nez_structure():
    k, part = pince_nez(8)
    off = k.rows.copy()
    np.fill_diagonal(off, 0.0)
    nz = off[off > 0]
    assert np.allclose(nz, 1.0 / 6.0, atol=1e-15)
    degrees = (off > 0).sum(axis=1)
    assert (degrees == 3).sum() == 2  # the two bridge endpoints
    assert (degrees == 2).sum() == 14
    assert np.allclose(k.rows.sum(axis=0), 1.0)  # doubly stochastic
    assert k.min_diagonal() >= 0.5


def test_random_regular_graph_properties():
    gen = rngmod.stream(1, 0)
    adj = random_regular_graph(20, 5, gen)
    assert (adj.sum(axis=1) == 5).all()
    assert not np.diag(adj).any()
    assert np.array_equal(adj, adj.T)


def test_regular_graph_seed_reproducible():
    a1 = random_regular_graph(16, 4, rngmod.stream(7, 0))
    a2 = random_regular_graph(16, 4, rngmod.stream(7, 0))
    assert np.array_equal(a1, a2)


def test_expander_pair_structure():
    m, d = 16, 4
    eps = min(0.25, 1.0 / math.log(m)) / 2
    ep = expander_pair(m, d, eps, seed=0)
    K = ep.kernel.rows
    assert K.diagonal().min() >= 0.25 - 1e-12
    pi = stationary_distribution(ep.kernel)
    masses = ep.partition.masses(pi)
    assert np.allclose(masses, 1.0 / m, atol=1e-10)
    assert check_reversible(ep.kernel, pi).is_reversible
    # trace on the lower level is exactly the lazy graph walk
    lower_marker = np.zeros(2 * m, dtype=int)
    lower_marker[ep.lower_states] = 1
    tr = trace_kernel(ep.kernel, Partition.from_block_of(lower_marker), 1)
    assert np.abs(tr.rows - ep.walk_kernel.rows).max() <= 1e-8
    # seeded reproducibility
    ep2 = expander_pair(m, d, eps, seed=0)
    assert np.array_equal(ep.adjacency, ep2.adjacency)


def test_toy_kcip_structure_and_drift():
    m, d = 8, 1
    k, part = toy_kcip(m, d)
    assert np.allclose(k.rows.sum(axis=1), 1.0)
    pi = stationary_distribution(k)
    assert check_reversible(k, pi).is_reversible
    lower = toy_kcip_backbone_trace(m, d)
    # interior backbone rows: up 1/6, down 1/3, stay 1/2
    assert lower.rows[3, 4] == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert lower.rows[3, 2] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert lower.rows[3, 3] == pytest.approx(0.5, abs=1e-12)
    V = np.exp(0.5 * np.arange(1, m + 1))
    drift = lower.rows @ V
    assert (drift <= 0.98 * V + 0.25 + 1e-12).all()


def test_toy_kcip_block_mixing_scales():
    from mixdecomp.decomposition import block_mixing_times

    phis = {}
    for m in (4, 8):
        k, part = toy_kcip(m, 1)
        pi = stationary_distribution(k)
        p, _, _ = block_mixing_times(k, pi, part, horizon=10**5)
        phis[m] = max(p)
    ratio = phis[8] / phis[4]
    assert 1.4 <= ratio <= 2.8  # Theta(m^d) clock at d = 1


def test_kcip_five_cycle_reversible():
    chain = kcip(cycle_adjacency(5), c=1.0)
    assert chain.kernel.n_states == 31
    flux = chain.pi.weights[:, None] * chain.kernel.rows
    assert np.abs(flux - flux.T).max() <= 1e-12
    # blocks: 1 and 2 non-adjacent particles exist; 3 cannot on a 5-cycle
    assert "remainder" in chain.block_description
    assert all("3" not in d for d in chain.block_description if "particle" in d)


def test_kcip_lone_particle_never_dies():
    chain = kcip(cycle_adjacency(5), c=1.0)
    counts = chain.sampler.run(1, 20_000, seed=5)
    assert counts.min() >= 1


def test_kcip_sampler_matches_kernel_row():
    chain = kcip(lattice3d_adjacency(2), c=1.0)
    assert chain.kernel.n_states == 255
    start_mask = int(chain.states[4])
    idx = {int(s): i for i, s in enumerate(chain.states)}
    gen = rngmod.stream(17, 0)
    draws = 100_000
    counts = np.zeros(chain.kernel.n_states)
    for _ in range(draws):
        counts[idx[chain.sampler.step(start_mask, gen)]] += 1
    emp = counts / draws
    row = chain.kernel.rows[4]
    support = int((row > 0).sum())
    tv = 0.5 * np.abs(emp - row).sum()
    assert tv <= 3.0 * np.sqrt(support / (4.0 * draws))


def test_torus_product_form_matches_enumeration():
    tc = torus_metropolis(3, 3, 7.0)
    # product weights against full normalization
    w = tc.coord_weight
    expect = np.prod(w[tc.states], axis=1)
    expect /= expect.sum()
    assert np.abs(expect - tc.pi.weights).max() <= 1e-12
    assert check_reversible(tc.kernel, tc.pi).is_reversible
    # uphill acceptance m^{-C}: from the bottom corner, one step up
    n0 = int(np.nonzero((tc.states == 0).all(axis=1))[0][0])
    up = np.array([1, 0, 0])
    n1 = int(np.nonzero((tc.states == up).all(axis=1))[0][0])
    assert tc.kernel.rows[n0, n1] == pytest.approx((1.0 / 9.0) * 3.0**-7.0, rel=1e-12)


def test_torus_well_mass():
    assert torus_product_mass(4, 3, 7.0, [0, 1, 4, 5]) >= 0.9


def test_torus_trace_partition():
    tc = torus_metropolis(3, 3, 7.0, k_trace=1)
    assert tc.kernel.n_states == 4**3
    assert tc.partition.n_blocks == 8
    assert check_reversible(tc.kernel, tc.pi).is_reversible


def test_torus_sampler_matches_explicit_row():
    tc = torus_metropolis(2, 2, 3.0)  # 16 states
    sampler = torus_metropolis(2, 2, 3.0, explicit_limit=1)
    assert isinstance(sampler, TorusSampler)
    gen = rngmod.stream(3, 0)
    start = (1, 2)
    idx = {tuple(c): i for i, c in enumerate(tc.states)}
    draws = 60_000
    counts = np.zeros(16)
    for _ in range(draws):
        counts[idx[sampler.step(start, gen)]] += 1
    emp = counts / draws
    row = tc.kernel.rows[idx[start]]
    tv = 0.5 * np.abs(emp - row).sum()
    assert tv <= 3.0 * np.sqrt((row > 0).sum() / (4.0 * draws))


def test_torus_explicit_guard():
    with pytest.raises(StateSpaceTooLarge):
        torus_metropolis(4, 3, 7.0, k_trace=1, explicit_limit=100)


def test_generators_validate():
    with pytest.raises(ValueError):
        pince_nez(2)
    with pytest.raises(ValueError):
        toy_kcip(1, 1)
    with pytest.raises(ValueError):
        expander_pair(16, 2, 0.1)
    with pytest.raises(ValueError):
        expander_pair(16, 4, 0.5)


def test_generators_check_dense_cap_before_allocating(monkeypatch):
    with pytest.raises(StateSpaceTooLarge):
        pince_nez(10**6)
    with pytest.raises(StateSpaceTooLarge):
        toy_kcip(10**6, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("base graph drawn before the size check")

    monkeypatch.setattr("mixdecomp.chains.random_regular_graph", refuse)
    with pytest.raises(StateSpaceTooLarge):
        expander_pair(2502, 4, 0.1)


def test_expander_spectral_floor():
    ep = expander_pair(32, 6, 0.2, seed=1)
    walk_second = np.linalg.eigvalsh(ep.adjacency.astype(float) / 6)[-2]
    assert walk_second <= 0.9


def test_kcip_rejects_disconnected_graph():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[2, 3] = adj[3, 2] = True
    with pytest.raises(ValueError):
        kcip(adj, c=1.0)


def test_kcip_sampler_multistep_marginal_matches_kernel_power():
    chain = kcip(lattice3d_adjacency(2), c=1.0)
    idx = {int(s): i for i, s in enumerate(chain.states)}
    steps = 5
    start_i = 4
    row = np.linalg.matrix_power(chain.kernel.rows, steps)[start_i]
    gen = rngmod.stream(23, 0)
    draws = 30_000
    counts = np.zeros(chain.kernel.n_states)
    for _ in range(draws):
        s = int(chain.states[start_i])
        for _ in range(steps):
            s = chain.sampler.step(s, gen)
        counts[idx[s]] += 1
    tv = 0.5 * np.abs(counts / draws - row).sum()
    support = int((row > 1e-12).sum())
    assert tv <= 3.0 * np.sqrt(support / (4.0 * draws))
