import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_partition, random_reversible_kernel
from mixdecomp import contraction
from mixdecomp import rng as rngmod
from mixdecomp.chains import pince_nez, torus_metropolis, toy_kcip
from mixdecomp.contraction import (
    BlockMetric,
    estimate_contraction,
    exit_distribution,
    exit_distributions_all,
    occupation_regularity,
    wasserstein,
    wasserstein_dual,
)
from mixdecomp.decomposition import Partition
from mixdecomp.errors import DimensionMismatch, TooLarge
from mixdecomp.kernel import StochasticKernel, stationary_distribution
from mixdecomp.simulate import RowSampler
from oracles import full_transport_lp

K3 = StochasticKernel([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])


def test_metric_validation():
    for shape in [(), (3,), (2, 3), (0, 0)]:
        with pytest.raises(DimensionMismatch):
            BlockMetric(np.zeros(shape))
    with pytest.raises(ValueError):
        BlockMetric(np.array([[0.0, 0.5], [0.5, 0.0]]))  # below unit floor
    with pytest.raises(ValueError):
        BlockMetric(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        BlockMetric(np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]))  # triangle
    with pytest.raises(ValueError):
        BlockMetric(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]) + 1e-12)
    m = BlockMetric.path(4)
    assert m.d_max == 3.0
    h = BlockMetric.hamming_on_bitmasks(3)
    assert h.d[0b000, 0b111] == 3.0 and h.d_max == 3.0


def test_wasserstein_basics():
    metric = BlockMetric.path(3)
    mu = np.array([0.5, 0.5, 0.0])
    assert wasserstein(mu, mu, metric) == 0.0
    assert wasserstein(np.array([1.0, 0, 0]), np.array([0, 0, 1.0]), metric) == pytest.approx(2.0)
    # two equivalent optimal plans, both of cost 1
    nu = np.array([0.0, 0.5, 0.5])
    assert wasserstein(mu, nu, metric) == pytest.approx(1.0, abs=1e-10)
    assert wasserstein_dual(mu, nu, metric) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("seed", range(12))
def test_wasserstein_metric_axioms_and_duality(seed):
    gen = rngmod.stream(1100 + seed, 0)
    n = int(gen.integers(2, 6))
    d = np.triu(gen.integers(1, 4, size=(n, n)).astype(float), 1)
    d = d + d.T
    # enforce the triangle inequality by shortest-path closure
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    np.fill_diagonal(d, 0.0)
    metric = BlockMetric(d)
    dists = gen.dirichlet(np.ones(n), size=3)
    mu, nu, rho = dists
    w = lambda a, b: wasserstein(a, b, metric)
    assert w(mu, nu) == pytest.approx(w(nu, mu), abs=1e-9)
    assert w(mu, mu) <= 1e-12
    assert w(mu, rho) <= w(mu, nu) + w(nu, rho) + 1e-8
    # primal equals dual
    assert w(mu, nu) == pytest.approx(wasserstein_dual(mu, nu, metric), abs=1e-8)
    # TV sandwich for unit-floor metrics
    tv = 0.5 * np.abs(mu - nu).sum()
    off = d[~np.eye(n, dtype=bool)]
    assert off.min() * tv - 1e-9 <= w(mu, nu) <= metric.d_max * tv + 1e-9


@st.composite
def _integral_metric_case(draw):
    """Shortest-path closure of random integer weights, plus stacked pairs."""
    n = draw(st.integers(2, 8))
    weights = draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n))
    d = np.triu(np.asarray(weights, dtype=float).reshape(n, n), 1)
    d = d + d.T
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    np.fill_diagonal(d, 0.0)
    gen = rngmod.stream(draw(st.integers(0, 2**31)), 0)
    k = draw(st.integers(1, 6))
    mus = gen.dirichlet(np.full(n, 0.7), size=k)
    nus = gen.dirichlet(np.full(n, 0.7), size=k)
    return BlockMetric(d), mus, nus


@settings(max_examples=60, deadline=None)
@given(_integral_metric_case())
def test_vertex_dual_matches_transport_lps(case):
    metric, mus, nus = case
    ws = wasserstein(mus, nus, metric)
    assert ws.shape == (mus.shape[0],)
    for w, mu, nu in zip(ws, mus, nus):
        assert w == pytest.approx(wasserstein_dual(mu, nu, metric), abs=1e-9)
        assert w == pytest.approx(full_transport_lp(mu, nu, metric.d), abs=1e-9)
        assert wasserstein(mu, nu, metric) == w


@pytest.mark.parametrize("n", range(1, 10))
def test_vertex_counts_path_and_uniform(n):
    assert BlockMetric.path(n).lipschitz_vertices.shape == (2 ** (n - 1), n)
    if n >= 2:
        assert BlockMetric.uniform(n).lipschitz_vertices.shape == (2**n - 2, n)


@pytest.mark.parametrize("bits, count", [(3, 38), (4, 990)])
def test_vertex_counts_hypercube(bits, count):
    vertices = BlockMetric.hamming_on_bitmasks(bits).lipschitz_vertices
    assert vertices.shape == (count, 1 << bits)
    assert not vertices[:, 0].any()
    assert len(np.unique(vertices, axis=0)) == count


@pytest.mark.parametrize("distance", [1.5, np.inf, np.nan])
def test_non_integral_metric_refused(distance):
    with pytest.raises(ValueError, match="finite integers"):
        BlockMetric(np.array([[0.0, distance], [distance, 0.0]]))


def test_vertex_budget_checked_before_allocating(monkeypatch):
    levels = []
    column_stack = np.column_stack

    def spy(arrays):
        out = column_stack(arrays)
        levels.append(out.shape[0])
        return out

    monkeypatch.setattr(np, "column_stack", spy)
    # level 1 alone would hold 2 * 10**19 + 1 points, more than an int64 holds
    huge = BlockMetric(np.array([[0.0, 1e19], [1e19, 0.0]]))
    with pytest.raises(TooLarge, match="level 1 "):
        huge.lipschitz_vertices
    with pytest.raises(TooLarge):
        wasserstein(np.array([1.0, 0.0]), np.array([0.0, 1.0]), huge)
    assert levels == []
    monkeypatch.setattr(contraction, "MAX_LIPSCHITZ_POINTS", 40)
    metric = BlockMetric.hamming_on_bitmasks(3)  # levels 3, 9, 19, 63, ...
    with pytest.raises(TooLarge, match="level 4 "):
        metric.lipschitz_vertices
    assert levels == [3, 9, 19]


def test_batched_wasserstein_checks_every_row():
    metric = BlockMetric.path(3)
    mus = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    nus = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert wasserstein(mus, nus, metric).tolist() == [0.0, 2.0]
    assert wasserstein(mus[:0], nus[:0], metric).shape == (0,)
    with pytest.raises(DimensionMismatch):
        wasserstein(mus, nus[0], metric)
    with pytest.raises(DimensionMismatch):
        wasserstein(mus[:, :2], nus[:, :2], metric)
    bad = nus.copy()
    bad[1, 2] = 0.9
    with pytest.raises(ValueError):
        wasserstein(mus, bad, metric)


@pytest.mark.parametrize("mu", [[np.nan, 1.0], [1.5, -0.5], [np.inf, -np.inf], [np.inf, 0.0]])
def test_wasserstein_refuses_non_probability_rows(mu):
    metric = BlockMetric.uniform(2)
    with pytest.raises(ValueError, match="probability vectors"):
        wasserstein(np.array(mu), np.array([0.0, 1.0]), metric)
    with pytest.raises(ValueError, match="probability vectors"):
        wasserstein(np.array([[0.0, 1.0]]), np.array([mu]), metric)


def test_exit_distribution_three_state():
    part = Partition.from_block_of([0, 0, 1])
    mu = exit_distribution(K3, part, 1)
    assert np.allclose(mu, [0.5, 0.5])
    part2 = Partition.from_block_of([0, 1, 1])
    mu0 = exit_distribution(K3, part2, 0)
    assert np.allclose(mu0, [0.5, 0.5])  # forced support: only one way out


def test_exit_distribution_rows_match_resimulation():
    k, part = pince_nez(6)
    mus = exit_distributions_all(k, part)
    sampler = RowSampler(k)
    gen = rngmod.stream(55, 0)
    reps = 100_000
    x = 2
    b0 = part.block_of[x]
    state = np.full(reps, x, dtype=np.int64)
    out_block = np.full(reps, -1, dtype=np.int64)
    active = np.ones(reps, dtype=bool)
    for _ in range(200_000):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        state[idx] = sampler.step(state[idx], gen.bit_generator.random_raw(idx.size))
        moved = part.block_of[state[idx]] != b0
        out_block[idx[moved]] = part.block_of[state[idx[moved]]]
        active[idx[moved]] = False
    emp = np.bincount(out_block[out_block >= 0], minlength=2) / reps
    emp = 0.5 * emp
    emp[b0] += 0.5
    tv = 0.5 * np.abs(emp - mus[x]).sum()
    assert tv <= 3.0 * np.sqrt(2 / (4.0 * reps))


def test_estimate_identical_exits_certifies_strongly():
    k, part = pince_nez(8)
    est = estimate_contraction(k, part, BlockMetric.uniform(2))
    assert est.certified
    assert est.beta <= 1e-9
    assert est.margin >= 0.99
    # the trivial factor 1 is feasible with zero slack, as is any factor
    assert est.alpha <= 0.01


def test_estimate_torus_trace_certifies():
    tc = torus_metropolis(3, 3, 7.0, k_trace=1)
    est = estimate_contraction(tc.kernel, tc.partition, BlockMetric.hamming_on_bitmasks(3))
    assert est.certified and est.coverage == "exact-all-pairs"
    assert est.alpha >= 1.0 - 1.0 / 3.0 - 1e-9
    assert est.beta <= 0.05
    # the fitted pair re-verifies on its own evidence by construction
    worst = est.worst_pairs[0]
    assert worst.w <= est.alpha * worst.distance + est.beta + 1e-9


def test_torus_certificate_pinned_and_pairs_match_transport_lp():
    # the exact vertex dual moved alpha and beta from the LP-tolerance values
    # 0.6668696400470662 and 2.0308219e-4
    tc = torus_metropolis(3, 3, 7.0, k_trace=1)
    metric = BlockMetric.hamming_on_bitmasks(3)
    est = estimate_contraction(tc.kernel, tc.partition, metric)
    assert est.alpha == pytest.approx(0.6668697019572006, abs=1e-12)
    assert est.beta == pytest.approx(2.0309671264686504e-4, abs=1e-12)
    assert est.n_pairs == 64 * 63 // 2 and len(est.worst_pairs) == contraction.KEEP_WORST
    for pair in est.worst_pairs:
        mu = exit_distribution(tc.kernel, tc.partition, pair.x)
        nu = exit_distribution(tc.kernel, tc.partition, pair.y)
        assert pair.w == pytest.approx(full_transport_lp(mu, nu, metric.d), abs=1e-7)
        assert pair.distance == metric.d[pair.block_x, pair.block_y]


def test_transport_lps_match_vertex_dual_on_worst_torus_pair():
    # at HiGHS' default 1e-7 feasibility tolerances the transport LP was
    # 1.15e-7 below the vertex dual on this pair
    tc = torus_metropolis(3, 3, 7.0, k_trace=1)
    metric = BlockMetric.hamming_on_bitmasks(3)
    mu = exit_distribution(tc.kernel, tc.partition, 10)
    nu = exit_distribution(tc.kernel, tc.partition, 31)
    w = wasserstein(mu, nu, metric)
    assert full_transport_lp(mu, nu, metric.d) == pytest.approx(w, abs=1e-9)
    assert wasserstein_dual(mu, nu, metric) == pytest.approx(w, abs=1e-9)


def _set_alpha_candidates(ws, ds):
    """The candidate factors as a Python set, sorted."""
    grid = {1.0 - 2.0**-k / m for k in range(11) for m in range(1, 17)}
    grid.update(np.linspace(1.0 / 256.0, 1.0, 256).tolist())
    grid.update((ws[ds > 0] / ds[ds > 0]).tolist())
    grid.add(1e-6)
    return np.asarray(sorted(g for g in grid if 0 < g <= 1.0))


@pytest.mark.parametrize("seed", range(6))
def test_alpha_candidates_match_the_sorted_set(seed):
    gen = rngmod.stream(seed, 0)
    ds = gen.integers(0, 4, size=200).astype(float)
    ws = np.where(gen.random(200) < 0.5, gen.uniform(0.0, 3.0, size=200), ds * 0.75)
    if seed == 0:  # the torus suite's own pairs
        tc = torus_metropolis(3, 3, 7.0, k_trace=1)
        metric = BlockMetric.hamming_on_bitmasks(3)
        xs, ys = np.triu_indices(tc.kernel.n_states, 1)
        mus = exit_distributions_all(tc.kernel, tc.partition)
        ws = wasserstein(mus[xs], mus[ys], metric)
        ds = metric.d[tc.partition.block_of[xs], tc.partition.block_of[ys]]
    grid = contraction._alpha_candidates(ws, ds)
    assert grid.tobytes() == _set_alpha_candidates(ws, ds).tobytes()


def _loop_margin_fit(ws, ds):
    """The margin fit as one pass over every pair per candidate factor."""
    fits = []
    for a in contraction._alpha_candidates(ws, ds):
        beta = max(float((ws - a * ds).max(initial=0.0)), 1e-12)
        fits.append(((1.0 - a) - 2.0 * beta, a, beta))
    best_margin = max(m for m, _, _ in fits)
    best_beta = min(b for m, _, b in fits if m == best_margin)
    window = best_margin - 2.0 * best_beta
    margin, alpha, beta = max((f for f in fits if f[0] >= window - 1e-15), key=lambda f: f[1])
    if alpha < 2.0 * beta:
        alpha = min(1.0, 2.0 * beta + 1e-9)
        beta = max(float((ws - alpha * ds).max(initial=0.0)), 1e-12)
        margin = (1.0 - alpha) - 2.0 * beta
    return margin, alpha, beta


@pytest.mark.parametrize(
    "n, metric",
    [
        (100, BlockMetric.hamming_on_bitmasks(3)),
        (200, BlockMetric.hamming_on_bitmasks(3)),
        (100, BlockMetric.path(8)),
    ],
)
def test_margin_fit_matches_loop_over_pairs(n, metric):
    # random 8-block chains, density 0.05: 4,950 and 19,900 pairs
    gen = rngmod.stream(n, 0)
    k = random_reversible_kernel(n, gen, density=0.05)
    part = random_partition(n, gen, n_blocks=8)
    est = estimate_contraction(k, part, metric)
    xs, ys = np.triu_indices(n, 1)
    mus = exit_distributions_all(k, part)
    ws = wasserstein(mus[xs], mus[ys], metric)
    ds = metric.d[part.block_of[xs], part.block_of[ys]]
    assert (est.margin, est.alpha, est.beta) == _loop_margin_fit(ws, ds)


def test_estimate_untraced_torus_not_usefully_contracting():
    # without the inner trace, exits from the boundary leak sideways and the
    # additive slack stays macroscopic
    tc = torus_metropolis(4, 3, 7.0)
    est = estimate_contraction(
        tc.kernel, tc.partition, BlockMetric.hamming_on_bitmasks(4), pair_budget=6000, seed=3
    )
    assert est.coverage == "sampled"
    assert est.beta >= 1.0 / 24.0


def test_estimate_path_chain_no_contraction():
    # translation-invariant exits on a path: distances are preserved, so no
    # factor below 1 with small slack can be certified
    k, part = toy_kcip(6, 1)
    est = estimate_contraction(k, part, BlockMetric.path(6))
    assert est.alpha >= 0.9 or est.beta >= 0.2 or not est.certified


def test_occupation_regularity_zero_threshold():
    k, part = pince_nez(6)
    reg = occupation_regularity(k, part, 0.0, 1.0, phi_max=8.0)
    assert reg.delta1 == 1.0  # escape takes at least one step
    assert 0.0 <= reg.delta2 <= 1.0


def test_occupation_regularity_monotone_thresholds():
    k, part = pince_nez(6)
    r1 = occupation_regularity(k, part, 0.5, 4.0, phi_max=8.0)
    r2 = occupation_regularity(k, part, 2.0, 16.0, phi_max=8.0)
    assert r2.delta1 <= r1.delta1 + 1e-12
    assert r2.delta2 >= r1.delta2 - 1e-12


def test_contraction_estimate_json_fields():
    k, part = pince_nez(6)
    est = estimate_contraction(k, part, BlockMetric.uniform(2))
    d = est.to_dict()
    assert set(d) == {"alpha", "beta", "certified", "coverage", "worst_pair", "margin"}
