import hashlib
import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_partition, random_reversible_kernel
from mixdecomp import decomposition
from mixdecomp import rng as rngmod
from mixdecomp.chains import cycle_adjacency, kcip, pince_nez, torus_metropolis, toy_kcip
from mixdecomp.config import DEFAULT_TOLERANCES
from mixdecomp.decomposition import (
    Partition,
    avg_hit_time,
    block_mixing_times,
    decompose,
    escape_analyses,
    escape_analysis,
    escape_tail_at,
    escape_tails_at,
    less_lazy_projection,
    minimal_heavy_sets,
    projected_kernel,
    sampled_subsets,
    trace_kernel,
    trace_kernels,
)
from mixdecomp.contraction import exit_distribution, exit_distributions_all, occupation_regularity
from mixdecomp.errors import AbsorbingBlock, NoExit, SingularReturn, TooManyBlocks
from mixdecomp.kernel import (
    StationaryDistribution,
    StochasticKernel,
    check_reversible,
    hitting_analysis,
    mixing_profile,
    stationary_distribution,
)
from mixdecomp.simulate import RowSampler
from oracles import avg_hit_all_subsets, brute_minimal_heavy_sets, trace_kernel_dp_oracle

K3 = StochasticKernel([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([0, 0, 2]), 3)  # block 1 empty
    p = Partition.from_block_of([0, 0, 1])
    assert p.n_blocks == 2
    assert p.members(0).tolist() == [0, 1]


def test_trace_whole_space_is_identity_operation():
    p = Partition.single_block(3)
    t = trace_kernel(K3, p, 0)
    assert np.allclose(t.rows, K3.rows)


def test_trace_three_state_example():
    p = Partition.from_block_of([0, 0, 1])
    t = trace_kernel(K3, p, 0)
    assert np.allclose(t.rows, [[0.5, 0.5], [0.25, 0.75]], atol=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_trace_against_dp_oracle_and_inherits_structure(seed):
    gen = rngmod.stream(500 + seed, 0)
    n = int(gen.integers(4, 13))
    k = random_reversible_kernel(n, gen, half_lazy=bool(seed % 2))
    pi = stationary_distribution(k)
    part = random_partition(n, gen)
    for b in range(part.n_blocks):
        t = trace_kernel(k, part, b)
        oracle = trace_kernel_dp_oracle(k, part, b)
        assert np.abs(t.rows - oracle).max() <= 1e-8
        # stationary restriction identity
        A = part.members(b)
        sub = pi.weights[A] / pi.weights[A].sum()
        pib = stationary_distribution(t)
        assert np.abs(pib.weights - sub).max() <= 1e-8
        # reversibility and laziness inherited
        assert check_reversible(t, pib).is_reversible
        assert np.diag(t.rows).min() >= np.diag(k.rows[np.ix_(A, A)]).min() - 1e-12
        # trace dominates the plain restriction off the diagonal
        off = ~np.eye(A.size, dtype=bool)
        assert (t.rows[off] >= k.rows[np.ix_(A, A)][off] - 1e-12).all()


def test_trace_and_escape_checks_scale_with_metastable_solves():
    # every excursion of the m=4 torus returns, but leaving a well takes
    # ~1e9 steps and returning ~4e10, so the solved row sums carry ~2.6e-7 of
    # round-off, more than an absolute 1e-7 bound would allow
    tc = torus_metropolis(4, 3, 7.0)
    for b in range(tc.partition.n_blocks):
        t = trace_kernel(tc.kernel, tc.partition, b)
        assert np.allclose(t.rows.sum(axis=1), 1.0, atol=1e-12)
        stats = escape_analysis(tc.kernel, tc.partition, b)
        assert np.allclose(stats.exit_block_distribution.sum(axis=1), 1.0, atol=1e-12)


def test_planted_solve_error_fails_the_forward_error_checks(monkeypatch):
    # block 1 of toy_kcip(8, 1): returns take up to 656 steps and escapes
    # 178, so a relative solve error of 1e-6 moves the trace row sums by
    # 5e-7 and the exit rows by 1e-6: under a 1e-8 (1 + max h) bound (6.6e-6
    # and 1.8e-6), far over 100 eps n (1 + max h) (3.1e-10 and 1.2e-11)
    k, part = toy_kcip(8, 1)
    trace_kernel(k, part, 1)
    escape_analysis(k, part, 1)
    solve = scipy.linalg.solve
    monkeypatch.setattr(scipy.linalg, "solve", lambda a, b: solve(a, b) * (1 + 1e-6))
    with pytest.raises(SingularReturn):
        trace_kernel(k, part, 1)
    with pytest.raises(NoExit):
        escape_analysis(k, part, 1)


def test_trace_escaping_block_raises():
    # state 2 is absorbing: excursions from block {0} that reach it never return
    k = StochasticKernel([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularReturn):
        trace_kernel(k, Partition.from_block_of([0, 1, 1]), 0)


def test_projected_single_block():
    pi = stationary_distribution(K3)
    p = projected_kernel(K3, pi, Partition.single_block(3))
    assert np.allclose(p.rows, [[1.0]])


def test_projected_pince_nez_rate():
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    proj = projected_kernel(k, pi, part)
    assert proj.rows[0, 1] == pytest.approx(1.0 / 48.0, abs=1e-12)
    assert proj.rows[1, 0] == pytest.approx(1.0 / 48.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_projected_reversible_fixed_point(seed):
    gen = rngmod.stream(600 + seed, 0)
    n = int(gen.integers(4, 12))
    k = random_reversible_kernel(n, gen)
    pi = stationary_distribution(k)
    part = random_partition(n, gen)
    proj = projected_kernel(k, pi, part)
    masses = part.masses(pi)
    assert np.abs(masses @ proj.rows - masses).max() <= 1e-9
    flux = masses[:, None] * proj.rows
    assert np.abs(flux - flux.T).max() <= 1e-9


_chains = st.tuples(
    st.integers(0, 2**16),  # seed
    st.integers(2, 12),  # states
    st.integers(1, 5),  # blocks, at most the states
    st.floats(0.0, 1.0),  # extra edge density
    st.booleans(),  # half-lazy
)


def _drawn_chain(seed, n, n_blocks, density, half_lazy):
    gen = rngmod.stream(seed, 0)
    k = random_reversible_kernel(n, gen, half_lazy=half_lazy, density=density)
    return k, random_partition(n, gen, n_blocks=min(n_blocks, n))


@settings(max_examples=60, deadline=None)
@given(chain=_chains)
def test_restricted_stationary_law_is_stationary_for_every_trace(chain):
    k, part = _drawn_chain(*chain)
    pi = stationary_distribution(k).weights
    for b in range(part.n_blocks):
        A = part.members(b)
        sub = pi[A] / pi[A].sum()
        residual = np.abs(sub @ trace_kernel(k, part, b).rows - sub).sum()
        assert residual <= DEFAULT_TOLERANCES.stationary_residual


@settings(max_examples=60, deadline=None)
@given(chain=_chains)
def test_projected_kernel_is_reversible_for_block_masses(chain):
    k, part = _drawn_chain(*chain)
    pi = stationary_distribution(k)
    proj = projected_kernel(k, pi, part)
    assert check_reversible(proj, StationaryDistribution(part.masses(pi))).is_reversible


def test_less_lazy_projection():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    assert np.allclose(less_lazy_projection(k).rows, 0.5)
    k2 = StochasticKernel([[0.9, 0.1], [0.1, 0.9]])
    assert np.allclose(less_lazy_projection(k2).rows, 0.5)
    with pytest.raises(AbsorbingBlock):
        less_lazy_projection(StochasticKernel([[1.0, 0.0], [0.5, 0.5]]))


def test_less_lazy_is_half_lazy():
    gen = rngmod.stream(9, 0)
    k = random_reversible_kernel(6, gen)
    pi = stationary_distribution(k)
    part = random_partition(6, gen, 3)
    ll = less_lazy_projection(projected_kernel(k, pi, part))
    assert np.allclose(np.diag(ll.rows), 0.5, atol=1e-12)


def test_escape_singleton_geometric():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    part = Partition.from_block_of([0, 1])
    stats = escape_analysis(k, part, 0)
    assert stats.expected[0] == pytest.approx(2.0)
    assert escape_tail_at(k, part, 0, 3)[0] == pytest.approx(0.5**3)
    assert np.allclose(stats.exit_block_distribution.sum(axis=1), 1.0)


def test_escape_closed_block_raises():
    k = StochasticKernel([[1.0, 0.0], [0.5, 0.5]])
    part = Partition.from_block_of([0, 1])
    with pytest.raises(NoExit):
        escape_analysis(k, part, 0)


def test_escape_ladder_block_scales_like_slow_clock():
    # escape leaves only through the backbone state; from the far rung the
    # expectation grows with the m^d clock
    expectations = {}
    for m in (4, 8):
        k, part = toy_kcip(m, 1)
        stats = escape_analysis(k, part, 1)
        far_row = int(np.nonzero(stats.members == 3 * 1 + 2)[0][0])
        expectations[m] = stats.expected[far_row]
        assert np.allclose(stats.exit_block_distribution.sum(axis=1), 1.0)
    ratio = expectations[8] / expectations[4]
    assert 1.5 <= ratio <= 2.6  # Theta(m) growth at d = 1


def test_escape_tail_at_counts_near_integer_thresholds_as_integers():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    part = Partition.from_block_of([0, 1])
    one_step = [(1 / 49) * 49, (1 / (29 * math.log(2))) * 29 * math.log(2)]
    assert max(one_step) < 1.0  # both products round to just below 1
    for t in one_step:
        assert escape_tail_at(k, part, 0, t)[0] == 0.5
    assert escape_tail_at(k, part, 0, 3 - 1e-9)[0] == 0.25


@pytest.mark.parametrize("seed", range(8))
def test_escape_exit_rows_sum_to_one(seed):
    gen = rngmod.stream(700 + seed, 0)
    n = int(gen.integers(4, 12))
    k = random_reversible_kernel(n, gen)
    part = random_partition(n, gen)
    for b in range(part.n_blocks):
        stats = escape_analysis(k, part, b)
        assert np.allclose(stats.exit_block_distribution.sum(axis=1), 1.0, atol=1e-9)
        assert (stats.expected >= 1.0 - 1e-12).all()
        tail = np.array([escape_tail_at(k, part, b, t) for t in range(6)])
        assert (np.diff(tail, axis=0) <= 1e-12).all()


def test_avg_hit_single_block_zero():
    pi = stationary_distribution(K3)
    res = avg_hit_time(K3, pi, Partition.single_block(3), alpha=0.4)
    assert res.value == 0.0
    assert res.n_qualifying == 1


def test_avg_hit_pince_nez_order_m_squared():
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    res = avg_hit_time(k, pi, part, alpha=1.0 / 3.0, mode="exact")
    # worst start in one loop hitting the other loop: diffusive scale
    assert 20.0 <= res.value <= 500.0
    k16, part16 = pince_nez(16)
    res16 = avg_hit_time(k16, stationary_distribution(k16), part16, alpha=1.0 / 3.0)
    assert 2.5 <= res16.value / res.value <= 5.5  # ~quadratic in m


@pytest.mark.parametrize("seed", range(6))
def test_avg_hit_sampled_below_exact(seed):
    gen = rngmod.stream(800 + seed, 0)
    n = int(gen.integers(6, 11))
    k = random_reversible_kernel(n, gen)
    pi = stationary_distribution(k)
    part = random_partition(n, gen, 3)
    exact = avg_hit_time(k, pi, part, alpha=0.3, mode="exact")
    sampled = avg_hit_time(k, pi, part, alpha=0.3, mode="sampled", seed=seed)
    assert sampled.lower_bound_only
    assert sampled.value <= exact.value + 1e-9


def test_avg_hit_sampled_uses_shared_subset_sampler():
    k, part = toy_kcip(8, 1)
    pi = stationary_distribution(k)
    res = avg_hit_time(k, pi, part, alpha=0.3, mode="sampled", sample_budget=16, seed=5)
    family = sampled_subsets(part.masses(pi), 0.15, 16, 5)
    assert res.n_qualifying == len(family)
    assert res.argmax_subset in family


def test_sampled_subsets_hold_the_full_set_when_it_reaches_the_floor():
    masses = np.array([0.1, 0.2, 0.3, 0.4])
    for seed in range(5):
        family = sampled_subsets(masses, 0.25, 3, seed)
        assert (0, 1, 2, 3) in family and family == sorted(set(family))
        assert len(family) <= 4
        assert all(masses[list(I)].sum() >= 0.25 for I in family)
    # below the floor even the full set does not qualify
    assert sampled_subsets(masses / 10, 0.25, 3, 0) == []


def test_avg_hit_no_qualifying_marker():
    pi = stationary_distribution(K3)
    res = avg_hit_time(K3, pi, Partition.from_block_of([0, 0, 1]), alpha=2.5)
    assert res.no_qualifying_set and res.value is None


def _refuse_solve(*args, **kwargs):
    raise AssertionError("solved a hitting system before the budget check")


def test_avg_hit_block_cap(monkeypatch):
    # 22 singleton blocks: the budget, not a block count, refuses the job
    k = random_reversible_kernel(22, rngmod.stream(4, 0))
    pi = stationary_distribution(k)
    part = Partition.from_block_of(np.arange(22))
    n_sets = len(minimal_heavy_sets(part.masses(pi), 0.15))
    monkeypatch.setattr("mixdecomp.decomposition.MAX_HEAVY_SETS", n_sets - 1)
    monkeypatch.setattr("mixdecomp.decomposition.hitting_analysis", _refuse_solve)
    with pytest.raises(TooManyBlocks):
        avg_hit_time(k, pi, part, alpha=0.3, mode="exact")


def test_minimal_heavy_sets_budget_holds_past_the_recursion_limit():
    # minimal sets of 1,667 of 5,000 equal blocks: far deeper than Python's
    # recursion limit, and far more of them than the budget
    with pytest.raises(TooManyBlocks):
        minimal_heavy_sets(np.full(5000, 1 / 5000), 1 / 3)


def test_minimal_heavy_sets_on_the_m4_torus():
    # 16 equal blocks at floor 1/6: every 3 blocks, C(16, 3), where the
    # qualifying family has 65,399 sets
    tc = torus_metropolis(4, 3, 7.0)
    family = minimal_heavy_sets(tc.partition.masses(tc.pi), 1 / 6)
    assert len(family) == 560
    assert family == list(itertools.combinations(range(16), 3))


_EVEN = [1 / 12, 1 / 16, 1 / 6, 1 / 8, 1 / 4, 1 / 3]


@st.composite
def _masses_and_floor(draw):
    """Up to 10 masses, equal or random, and a floor that is often hit exactly.

    Random masses stay above 1e-3: a block lighter than the rounding of the
    sums can make a sum of 8 or more terms (pairwise summation) smaller
    when it is added, and minimality then holds only up to that rounding.
    """
    n = draw(st.integers(1, 10))
    masses = np.asarray(
        draw(
            st.one_of(
                st.sampled_from(_EVEN).map(lambda v: [v] * n),
                st.lists(st.sampled_from(_EVEN), min_size=n, max_size=n),
                st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n),
            )
        )
    )
    floor = draw(
        st.one_of(
            st.sampled_from([0.0, 1 / 8, 1 / 6, 1 / 4, 1 / 3, 1 / 2, 2 / 3]),
            st.floats(0.0, 2.0),
            st.sets(st.integers(0, n - 1), min_size=1).map(lambda I: masses[sorted(I)].sum()),
        )
    )
    return masses, floor


@settings(max_examples=300, deadline=None)
@given(_masses_and_floor())
# {0, 1, 2, 3, 4, 6} sums to 0.49999999999999994 and {0, 2, 3, 4, 5, 6}, the
# same masses in another order, to 0.5: only the one-block-smaller test keeps
# the set of all seven blocks out
@example((np.array([1 / 12, 1 / 16, 1 / 12, 1 / 12, 1 / 16, 1 / 16, 1 / 8]), 0.5))
def test_minimal_heavy_sets_are_the_minimal_qualifying_subsets(case):
    masses, floor = case
    assert minimal_heavy_sets(masses, floor) == brute_minimal_heavy_sets(masses, floor)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(0, 2**31),
    st.sampled_from([0.2, 1 / 3, 0.5, 2 / 3, 1.0]),
)
def test_avg_hit_exact_matches_all_subset_maximum(n, seed, alpha):
    gen = rngmod.stream(seed, 0)
    k = random_reversible_kernel(n, gen, density=float(gen.uniform(0.0, 0.6)))
    pi = stationary_distribution(k)
    part = random_partition(n, gen, int(gen.integers(1, n + 1)))
    res = avg_hit_time(k, pi, part, alpha=alpha, mode="exact")
    value, arg = avg_hit_all_subsets(k, part, part.masses(pi), alpha / 2)
    if arg in minimal_heavy_sets(part.masses(pi), alpha / 2):
        assert (res.value, res.argmax_subset) == (value, arg)
    else:
        # a superset that ties with its minimal subset in exact arithmetic
        # can solve one rounding above it (n=8, seed=962, alpha=1/3)
        assert res.value <= value <= res.value * (1 + 1e-12)


def _kernel_and_partition(chain):
    return chain.kernel, chain.partition


# block mixing times of the zoo chains the suites and tests use
_ZOO_PHIS = {
    "pince_nez(8)": (lambda: pince_nez(8), (9, 9)),
    "pince_nez(16)": (lambda: pince_nez(16), (37, 37)),
    "toy_kcip(4, 1)": (lambda: toy_kcip(4, 1), (13,) * 4),
    "toy_kcip(8, 1)": (lambda: toy_kcip(8, 1), (22,) * 8),
    "torus_metropolis(3, 3, 7.0, k_trace=1)": (
        lambda: _kernel_and_partition(torus_metropolis(3, 3, 7.0, k_trace=1)),
        (21,) * 8,
    ),
    "kcip(cycle_adjacency(5))": (
        lambda: _kernel_and_partition(kcip(cycle_adjacency(5), c=1.0)),
        (23, 15, 11),
    ),
}


@pytest.mark.parametrize("name", sorted(_ZOO_PHIS))
def test_block_mixing_times_pinned_and_profiles_stop_at_one_quarter(name):
    build, pinned = _ZOO_PHIS[name]
    k, part = build()
    phis, profiles, _ = block_mixing_times(k, stationary_distribution(k), part, horizon=10**6)
    assert phis == pinned
    for phi, profile in zip(phis, profiles):
        assert profile.epsilon_times == {0.25: phi}
        assert len(profile.distances) == phi + 1


def test_block_traces_share_one_class_search(class_searches):
    tc = torus_metropolis(3, 3, 7.0, k_trace=1)
    phis, _, traces = block_mixing_times(tc.kernel, tc.pi, tc.partition, horizon=10**6)
    assert len(traces) == 8 and phis == (21,) * 8
    assert len(class_searches) == 1


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# sha256 prefixes of the block solves' float64 bytes, per block in order:
# trace rows, escape expectations, exit-block laws, hitting times of the block
_SUB_BLOCK_DIGESTS = {
    "pince_nez(8)": (
        lambda: pince_nez(8),
        ("d6ae5b2825175928", "1ec220c79fd5cb95", "c1c7344024b4f591", "cc3977bf011ed696"),
    ),
    "toy_kcip(8, 1)": (
        lambda: toy_kcip(8, 1),
        ("9c50ad9cea3e36de", "cec70c7fef394826", "64dd4f493a02aa8c", "6f783e5c3dff8741"),
    ),
    "torus_metropolis(3, 3, 7.0, k_trace=1)": (
        lambda: _kernel_and_partition(torus_metropolis(3, 3, 7.0, k_trace=1)),
        ("b07ab58ea529f25b", "f7a378dc6b84e44f", "b0331de22878a68b", "dcc4ce40e964ea85"),
    ),
}


@pytest.mark.parametrize("name", sorted(_SUB_BLOCK_DIGESTS))
def test_block_solves_pinned_byte_for_byte(name):
    build, pinned = _SUB_BLOCK_DIGESTS[name]
    k, part = build()
    blocks = range(part.n_blocks)
    escapes = [escape_analysis(k, part, i) for i in blocks]
    assert (
        _digest(trace_kernel(k, part, i).rows for i in blocks),
        _digest(e.expected for e in escapes),
        _digest(e.exit_block_distribution for e in escapes),
        _digest(hitting_analysis(k, part.members(i)).expected for i in blocks),
    ) == pinned


def _unequal_toy_kcip():
    # blocks of 5, 7, 5 and 7 states: two sizes, two blocks of each
    k, _ = toy_kcip(8, 1)
    return k, Partition.from_block_of(np.repeat([0, 1, 2, 3], [5, 7, 5, 7]))


_BATCHED_CHAINS = {
    "pince_nez(8)": lambda: pince_nez(8),
    "toy_kcip(8, 1)": lambda: toy_kcip(8, 1),
    "torus_metropolis(3, 3, 7.0, k_trace=1)": lambda: _kernel_and_partition(
        torus_metropolis(3, 3, 7.0, k_trace=1)
    ),
    "toy_kcip(8, 1), blocks of 5, 7, 5, 7": _unequal_toy_kcip,
    "random 9 states, one block per state": lambda: (
        random_reversible_kernel(9, rngmod.stream(3, 0)),
        Partition(np.arange(9), 9),
    ),
}


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("name", sorted(_BATCHED_CHAINS))
def test_batched_block_work_equals_one_block_calls(name, split, monkeypatch):
    k, part = _BATCHED_CHAINS[name]()
    n, blocks = k.n_states, range(part.n_blocks)
    if split:  # one block per return-system stack: every group of two or more is cut
        monkeypatch.setattr(decomposition, "_STACK_KERNELS", 1)
        stacks = decomposition._stacks(part, blocks, lambda s: (n - s) * (n + 1))
        assert len(stacks) == part.n_blocks > np.unique(np.bincount(part.block_of)).size
    pi = stationary_distribution(k)
    phis, profiles, traces = block_mixing_times(k, pi, part, horizon=10**6)
    for i in blocks:
        alone = trace_kernel(k, part, i)
        assert traces[i].rows.tobytes() == alone.rows.tobytes()
        sub = pi.weights[part.members(i)]
        profile = mixing_profile(alone, StationaryDistribution(sub / sub.sum()), 10**6, (0.25,))
        assert profiles[i].distances.tobytes() == profile.distances.tobytes()
        assert phis[i] == profile.mixing_time
    mus = exit_distributions_all(k, part)
    assert all(mus[x].tobytes() == exit_distribution(k, part, x).tobytes() for x in range(n))
    reg = occupation_regularity(k, part, 0.5, 4.0, max(phis))
    stay1 = [escape_tail_at(k, part, i, reg.threshold1).min() for i in blocks]
    stay2 = [escape_tail_at(k, part, i, reg.threshold2).max() for i in blocks]
    assert (reg.delta1, reg.delta2) == (min(stay1), 1.0 - max(stay2))
    for t in (1, 8192):  # the stay probabilities of occupation_bounds
        stay = escape_tails_at(k, part, blocks, t)
        assert all(stay[i].tobytes() == escape_tail_at(k, part, i, t).tobytes() for i in blocks)


def test_batched_failures_name_the_first_block_in_order():
    # blocks 1 and 2 (one state each) are stacked and solved before block 0
    # (two states); when block 0 fails too, it is the one named
    part = Partition.from_block_of([0, 0, 1, 2])
    rows = [[0.5, 0.5, 0, 0], [0.25, 0.25, 0.25, 0.25], [0, 0, 1, 0], [0, 0.5, 0, 0.5]]
    absorbing = StochasticKernel(rows)  # state 2 absorbs: returns past it fail
    with pytest.raises(SingularReturn, match="singular for block 0:"):
        trace_kernels(absorbing, part, range(3))
    with pytest.raises(SingularReturn, match="singular for block 2:"):
        trace_kernels(absorbing, part, [1, 2])
    rows[1] = [0.5, 0.5, 0, 0]
    closed = StochasticKernel(rows)  # blocks 0 and 1 have no exit
    with pytest.raises(NoExit, match="block 0 is closed"):
        exit_distributions_all(closed, part)
    with pytest.raises(NoExit, match="block 1 is closed"):
        escape_analyses(closed, part, [2, 1])


_ONE_BLOCK_CALLS = {
    "trace_kernel": lambda k, part, block: trace_kernel(k, part, block),
    "escape_analysis": lambda k, part, block: escape_analysis(k, part, block),
    "escape_tail_at": lambda k, part, block: escape_tail_at(k, part, block, 10),
}


@pytest.mark.parametrize("block", [2, -1, 1.5, True, np.int64(2)])
@pytest.mark.parametrize("call", sorted(_ONE_BLOCK_CALLS))
def test_block_index_is_checked_before_any_solve(call, block, monkeypatch):
    k, part = pince_nez(4)  # two blocks
    solves = []
    monkeypatch.setattr(scipy.linalg, "solve", lambda *args: solves.append(1))
    with pytest.raises(ValueError, match=re.escape(f"block {block!r} is not one of 0..1")):
        _ONE_BLOCK_CALLS[call](k, part, block)
    assert not solves


def test_numpy_integer_blocks_are_block_indices():
    k, part = pince_nez(4)
    trace = trace_kernel(k, part, np.int64(1))
    assert trace.rows.tobytes() == trace_kernel(k, part, 1).rows.tobytes()
    tail = escape_tail_at(k, part, np.int32(0), 3)
    assert tail.tobytes() == escape_tail_at(k, part, 0, 3).tobytes()


def test_decompose_report_fields():
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    rep = decompose(k, pi, part, horizon=4000)
    assert rep.phi_max == max(rep.block_mixing_times)
    assert np.allclose(rep.block_masses, 0.5)
    assert len(rep.trace_kernels) == 2


def test_trace_one_step_law_matches_simulation():
    # empirical one-step law of the watched chain matches the analytic trace
    k, part = pince_nez(6)
    trace = trace_kernel(k, part, 0)
    sampler = RowSampler(k)
    gen = rngmod.stream(42, 0)
    reps = 100_000
    start = 2
    in_block = part.block_of == 0
    state = np.full(reps, start, dtype=np.int64)
    first = np.full(reps, -1, dtype=np.int64)
    active = np.ones(reps, dtype=bool)
    for _ in range(10_000):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        state[idx] = sampler.step(state[idx], gen.bit_generator.random_raw(idx.size))
        arrived = in_block[state[idx]]
        first[idx[arrived]] = state[idx[arrived]]
        active[idx[arrived]] = False
    assert not active.any()
    counts = np.bincount(first, minlength=6)[:6].astype(float)
    emp = counts[part.members(0)] / reps
    row = trace.rows[2]
    tv = 0.5 * np.abs(emp - row).sum()
    se = np.sqrt(len(row) / (4.0 * reps))
    assert tv <= 3.0 * se


def test_torus_trace_projection_is_lazy_hypercube_walk():
    # the half-lazy renormalized projection of the inner-trace chain is the
    # half-lazy walk on the bit-flip cube, up to barrier leakage
    from mixdecomp.chains import torus_metropolis

    tc = torus_metropolis(3, 3, 7.0, k_trace=1)
    proj = projected_kernel(tc.kernel, tc.pi, tc.partition)
    ll = less_lazy_projection(proj)
    m = 3
    expect = np.zeros((8, 8))
    for z in range(8):
        for b in range(m):
            expect[z, z ^ (1 << b)] = 1.0 / (2 * m)
        expect[z, z] = 0.5
    assert np.abs(ll.rows - expect).max() <= 1e-3
