"""Property tests of the Monte Carlo occupation-tail provider.

The reference recount below is the provider's original rule: rescan the
block labels of the paths ``simulate_states`` returns for the same seed and
count, per path, the steps ``1 .. T`` spent in block i.  The provider caches
counts per horizon and fills a new one from the nearest cached horizon, so
queries are probed in random order to reach cached horizons from below and
from above.

The tests at the end hold every provider's array answers to its scalar
answers, the grid-batched horizon search to the search over single
thresholds that ``oracles.scalar_occupation_horizon`` keeps, and the search
that tries each probe at the provider's horizons to the one that tries it
at the probe alone.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_partition, random_reversible_kernel
from mixdecomp import bounds
from mixdecomp import rng as rngmod
from mixdecomp.bounds import (
    _EXP_NEG,
    PeresSousiConstants,
    _exp_hit_sums,
    bound_basic,
    bound_basic2,
    least_horizon,
)
from mixdecomp.chains import pince_nez, toy_kcip
from mixdecomp.decomposition import Partition, block_mixing_times, qualifying_subsets
from mixdecomp.errors import ProductSpaceTooLarge
from mixdecomp.kernel import StochasticKernel, stationary_distribution
from mixdecomp.simulate import (
    PathStream,
    index_dtype,
    simulate,
    simulate_states,
    wilson_interval,
)
from mixdecomp.tails import (
    BlockTails,
    EscapeCertifiedTails,
    ExactTailProvider,
    JointTails,
    MCTailProvider,
    MinMarginalJointTails,
    _PIECE,
    occupation_tail_table,
)

T_MAX = 96
REPS = 6
STARTS = [0, 2, 5]
N_BLOCKS = 3


def _chain(seed):
    gen = rngmod.stream(seed, 0)
    return random_reversible_kernel(7, gen), random_partition(7, gen, n_blocks=N_BLOCKS)


class _Recount:
    """The old rescan rule, kept as the reference."""

    def __init__(self, kernel, partition, seed, T_max=T_MAX):
        starts = np.repeat(STARTS, REPS)
        self.labels = partition.block_of[simulate_states(kernel, starts, T_max, seed)]

    def kappa(self, i, T):
        return (self.labels[:, 1 : T + 1] == i).sum(axis=1)

    def max_wilson(self, hits):
        return max(wilson_interval(int(row.sum()), REPS)[1] for row in hits.reshape(len(STARTS), REPS))


_probe = st.tuples(st.integers(0, N_BLOCKS - 1), st.integers(0, T_MAX), st.floats(0.5, T_MAX + 1.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), probes=st.lists(_probe, min_size=1, max_size=30))
def test_mc_queries_match_brute_force_recount(seed, probes):
    kernel, partition = _chain(seed)
    mc = MCTailProvider(kernel, partition, T_max=T_MAX, reps_per_start=REPS, seed=seed, starts=STARTS)
    ref = _Recount(kernel, partition, seed)
    for i, T, t in probes:
        assert mc.query(i, T, t) == ref.max_wilson(ref.kappa(i, T) < t)
        joint = [i, (i + 1) % N_BLOCKS]
        hits = (ref.kappa(joint[0], T) < t) & (ref.kappa(joint[1], T) < t)
        assert mc.query_joint(joint, T, t) == ref.max_wilson(hits)
    assert mc.query(0, T_MAX + 1, 1) == 1.0 and mc.query_joint([0], 5, 0) == 0.0


# Not a power of two, nor are some probes, so extensions stop off powers of two.
PLANE_T_MAX = 45
# 1 block logs no event; 260 blocks take two-byte labels
PLANE_CASES = [(1, 7), (2, 7), (3, 7), (5, 9), (260, 300)]


def _plane_chain(n_blocks, n_states, seed):
    gen = rngmod.stream(seed, 0)
    kernel = random_reversible_kernel(n_states, gen)
    return kernel, Partition(gen.permutation(np.arange(n_states) % n_blocks), n_blocks)


def _plane_provider(kernel, partition, seed):
    return MCTailProvider(
        kernel, partition, T_max=PLANE_T_MAX, reps_per_start=REPS, seed=seed, starts=STARTS
    )


def _assert_kappa_matches(mc, ref, T):
    kappa = mc._kappa(T)
    for i in range(mc.partition.n_blocks):
        assert np.array_equal(kappa[i], ref.kappa(i, T))


@pytest.mark.parametrize("n_blocks,n_states", PLANE_CASES)
def test_plane_counts_match_recount_through_partial_bytes(n_blocks, n_states):
    kernel, partition = _plane_chain(n_blocks, n_states, seed=n_blocks)
    mc = _plane_provider(kernel, partition, seed=7)
    ref = _Recount(kernel, partition, 7, T_max=PLANE_T_MAX)
    # growth to 2, 4, 13 and 45 steps, each counted up from a cached
    # horizon; then counts down from cached horizons
    probes = [2, 4, 3, 13, PLANE_T_MAX, 9, 1, 40, 0]
    grown = [2, 4, 4, 13, PLANE_T_MAX, PLANE_T_MAX, PLANE_T_MAX, PLANE_T_MAX, PLANE_T_MAX]
    for T, T_sim in zip(probes, grown):
        _assert_kappa_matches(mc, ref, T)
        assert mc.simulated_T == T_sim


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(PLANE_CASES[:4]),
    seed=st.integers(0, 2**16),
    Ts=st.lists(st.integers(0, PLANE_T_MAX), min_size=1, max_size=12),
)
def test_plane_counts_match_recount_in_any_probe_order(case, seed, Ts):
    kernel, partition = _plane_chain(*case, seed=seed)
    mc = _plane_provider(kernel, partition, seed)
    ref = _Recount(kernel, partition, seed, T_max=PLANE_T_MAX)
    for T in Ts:
        _assert_kappa_matches(mc, ref, T)


@pytest.mark.parametrize("n_blocks,n_states", PLANE_CASES)
def test_event_log_holds_one_event_per_label_change(n_blocks, n_states):
    # one event per path and step on which the block label changes, each of
    # a path index and two labels in their smallest integer dtypes
    kernel, partition = _plane_chain(n_blocks, n_states, seed=3)
    mc = _plane_provider(kernel, partition, seed=3)
    mc._kappa(PLANE_T_MAX)
    labels = _Recount(kernel, partition, 3, T_max=PLANE_T_MAX).labels
    per_step = (labels[:, 1:] != labels[:, :-1]).sum(axis=0)
    assert np.array_equal(np.diff(mc._offsets), per_step)
    label = index_dtype(n_blocks).itemsize
    assert mc._event.itemsize == index_dtype(len(STARTS) * REPS).itemsize + 2 * label
    assert sum(chunk.size for chunk in mc._chunks) >= per_step.sum()
    assert all(chunk.dtype == mc._event for chunk in mc._chunks)


@pytest.mark.parametrize("n_blocks", [2, 5])
def test_doubling_peak_memory_is_events_counts_and_one_piece(n_blocks):
    # Extending the paths appends events to chunks and copies none of those
    # already held, so the peak of the last doubling exceeds what the
    # provider holds after it (events, offsets, cached counts and labels,
    # sampler and stream) only by the temporaries of recording one batch or
    # counting one piece, eight int64 arrays of a piece's length at most,
    # and two int64 count arrays: the accumulator and the counts of the
    # cached horizon it replaces.  Copying the events would add half of them.
    gen = rngmod.stream(2, 0)
    kernel, partition = random_reversible_kernel(7, gen), random_partition(7, gen, n_blocks)
    T_max = 8192
    tracemalloc.start()
    try:
        mc = MCTailProvider(kernel, partition, T_max=T_max, reps_per_start=300, seed=1)
        for T in (2 ** k for k in range(1, 13)):
            mc._kappa(T)
        tracemalloc.reset_peak()
        mc._kappa(T_max)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_paths = 7 * 300
    held = sum(chunk.nbytes for chunk in mc._chunks)
    events = int(mc._offsets[-1])
    assert held <= (events + _PIECE) * mc._event.itemsize
    piece = 8 * 8 * _PIECE
    counts = n_blocks * n_paths * 8
    assert peak - after <= piece + 2 * counts < held / 2


def test_mc_provider_checks_event_budget_before_each_extension(monkeypatch):
    # A path that changes block on every step logs 4 B per path and step (a
    # two-byte path index and two one-byte labels), more than the state and
    # label bytes that the check before the first step counts.
    flip = StochasticKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    part = Partition(np.array([0, 1]), 2)
    # 2 starts x 5,000 reps x 100 steps x (1 B state + 1 B label): the first
    # check passes, and so does the stream's guide, 2 x 16,384 entries x 43 B
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 10_000 * 100 * 2)
    mc = MCTailProvider(flip, part, T_max=99, reps_per_start=5000, seed=0)
    assert mc.query(0, 16, 9) == 1.0
    assert mc.simulated_T == 16 and mc._offsets[-1] == 10_000 * 16

    def refuse(*args, **kwargs):
        raise AssertionError("stepped paths over the budget")

    # every step of the stream, guided or not
    monkeypatch.setattr(PathStream, "step", refuse)
    # a query extends the paths to its own horizon, 64: 160,000 events held
    # and 10,000 x 48 more at most, 4 B each: 2,560,000 B > 2,000,000 B
    with pytest.raises(ProductSpaceTooLarge, match="160,000 block changes held"):
        mc.query(0, 64, 9)
    assert mc.simulated_T == 16


@pytest.mark.parametrize("starts", [[], (), np.array([], dtype=np.int64)], ids=["list", "tuple", "array"])
def test_tail_providers_refuse_an_empty_start_list(monkeypatch, starts):
    # With no paths the Monte Carlo provider answered 0.0 to every positive
    # threshold, and the exact one ended in numpy's untyped "zero-size
    # array" error after allocating its buffers.  Under a zero byte budget
    # the ValueError shows the list is checked before anything is allocated.
    k, part = pince_nez(4)
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 0)
    with pytest.raises(ValueError, match="no starts"):
        MCTailProvider(k, part, T_max=20, reps_per_start=10, seed=0, starts=starts)
    with pytest.raises(ValueError, match="no starts"):
        ExactTailProvider(k, part, T_max=20, t_cap=10, starts=starts)
    with pytest.raises(ValueError, match="no starts"):
        occupation_tail_table(k, part, 0, T_max=20, t_cap=10, starts=starts)
    with pytest.raises(ValueError, match="no starts"):
        PathStream(k, starts, seed=0)


@pytest.mark.parametrize("start", [-1, -2, -8, 8, 1.5])
def test_tail_providers_refuse_starts_outside_the_chain(monkeypatch, start):
    # A negative start used to wrap (-1 answered for state 7, -2 for state 6)
    # and 8 to end in an untyped IndexError, in the tail providers and in
    # simulate_states; 1.5 was truncated to 1.  Under a zero byte budget the
    # ValueError shows the start is checked before anything is allocated.
    k, part = pince_nez(4)
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 0)
    refused = f"start {start} outside 0..7"
    with pytest.raises(ValueError, match=refused):
        ExactTailProvider(k, part, T_max=20, t_cap=10, starts=[0, start])
    with pytest.raises(ValueError, match=refused):
        oracles.exact_occupation_tail(k, part, 0, T=20, t=10, start=start)
    with pytest.raises(ValueError, match=refused):
        occupation_tail_table(k, part, 0, T_max=20, t_cap=10, starts=[start])
    with pytest.raises(ValueError, match=refused):
        MCTailProvider(k, part, T_max=20, reps_per_start=10, seed=0, starts=[start, 0])
    with pytest.raises(ValueError, match=refused):
        simulate_states(k, np.full(2, start), 4, seed=0)
    with pytest.raises(ValueError, match=refused):
        simulate_states(k, [0, start], 4, seed=0)
    with pytest.raises(ValueError, match=refused):
        PathStream(k, [0, start], seed=0)
    with pytest.raises(ValueError, match=refused):
        simulate(k, start, 4, seed=0, partition=part)


_MONOTONE = MCTailProvider(*_chain(11), T_max=T_MAX, reps_per_start=REPS, seed=11, starts=STARTS)


@settings(max_examples=200, deadline=None)
@given(
    i=st.integers(0, N_BLOCKS - 1),
    Ts=st.tuples(st.integers(0, T_MAX), st.integers(0, T_MAX)),
    ts=st.tuples(st.floats(0.5, T_MAX + 1.0), st.floats(0.5, T_MAX + 1.0)),
)
def test_mc_tails_monotone_in_horizon_and_threshold(i, Ts, ts):
    (T_lo, T_hi), (t_lo, t_hi) = sorted(Ts), sorted(ts)
    assert _MONOTONE.query(i, T_lo, t_lo) >= _MONOTONE.query(i, T_hi, t_lo)
    assert _MONOTONE.query(i, T_lo, t_lo) <= _MONOTONE.query(i, T_lo, t_hi)
    assert _MONOTONE.query_joint([0, 1], T_lo, t_lo) >= _MONOTONE.query_joint([0, 1], T_hi, t_lo)


def test_lazy_horizons_count_as_one_full_simulation():
    # up, down, past an earlier extension, and up to T_max
    probes = [5, 3, 17, 2, 64, 33, 0, 65, 96, 50]
    grown = [5, 5, 17, 17, 64, 64, 64, 65, 96, 96]
    full = MCTailProvider(*_chain(4), T_max=T_MAX, reps_per_start=REPS, seed=4, starts=STARTS)
    full._kappa(T_MAX)
    lazy = MCTailProvider(*_chain(4), T_max=T_MAX, reps_per_start=REPS, seed=4, starts=STARTS)
    assert lazy.simulated_T == 0
    for T, T_sim in zip(probes, grown):
        assert np.array_equal(lazy._kappa(T), full._kappa(T))
        assert lazy.simulated_T == T_sim
    assert full.simulated_T == T_MAX


def test_mc_provider_simulates_only_as_far_as_queried():
    k, part = pince_nez(8)
    mc = MCTailProvider(k, part, T_max=16384, reps_per_start=4, seed=0, starts=[0])
    mc.query(0, 2048, 100)
    mc.query_joint([0, 1], 1500, 100)
    assert mc.simulated_T == 2048
    assert mc.provenance == "mc(reps=4,seed=0,level=0.99/query,T_sim=2048)"
    joint = MinMarginalJointTails(mc)
    joint.query_joint([0], 2049, 100)
    assert mc.simulated_T == 2049
    assert joint.provenance == "min-marginal(mc(reps=4,seed=0,level=0.99/query,T_sim=2049))"


# A per-query miss rate near 6e-7: a miss means the providers disagree, not chance.
_WIDE_Z = 5.0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    i=st.integers(0, 1),
    T=st.integers(1, 48),
    frac=st.floats(0.0, 1.0),
)
def test_exact_tails_lie_in_mc_wilson_band(seed, i, T, frac):
    gen = rngmod.stream(seed, 0)
    kernel, partition = random_reversible_kernel(6, gen), random_partition(6, gen, n_blocks=2)
    t = 1 + int(frac * (T - 1))
    exact = ExactTailProvider(kernel, partition, T_max=48, t_cap=48).query(i, T, t)
    mc = MCTailProvider(kernel, partition, T_max=48, reps_per_start=400, seed=seed)
    per_start = (mc._kappa(T)[i] < t).reshape(6, 400).sum(axis=1)
    bands = [wilson_interval(int(h), 400, z=_WIDE_Z) for h in per_start]
    # max_z P_z lies between the largest per-start lower and upper bounds
    assert max(lo for lo, _ in bands) <= exact <= max(hi for _, hi in bands)


def test_mc_provider_checks_path_budget_before_simulating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated paths over the budget")

    # the provider's stream, and every path step anywhere
    monkeypatch.setattr("mixdecomp.tails.PathStream", refuse)
    monkeypatch.setattr(PathStream, "step", refuse)
    k, part = pince_nez(8)
    huge = MCTailProvider(k, part, T_max=10**12, reps_per_start=200, seed=0)
    with pytest.raises(ProductSpaceTooLarge):
        huge.query(0, 10, 5)
    # 16 starts x 50 reps x 101 steps x (1 B states + 1 B labels), less one byte
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 16 * 50 * 101 * 2 - 1)
    with pytest.raises(ProductSpaceTooLarge):
        MCTailProvider(k, part, T_max=100, reps_per_start=50, seed=0).query_joint([0, 1], 10, 5)


def test_mc_bounds_reproduce_pinned_seeded_values():
    # Values of the provider's seeded searches; a change to sampling, path
    # storage or occupation counting must reproduce them bit for bit.
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    masses = part.masses(pi)
    phis, _, _ = block_mixing_times(k, pi, part, horizon=10**5)
    phi = [float(p) for p in phis]
    mc = MCTailProvider(k, part, T_max=1024, reps_per_start=100, seed=5)
    ones = PeresSousiConstants()
    r1 = bound_basic(phi, mc, 1 / 3, 0.75, [0, 1], ones, block_masses=masses, T_horizon=1024)
    r2 = bound_basic2(phi, masses, mc, 1 / 3, ones, T_horizon=1024)
    r3 = bound_basic2(phi, masses, MinMarginalJointTails(mc), 1 / 3, ones, T_horizon=1024)
    assert (r1.value, r1.ingredients["T"]) == (980.0, 735)
    assert (r2.value, r2.ingredients["T"]) == (801.3333333333333, 601)
    assert (r3.value, r3.ingredients["T"]) == (836.0, 627)


def test_cached_counts_stay_bounded_through_both_searches():
    # Only horizon 0, the simulated horizon and the two latest probes keep
    # their counts, over every probe of bound_basic and both bound_basic2 runs
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    masses = part.masses(pi)
    phis, _, _ = block_mixing_times(k, pi, part, horizon=10**5)
    phi = [float(p) for p in phis]
    mc = MCTailProvider(k, part, T_max=1024, reps_per_start=100, seed=5)
    kappa, probes = mc._kappa, []

    def recorded(T):
        out = kappa(T)
        probes.append(T)
        latest = list(dict.fromkeys(reversed(probes)))[:2]
        assert set(mc._counts) <= {0, mc.simulated_T, *latest}
        assert np.array_equal(out, mc._counts[T])
        return out

    mc._kappa = recorded
    ones = PeresSousiConstants()
    bound_basic(phi, mc, 1 / 3, 0.75, [0, 1], ones, block_masses=masses, T_horizon=1024)
    bound_basic2(phi, masses, mc, 1 / 3, ones, T_horizon=1024)
    bound_basic2(phi, masses, MinMarginalJointTails(mc), 1 / 3, ones, T_horizon=1024)
    assert len(set(probes)) > 4


# -- the tail protocols and their array form --------------------------------


def test_providers_conform_to_exactly_the_protocols_they_answer():
    # exact tails answer no joint query and min-marginal tails no per-block one
    kernel, partition = _chain(0)
    mc = MCTailProvider(kernel, partition, T_max=T_MAX, reps_per_start=REPS, seed=0)
    exact = ExactTailProvider(kernel, partition, T_max=T_MAX, t_cap=T_MAX)
    expected = [
        (mc, True, True),
        (exact, True, False),
        (EscapeCertifiedTails(0, 0.5, T_MAX), True, True),
        (MinMarginalJointTails(mc), False, True),
        (MinMarginalJointTails(exact), False, True),
    ]
    for provider, block, joint in expected:
        assert isinstance(provider, BlockTails) is block, provider
        assert isinstance(provider, JointTails) is joint, provider
    assert mc.simulated_T == 0  # conformance reads the provenance, not the paths


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    probes=st.lists(st.integers(1, T_MAX + 5), min_size=1, max_size=6),
    ts=st.lists(st.floats(0.5, T_MAX + 1.0), min_size=1, max_size=8),
)
def test_horizons_rise_to_the_probe_with_tails_never_below_its_own(seed, probes, ts):
    # Every provider's horizons increase and end at the probe; exact and
    # escape tails are tried at the probe alone, min-marginal tails at their
    # per-block provider's horizons, and Monte Carlo tails at a horizon H
    # are never below those at the probe, on the paths already drawn.
    kernel, partition = _chain(seed)
    mc = MCTailProvider(kernel, partition, T_max=T_MAX, reps_per_start=REPS, seed=seed, starts=STARTS)
    exact = ExactTailProvider(kernel, partition, T_max=T_MAX, t_cap=T_MAX, starts=STARTS)
    escape = EscapeCertifiedTails(0, 0.5, T_MAX)
    joint = MinMarginalJointTails(mc)
    t = np.array(ts)
    for T in probes:
        horizons = mc.horizons(T)
        for provider in (mc, exact, escape, joint, MinMarginalJointTails(exact)):
            hs = list(provider.horizons(T))
            assert hs[-1] == T and all(a < b for a, b in zip(hs, hs[1:])), (provider, hs)
        assert exact.horizons(T) == escape.horizons(T) == [T]
        assert joint.horizons(T) == horizons
        for H in horizons:
            assert 0 < H <= T
            for i in range(N_BLOCKS):
                assert (mc.query(i, H, t) >= mc.query(i, T, t)).all()
            assert (mc.query_joint([0, 2], H, t) >= mc.query_joint([0, 2], T, t)).all()
            assert (joint.query_joint([0, 2], H, t) >= joint.query_joint([0, 2], T, t)).all()


def test_mc_horizons_start_at_the_simulated_horizon_in_steps_of_a_sixteenth():
    k, part = pince_nez(8)
    mc = MCTailProvider(k, part, T_max=4096, reps_per_start=4, seed=0, starts=[0])
    assert mc.horizons(100) == [64, 100]
    assert mc.horizons(4096) == list(range(256, 4097, 256))
    mc.query(0, 1000, 5)
    assert mc.horizons(4096) == [*range(1000, 4096, 256), 4096]
    assert mc.horizons(1100) == [1000, 1068, 1100]  # 1100 // 16 = 68
    assert mc.horizons(600) == [600]
    assert mc.horizons(4097) == [4097]  # past T_max the tails are vacuous
    assert mc.simulated_T == 1000

VEC_BLOCKS = 4
VEC_T_CAP = 40  # below T_MAX, so exact queries past t_cap answer 1.0

_threshold = st.one_of(st.integers(-3, T_MAX + 5), st.floats(-3.0, T_MAX + 5.0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    T=st.integers(0, T_MAX + 5),
    ts=st.lists(_threshold, min_size=1, max_size=12),
    key=st.lists(st.integers(0, VEC_BLOCKS - 1), min_size=1, max_size=VEC_BLOCKS, unique=True),
    two_rows=st.booleans(),
)
def test_array_queries_equal_elementwise_scalar_queries(seed, T, ts, key, two_rows):
    # thresholds at or below 0, non-integer, past T and past t_cap; horizons
    # past T_max; joint keys of 1 to 4 blocks
    kernel, partition = _plane_chain(VEC_BLOCKS, 8, seed)
    mc = MCTailProvider(kernel, partition, T_max=T_MAX, reps_per_start=REPS, seed=seed, starts=STARTS)
    exact = ExactTailProvider(kernel, partition, T_max=T_MAX, t_cap=VEC_T_CAP, starts=STARTS)
    escape = EscapeCertifiedTails(0, 0.5, T_MAX)
    t = np.array(ts, dtype=float)
    if two_rows and t.size % 2 == 0:
        t = t.reshape(2, -1)
    i = key[0]
    queries = [
        (mc.query, i),
        (exact.query, i),
        (escape.query, i),
        (mc.query_joint, key),
        (escape.query_joint, key),
        (MinMarginalJointTails(mc).query_joint, key),
        (MinMarginalJointTails(exact).query_joint, key),
    ]
    for query, x in queries:
        got = query(x, T, t)
        assert got.shape == t.shape
        want = [query(x, T, u) for u in t.ravel().tolist()]
        assert all(type(w) is float for w in want)
        assert got.ravel().tolist() == want
    # the joint MC tail counts the paths on which every block of the key is
    # under-occupied, and min-marginal is the least per-block tail
    ref = _Recount(kernel, partition, seed)
    for u in t.ravel().tolist():
        if 0 < u and T <= T_MAX:
            hits = np.all([ref.kappa(j, T) < u for j in key], axis=0)
            assert mc.query_joint(key, T, u) == ref.max_wilson(hits)
        for provider in (mc, exact):
            joint = MinMarginalJointTails(provider).query_joint(key, T, u)
            assert joint == min(provider.query(j, T, u) for j in key)


class _Eager:
    """A tail provider whose searches certify each probe T at T alone."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def provenance(self):
        return self.inner.provenance

    def max_t(self):
        return self.inner.max_t()

    def horizons(self, T):
        return [T]

    def query(self, i, T, t):
        return self.inner.query(i, T, t)

    def query_joint(self, I, T, t):
        return self.inner.query_joint(I, T, t)


class _Recording(_Eager):
    """An eager tail provider that records every (T, member) pair it is asked.

    It is eager because the scalar reference search asks each probe's tails
    at the probe alone.
    """

    def __init__(self, inner):
        super().__init__(inner)
        self.asked = set()

    def query(self, i, T, t):
        self.asked.add((T, i))
        return super().query(i, T, t)

    def query_joint(self, I, T, t):
        self.asked.add((T, tuple(I)))
        return super().query_joint(I, T, t)


SEARCH_T = 1024
_CALIBRATED = PeresSousiConstants(1.5, 1.5, calibrated=True)


def _search_chain(name):
    k, part = {"pince_nez": lambda: pince_nez(8), "toy_kcip": lambda: toy_kcip(4, 1)}[name]()
    pi = stationary_distribution(k)
    phis, _, _ = block_mixing_times(k, pi, part, horizon=10**5)
    return k, part, np.array([float(p) for p in phis]), part.masses(pi)


def _providers(k, part, kind, seed):
    """Two equal, fresh providers: one for each search."""
    if kind == "exact":
        return [ExactTailProvider(k, part, SEARCH_T, t_cap=256, starts=[0, 9]) for _ in range(2)]
    return [MCTailProvider(k, part, T_max=SEARCH_T, reps_per_start=50, seed=seed) for _ in range(2)]


def _same_work(a, b):
    if isinstance(a, MCTailProvider):
        return a.simulated_T == b.simulated_T
    return set(a._tables) == set(b._tables)


@pytest.mark.parametrize("kind", ["mc", "exact"])
@pytest.mark.parametrize("chain,seed", [("pince_nez", 5), ("pince_nez", 6), ("toy_kcip", 5)])
@pytest.mark.parametrize("constants", [PeresSousiConstants(), _CALIBRATED])
def test_batched_basic_search_asks_what_the_scalar_search_asks(kind, chain, seed, constants):
    k, part, phi, masses = _search_chain(chain)
    I = list(range(part.n_blocks))
    mine, ref = _providers(k, part, kind, seed)
    rec, ref_rec = _Recording(mine), _Recording(ref)
    result = bound_basic(phi, rec, 1 / 3, 0.75, I, constants, masses, T_horizon=SEARCH_T)
    cp = constants.c_alpha_prime
    T_ref = oracles.scalar_occupation_horizon(
        I, lambda i, t: phi[i] / (cp * t), ref_rec.query, ref_rec.max_t(), SEARCH_T
    )
    assert result.ingredients["T"] == T_ref
    assert rec.asked == ref_rec.asked
    assert _same_work(mine, ref)


@pytest.mark.parametrize("kind", ["mc", "min-marginal", "exact"])
@pytest.mark.parametrize("chain,seed", [("pince_nez", 5), ("toy_kcip", 5)])
@pytest.mark.parametrize("constants", [PeresSousiConstants(), _CALIBRATED])
def test_batched_joint_search_asks_what_the_scalar_search_asks(kind, chain, seed, constants):
    k, part, phi, masses = _search_chain(chain)
    mine, ref = _providers(k, part, kind, seed)
    wrap = (lambda p: p) if kind == "mc" else MinMarginalJointTails
    rec, ref_rec = _Recording(wrap(mine)), _Recording(wrap(ref))
    result = bound_basic2(phi, masses, rec, 1 / 3, constants, T_horizon=SEARCH_T)
    cp = constants.c_alpha_prime

    def exp_sum(I, t):
        return float(sum(math.exp(-math.floor(cp * t / (math.e * phi[i]))) for i in I))

    family = qualifying_subsets(masses, 1 / 6)
    T_ref = oracles.scalar_occupation_horizon(
        family, exp_sum, ref_rec.query_joint, ref_rec.max_t(), SEARCH_T
    )
    assert result.ingredients["T"] == T_ref
    assert rec.asked == ref_rec.asked
    assert _same_work(mine, ref)


LAZY_T = 1024


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_blocks=st.integers(2, 3),
    scale=st.floats(0.5, 30.0),
)
def test_lazy_search_answers_every_probe_as_the_eager_search(seed, n_blocks, scale):
    # One provider runs the searches of occupation_bounds in turn and tries
    # each probe at its horizons; an equal one, wrapped, tries every probe
    # at the probe alone.  Every probe answers alike, so the searches ask
    # the same probes and settle on the same T, and the lazy provider has
    # simulated no further than the eager one after each search.
    gen = rngmod.stream(seed, 0)
    kernel = random_reversible_kernel(6, gen)
    partition = random_partition(6, gen, n_blocks=n_blocks)
    masses = partition.masses(stationary_distribution(kernel))
    phi = scale * gen.uniform(0.5, 1.5, n_blocks)
    I = list(range(n_blocks))
    ones = PeresSousiConstants()

    def searches(wrap):
        mc = MCTailProvider(kernel, partition, T_max=LAZY_T, reps_per_start=100, seed=seed)
        probes, found, simulated = [], [], []

        def recorded(feasible, T_start, T_horizon):
            def probe(T):
                probes.append((T, feasible(T)))
                return probes[-1][1]

            return least_horizon(probe, T_start, T_horizon)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "least_horizon", recorded)
            for search in (
                lambda: bound_basic(phi, wrap(mc), 1 / 3, 0.75, I, ones, masses, T_horizon=LAZY_T),
                lambda: bound_basic2(
                    phi, masses, wrap(MinMarginalJointTails(mc)), 1 / 3, ones, T_horizon=LAZY_T
                ),
                lambda: bound_basic2(phi, masses, wrap(mc), 1 / 3, ones, T_horizon=LAZY_T),
            ):
                found.append(search().ingredients["T"])
                simulated.append(mc.simulated_T)
        return probes, found, simulated

    lazy_probes, lazy_T, lazy_sim = searches(lambda p: p)
    eager_probes, eager_T, eager_sim = searches(_Eager)
    assert lazy_probes == eager_probes
    assert lazy_T == eager_T
    assert all(a <= b for a, b in zip(lazy_sim, eager_sim)), (lazy_sim, eager_sim)


def test_exp_hit_sums_match_math_exp_across_underflow():
    # floor(c t / (e phi_0)) steps by less than one from 0 to about 1,150,
    # across the 745 / 746 edge where math.exp(-k) underflows to 0.0
    phi = np.array([1.0, 0.5, 2.0, 0.37])
    c = 1.3
    t = np.arange(1, 2400)
    floors = {math.floor(c * u / (math.e * phi[0])) for u in t}
    assert {744, 745, 746, 747} <= floors
    sums = _exp_hit_sums(phi, c, t)
    for I in [(0,), (1, 0), (0, 2, 3), (3, 2, 1, 0)]:
        want = [float(sum(math.exp(-math.floor(c * u / (math.e * phi[i]))) for i in I)) for u in t]
        assert np.array_equal(sums(list(I)).view(np.uint64), np.array(want).view(np.uint64))
    assert _EXP_NEG.tolist() == [math.exp(-k) for k in range(747)]
    assert _EXP_NEG[745] > 0.0 == _EXP_NEG[746]
