import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import random_partition, random_reversible_kernel
from mixdecomp import rng as rngmod
from mixdecomp.chains import expander_pair, pince_nez, toy_kcip
from mixdecomp.decomposition import Partition
from mixdecomp.errors import AssertionFailed, HorizonCap, ProductSpaceTooLarge
from mixdecomp.kernel import StochasticKernel, hitting_analysis, lazify
from mixdecomp.simulate import (
    OccupationRecord,
    PathStream,
    RowSampler,
    simulate,
    simulate_states,
    wilson_interval,
)
from mixdecomp.tails import MCTailProvider, occupation_tail_table
from oracles import (
    empirical_hitting,
    exact_joint_occupation_tail,
    exact_occupation_tail,
    occupation_tail_table_backward_fresh,
    occupation_tail_table_fresh,
    occupation_tail_table_rational,
    stream_correlation,
)

K3 = StochasticKernel([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.1
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    lo, hi = wilson_interval(10, 100)
    assert lo <= 0.1 <= hi


def test_wilson_interval_is_exact_at_the_ends():
    # the float formula gave an upper end of 0.9999999999999998 at 200 of 200
    # and a lower end above 0 at 0 of n for hundreds of n
    for n in range(1, 3000):
        assert wilson_interval(n, n)[1] == 1.0
        assert wilson_interval(0, n)[0] == 0.0
    assert wilson_interval(200, 200)[1] == 1.0


@pytest.mark.parametrize("successes, trials", [(5, 3), (-1, 3), (1, 0)])
def test_wilson_interval_refuses_successes_outside_the_trials(successes, trials):
    # 5 of 3 used to end in "math domain error" from the square root
    with pytest.raises(ValueError, match=f"successes {successes} outside 0..{trials}"):
        wilson_interval(successes, trials)


def test_simulate_deterministic_and_conserving():
    part = Partition.from_block_of([0, 0, 1])
    t1, rec1 = simulate(K3, 0, 500, seed=9, partition=part)
    t2, rec2 = simulate(K3, 0, 500, seed=9, partition=part)
    assert np.array_equal(t1, t2)
    assert rec1.kappa.sum() == 500
    assert rec1.transitions.sum() == 499
    t3, _ = simulate(K3, 0, 500, seed=10, partition=part)
    assert not np.array_equal(t1, t3)


def test_single_state_occupation():
    k = StochasticKernel([[1.0]])
    _, rec = simulate(k, 0, 50, seed=0)
    assert rec.kappa.tolist() == [50]


def test_stream_independence():
    assert abs(stream_correlation(123, 10**6)) < 0.01


def test_sampler_matches_dense_rows():
    gen = rngmod.stream(5, 0)
    k = random_reversible_kernel(12, gen)  # dense rows
    sampler = RowSampler(k)
    draws = 200_000
    states = np.zeros(draws, dtype=np.int64)
    nxt = sampler.step(states, gen.bit_generator.random_raw(draws))
    emp = np.bincount(nxt, minlength=12) / draws
    tv = 0.5 * np.abs(emp - k.rows[0]).sum()
    assert tv <= 3.0 * np.sqrt(12 / (4.0 * draws))


@pytest.mark.parametrize("n, w, counted", [(256, 256, 1_046_528), (1000, 1024, 16_376_000)])
def test_sampler_tables_are_budgeted_and_are_its_peak(monkeypatch, n, w, counted):
    # Dense rows pad to width w: search levels of n (w - 1) float64 sums and
    # a column table of n w indices, 8 n (2w - 1) B.
    k = StochasticKernel(np.full((n, n), 1.0 / n))
    for budget in (counted - 1, counted):
        monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", budget)
        tracemalloc.start()
        try:
            if budget < counted:
                with pytest.raises(ProductSpaceTooLarge, match=f"{counted:,} B"):
                    RowSampler(k)
            else:
                assert RowSampler(k).cols.size == n * w
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if budget < counted:
            # refused before any table: row_width's n x n nonzero mask and
            # the raised error's frames
            assert peak < counted // 4
        else:
            # one row's temporaries beyond the tables
            assert counted <= peak <= counted + 64 * 1024


@pytest.mark.parametrize("label", [None, np.int8, np.int32])
def test_guide_is_budgeted_and_is_its_peak(monkeypatch, label):
    # 32 dense rows cut words into 2^10 buckets: 32,768 entries of 42 B
    # each (the next states and the temporaries of building them) and the
    # labels' bytes.  The sampler's own tables take 16,128 B.
    k = StochasticKernel(np.full((32, 32), 1.0 / 32))
    sampler = RowSampler(k)
    block_of = None if label is None else np.arange(32, dtype=label) % 4
    size = 32 << 10
    labels = 0 if label is None else np.dtype(label).itemsize
    counted = size * (42 + labels)
    for budget in (counted - 1, counted):
        monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", budget)
        tracemalloc.start()
        try:
            if budget < counted:
                with pytest.raises(ProductSpaceTooLarge, match=f"{counted:,} B"):
                    sampler.guide(block_of)
            else:
                bits, nxt, got = sampler.guide(block_of)
                assert bits == 10 and nxt.size == size
                assert got is None if label is None else got.dtype == label
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if budget < counted:
            assert peak < 4096  # refused before anything is allocated
        else:
            # the labels come after the temporaries are freed, so the count
            # less the labels is the peak
            assert counted - size * labels <= peak <= counted + 64 * 1024


def test_empirical_hitting_examples():
    est = empirical_hitting(K3, [0], x0=0, reps=200, seed=1)
    assert est.mean == 0.0
    est2 = empirical_hitting(K3, [0], x0=2, reps=4000, seed=2)
    assert abs(est2.mean - 8.0) <= est2.half_width  # exact value 8
    k, part = pince_nez(8)
    e8 = empirical_hitting(k, part.members(1), x0=4, reps=1500, seed=3)
    exact = hitting_analysis(k, part.members(1)).expected[4]
    assert abs(e8.mean - exact) <= e8.half_width


def test_empirical_occupation_edge_cases():
    # t = 0 is never met, without simulating; t > T is met by every path;
    # a horizon past T_max answers the vacuous 1.0 without simulating.
    part = Partition.from_block_of([0, 0, 1])
    mc = MCTailProvider(K3, part, T_max=20, reps_per_start=200, seed=0, starts=[0])
    assert mc.query(0, 20, 0) == 0.0
    assert mc.query(0, 21, 5) == 1.0
    assert mc.simulated_T == 0
    every = wilson_interval(200, 200)[1]
    assert mc.query(0, 20, 21) == every == 1.0
    assert mc.query(0, 20, np.array([0, 21])).tolist() == [0.0, every]
    assert mc.simulated_T == 20


def test_exact_occupation_binomial_closed_form():
    # half-lazy flip chain occupies block 0 like a fair coin
    k = lazify(StochasticKernel([[0.0, 1.0], [1.0, 0.0]]), 0.5)
    part = Partition.from_block_of([0, 1])
    for t in (1, 2, 3, 4):
        p = exact_occupation_tail(k, part, 0, T=4, t=t, start=0)
        assert p == pytest.approx(binom.cdf(t - 1, 4, 0.5), abs=1e-12)
    assert exact_occupation_tail(k, part, 0, T=4, t=0) == 0.0
    assert exact_occupation_tail(k, part, 0, T=4, t=5) == 1.0
    # a fractional threshold counts as its ceiling, since kappa is an integer
    p = exact_occupation_tail(k, part, 0, T=10, t=2.5, start=0)
    assert p == pytest.approx(binom.cdf(2, 10, 0.5), abs=1e-12)
    assert exact_occupation_tail(k, part, 0, T=10, t=2.5) == exact_occupation_tail(k, part, 0, T=10, t=3)


def test_exact_occupation_monotone_in_t():
    part = Partition.from_block_of([0, 0, 1])
    vals = [exact_occupation_tail(K3, part, 1, T=12, t=t) for t in range(1, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_exact_occupation_size_guard():
    k = StochasticKernel(np.eye(4) * 0.5 + 0.125)
    part = Partition.from_block_of([0, 1, 1, 1])
    with pytest.raises(ProductSpaceTooLarge):
        exact_occupation_tail(k, part, 0, T=10**7, t=10**7)


def test_occupation_dp_budget_counts_starts_and_table(monkeypatch):
    # the DP array and its shifted copy take 2 x 20 x 11 x 8 = 3,520 B and
    # the table 20 x 10 x 8 = 1,600 B; given starts, each step also gathers
    # their rows of the DP array, 10 x 8 = 80 B per start
    k = StochasticKernel(np.full((20, 20), 1 / 20))
    part = Partition.from_block_of(np.arange(20) % 2)
    counted = 3_520 + 1_600
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", counted - 1)
    with pytest.raises(ProductSpaceTooLarge):
        exact_occupation_tail(k, part, 0, T=20, t=10)
    with pytest.raises(ProductSpaceTooLarge):
        occupation_tail_table(k, part, 0, T_max=20, t_cap=10)
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", counted)
    assert occupation_tail_table(k, part, 0, T_max=20, t_cap=10).shape == (20, 10)
    with pytest.raises(ProductSpaceTooLarge):
        exact_occupation_tail(k, part, 0, T=20, t=10, start=3)
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", counted + 2 * 80 - 1)
    with pytest.raises(ProductSpaceTooLarge):
        occupation_tail_table(k, part, 0, T_max=20, t_cap=10, starts=[0, 3])
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", counted + 2 * 80)
    assert occupation_tail_table(k, part, 0, T_max=20, t_cap=10, starts=[0, 3]).shape == (20, 10)


@pytest.mark.parametrize("seed", [0, 1])
def test_occupation_table_matches_fresh_products_bit_for_bit(seed):
    gen = rngmod.stream(40 + seed, 0)
    n = 9 + 3 * seed
    k, part = random_reversible_kernel(n, gen), random_partition(n, gen, 3)
    for block, starts in ((0, None), (2, [1, 4])):
        got = occupation_tail_table(k, part, block, T_max=70, t_cap=30, starts=starts)
        want = occupation_tail_table_backward_fresh(k, part, block, T_max=70, t_cap=30, starts=starts)
        assert np.array_equal(got, want)


def _forward_cases():
    """(name, kernel, partition, block, T_max, t_cap, starts): 24 cases."""
    gen = rngmod.stream(77, 0)
    pair = expander_pair(64, 8, 1 / np.log(64), seed=3)
    instances = [
        ("pince_nez(16)", *pince_nez(16), 48, 24),
        ("toy_kcip(8, 1)", *toy_kcip(8, 1), 48, 24),
        ("expander_pair(64)", pair.kernel, pair.partition, 32, 32),
    ]
    for n in (5, 9, 16):
        k, part = random_reversible_kernel(n, gen), random_partition(n, gen, 3)
        instances.append((f"random({n})", k, part, 40, 20))
    cases = []
    for name, k, part, T_max, t_cap in instances:
        for block in (0, part.n_blocks - 1):
            for starts in (None, sorted(set(gen.integers(0, k.n_states, 3).tolist()))):
                cases.append((name, k, part, block, T_max, t_cap, starts))
    return cases


def test_occupation_table_matches_forward_sweep():
    # the backward recursion against the forward (counter, start, state)
    # sweep: within T_max n eps, and every < 1/4 decision the same
    cases = _forward_cases()
    assert len(cases) >= 20
    for name, k, part, block, T_max, t_cap, starts in cases:
        got = occupation_tail_table(k, part, block, T_max, t_cap, starts=starts)
        want = occupation_tail_table_fresh(k, part, block, T_max, t_cap, starts=starts)
        tol = T_max * k.n_states * np.finfo(float).eps
        case = (name, block, starts)
        assert np.abs(got - want).max() <= tol, case
        assert np.array_equal(got < 0.25, want < 0.25), case


@pytest.mark.parametrize("starts", [None, [2]])
def test_occupation_table_matches_exact_rationals(starts):
    gen = rngmod.stream(88, 0)
    k4 = random_reversible_kernel(4, gen)
    for k, part, block, T, t_cap in (
        (K3, Partition.from_block_of([0, 0, 1]), 1, 12, 6),
        (k4, Partition.from_block_of([0, 1, 1, 0]), 0, 10, 5),
    ):
        exact = occupation_tail_table_rational(k, part, block, T, t_cap, starts=starts)
        tol = Fraction(T * k.n_states) * Fraction(np.finfo(float).eps)
        for table in (
            occupation_tail_table(k, part, block, T, t_cap, starts=starts),
            occupation_tail_table_fresh(k, part, block, T, t_cap, starts=starts),
        ):
            worst = max(
                abs(Fraction(float(v)) - e) for row, rows in zip(table, exact) for v, e in zip(row, rows)
            )
            assert worst <= tol, float(worst)


def test_occupation_dp_peak_memory_is_what_the_budget_counts():
    # 400 states, t_cap 200, T_max 300: the DP array and its shifted copy
    # take 2 x 400 x 201 x 8 = 1,286,400 B and the table 300 x 200 x 8 =
    # 480,000 B; every step works in them, and beyond them only numpy's
    # fixed 8,192-element ufunc buffer (about 70 KB at any size).  Given 200
    # starts, each step also gathers their rows, 200 x 200 x 8 = 320,000 B.
    gen = rngmod.stream(7, 0)
    k, part = random_reversible_kernel(400, gen), random_partition(400, gen, 4)
    counted = 8 * (2 * 400 * 201 + 300 * 200)
    for starts, gathered in ((None, 0), (range(0, 400, 2), 8 * 200 * 200)):
        tracemalloc.start()
        try:
            occupation_tail_table(k, part, 1, T_max=300, t_cap=200, starts=starts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counted + gathered <= peak <= counted + gathered + 128 * 1024, starts


@pytest.mark.parametrize("seed", range(10))
def test_mc_tails_cover_exact(seed):
    # The exact DP value lies inside the 99% Wilson interval of the
    # provider's count in nearly all cells, and a query answers that
    # interval's upper end.
    gen = rngmod.stream(900 + seed, 0)
    n = int(gen.integers(3, 8))
    k = random_reversible_kernel(n, gen, half_lazy=True)
    part = random_partition(n, gen, 2)
    T, reps = 30, 2000
    mc = MCTailProvider(k, part, T_max=T, reps_per_start=reps, seed=seed, starts=[0])
    hits, total = 0, 0
    for t in (3, 8, 15):
        exact = exact_occupation_tail(k, part, 0, T, t, start=0)
        lo, hi = wilson_interval(int((mc._kappa(T)[0] < t).sum()), reps)
        assert mc.query(0, T, t) == hi
        total += 1
        hits += lo - 1e-12 <= exact <= hi + 1e-12
    assert hits >= total - 1  # tolerate at most one 99%-interval miss per chain


def test_mc_tail_coverage_rate_across_cells():
    # The provider's Wilson 99% upper bound lies at or above the exact tail
    # in nearly every cell, and within one 99% Wilson width of it (the
    # width at the exact tail's expected count), which a vacuous 1.0 is not.
    gen = rngmod.stream(31337, 0)
    reps = 1500
    covered = close = total = 0
    for _ in range(20):
        n = int(gen.integers(3, 7))
        k = random_reversible_kernel(n, gen, half_lazy=True)
        part = random_partition(n, gen, 2)
        seed = int(gen.integers(2**31))
        mc = MCTailProvider(k, part, T_max=24, reps_per_start=reps, seed=seed, starts=[0])
        for t in (4, 10):
            exact = exact_occupation_tail(k, part, 0, 24, t, start=0)
            upper = mc.query(0, 24, t)
            lo, hi = wilson_interval(round(exact * reps), reps)
            total += 1
            covered += upper >= exact - 1e-12
            close += upper - exact <= hi - lo
    assert covered / total >= 0.97
    assert close / total >= 0.97


def test_occupation_table_matches_single_queries():
    part = Partition.from_block_of([0, 0, 1])
    table = occupation_tail_table(K3, part, 0, T_max=16, t_cap=8)
    for T in (4, 9, 16):
        for t in (1, 3, 8):
            assert table[T - 1, t - 1] == pytest.approx(
                exact_occupation_tail(K3, part, 0, T, t), abs=1e-12
            )


def test_exact_joint_tail_two_blocks():
    part = Partition.from_block_of([0, 1, 2])
    joint = exact_joint_occupation_tail(K3, part, [0, 2], T=8, t=3)
    m0 = exact_occupation_tail(K3, part, 0, 8, 3)
    m2 = exact_occupation_tail(K3, part, 2, 8, 3)
    assert joint <= min(m0, m2) + 1e-12
    # against brute-force path enumeration
    brute = _brute_joint(K3.rows, part.block_of, [0, 2], T=8, t=3)
    assert joint == pytest.approx(brute, abs=1e-12)


def _brute_joint(K, lab, blocks, T, t):
    n = K.shape[0]
    worst = 0.0
    for z in range(n):
        stack = [(z, 1.0, {b: 0 for b in blocks})]
        for _ in range(T):
            nxt = []
            for s, p, counts in stack:
                for y in range(n):
                    if K[s, y] > 0:
                        c2 = dict(counts)
                        if lab[y] in c2:
                            c2[lab[y]] += 1
                        nxt.append((y, p * K[s, y], c2))
            # merge identical (state, counts) to keep the stack small
            merged = {}
            for s, p, c in nxt:
                key = (s, tuple(sorted(c.items())))
                merged[key] = merged.get(key, 0.0) + p
            stack = [(s, p, dict(c)) for (s, c), p in merged.items()]
        prob = sum(p for _, p, c in stack if all(v < t for v in c.values()))
        worst = max(worst, prob)
    return worst


def test_simulate_with_sampler_object():
    class FlipSampler:
        def step(self, state, gen):
            return 1 - state if gen.random() < 0.5 else state

        def block_of(self, state):
            return state

    traj, rec = simulate(FlipSampler(), 0, 100, seed=5, n_blocks=2)
    assert len(traj) == 101
    assert rec.kappa.sum() == 100


def test_batched_paths_shape_and_determinism():
    paths = simulate_states(K3, 1, 64, seed=3, reps=10)
    paths2 = simulate_states(K3, 1, 64, seed=3, reps=10)
    assert paths.shape == (10, 65)
    assert np.array_equal(paths, paths2)


@pytest.mark.parametrize("a, b", [(0, 40), (1, 39), (13, 27), (40, 0)])
def test_path_stream_segments_match_one_simulation(a, b):
    starts = np.repeat([0, 1, 2], 5)
    whole = simulate_states(K3, starts, a + b, seed=9)
    stream = PathStream(K3, starts, seed=9)
    steps = list(stream.extend(a)) + list(stream.extend(b))
    assert np.array_equal(np.array(steps, dtype=whole.dtype).reshape(a + b, -1).T, whole[:, 1:])
    assert np.array_equal(stream.states, whole[:, -1])


def test_batched_paths_stored_compact_and_budgeted(monkeypatch):
    paths = simulate_states(K3, 1, 64, seed=3, reps=10)
    assert paths.dtype == np.int8
    # 1,000 paths x 1,500 one-byte states, more than the stream's guide
    # (3 x 8,192 entries x 42 B = 1,032,192 B), which the same budget bounds
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 1000 * 1500)
    assert simulate_states(K3, 1, 1499, seed=3, reps=1000).shape == (1000, 1500)
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 1000 * 1500 - 1)
    with pytest.raises(ProductSpaceTooLarge, match="1000 paths x 1500 int8 states"):
        simulate_states(K3, 1, 1499, seed=3, reps=1000)


@pytest.mark.parametrize(
    "starts, refused",
    [
        ([[0, 1], [2, 0]], "flat sequence of states, not of shape \\(2, 2\\)"),
        (["1"], "state indices, not <U1"),
        ([True, False], "state indices, not bool"),
    ],
    ids=["nested", "string", "bool"],
)
def test_path_stream_refuses_starts_that_are_not_flat_state_indices(monkeypatch, starts, refused):
    # Nested starts drew one word per row for every path of the row, so its
    # paths were correlated; a string ended in numpy's UFuncTypeError and
    # True was taken as state 1.  Under a zero byte budget the ValueError
    # shows the starts are checked before anything is allocated.
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 0)
    with pytest.raises(ValueError, match=refused):
        PathStream(K3, starts, seed=0)
    with pytest.raises(ValueError, match=refused):
        simulate_states(K3, starts, 4, seed=0)
    if np.ndim(starts[0]) == 0:
        with pytest.raises(ValueError, match=refused):
            simulate_states(K3, starts[0], 4, seed=0, reps=2)


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "chain, pinned",
    [(pince_nez(8), "a48ee04d3ad9472c"), (toy_kcip(4, 1), "8ceb6efa22ea684a")],
    ids=["pince_nez8", "toy_kcip4"],
)
def test_path_stream_steps_pinned_byte_for_byte(chain, pinned):
    # sha256 prefix of 64 steps of 8 paths from every state, seed 0: the
    # seeded paths stay bit for bit the same whatever the sampler's internals
    k, _ = chain
    stream = PathStream(k, np.arange(k.n_states).repeat(8), seed=0)
    assert _digest(stream.extend(64)) == pinned


def _boundary_words(c: float) -> list[int]:
    # the largest word whose uniform (w >> 11) 2^-53 is not above c, and the
    # next one, where the pick moves past c
    key = (min(math.floor(c * 2.0**53), 2**53 - 1) << 11) | 0x7FF
    return [key, key + 1] if key < 2**64 - 1 else [key]


@st.composite
def _row_draw(draw):
    n = draw(st.integers(1, 24))
    K = np.zeros((n, n))
    for x in range(n):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(support), max_size=len(support))))
        K[x, support] = w / w.sum()
    s = draw(st.integers(0, n - 1))
    # any word, or one at a key of row s's sums or just past it
    cums = np.cumsum(K[s])[np.flatnonzero(K[s])[:-1]]
    near = [w for c in cums for w in _boundary_words(float(c))]
    words = st.integers(0, 2**64 - 1)
    return K, s, draw(words | st.sampled_from(near) if near else words)


# This row's cumsum ends at 0.9999999999999998, below the largest uniform:
# the full-row search with its last column forced to 1.0 drew column 3.
_ZERO_TAIL_ROW = [0.41391896417788415, 0.3947212968057879, 0.19135973901632777, 0.0]
# Sums 0.1, 0.1, 0.30000000000000004: the word at the last sum's key makes
# that sum as its uniform and picks column 2; the next word picks column 3.
_KEY_ROW = np.array([[0.1, 0.0, 0.2, 0.7]] + [[0.25] * 4] * 3)
_KEY_WORDS = _boundary_words(0.1 + 0.2)
# Its second sum, 1.0000000000000002, rounds above 1: no word reaches it.
_ABOVE_ONE_ROW = np.array([[0.5, 0.5000000000000002, 1e-17], [1 / 3] * 3, [0.0, 0.0, 1.0]])


@settings(max_examples=300, deadline=None)
@given(_row_draw())
@example((_KEY_ROW, 0, 0))
@example((_KEY_ROW, 0, 2**64 - 1))
@example((_KEY_ROW, 0, _KEY_WORDS[0]))
@example((_KEY_ROW, 0, _KEY_WORDS[1]))
@example((np.array([_ZERO_TAIL_ROW] + [[0.25] * 4] * 3), 0, 2**64 - 1))
@example((_ABOVE_ONE_ROW, 0, 2**64 - 1))
@example((_ABOVE_ONE_ROW, 0, _boundary_words(0.5)[1]))
def test_sparse_sampler_matches_full_row_search(case):
    K, s, word = case
    words = np.array([word], dtype=np.uint64)
    got = int(RowSampler(StochasticKernel(K)).step(np.array([s]), words)[0])
    assert _guided_step(StochasticKernel(K), np.array([s]), words)[0].tolist() == [got]
    u = (word >> 11) * 2.0**-53  # Generator.random's uniform from this word
    cum = np.cumsum(K, axis=1)[s]
    nonzero = np.flatnonzero(K[s])
    if u == 0.0:
        # the full-row rule picks column 0 whatever its probability
        assert got == nonzero[0]
    elif u <= cum[nonzero[-1]]:
        assert got == int((cum < u).sum())
    else:
        assert got == nonzero[-1]
    assert K[s, got] > 0


def test_sampler_key_words_straddle_the_sum():
    sampler = RowSampler(StochasticKernel(_KEY_ROW))
    words = np.array(_KEY_WORDS, dtype=np.uint64)
    assert sampler.step(np.zeros(2, dtype=np.intp), words).tolist() == [2, 3]


class _Words:
    """Stands in for a stream's bit generator: hands out the given words in order."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, n):
        out, self.words = self.words[:n], self.words[n:]
        return out


def _guided_step(kernel, rows, words, block_of=None):
    """States, and labels given ``block_of``, after one step of paths at ``rows`` on ``words``."""
    stream = PathStream(kernel, rows, seed=0, block_of=block_of)
    stream._bits = _Words(words)
    labels = None if block_of is None else np.empty(rows.size, dtype=block_of.dtype)
    stream.step(labels)
    return stream.states, labels


def _row_keys(row) -> np.ndarray:
    """The search keys of a row's cumulative sums at its nonzeros but the last."""
    cums = np.cumsum(row)[np.flatnonzero(row)[:-1]]
    return np.array([_boundary_words(float(c))[0] for c in cums], dtype=np.uint64)


# Dyadic sums 1/4 and 1/2, whose keys lie just above a bucket's first word;
# a sum rounding below 1; a sum rounding above 1; a single nonzero.
_EDGE_ROWS = np.array(
    [[0.25, 0.25, 0.5, 0.0], _ZERO_TAIL_ROW, [0.5, 0.5000000000000002, 1e-17, 0.0], [0.0, 0.0, 0.0, 1.0]]
)


def _guide_cases():
    pair = expander_pair(64, 8, 1 / np.log(64), seed=3)
    dense = random_reversible_kernel(40, rngmod.stream(8, 0), density=1.0)
    return [
        pytest.param(pince_nez(16)[0], 10, id="pince_nez(16)"),
        pytest.param(toy_kcip(8, 1)[0], 10, id="toy_kcip(8, 1)"),
        pytest.param(pair.kernel, 8, id="expander_pair(64)"),
        pytest.param(dense, 9, id="dense(40)"),
        pytest.param(StochasticKernel(_EDGE_ROWS), 13, id="edge rows"),
        pytest.param(StochasticKernel(np.array([[0.0, 1.0], [1.0, 0.0]])), 14, id="single nonzeros"),
    ]


@pytest.mark.parametrize("kernel, bits", _guide_cases())
def test_guided_steps_match_the_search(kernel, bits):
    # Every row's words k - 1, k and k + 1 at each of its keys k, both
    # edges of every bucket and random words: the guided step picks what
    # the search picks, and its labels are those of the search's states.
    n = kernel.n_states
    drop = 64 - bits
    edges = np.arange(1 << bits, dtype=np.uint64) << np.uint64(drop)
    edges = np.concatenate([edges, edges | np.uint64((1 << drop) - 1)])
    gen = rngmod.stream(1, 2).bit_generator
    rows, words, marked = [], [], np.zeros((n, 1 << bits), dtype=bool)
    for x in range(n):
        keys = _row_keys(kernel.rows[x])
        # keys end in 11 one bits, so k - 1 does not wrap
        near = [keys - np.uint64(1), keys, keys + np.uint64(1)]
        row_words = np.concatenate([*near, edges, gen.random_raw(64)])
        rows.append(np.full(row_words.size, x))
        words.append(row_words)
        # a key below its bucket's last word splits the bucket
        inside = keys[(keys & np.uint64((1 << drop) - 1)) != np.uint64((1 << drop) - 1)]
        marked[x, (inside >> np.uint64(drop)).astype(np.intp)] = True
    rows, words = np.concatenate(rows), np.concatenate(words)
    block_of = (np.arange(n) % 3).astype(np.int8)
    want = RowSampler(kernel).step(rows, words)
    states, labels = _guided_step(kernel, rows, words, block_of)
    assert np.array_equal(states, want)
    assert np.array_equal(labels, block_of[want])
    assert np.array_equal(_guided_step(kernel, rows, words)[0], want)
    got_bits, nxt, _ = RowSampler(kernel).guide()
    assert got_bits == bits
    assert np.array_equal(nxt.reshape(n, -1) < 0, marked)


@pytest.mark.parametrize("seed", [0, 1, 5, 2**40 + 3])
def test_generator_random_is_the_top_53_bits_of_raw_words(seed):
    # the sampler's words pick what these uniforms would
    n = 4099
    words = rngmod.stream(seed, 0).bit_generator.random_raw(n)
    u = rngmod.stream(seed, 0).random(n)
    assert np.array_equal(u, (words >> np.uint64(11)) * 2.0**-53)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.uint32])
def test_sampler_refuses_words_that_are_not_uint64(dtype):
    sampler = RowSampler(K3)
    with pytest.raises(TypeError, match="uint64"):
        sampler.step(np.zeros(3, dtype=np.intp), np.full(3, 0.5).astype(dtype))
    with pytest.raises(TypeError, match="uint64"):
        sampler.transitions(np.zeros(3, dtype=np.intp), np.full(3, 0.5).astype(dtype))


def test_pince_nez_occupation_symmetry():
    # started inside a loop, its expected occupation covers at least half
    # of (T + 1); Monte Carlo mean within 3 standard errors of that floor
    k, part = pince_nez(8)
    T, reps = 10_000, 400
    paths = simulate_states(k, 0, T, seed=12, reps=reps)
    kappa1 = (part.block_of[paths[:, 1:]] == 0).sum(axis=1)
    mean = kappa1.mean()
    se = kappa1.std(ddof=1) / np.sqrt(reps)
    assert mean + 3 * se >= (T + 1) / 2


def test_empirical_hitting_step_cap():
    k, part = pince_nez(8)
    with pytest.raises(HorizonCap):
        empirical_hitting(k, [12], x0=0, reps=50, seed=3, step_cap=2)


def test_occupation_record_counts_must_sum_to_horizon():
    with pytest.raises(AssertionFailed, match="occupation-counts"):
        OccupationRecord(T=3, start=0, kappa=np.array([1, 1]), transitions=np.zeros((2, 2), dtype=np.int64))
