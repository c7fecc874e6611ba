import numpy as np
import pytest

from conftest import random_partition, random_reversible_kernel
from mixdecomp import rng as rngmod
from mixdecomp.chains import pince_nez, torus_metropolis
from mixdecomp.errors import (
    AssertionFailed,
    DimensionMismatch,
    InvalidAlpha,
    ReducibleKernel,
    UnreachableTarget,
)
from mixdecomp.kernel import (
    StationaryDistribution,
    StochasticKernel,
    check_reversible,
    hitting_analysis,
    lazify,
    mixing_profile,
    relaxation_time,
    search_closed_classes,
    stationary_distribution,
    time_reversal,
)
from mixdecomp.kernel import _assert_subgeometric

K3 = StochasticKernel([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])


def test_kernel_validation():
    with pytest.raises(ValueError):
        StochasticKernel([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(DimensionMismatch):
        StochasticKernel([[1.0, 0.0]])
    k = StochasticKernel([[1.0]])
    assert k.n_states == 1 and k.is_irreducible()
    with pytest.raises(ValueError, match="finite"):
        StochasticKernel([[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        StationaryDistribution([np.nan, 1.0])


def test_irreducibility_searched_once_per_kernel(class_searches):
    k = StochasticKernel(K3.rows)
    reducible = StochasticKernel([[1.0, 0.0], [0.5, 0.5]])
    assert k.is_irreducible() and not reducible.is_irreducible()
    assert len(class_searches) == 2
    stationary_distribution(k)
    assert k.is_irreducible() and not reducible.is_irreducible()
    # the reachability check of every hitting analysis reuses the same search
    for target in ([0], [2], [1, 2]):
        hitting_analysis(k, target)
    hitting_analysis(reducible, [0])
    with pytest.raises(UnreachableTarget):
        hitting_analysis(reducible, [1])
    assert len(class_searches) == 2


def test_batch_filled_classes_are_not_searched_again(class_searches):
    k = StochasticKernel(K3.rows)
    reducible = StochasticKernel([[1.0, 0.0], [0.5, 0.5]])
    single = StochasticKernel([[1.0]])
    search_closed_classes([k, reducible, single])
    assert len(class_searches) == 1
    search_closed_classes([single, k])
    mixing_profile(k, stationary_distribution(k), 50)
    hitting_analysis(k, [0], horizon=5)
    hitting_analysis(reducible, [0])
    with pytest.raises(UnreachableTarget):
        hitting_analysis(reducible, [1])
    assert k.is_irreducible() and not reducible.is_irreducible() and single.is_irreducible()
    assert len(class_searches) == 1


def test_stationary_symmetric_two_state():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    pi = stationary_distribution(k)
    assert np.allclose(pi.weights, [0.5, 0.5])


def test_stationary_pince_nez_uniform():
    # doubly stochastic: all column sums are 1
    k, _ = pince_nez(8)
    assert np.allclose(k.rows.sum(axis=0), 1.0)
    pi = stationary_distribution(k)
    assert np.allclose(pi.weights, 1.0 / 16.0)


def test_stationary_three_state():
    pi = stationary_distribution(K3)
    assert np.allclose(pi.weights, [0.25, 0.5, 0.25], atol=1e-12)
    assert np.abs(pi.weights @ K3.rows - pi.weights).sum() <= 1e-8


def test_stationary_rejects_reducible():
    k = StochasticKernel([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ReducibleKernel):
        stationary_distribution(k)


def test_check_reversible_examples():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    ok, resid = check_reversible(k, StationaryDistribution([0.5, 0.5]))
    assert ok and resid == 0.0

    kpn, _ = pince_nez(8)
    assert check_reversible(kpn, stationary_distribution(kpn)).is_reversible

    k2 = StochasticKernel([[0.9, 0.1], [0.5, 0.5]])
    ok, resid = check_reversible(k2, StationaryDistribution([5 / 6, 1 / 6]))
    assert ok and resid <= 1e-12

    with pytest.raises(DimensionMismatch):
        check_reversible(k2, StationaryDistribution([1.0]))


def test_lazify():
    k = StochasticKernel([[0.0, 1.0], [1.0, 0.0]])
    assert lazify(k, 1.0) is k
    half = lazify(k, 0.5)
    assert np.allclose(half.rows, 0.5)
    with pytest.raises(InvalidAlpha):
        lazify(k, 0.0)
    with pytest.raises(InvalidAlpha):
        lazify(k, 1.5)


@pytest.mark.parametrize("seed", range(6))
def test_lazify_preserves_stationary_and_diagonal(seed):
    gen = rngmod.stream(100 + seed, 0)
    k = random_reversible_kernel(7, gen)
    pi = stationary_distribution(k)
    for alpha in (0.25, 0.5, 0.9):
        lz = lazify(k, alpha)
        assert lz.min_diagonal() >= 1.0 - alpha - 1e-12
        pi2 = stationary_distribution(lz)
        assert np.abs(pi.weights - pi2.weights).max() <= 1e-9
        assert check_reversible(lz, pi2).is_reversible


def test_mixing_profile_one_step():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    prof = mixing_profile(k, stationary_distribution(k), horizon=10)
    assert prof.mixing_time == 1
    assert prof.distances[1] <= 1e-15
    assert prof.distances[0] == pytest.approx(0.5)


@pytest.mark.parametrize("seed", range(20))
def test_mixing_profile_monotone(seed):
    gen = rngmod.stream(200 + seed, 0)
    n = int(gen.integers(3, 13))
    k = random_reversible_kernel(n, gen)
    pi = stationary_distribution(k)
    prof = mixing_profile(k, pi, horizon=400)
    diffs = np.diff(prof.distances)
    assert (diffs <= 1e-12).all()
    assert prof.distances[0] == pytest.approx(1.0 - pi.weights.min(), abs=1e-12)
    # epsilon crossing times are nonincreasing in epsilon
    times = [prof.epsilon_times[e] for e in sorted(prof.epsilon_times) if prof.epsilon_times[e]]
    assert times == sorted(times, reverse=True)


def test_profile_matches_time_reversal():
    gen = rngmod.stream(7, 0)
    k = random_reversible_kernel(8, gen)
    pi = stationary_distribution(k)
    rev = time_reversal(k, pi)
    p1 = mixing_profile(k, pi, horizon=200)
    p2 = mixing_profile(rev, pi, horizon=200)
    assert np.allclose(p1.distances, p2.distances, atol=1e-10)


def test_relaxation_time_rank_one():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    assert relaxation_time(k, stationary_distribution(k)) == pytest.approx(1.0)


def test_relaxation_time_sanity_band_pince_nez():
    # provable two-sided relation: (trel - 1) log 2 <= tau <= trel log(4 / min pi)
    k, _ = pince_nez(8)
    pi = stationary_distribution(k)
    trel = relaxation_time(k, pi)
    prof = mixing_profile(k, pi, horizon=5000)
    tau = prof.mixing_time
    assert (trel - 1.0) * np.log(2) <= tau
    assert tau <= trel * np.log(4.0 / pi.weights.min())


def test_hitting_analysis_examples():
    table = hitting_analysis(K3, [0], horizon=60)
    # harmonic system: h1 = 1 + h1/2 + h2/4, h2 = 1 + h1/2 + h2/2
    assert table.expected[0] == 0.0
    assert table.expected[1] == pytest.approx(6.0, abs=1e-9)
    assert table.expected[2] == pytest.approx(8.0, abs=1e-9)
    assert table.residual <= 1e-8
    # tails: start inside the target
    assert table.tail[0, 0] == 0.0 and table.tail[0, 1] == 1.0


def test_hitting_unreachable():
    k = StochasticKernel([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(UnreachableTarget):
        hitting_analysis(k, [1])


@pytest.mark.parametrize("seed", range(10))
def test_hitting_submultiplicative_tails(seed):
    gen = rngmod.stream(300 + seed, 0)
    n = int(gen.integers(4, 12))
    k = random_reversible_kernel(n, gen, half_lazy=True)
    A = [int(gen.integers(n))]
    table = hitting_analysis(k, A, horizon=64)  # internal assertion runs
    worst = table.tail.max(axis=1)
    for t in (2, 5, 9):
        for kk in (2, 3, 4, 5):
            if kk * t < len(worst):
                assert worst[kk * t] <= worst[t] ** kk + 1e-12


def test_subgeometric_violation_raises_typed_error():
    # worst tail 0.9 at t = 2 exceeds 0.9 ** 2 from t = 1
    with pytest.raises(AssertionFailed, match="submultiplicativity"):
        _assert_subgeometric(np.array([[1.0], [0.9], [0.9]]))


@pytest.mark.parametrize("seed", range(10))
def test_half_lazification_doubles_hitting(seed):
    # exact identity: the half-lazy chain needs twice the expected time,
    # so the ordering E <= E' holds with E' - 8 E <= 0 <= 10 on the ensemble
    gen = rngmod.stream(400 + seed, 0)
    n = int(gen.integers(3, 10))
    k = random_reversible_kernel(n, gen)
    lz = lazify(k, 0.5)
    A = [0]
    e = hitting_analysis(k, A).expected
    e2 = hitting_analysis(lz, A).expected
    assert (e <= e2 + 1e-12).all()
    assert np.allclose(e2, 2.0 * e, atol=1e-8)
    assert (e2 - 8.0 * e).max() <= 10.0


def test_subgeometric_scaled_tail_bound():
    # worst-start tails past e * k * (max expected) decay at least like e^{-k}
    gen = rngmod.stream(11, 0)
    for _ in range(5):
        n = int(gen.integers(4, 10))
        k = random_reversible_kernel(n, gen, half_lazy=True)
        A = [int(gen.integers(n))]
        table = hitting_analysis(k, A)
        emax = table.expected.max()
        horizon = int(np.ceil(np.e * 4 * emax)) + 1
        table = hitting_analysis(k, A, horizon=horizon)
        worst = table.tail.max(axis=1)
        for kk in range(1, 5):
            t = int(np.ceil(np.e * kk * emax))
            if t < len(worst):
                assert worst[t] <= np.exp(-kk) + 1e-12


def test_hitting_residual_is_relative_to_the_solution():
    # max h is about 5e10, so an absolute 1e-8 residual bound is round-off
    table = hitting_analysis(torus_metropolis(4, 3, 7).kernel, [0])
    assert table.residual > 1e-8
    assert table.residual <= 1e-8 * (1.0 + max(table.expected))
