import math

import numpy as np
import pytest

from mixdecomp import rng as rngmod
from mixdecomp.bounds import PeresSousiConstants
from mixdecomp.chains import pince_nez
from mixdecomp.decomposition import Partition, block_mixing_times, projected_kernel
from mixdecomp.errors import HorizonCap, InvalidComparison, NotTreeWalk, TooManyBlocks
from mixdecomp.kernel import StochasticKernel, stationary_distribution
from mixdecomp.simulate import simulate_states
from mixdecomp.wellcovering import (
    WellCoveringCertificate,
    WellCoveringQuery,
    bootstrap_mixing_bound,
    compare_wc,
    concentration_audit,
    feasibility_oracle,
    oracle_wc_time,
    propagation_bound,
    tree_bound,
)

Q2 = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
Q3_PATH = StochasticKernel([[0.75, 0.25, 0.0], [0.25, 0.5, 0.25], [0.0, 0.25, 0.75]])


def path_kernel(n: int) -> StochasticKernel:
    # canonical lazy walk on the n-path: off-diagonal 1/(2*Delta) with Delta = 2
    delta = 1 if n == 2 else 2
    K = np.zeros((n, n))
    for i in range(n - 1):
        K[i, i + 1] = K[i + 1, i] = 1.0 / (2 * delta)
    np.fill_diagonal(K, 1.0 - K.sum(axis=1))
    return StochasticKernel(K)


def test_oracle_single_block():
    q = WellCoveringQuery(StochasticKernel([[1.0]]), np.array([5.0]), 1.0)
    assert not feasibility_oracle(q, T=5).covered
    assert feasibility_oracle(q, T=6).covered
    assert oracle_wc_time(q).value == 6.0


def test_oracle_violations_vanish_for_large_T():
    q = WellCoveringQuery(Q2, np.array([2.0, 2.0]), 1.0)
    small = feasibility_oracle(q, T=4)
    assert not small.covered and small.witnesses
    big = feasibility_oracle(q, T=4096)
    assert big.covered
    assert big.grid_tolerance == pytest.approx(2.0 / 64.0)


def test_oracle_rejects_many_blocks():
    q = WellCoveringQuery(StochasticKernel(np.full((4, 4), 0.25)), np.ones(4), 1.0)
    with pytest.raises(TooManyBlocks):
        feasibility_oracle(q, T=10)


def test_tree_bound_path_four():
    q = path_kernel(4)
    cert = tree_bound(q, phi=1.0, B=1.0)
    assert cert.value == 4 * max(1000 * 4 * 1 * 9, 4)  # 144000
    assert cert.method == "tree"


def test_tree_bound_phi_dominant():
    q = path_kernel(2)
    cert = tree_bound(q, phi=1e6, B=0.01)
    assert cert.value == 2 * 4e6


def test_tree_bound_validates_structure():
    with pytest.raises(NotTreeWalk):
        tree_bound(StochasticKernel([[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.2, 0.6]]), 1.0, 1.0)
    # a 3-cycle has n edges, not n - 1
    cyc = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    with pytest.raises(NotTreeWalk):
        tree_bound(StochasticKernel(cyc), 1.0, 1.0)


@pytest.mark.parametrize("n,phi,B", [(2, 5.0, 1.0), (3, 5.0, 1.0), (3, 20.0, 2.0)])
def test_soundness_ordering_oracle_tree_propagation(n, phi, B):
    q = path_kernel(n)
    query = WellCoveringQuery(q, np.full(n, phi), B)
    oracle = oracle_wc_time(query, 64)
    tree = tree_bound(q, phi, B)
    prop = propagation_bound(query)
    assert oracle.value <= prop.value
    assert oracle.value <= tree.value


def test_propagation_single_block():
    q = WellCoveringQuery(StochasticKernel([[1.0]]), np.array([7.0]), 1.0)
    assert propagation_bound(q).value == 8.0  # t1 + 1


@pytest.mark.parametrize("n", [3, 5, 8])
def test_propagation_within_twice_tree_on_paths(n):
    q = path_kernel(n)
    for phi, B in ((5.0, 1.0), (50.0, 2.0)):
        tree = tree_bound(q, phi, B)
        prop = propagation_bound(WellCoveringQuery(q, np.full(n, phi), B))
        assert prop.value <= 2.0 * tree.value


def test_oracle_monotone_in_thresholds_and_B():
    base = oracle_wc_time(WellCoveringQuery(Q2, np.array([4.0, 4.0]), 1.0)).value
    bigger_t = oracle_wc_time(WellCoveringQuery(Q2, np.array([9.0, 9.0]), 1.0)).value
    bigger_B = oracle_wc_time(WellCoveringQuery(Q2, np.array([4.0, 4.0]), 2.0)).value
    assert bigger_t >= base and bigger_B >= base


def test_oracle_threshold_scaling():
    v1 = oracle_wc_time(WellCoveringQuery(Q2, np.array([4.0, 4.0]), 1.0), 64).value
    v3 = oracle_wc_time(WellCoveringQuery(Q2, np.array([12.0, 12.0]), 1.0), 64).value
    tol = 2.0 / 64.0
    assert v3 <= 3.0 * v1 * (1.0 + tol) + 1.0


def test_compare_wc_factors():
    cert = WellCoveringCertificate(
        value=100.0, method="oracle", thresholds=(4.0, 4.0), B=1.0, kernel=Q2
    )
    same = compare_wc(cert, "monotone", target=Q2)
    assert same.value == 900.0  # lemma factor applies even for equal kernels
    lazy = compare_wc(cert, "lazify", alpha=0.5)
    assert lazy.value == 400.0
    assert np.allclose(lazy.kernel.rows, [[0.75, 0.25], [0.25, 0.75]])
    scaled = compare_wc(cert, "scale_thresholds", alpha=3.0)
    assert scaled.value == 300.0 and scaled.thresholds == (12.0, 12.0)
    scaledB = compare_wc(cert, "scale_B", alpha=3.0)
    assert scaledB.value == 900.0 and scaledB.B == 3.0
    assert len(scaledB.provenance) == 1


def test_compare_wc_validates():
    cert = WellCoveringCertificate(100.0, "oracle", (4.0, 4.0), 1.0, kernel=Q2)
    worse = StochasticKernel([[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(InvalidComparison):
        compare_wc(cert, "monotone", target=worse)  # target does not dominate
    with pytest.raises(InvalidComparison):
        compare_wc(cert, "scale_thresholds", alpha=0.5)
    not_lazy = WellCoveringCertificate(
        100.0, "oracle", (4.0,) * 2, 1.0, kernel=StochasticKernel([[0.3, 0.7], [0.7, 0.3]])
    )
    with pytest.raises(InvalidComparison):
        compare_wc(not_lazy, "lazify", alpha=0.5)
    # differing stationary measures
    skewed = WellCoveringCertificate(
        100.0, "oracle", (4.0,) * 2, 1.0, kernel=StochasticKernel([[0.6, 0.4], [0.1, 0.9]])
    )
    with pytest.raises(InvalidComparison):
        compare_wc(skewed, "monotone", target=StochasticKernel([[0.6, 0.4], [0.4, 0.6]]))


def test_bootstrap_single_block_constant_multiple_of_phi():
    k = StochasticKernel([[0.6, 0.4], [0.4, 0.6]])
    pi = stationary_distribution(k)
    part = Partition.single_block(2)

    def provider(thresholds, B):
        q = WellCoveringQuery(StochasticKernel([[1.0]]), thresholds, B)
        return oracle_wc_time(q).value

    res = bootstrap_mixing_bound(
        k, pi, part, I=[0], alpha=1.0 / 3.0, beta=0.75, wc_provider=provider,
        constants=PeresSousiConstants(),
    )
    phi1 = res.ingredients["phi"][0]
    assert res.value <= 40.0 * max(phi1, 1.0)


def test_bootstrap_pince_nez_oracle_provider():
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    proj = projected_kernel(k, pi, part)

    def provider(thresholds, B):
        return oracle_wc_time(WellCoveringQuery(proj, thresholds, B), 64).value

    res = bootstrap_mixing_bound(
        k, pi, part, I=[0, 1], alpha=1.0 / 3.0, beta=0.75,
        wc_provider=provider, constants=PeresSousiConstants(),
    )
    assert res.feasible and math.isfinite(res.value)
    from mixdecomp.bounds import exact_mixing_time

    assert res.value >= exact_mixing_time(k, pi)  # loose even uncalibrated


def test_bootstrap_monotone_in_phi_and_n():
    def provider(thresholds, B):
        n = len(thresholds)
        kern = StochasticKernel(np.full((n, n), 1.0 / n)) if n > 1 else StochasticKernel([[1.0]])
        return propagation_bound(WellCoveringQuery(kern, np.asarray(thresholds), B)).value

    k, part = pince_nez(6)
    pi = stationary_distribution(k)
    cons = PeresSousiConstants()
    lo = bootstrap_mixing_bound(k, pi, part, [0, 1], 1 / 3, 0.75, provider, cons, phi=[5.0, 5.0])
    hi = bootstrap_mixing_bound(k, pi, part, [0, 1], 1 / 3, 0.75, provider, cons, phi=[9.0, 9.0])
    assert hi.value >= lo.value


def test_local_to_global_spreading_on_pince_nez():
    # above a certified covering horizon, the chance that no block reaches a
    # B-multiple of its mixing time is small
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    phis, _, _ = block_mixing_times(k, pi, part, horizon=4000)
    phi = np.array([float(p) for p in phis])
    proj = projected_kernel(k, pi, part)
    B_occ = 4.0
    eps = 0.2
    T = 64
    while True:
        B_conc = math.sqrt(8.0 * phi.max() * math.log(8 * 4 * T / eps))
        wc = oracle_wc_time(WellCoveringQuery(proj, B_occ * phi, B_conc), 64).value
        if T > wc:
            break
        T *= 2
    reps = 4000
    paths = simulate_states(k, 0, T, seed=77, reps=reps)
    lab = part.block_of[paths]
    bad = np.ones(reps, dtype=bool)
    for i in range(2):
        bad &= (lab[:, 1:] == i).sum(axis=1) / phi[i] < B_occ
    freq = bad.mean()
    se = math.sqrt(max(freq * (1 - freq), 1.0 / reps) / reps)
    assert freq <= eps + 3.0 * se


def test_concentration_audit_trivial_threshold():
    k, part = pince_nez(6)
    pi = stationary_distribution(k)
    rows = concentration_audit(
        k, pi, part, 0, 1, t_grid=(50,), c_grid=(5.0,), reps=1000, seed=0, phi_max=8.0
    )
    # a huge deviation threshold is never exceeded; the point estimate sits
    # below the bound even though Wilson slack cannot certify a 1e-9 bound
    assert all(r.empirical == 0.0 for r in rows)
    assert all(r.empirical <= r.bound for r in rows)
    assert {r.orientation for r in rows} == {"ij", "ji"}


def test_concentration_audit_step_cap_is_typed():
    # state 0 is left once in 1e9 steps: started there, no replica reaches
    # 100 visits to block 1 within the audit's step cap
    k = StochasticKernel([[1 - 1e-9, 1e-9], [0.5, 0.5]])
    part = Partition(np.array([0, 1]), 2)
    pi = stationary_distribution(k)
    with pytest.raises(HorizonCap, match="within"):
        concentration_audit(
            k, pi, part, 0, 1, t_grid=(100,), c_grid=(0.1,), reps=1000, seed=0, phi_max=1.0
        )


def test_certificate_json_provenance_chain():
    cert = WellCoveringCertificate(100.0, "oracle", (4.0, 4.0), 1.0, kernel=Q2)
    chained = compare_wc(compare_wc(cert, "scale_thresholds", alpha=2.0), "scale_B", alpha=2.0)
    d = chained.to_dict()
    assert d["value"] == 800.0
    assert len(d["provenance"]) == 2
