import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_reversible_kernel
from mixdecomp import rng as rngmod
from mixdecomp import suites, wellcovering
from mixdecomp.bounds import PeresSousiConstants, exact_mixing_time, least_horizon
from mixdecomp.chains import pince_nez, toy_kcip
from mixdecomp.decomposition import Partition, block_mixing_times, projected_kernel
from mixdecomp.errors import (
    HorizonCap,
    InvalidComparison,
    NotTreeWalk,
    ProductSpaceTooLarge,
    TooManyBlocks,
)
from mixdecomp.kernel import StochasticKernel, stationary_distribution
from mixdecomp.simulate import RowSampler, simulate_states
from mixdecomp.wellcovering import (
    WellCoveringCertificate,
    WellCoveringQuery,
    bootstrap_mixing_bound,
    compare_wc,
    concentration_audit,
    feasibility_oracle,
    oracle_wc_time,
    propagation_bound,
    propagation_covers,
    tree_bound,
)
from oracles import (
    feasibility_oracle_reference,
    interval_transport_feasible,
    nested_bootstrap_horizon,
    sequential_concentration_audit,
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
    oracle = oracle_wc_time(query)
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
    v1 = oracle_wc_time(WellCoveringQuery(Q2, np.array([4.0, 4.0]), 1.0)).value
    v3 = oracle_wc_time(WellCoveringQuery(Q2, np.array([12.0, 12.0]), 1.0)).value
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


def oracle_predicate(kernel: StochasticKernel):
    def covers(thresholds, B, T):
        return feasibility_oracle(WellCoveringQuery(kernel, thresholds, B), T).covered

    return covers


def propagation_predicate(kernel: StochasticKernel):
    def covers(thresholds, B, T):
        return propagation_covers(WellCoveringQuery(kernel, thresholds, B), T)

    return covers


def test_bootstrap_single_block_constant_multiple_of_phi():
    k = StochasticKernel([[0.6, 0.4], [0.4, 0.6]])
    pi = stationary_distribution(k)
    part = Partition.single_block(2)
    res = bootstrap_mixing_bound(
        k, pi, part, I=[0], alpha=1.0 / 3.0, beta=0.75,
        covers=oracle_predicate(StochasticKernel([[1.0]])), constants=PeresSousiConstants(),
    )
    phi1 = res.ingredients["phi"][0]
    assert res.value <= 40.0 * max(phi1, 1.0)


def test_bootstrap_pince_nez_oracle_provider():
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    proj = projected_kernel(k, pi, part)
    res = bootstrap_mixing_bound(
        k, pi, part, I=[0, 1], alpha=1.0 / 3.0, beta=0.75,
        covers=oracle_predicate(proj), constants=PeresSousiConstants(),
    )
    assert res.feasible and math.isfinite(res.value)
    assert res.value >= exact_mixing_time(k, pi)  # loose even uncalibrated


def test_bootstrap_monotone_in_phi_and_n():
    def covers(thresholds, B, T):
        n = len(thresholds)
        kern = StochasticKernel(np.full((n, n), 1.0 / n)) if n > 1 else StochasticKernel([[1.0]])
        return propagation_covers(WellCoveringQuery(kern, np.asarray(thresholds), B), T)

    k, part = pince_nez(6)
    pi = stationary_distribution(k)
    cons = PeresSousiConstants()
    lo = bootstrap_mixing_bound(k, pi, part, [0, 1], 1 / 3, 0.75, covers, cons, phi=[5.0, 5.0])
    hi = bootstrap_mixing_bound(k, pi, part, [0, 1], 1 / 3, 0.75, covers, cons, phi=[9.0, 9.0])
    assert hi.value >= lo.value


@pytest.mark.parametrize(
    "chain,I,covering",
    [
        (pince_nez(8), [0, 1], "oracle"),
        (toy_kcip(8, 1), [0, 1, 2], "propagation"),
    ],
    ids=["pince_nez8-oracle", "toy_kcip8-propagation"],
)
def test_bootstrap_matches_nested_covering_search(chain, I, covering):
    k, part = chain
    pi = stationary_distribution(k)
    proj = projected_kernel(k, pi, part)
    phis, _, _ = block_mixing_times(k, pi, part, horizon=10**6)
    phi = [float(p) for p in phis]
    cons = PeresSousiConstants()
    if covering == "oracle":
        covers = oracle_predicate(proj)
        wc_time = lambda t, B: oracle_wc_time(WellCoveringQuery(proj, t, B)).value
    else:
        covers = propagation_predicate(proj)
        wc_time = lambda t, B: propagation_bound(WellCoveringQuery(proj, t, B)).value
    res = bootstrap_mixing_bound(k, pi, part, I, 1 / 3, 0.75, covers, cons, phi=phi)
    T, value = nested_bootstrap_horizon(part.n_blocks, I, phi, wc_time, cons)
    assert (res.ingredients["T"], res.value) == (T, value)


def test_oracle_threshold_guard():
    # at T <= max t_i some share t_i / T is at least 1, which no occupation
    # clears; with so small a B the LPs alone would call T = 8 and 9 covered
    q = WellCoveringQuery(StochasticKernel([[0.6, 0.4], [0.3, 0.7]]), np.array([0.0, 9.5]), 0.01)
    for T in (1, 5, 9):
        out = feasibility_oracle(q, T)
        assert not out.covered and out.witnesses == () and out.T == T
    assert oracle_wc_time(q).value > 9.5


@pytest.mark.parametrize(
    "thresholds, B",
    [([np.nan, np.nan], 1.0), ([np.inf, 1.0], 1.0), ([1.0, 1.0], np.nan), ([1.0, 1.0], np.inf)],
)
def test_query_rejects_non_finite(thresholds, B):
    # NaN fails every comparison: NaN thresholds passed the sign check, and
    # the oracle then kept no grid point and called every horizon covered
    with pytest.raises(ValueError, match="finite"):
        WellCoveringQuery(Q2, np.array(thresholds), B)


@st.composite
def _oracle_case(draw):
    """A 1-3 block query and a horizon T; the first share may be a grid point
    up to rounding."""
    n = draw(st.integers(1, 3))
    gen = rngmod.stream(draw(st.integers(0, 2**31)), 0)
    q = random_reversible_kernel(n, gen)
    T = int(2 ** draw(st.floats(1.0, 20.0)))
    shares = draw(st.lists(st.floats(0.0, 0.6), min_size=n, max_size=n))
    if draw(st.booleans()):
        k = draw(st.integers(1, 63))
        shares[0] = k / 64 * (1.0 - draw(st.sampled_from([0, 1, 2, 16])) * 2.0**-52)
    query = WellCoveringQuery(q, np.asarray(shares) * T, draw(st.floats(0.1, 3.0)))
    return query, T, gen


@settings(max_examples=40, deadline=None)
@given(case=_oracle_case())
def test_cut_test_matches_lp_reference(case):
    # Hoffman's cut test and the HiGHS interval-transportation LP decide
    # every grid point alike, so the oracle's outcome, witnesses included,
    # is the reference's
    query, T, gen = case
    grid = wellcovering._kappa_grid(query.n)
    points = grid[np.sort(gen.choice(len(grid), size=min(len(grid), 65), replace=False))]
    Q = query.q.rows
    decided = wellcovering._plausible(points, Q, query.B, T)
    assert decided.tolist() == [interval_transport_feasible(k, Q, query.B, T) for k in points]
    assert feasibility_oracle(query, T) == feasibility_oracle_reference(query, T)


def test_oracle_keeps_a_share_on_a_grid_point_up_to_rounding():
    # the calibrated table's threshold 443.99999999999915 at T = 28,416 puts
    # the share a few ulps below the grid point 1/64; the grid filter keeps it
    q = WellCoveringQuery(
        StochasticKernel([[0.99, 0.01], [0.01, 0.99]]), np.full(2, 443.99999999999915), 68.4
    )
    out = feasibility_oracle(q, 28416)
    assert out.witnesses == ((1 / 64, 63 / 64), (63 / 64, 1 / 64))
    assert out == feasibility_oracle_reference(q, 28416)


def test_cut_test_rejects_points_only_the_lp_rejects():
    # the reference's LP, not its row, column and total checks, rules these
    # points out: a cut holding rows and columns together
    q = random_reversible_kernel(3, rngmod.stream(0, 0))
    points = np.array([[2, 6, 56], [2, 57, 5], [2, 58, 4], [3, 57, 4], [56, 5, 3]]) / 64
    assert not wellcovering._plausible(points, q.rows, 2.0, 10).any()
    assert not any(interval_transport_feasible(k, q.rows, 2.0, 10) for k in points)


@st.composite
def _covering_case(draw, max_blocks: int):
    n = draw(st.integers(2, max_blocks))
    q = random_reversible_kernel(n, rngmod.stream(draw(st.integers(0, 2**31)), 0))
    thresholds = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.5, 30.0)), min_size=n, max_size=n
        )
    )
    B = draw(st.floats(0.1, 3.0))
    return WellCoveringQuery(q, np.asarray(thresholds), B)


def _check_equivalence_and_monotonicity(query, covered, wc_time, data):
    # T > wc_time  <=>  T >= 3 and covered(T - 1), at the boundary and off it
    value = int(wc_time)
    drawn = data.draw(st.integers(1, 2 * value + 4))
    for T in sorted({1, 2, 3, value - 1, value, value + 1, value + 2, drawn} - {0}):
        assert (T > value) == (T >= 3 and covered(T - 1)), T
    # covering, once reached, persists for every larger horizon
    T1 = data.draw(st.integers(1, 4 * value + 8))
    T2 = data.draw(st.integers(T1, 8 * value + 16))
    assert not covered(T1) or covered(T2)


@settings(max_examples=30, deadline=None)
@given(query=_covering_case(3), data=st.data())
def test_oracle_predicate_matches_covering_time(query, data):
    _check_equivalence_and_monotonicity(
        query,
        lambda T: feasibility_oracle(query, T).covered,
        oracle_wc_time(query).value,
        data,
    )


@settings(max_examples=60, deadline=None)
@given(query=_covering_case(6), data=st.data())
def test_propagation_predicate_matches_covering_time(query, data):
    _check_equivalence_and_monotonicity(
        query,
        lambda T: propagation_covers(query, T),
        propagation_bound(query).value,
        data,
    )


_SEED0_TABLE = [
    ("pince_nez_m16", "basic_occupation", 3813.9999999999923, 181),
    ("pince_nez_m16", "basic_joint_occupation", 3337.999999999993, 181),
    ("pince_nez_m16", "regular_escape", 26590.234881768763, 181),
    ("pince_nez_m16", "regular_via_graph_hit", 108526.87427589574, 181),
    ("pince_nez_m16", "bootstrap_well_covering", 56835.99999999988, 181),
    ("pince_nez_m16", "contraction_coupling", 1.414304754690834e37, 181),
    ("toy_kcip_m8", "basic_occupation", 12175.999999999976, 723),
    ("toy_kcip_m8", "basic_joint_occupation", 12811.999999999975, 723),
    ("toy_kcip_m8", "regular_escape", 830921.4463379149, 723),
    ("toy_kcip_m8", "regular_via_graph_hit", 37938812317.58301, 723),
    ("toy_kcip_m8", "bootstrap_well_covering", 5140547464063.989, 723),
    ("toy_kcip_m8", "drift_sublevel", 474355.80952380947, 723),
]


# tail_provenance of the occupation rows per chain of the seed-0 table: how
# far each chain's shared Monte Carlo provider simulated
_SEED0_TAIL_PROVENANCE = [
    [
        "mc(reps=200,seed=21,level=0.99/query,T_sim=1920)",
        "min-marginal(mc(reps=200,seed=21,level=0.99/query,T_sim=1920))",
        None,
    ],
    [
        "mc(reps=200,seed=21,level=0.99/query,T_sim=6144)",
        "min-marginal(mc(reps=200,seed=21,level=0.99/query,T_sim=6656))",
        None,
    ],
]


def test_calibrated_table_bootstrap_pinned_one_probe_each(monkeypatch):
    probes = []  # [T, covering calls made while probing T]
    provenance = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            if probes:
                probes[-1][1] += 1
            return fn(*args, **kwargs)

        return wrapped

    def least_horizon_counted(feasible, T_start, T_horizon):
        def probe(T):
            probes.append([T, 0])
            return feasible(T)

        return least_horizon(probe, T_start, T_horizon)

    monkeypatch.setattr(wellcovering, "least_horizon", least_horizon_counted)
    monkeypatch.setattr(suites, "feasibility_oracle", counting(feasibility_oracle))
    monkeypatch.setattr(suites, "propagation_covers", counting(propagation_covers))

    def occupation_kept(*args, _inner=suites.occupation_bounds, **kwargs):
        results = _inner(*args, **kwargs)
        provenance.append([r.ingredients.get("tail_provenance") for r in results])
        return results

    monkeypatch.setattr(suites, "occupation_bounds", occupation_kept)
    rows, constants = suites.calibrated_bound_table(seed=0)
    # every seeded row: a change to sampling, label storage, occupation
    # counting or the searches must reproduce them bit for bit
    assert constants.c_alpha == constants.c_alpha_prime == 1.4999999999999971
    assert [(r.chain, r.bound, r.value, r.tau_exact) for r in rows] == _SEED0_TABLE
    # and simulate no further: the searches ask the same horizons
    assert provenance == _SEED0_TAIL_PROVENANCE
    # the search opens at T = 2, which no covering time can be below
    assert probes and all(calls == (T >= 3) for T, calls in probes)


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
        # T exceeds the oracle's covering time exactly when T - 1 is covered
        if feasibility_oracle(WellCoveringQuery(proj, B_occ * phi, B_conc), T - 1).covered:
            break
        T *= 2
    reps = 4000
    paths = simulate_states(k, np.full(reps, 0), T, seed=77)
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


def _sticky_pair():
    # state 0 is left once in 1e9 steps, so started there no replica
    # reaches block 1 within any audit step cap
    k = StochasticKernel([[1 - 1e-9, 1e-9], [0.5, 0.5]])
    part = Partition(np.array([0, 1]), 2)
    return k, stationary_distribution(k), part


def test_concentration_audit_step_cap_is_typed():
    k, pi, part = _sticky_pair()
    with pytest.raises(HorizonCap, match="within"):
        concentration_audit(
            k, pi, part, 0, 1, t_grid=(100,), c_grid=(0.1,), reps=1000, seed=0, phi_max=1.0
        )


@pytest.mark.parametrize(
    "chain, blocks, t_grid",
    [
        (pince_nez(6), (0, 1), (0, 1, 12, 40, 12)),
        (toy_kcip(4, 1), (0, 1), (0, 1, 12, 40, 12)),
        # 8 blocks of 3 states, clocked by block 3 and then block 1; every
        # run on this grid finishes
        (toy_kcip(8, 1), (3, 1), (3, 8, 3)),
        # descending, mixed t: the pairs share 39, 2 and 11 steps, so the
        # shared steps take the pairs in another order than t_grid's
        (pince_nez(6), (0, 1), (40, 3, 12)),
    ],
    ids=["pince_nez6", "toy_kcip4", "toy_kcip8", "pince_nez6_descending"],
)
def test_concentration_audit_matches_sequential_runs(chain, blocks, t_grid):
    # one batched loop over all (orientation, t) runs, each on its own
    # stream, gives exactly the rows of running them one after another
    k, part = chain
    pi = stationary_distribution(k)
    args = (k, pi, part, *blocks)
    kwargs = dict(t_grid=t_grid, c_grid=(0.05, 0.2), reps=1000, seed=5, phi_max=3.0)
    rows = concentration_audit(*args, **kwargs)
    assert rows == sequential_concentration_audit(*args, **kwargs)
    assert len(rows) == 2 * len(t_grid) * 2


@pytest.mark.parametrize(
    "chain, pinned",
    [(pince_nez(6), "c08d306803bd23e2"), (toy_kcip(4, 1), "56826f41f0defa0c")],
    ids=["pince_nez6", "toy_kcip4"],
)
def test_transition_ratio_samples_pinned_byte_for_byte(chain, pinned):
    # sha256 prefix of every run's per-replica ratios (float64 bytes), seed 5:
    # the audit's seeded samples stay bit for bit the same
    k, part = chain
    samples = wellcovering._transition_ratio_samples(k, part, 0, 1, (0, 1, 12, 40, 12), 300, 5)
    h = hashlib.sha256()
    for run in samples:
        h.update(run.tobytes())
    assert h.hexdigest()[:16] == pinned


def test_concentration_audit_matches_sequential_cap_on_many_blocks():
    # on (2, 5) the "ij" runs, clocked by block 2, finish; the "ji" run at
    # t = 1, clocked by block 5 (1.6% of the mass), reaches its cap first
    k, part = toy_kcip(8, 1)
    pi = stationary_distribution(k)
    args = (k, pi, part, 2, 5, (1, 2), (0.1,), 1000, 5, 3.0)
    with pytest.raises(HorizonCap) as batched:
        concentration_audit(*args)
    with pytest.raises(HorizonCap) as sequential:
        sequential_concentration_audit(*args)
    assert str(batched.value) == str(sequential.value)
    assert "visits to block 5 within 9600 steps" in str(batched.value)


def test_concentration_audit_names_first_failing_run():
    # both "ji" runs fail; t = 1 hits its cap (800 steps) long before t = 3
    # (1,600), yet t = 3 comes first in (orientation, t) order and is named
    k, pi, part = _sticky_pair()
    args = (k, pi, part, 0, 1, (3, 1), (0.1,), 1000, 0, 1.0)
    with pytest.raises(HorizonCap) as batched:
        concentration_audit(*args)
    with pytest.raises(HorizonCap) as sequential:
        sequential_concentration_audit(*args)
    assert str(batched.value) == str(sequential.value)
    assert str(batched.value) == (
        "1000 of 1000 audit replicates did not reach 3 visits to block 1 within 1600 steps"
    )


def test_concentration_audit_steps_each_pairs_shared_prefix_once(monkeypatch):
    # At t = 5 and t = 9 no replica finishes before its 5th or 9th step, so
    # each pair of orientations is stepped once for 4 and 8 steps: both
    # pairs for 4 steps, then the t = 9 pair alone for 4, then all 4 runs.
    k, part = pince_nez(6)
    pi = stationary_distribution(k)
    rows = []
    transitions = RowSampler.transitions

    def counted(self, states, words):
        rows.append(states.size)
        return transitions(self, states, words)

    monkeypatch.setattr(RowSampler, "transitions", counted)
    args = (k, pi, part, 0, 1, (5, 9), (0.1,), 1000, 0, 1.0)
    batched = concentration_audit(*args)
    assert rows[:9] == [2000] * 4 + [1000] * 4 + [4000]
    monkeypatch.setattr(RowSampler, "transitions", transitions)
    assert batched == sequential_concentration_audit(*args)


@pytest.mark.parametrize(
    "blocks, t_grid, phi_max, named",
    [
        ((0, 1), (-1,), 1.0, "t_grid entry -1 "),
        ((0, 1), (5, 2.5), 1.0, "t_grid entry 2.5 "),
        ((0, 1), (True,), 1.0, "t_grid entry True "),
        ((0, 2), (5,), 1.0, "block j = 2 is not one of 0..1"),
        ((-1, 1), (5,), 1.0, "block i = -1 is not one of 0..1"),
        ((0.0, 1), (5,), 1.0, "block i = 0.0 is not one of 0..1"),
        ((0, 1), (5,), 0.0, "phi_max must be > 0, not 0.0"),
        ((0, 1), (5,), -2.0, "phi_max must be > 0, not -2.0"),
        ((0, 1), (5,), math.nan, "phi_max must be > 0, not nan"),
    ],
    ids=["t_negative", "t_fraction", "t_bool", "j_outside", "i_negative", "i_float",
         "phi_zero", "phi_negative", "phi_nan"],
)
def test_concentration_audit_refuses_bad_inputs_before_allocating(
    monkeypatch, blocks, t_grid, phi_max, named
):
    # blocks (0, 2) on the 2-block pince_nez(4) would step the whole cap of
    # 2,566,400 steps before failing; t = -1 makes the cap 0 and the bound
    # 4; phi_max = 0 divides by zero after sampling
    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking the inputs")

    k, part = pince_nez(4)
    pi = stationary_distribution(k)
    monkeypatch.setattr(wellcovering, "projected_kernel", refuse)
    monkeypatch.setattr(wellcovering, "RowSampler", refuse)
    with pytest.raises(ValueError, match=re.escape(named)):
        concentration_audit(k, pi, part, *blocks, t_grid, (0.1,), 1000, 0, phi_max)


def test_concentration_audit_checks_slot_budget_before_stepping(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stepped replicas over the budget")

    k, part = pince_nez(6)
    pi = stationary_distribution(k)
    args = (k, pi, part, 0, 1, (5, 9), (0.1,), 1000, 0, 1.0)
    # 12 states with rows of up to 3 nonzeros, padded to w = 4
    tables = 12 * 4 * wellcovering._AUDIT_TABLE_BYTES
    need = 2 * 2 * 1000 * wellcovering._AUDIT_SLOT_BYTES + tables
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", need)
    assert len(concentration_audit(*args)) == 4
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", need - 1)
    # every sampler step, batched or not, goes through transitions
    monkeypatch.setattr(RowSampler, "transitions", refuse)
    with pytest.raises(ProductSpaceTooLarge, match="4 audit runs x 1000 replicas"):
        concentration_audit(*args)


def test_concentration_audit_counts_its_tables_in_the_budget(monkeypatch):
    # On a dense kernel the counter-step tables, one entry per transition
    # index x * w + slot, outweigh the replica slots: 256 x 256 indices of
    # 17 B against 4 x 1000 slots of 98 B.
    n = 256
    k = StochasticKernel(np.full((n, n), 1.0 / n))
    pi = stationary_distribution(k)
    part = Partition(np.arange(n) // (n // 2), 2)
    args = (k, pi, part, 0, 1, (5, 9), (0.1,), 1000, 0, 1.0)
    slots = 2 * 2 * 1000 * wellcovering._AUDIT_SLOT_BYTES
    tables = n * n * wellcovering._AUDIT_TABLE_BYTES
    assert tables > slots
    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", slots + tables)
    assert len(concentration_audit(*args)) == 4

    def refuse(*args, **kwargs):
        raise AssertionError("built tables or stepped replicas over the budget")

    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", slots + tables - 1)
    monkeypatch.setattr(wellcovering, "RowSampler", refuse)
    with pytest.raises(ProductSpaceTooLarge, match="65,536 transition indices"):
        concentration_audit(*args)


def test_concentration_audit_peak_memory_is_within_its_slot_budget():
    # The budget counts the slot arrays held across steps twice over, for one
    # step's temporaries or compaction's copies.  The traced peak of a whole
    # audit, sampler and counter-step tables included, stays within it and
    # above the held arrays alone.
    k, part = pince_nez(6)
    pi = stationary_distribution(k)
    n_slots = 2 * 2 * 20_000
    tracemalloc.start()
    try:
        concentration_audit(k, pi, part, 0, 1, (5, 9), (0.1,), 20_000, 0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = n_slots * wellcovering._AUDIT_SLOT_BYTES
    assert budget // 2 <= peak <= budget


def test_certificate_json_provenance_chain():
    cert = WellCoveringCertificate(100.0, "oracle", (4.0, 4.0), 1.0, kernel=Q2)
    chained = compare_wc(compare_wc(cert, "scale_thresholds", alpha=2.0), "scale_B", alpha=2.0)
    d = chained.to_dict()
    assert d["value"] == 800.0
    assert len(d["provenance"]) == 2
