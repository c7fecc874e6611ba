import math

import numpy as np
import pytest

from mixdecomp import rng as rngmod
from mixdecomp.bounds import (
    DriftCertificate,
    PeresSousiConstants,
    bound_basic,
    bound_basic2,
    bound_contraction,
    bound_coupling_point,
    bound_drift,
    bound_graph_hit,
    bound_regular,
    calibrate_constants,
    exact_mixing_time,
    fit_drift,
    least_horizon,
    occupation_bounds,
    peres_sousi_audit,
    verify_drift,
)
from mixdecomp.chains import pince_nez, toy_kcip
from mixdecomp.decomposition import Partition, block_mixing_times
from mixdecomp.errors import (
    ContractionTooWeak,
    DriftViolated,
    EpsilonTooLarge,
    HypothesisUnverified,
    MTooSmall,
    TooManyBlocks,
)
from mixdecomp.kernel import StationaryDistribution, StochasticKernel, stationary_distribution
from mixdecomp.tails import ExactTailProvider, MCTailProvider, MinMarginalJointTails

ONES = PeresSousiConstants()


class DictTails:
    """Tails from a scalar function ``fn(i, T, t)``, evaluated at each threshold."""

    provenance = "test"

    def __init__(self, fn, cap=1 << 20):
        self.fn = np.vectorize(fn, otypes=[float])
        self.cap = cap

    def max_t(self):
        return self.cap

    def horizons(self, T):
        return [T]  # fn need not fall in T

    def query(self, i, T, t):
        return self.fn(i, T, t)

    def query_joint(self, I, T, t):
        return np.max([self.fn(i, T, t) for i in I], axis=0)


def test_constants_validate():
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            PeresSousiConstants(c_alpha=bad)
        with pytest.raises(ValueError):
            PeresSousiConstants(c_alpha_prime=bad)
    assert not ONES.calibrated


def test_bound_basic_degenerate_tail():
    # tail vanishes up to T/2, so the search settles near 8 phi / c'
    phi = [10.0]
    tails = DictTails(lambda i, T, t: 0.0 if t <= T / 2 else 1.0)
    r = bound_basic(phi, tails, alpha=1 / 3, beta=0.75, I=[0], constants=ONES)
    T = r.ingredients["T"]
    assert 8 * phi[0] <= T <= 8 * phi[0] * 1.25
    assert r.value == pytest.approx((4.0 / 3.0) * T)
    assert r.universal_constant_flag


def test_search_probes_a_horizon_the_doublings_step_over():
    # The doublings go 8,192 then 16,384 past a horizon of 12,000; the
    # search used to give up there and report no feasible horizon.
    probes = []

    def feasible(T):
        probes.append(T)
        return T >= 10_000

    assert least_horizon(feasible, 2, 12_000) == 10_000
    assert probes[12:14] == [8192, 12_000] and max(probes) == 12_000
    assert least_horizon(lambda T: False, 2, 12_000) is None
    assert least_horizon(lambda T: T >= 10_000, 2, 9_999) is None
    tails = DictTails(lambda i, T, t: 0.0 if T >= 10_000 else 1.0)
    r = bound_basic([1.0], tails, 1 / 3, 0.75, [0], ONES, T_horizon=12_000)
    assert r.feasible and r.ingredients["T"] == 10_000 and r.notes == ""
    r = bound_basic([1.0], tails, 1 / 3, 0.75, [0], ONES, T_horizon=9_999)
    assert not r.feasible and r.notes == "no feasible horizon up to 9999"


def test_bound_basic_monotone_in_phi():
    tails = DictTails(lambda i, T, t: 0.0 if t <= T / 2 else 1.0)
    vals = [
        bound_basic([p], tails, 1 / 3, 0.75, [0], ONES).value for p in (5.0, 10.0, 40.0)
    ]
    assert vals == sorted(vals)


def test_bound_basic_scales_linearly_in_time_ingredients():
    tails = DictTails(lambda i, T, t: 0.0 if t <= T / 2 else 1.0)
    v1 = bound_basic([12.0], tails, 1 / 3, 0.75, [0], ONES).value
    v2 = bound_basic([24.0], tails, 1 / 3, 0.75, [0], ONES).value
    assert v2 == pytest.approx(2.0 * v1, rel=0.1)


def test_bound_basic2_single_block_structurally_reduces():
    # with one block, the qualifying family is the single set and the search
    # has the same shape; the exponential hitting floor makes it a touch
    # more conservative than the linear one at small t
    tails = DictTails(lambda i, T, t: 0.0 if t <= T / 2 else 1.0)
    r1 = bound_basic([10.0], tails, 1 / 3, 0.75, [0], ONES)
    r2 = bound_basic2([10.0], [1.0], tails, 1 / 3, ONES)
    assert r2.feasible and r2.ingredients["n_subsets"] == 1
    assert r2.value <= 2.0 * r1.value


def _bottleneck_chain(n, gen, cross=0.01):
    # two weakly linked halves: occupation tails dominate the bound search,
    # the regime the joint-occupation criterion targets
    half = n // 2
    W = np.zeros((n, n))
    for grp in (range(half), range(half, n)):
        grp = list(grp)
        for i in grp:
            for j in grp:
                if i < j:
                    W[i, j] = W[j, i] = gen.uniform(0.3, 1.0)
    W[0, half] = W[half, 0] = cross
    W[np.diag_indices(n)] = gen.uniform(0.5, 1.0, size=n) * n / 2
    K = W / W.sum(axis=1, keepdims=True)
    return StochasticKernel(0.5 * (np.eye(n) + K)), Partition.from_block_of(
        [0] * half + [1] * (n - half)
    )


@pytest.mark.parametrize("seed", range(5))
def test_basic2_below_basic_with_dominated_joint(seed):
    gen = rngmod.stream(1000 + seed, 0)
    n = int(gen.integers(6, 9))
    k, part = _bottleneck_chain(n, gen)
    pi = stationary_distribution(k)
    phis, _, _ = block_mixing_times(k, pi, part, horizon=4000)
    phi = [float(p) for p in phis]
    masses = part.masses(pi)
    tails = ExactTailProvider(k, part, T_max=4096, t_cap=256)
    r1 = bound_basic(phi, tails, 1 / 3, 0.75, [0, 1], ONES, block_masses=masses, T_horizon=4096)
    r2 = bound_basic2(phi, masses, MinMarginalJointTails(tails), 1 / 3, ONES, T_horizon=4096)
    assert r2.value <= r1.value + 1e-9


def test_bound_regular_formula_and_warning():
    with pytest.warns(HypothesisUnverified):
        r = bound_regular(1.0, 1.0, 10.0, 2, ONES)
    assert r.value == pytest.approx(10.0 * 2.0 * math.log(2))
    # visually-similar shape: eps^-1 = phi_max, delta = 1
    r2 = bound_regular(1.0 / 50.0, 1.0, 10.0, 2, ONES, hypothesis_verified=True)
    assert r2.value == pytest.approx(50.0 * 10.0 * 2.0 * math.log(2))
    # linear in the hitting scale
    r3 = bound_regular(1.0, 1.0, 20.0, 2, ONES, hypothesis_verified=True)
    with pytest.warns(HypothesisUnverified):
        assert r3.value == pytest.approx(2.0 * bound_regular(1.0, 1.0, 10.0, 2, ONES).value)


def test_bound_graph_hit_formula():
    # hand-checkable configuration on the two-loop chain:  D = 1 there, so
    # exercise the formula itself on a 3-block path chain instead
    k = StochasticKernel(
        [
            [0.8, 0.2, 0.0],
            [0.1, 0.8, 0.1],
            [0.0, 0.2, 0.8],
        ]
    )
    part = Partition.from_block_of([0, 1, 2])
    res = bound_graph_hit(k, part, c=0.5, epsilon=1.0, phi_max=10.0)
    assert res.diameter == 2.0
    d = res.delta
    assert res.bound.value == pytest.approx(10.0 * 2.0 * (0.5 * d) ** -2.0)


def test_bound_graph_hit_single_block_zero():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    part = Partition.single_block(2)
    res = bound_graph_hit(k, part, c=0.5, epsilon=1.0, phi_max=10.0)
    assert res.diameter == 0.0 and res.bound.value == 0.0


def test_bound_graph_hit_disconnected_reported():
    # no edge reaches c = 0.99 from the middle block (exits split 50/50)
    k = StochasticKernel(
        [
            [0.8, 0.2, 0.0],
            [0.1, 0.8, 0.1],
            [0.0, 0.2, 0.8],
        ]
    )
    part = Partition.from_block_of([0, 1, 2])
    res = bound_graph_hit(k, part, c=0.99, epsilon=1.0, phi_max=10.0)
    assert math.isinf(res.diameter)
    assert not res.bound.feasible and math.isinf(res.bound.value)


def test_bound_drift_formula():
    cert = DriftCertificate(
        V=np.array([16.0, 1.0]), a=0.5, b=1.0, k=1, v_max=16.0, verified=True, residual=0.0
    )
    r = bound_drift(cert, M=8.0, tau_mix_trace=10.0, constants=ONES)
    assert r.value == pytest.approx((32.0 / 3.0) * 160.0)
    with pytest.raises(MTooSmall):
        bound_drift(cert, M=7.9, tau_mix_trace=10.0, constants=ONES)
    bad = DriftCertificate(cert.V, 0.5, 1.0, 1, 16.0, verified=False, residual=1.0)
    with pytest.raises(DriftViolated):
        bound_drift(bad, M=8.0, tau_mix_trace=10.0, constants=ONES)


def test_bound_drift_log_vmax_regime():
    # with tau' = 0 the value is linear in log V_max
    vals = []
    for logv in (100.0, 200.0):
        cert = DriftCertificate(
            V=np.array([1.0]), a=0.5, b=0.1, k=1, v_max=math.exp(logv), verified=True, residual=0.0
        )
        vals.append(bound_drift(cert, M=10.0, tau_mix_trace=0.0, constants=ONES).value)
    assert vals[1] / vals[0] == pytest.approx((200.0 + math.log(16)) / (100.0 + math.log(16)), rel=1e-9)


def test_verify_and_fit_drift():
    k, _ = toy_kcip(6, 1)
    V = np.exp(0.5 * np.repeat(np.arange(1, 7), 3))
    cert = fit_drift(k, V, k=36)
    assert cert.verified
    check = verify_drift(k, V, cert.a, cert.b, 36)
    assert check.verified and check.residual <= 1e-12
    too_strong = verify_drift(k, V, min(1.0, cert.a * 4), cert.b / 4, 36)
    assert not too_strong.verified


def test_bound_contraction_formula_and_guards():
    r = bound_contraction(
        alpha=1.0 - 1.0 / 8.0,
        beta=1.0 / 8.0**3,
        a1=1.0,
        a2=1.0,
        delta1=0.5,
        delta2=0.5,
        phi_max=10.0,
        phi_bar=2 * 8 * math.log(8),
        D_max=8.0,
        n=2**8,
        constants=ONES,
    )
    gamma = 0.5 - (1.0 / 512.0) / (7.0 / 8.0)
    C1 = (1024.0 / gamma) * 1.0 * (1.0 / 0.5) * math.log(16.0) / abs(
        math.log(1.0 - 0.5 ** math.ceil(8 * math.e))
    )
    C2 = math.log2(8.0 / gamma)
    C3 = math.log(8.0 / gamma) + math.log(8.0)
    second = C3 / abs(math.log(1.0 / 8.0))
    expect = C1 * 10.0 * math.log(256) * max(C2 * (16 * math.log(8)) + 1.0, second)
    assert r.value == pytest.approx(expect, rel=1e-9)
    with pytest.raises(ContractionTooWeak):
        bound_contraction(0.4, 0.3, 1, 1, 0.5, 0.5, 10, 5, 4, 4, ONES)


def test_bound_contraction_degrades_as_margin_closes():
    vals = []
    for beta in (0.01, 0.2, 0.24):
        vals.append(
            bound_contraction(0.5, beta, 1, 1, 0.5, 0.5, 10, 5, 4, 4, ONES).value
        )
    assert vals == sorted(vals)


def test_bound_coupling_point():
    r = bound_coupling_point(1.0, 0.0)
    assert r.value == 6.0
    assert bound_coupling_point(1.0, 0.24).value > bound_coupling_point(1.0, 0.1).value
    with pytest.raises(EpsilonTooLarge):
        bound_coupling_point(1.0, 0.25)


def test_occupation_bounds_reproduce_pinned_seeded_rows():
    # The rows of the explicit bound_basic, bound_basic2 over min-marginal
    # joint tails and bound_regular calls that occupation_bounds replaces.
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    phis, _, _ = block_mixing_times(k, pi, part, horizon=10**6)
    phi = [float(p) for p in phis]
    rows = occupation_bounds(k, pi, part, phi, [0, 1], 1 / 3, 0.9, ONES, 1024, 5)
    assert [(r.name, r.value, r.ingredients.get("T"), r.feasible) for r in rows] == [
        ("basic_occupation", 844.0, 633, True),
        ("basic_joint_occupation", 722.6666666666666, 542, True),
        ("regular_escape", 1437.3099936091103, None, True),
    ]
    assert rows[2].ingredients["delta"] == pytest.approx(5 / 6)


def test_occupation_bounds_escape_certificate_replaces_simulation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated paths the escape certificate rules out")

    # each state is a block, kept through T = 1024 with probability
    # (1 - 1e-6)^1024
    part = Partition(np.array([0, 1]), 2)
    k = StochasticKernel([[1 - 1e-6, 1e-6], [1e-6, 1 - 1e-6]])
    pi = stationary_distribution(k)
    with monkeypatch.context() as m:
        m.setattr("mixdecomp.tails.PathStream", refuse)
        rows = occupation_bounds(k, pi, part, [1.0, 1.0], [0, 1], 1 / 3, 0.9, ONES, 1024, 0)
    for r in rows[:2]:
        assert (r.feasible, r.value, r.ingredients["T"]) == (False, math.inf, None)
        assert r.ingredients["tail_provenance"] == "exact-escape(block=0,stay=0.998977,T=1024)"
        assert r.notes == (
            "no feasible horizon up to 1024; exact escape certificate: block 0 is kept "
            "through T = 1024 with probability 0.998977 >= 1/4"
        )
    # block 1 is now left within T with probability 1 - 2^-1024: I = {0}
    # leaves out no sticky block, and the only subset without block 0 is too
    # light to qualify, so both searches simulate
    k = StochasticKernel([[1 - 1e-6, 1e-6], [0.5, 0.5]])
    pi = stationary_distribution(k)
    rows = occupation_bounds(k, pi, part, [1.0, 1.0], [0], 1 / 3, 0.9, ONES, 1024, 0)
    assert [r.ingredients["tail_provenance"][:3] for r in rows[:2]] == ["mc(", "min"]


def _cycle(n: int, stay: float) -> StochasticKernel:
    shift = np.roll(np.eye(n), 1, axis=1)
    return StochasticKernel(stay * np.eye(n) + (1 - stay) / 2 * (shift + shift.T))


@pytest.mark.parametrize(
    "kernel, block_of, names",
    [
        # 13 blocks: no joint row; the walk leaves every singleton block in
        # one step, so delta = 0 and the regular row goes too
        (_cycle(13, 0.0), np.arange(13), ["basic_occupation"]),
        # 17 blocks: the hitting scale solves on the C(17, 3) = 680 minimal
        # heavy sets, not the 130,918 qualifying subsets
        (_cycle(17, 0.5), np.arange(17), ["basic_occupation", "regular_escape"]),
        (  # every state of block 0 leaves it in one step, so delta = 0
            StochasticKernel([[0.0, 0.5, 0.5], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]),
            np.array([0, 1, 1]),
            ["basic_occupation", "basic_joint_occupation"],
        ),
    ],
)
def test_occupation_bounds_gates(kernel, block_of, names):
    part = Partition.from_block_of(block_of)
    pi = stationary_distribution(kernel)
    phi = [1.0] * part.n_blocks
    rows = occupation_bounds(
        kernel, pi, part, phi, list(range(part.n_blocks)), 1 / 3, 0.9, ONES, 64, 0
    )
    assert [r.name for r in rows] == names


def _refuse_solve(*args, **kwargs):
    raise AssertionError("solved a hitting system before the budget check")


def test_occupation_bounds_leave_out_regular_over_budget(monkeypatch):
    monkeypatch.setattr("mixdecomp.decomposition.MAX_HEAVY_SETS", 679)
    monkeypatch.setattr("mixdecomp.decomposition.hitting_analysis", _refuse_solve)
    kernel = _cycle(17, 0.5)
    pi = stationary_distribution(kernel)
    rows = occupation_bounds(
        kernel, pi, Partition.from_block_of(np.arange(17)), [1.0] * 17, list(range(17)),
        1 / 3, 0.9, ONES, 64, 0,
    )
    assert [r.name for r in rows] == ["basic_occupation"]


def test_peres_sousi_audit_two_state():
    k = StochasticKernel([[0.5, 0.5], [0.5, 0.5]])
    pi = stationary_distribution(k)
    audit = peres_sousi_audit(k, pi, alpha=0.25)
    assert audit.max_hit == pytest.approx(2.0)
    assert audit.tau_mix == 1
    assert audit.ratio == pytest.approx(0.5)


def test_peres_sousi_audit_size_guard_and_sampled(monkeypatch):
    # exact mode solves on the 8,008 minimal state sets of mass >= 1/3; the
    # sampled family holds heavy sets only, so its maximum is not above
    k, _ = pince_nez(8)
    pi = stationary_distribution(k)
    exact = peres_sousi_audit(k, pi, alpha=1 / 3, subset_mode="exact")
    assert (exact.n_sets, exact.tau_mix) == (8008, 54)
    assert exact.max_hit == pytest.approx(134.0, rel=1e-12)
    audit = peres_sousi_audit(k, pi, alpha=1 / 3, subset_mode="sampled", budget=200, seed=1)
    assert audit.ratio > 0 and math.isfinite(audit.ratio)
    assert audit.max_hit <= exact.max_hit
    # pince_nez(16) has more minimal sets than the budget: refused unsolved
    k16, _ = pince_nez(16)
    pi16 = stationary_distribution(k16)
    monkeypatch.setattr("mixdecomp.decomposition.hitting_analysis", _refuse_solve)
    with pytest.raises(TooManyBlocks):
        peres_sousi_audit(k16, pi16, alpha=1 / 3, subset_mode="exact")


def test_audit_ratio_stable_across_sizes():
    ratios = {}
    for m in (8, 16):
        k, _ = pince_nez(m)
        pi = stationary_distribution(k)
        audit = peres_sousi_audit(k, pi, alpha=1 / 3, subset_mode="sampled", budget=300, seed=2)
        ratios[m] = audit.ratio
        # both scales grow like m^2
        assert audit.tau_mix > 0 and audit.max_hit > 0
    assert 0.5 <= ratios[16] / ratios[8] <= 2.0


def test_calibrate_constants():
    k, _ = pince_nez(8)
    pi = stationary_distribution(k)
    cons = calibrate_constants(k, pi, alpha=1 / 3, subset_mode="sampled")
    assert cons.calibrated
    assert cons.c_alpha == pytest.approx(cons.c_alpha_prime)
    assert 0.5 <= cons.c_alpha <= 3.0


def test_exact_tail_provider_matches_mc_direction():
    k, part = pince_nez(6)
    phi = [5.0, 5.0]
    exact = ExactTailProvider(k, part, T_max=256, t_cap=64)
    mc = MCTailProvider(k, part, T_max=256, reps_per_start=400, seed=8)
    for (T, t) in ((64, 8), (128, 16), (256, 30)):
        e = exact.query(0, T, t)
        u = mc.query(0, T, t)
        assert u >= e - 0.05  # Wilson upper bounds sit above the exact value


def test_bound_basic_on_ladder_trace_is_finite():
    # trace of the m=4 ladder chain onto its first two blocks (6 states)
    from mixdecomp.decomposition import trace_kernel

    k, part = toy_kcip(4, 1)
    keep = Partition.from_block_of(np.where(part.block_of < 2, 1, 0))
    tr = trace_kernel(k, keep, 1)
    pi_tr = stationary_distribution(tr)
    sub_part = Partition.from_block_of(part.block_of[keep.members(1)])
    phis, _, _ = block_mixing_times(tr, pi_tr, sub_part, horizon=10**5)
    tails = ExactTailProvider(tr, sub_part, T_max=4096, t_cap=512)
    r = bound_basic(
        [float(p) for p in phis],
        tails,
        1 / 3,
        0.75,
        [0, 1],
        ONES,
        block_masses=sub_part.masses(pi_tr),
        T_horizon=4096,
    )
    assert r.feasible and np.isfinite(r.value)


def test_bound_monotonicity_perturbations():
    # each evaluator is nondecreasing in its time-scale ingredients
    v1 = bound_regular(1.0, 0.5, 10.0, 3, ONES, hypothesis_verified=True).value
    v2 = bound_regular(1.0, 0.5, 14.0, 3, ONES, hypothesis_verified=True).value
    assert v2 >= v1
    cert = DriftCertificate(np.array([4.0]), 0.5, 1.0, 2, 4.0, True, 0.0)
    d1 = bound_drift(cert, 8.0, 100.0, ONES).value
    d2 = bound_drift(cert, 8.0, 150.0, ONES).value
    assert d2 >= d1
    c1 = bound_contraction(0.5, 0.1, 1, 1, 0.5, 0.5, 10, 5, 4, 4, ONES).value
    c2 = bound_contraction(0.5, 0.1, 1, 1, 0.5, 0.5, 15, 5, 4, 4, ONES).value
    assert c2 >= c1
    k = StochasticKernel(
        [[0.8, 0.2, 0.0], [0.1, 0.8, 0.1], [0.0, 0.2, 0.8]]
    )
    part = Partition.from_block_of([0, 1, 2])
    g1 = bound_graph_hit(k, part, 0.5, 1.0, 10.0).bound.value
    g2 = bound_graph_hit(k, part, 0.5, 1.0, 12.0).bound.value
    assert g2 >= g1
