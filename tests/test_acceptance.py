"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; thresholds and tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_partition, random_reversible_kernel
from mixdecomp import rng as rngmod
from mixdecomp.chains import pince_nez
from mixdecomp.decomposition import (
    Partition,
    projected_kernel,
    trace_kernel,
)
from mixdecomp.kernel import (
    StochasticKernel,
    hitting_analysis,
    lazify,
    stationary_distribution,
)
from mixdecomp.suites import (
    calibrated_bound_table,
    expander_separation,
    kcip_reversibility,
    pince_nez_scaling,
    torus_constants,
    toy_kcip_scaling,
)
from mixdecomp.wellcovering import (
    WellCoveringQuery,
    concentration_audit,
    oracle_wc_time,
    propagation_bound,
    tree_bound,
)
from oracles import trace_kernel_dp_oracle


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:2d}] {status}  {name}: {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_pince_nez_scaling():
    t0 = time.time()
    res = pince_nez_scaling(seed=0)
    elapsed = time.time() - t0
    ok = res.passed and elapsed < 60.0
    _report(
        1,
        "pince-nez quadratic scaling",
        ok,
        f"taus={res.measured['taus']} slope={res.measured['slope']:.4f} "
        f"(integer-tau slope {res.measured['slope_integer_tau']:.4f}, "
        f"mc tv gap {res.measured['mc_tv_gap']:+.4f}) in {elapsed:.1f}s",
    )


def test_criterion_02_trace_correctness():
    worst_trace = 0.0
    worst_restrict = 0.0
    for seed in range(200):
        gen = rngmod.stream(5000 + seed, 0)
        n = int(gen.integers(4, 13))
        k = random_reversible_kernel(n, gen, half_lazy=bool(seed % 3))
        pi = stationary_distribution(k)
        part = random_partition(n, gen)
        for b in range(part.n_blocks):
            t = trace_kernel(k, part, b)
            oracle = trace_kernel_dp_oracle(k, part, b)
            worst_trace = max(worst_trace, float(np.abs(t.rows - oracle).max()))
            A = part.members(b)
            target = pi.weights[A] / pi.weights[A].sum()
            got = stationary_distribution(t).weights
            worst_restrict = max(worst_restrict, float(np.abs(got - target).max()))
    ok = worst_trace <= 1e-8 and worst_restrict <= 1e-8
    _report(
        2,
        "trace kernels vs absorbing-DP oracle (200 chains)",
        ok,
        f"max trace err {worst_trace:.2e}, max restriction err {worst_restrict:.2e}",
    )


def test_criterion_03_projected_reversibility():
    worst = 0.0
    instances = []
    from mixdecomp.chains import (
        cycle_adjacency,
        expander_pair,
        kcip,
        torus_metropolis,
        toy_kcip,
    )

    k8, p8 = pince_nez(8)
    instances.append(("pince_nez", k8, p8))
    kk, pk = toy_kcip(6, 1)
    instances.append(("toy_kcip", kk, pk))
    ep = expander_pair(16, 4, 0.2, seed=2)
    instances.append(("expander_pair", ep.kernel, ep.partition))
    spin = kcip(cycle_adjacency(5), c=1.0)
    instances.append(("kcip", spin.kernel, spin.partition))
    tc = torus_metropolis(3, 3, 7.0, k_trace=1)
    instances.append(("torus_trace", tc.kernel, tc.partition))
    for seed in range(40):
        gen = rngmod.stream(6000 + seed, 0)
        n = int(gen.integers(4, 12))
        k = random_reversible_kernel(n, gen)
        instances.append((f"random{seed}", k, random_partition(n, gen)))
    for _, k, part in instances:
        pi = stationary_distribution(k)
        proj = projected_kernel(k, pi, part)
        masses = part.masses(pi)
        flux = masses[:, None] * proj.rows
        worst = max(worst, float(np.abs(flux - flux.T).max()))
    ok = worst <= 1e-9
    _report(
        3,
        "projected-kernel reversibility (examples + ensemble)",
        ok,
        f"max residual {worst:.2e} over {len(instances)} instances",
    )


def test_criterion_04_subgeometric_tails():
    worst_gap = -1.0
    for seed in range(50):
        gen = rngmod.stream(7000 + seed, 0)
        n = int(gen.integers(4, 12))
        k = random_reversible_kernel(n, gen, half_lazy=True)
        A = sorted(set(int(x) for x in gen.integers(0, n, size=int(gen.integers(1, 3)))))
        table = hitting_analysis(k, A, horizon=75)
        worst = table.tail.max(axis=1)
        for t in range(1, 16):
            for kk in range(2, 6):
                if kk * t <= 75:
                    gap = worst[kk * t] - worst[t] ** kk
                    worst_gap = max(worst_gap, float(gap))
    ok = worst_gap <= 1e-12
    _report(4, "subgeometric hitting tails (50 chains)", ok, f"max violation {worst_gap:.2e}")


def test_criterion_05_laziness_hitting_comparison():
    violations = 0
    sup_gap = -math.inf
    for seed in range(60):
        gen = rngmod.stream(8000 + seed, 0)
        n = int(gen.integers(3, 12))
        k = random_reversible_kernel(n, gen)
        half = lazify(k, 0.5)
        A = [int(gen.integers(n))]
        e = hitting_analysis(k, A).expected
        e2 = hitting_analysis(half, A).expected
        if not (e <= e2 + 1e-10).all():
            violations += 1
        sup_gap = max(sup_gap, float((e2 - 8.0 * e).max()))
    ok = violations == 0 and sup_gap <= 10.0
    _report(
        5,
        "half-lazification hitting comparison",
        ok,
        f"violations={violations}, sup(E' - 8E)={sup_gap:.3f} <= 10",
    )


def test_criterion_06_spread_concentration():
    t0 = time.time()
    k, part = pince_nez(8)
    pi = stationary_distribution(k)
    from mixdecomp.decomposition import block_mixing_times

    phis, _, _ = block_mixing_times(k, pi, part, horizon=4000)
    phi_max = float(max(phis))
    rows = concentration_audit(
        k,
        pi,
        part,
        0,
        1,
        t_grid=(1000, 10000),
        c_grid=(0.05, 0.1),
        reps=10_000,
        seed=60,
        phi_max=phi_max,
    )
    elapsed = time.time() - t0
    bad = [r for r in rows if not (r.wilson_hi <= r.bound or r.bound >= 1.0)]
    ok = not bad and elapsed < 300.0
    detail = (
        f"{len(rows)} cells, worst wilson_hi {max(r.wilson_hi for r in rows):.4f}, "
        f"min bound {min(r.bound for r in rows):.3f}, {elapsed:.0f}s"
    )
    _report(6, "transition-count concentration audit", ok, detail)


def test_criterion_07_well_covering_soundness():
    def path_kernel(n):
        delta = 1 if n == 2 else 2
        K = np.zeros((n, n))
        for i in range(n - 1):
            K[i, i + 1] = K[i + 1, i] = 1.0 / (2 * delta)
        np.fill_diagonal(K, 1.0 - K.sum(axis=1))
        return StochasticKernel(K)

    sound = True
    details = []
    for n in (2, 3):
        q = path_kernel(n)
        for phi, B in ((5.0, 1.0), (12.0, 1.5)):
            query = WellCoveringQuery(q, np.full(n, phi), B)
            oracle = oracle_wc_time(query).value
            tree = tree_bound(q, phi, B).value
            prop = propagation_bound(query).value
            sound &= oracle <= tree and oracle <= prop
            details.append(f"n={n},phi={phi}: {oracle:.0f}<={prop:.0f}<={tree:.0f}")
    # scaling monotonicity within grid tolerance
    q2 = path_kernel(2)
    v1 = oracle_wc_time(WellCoveringQuery(q2, np.array([4.0, 4.0]), 1.0)).value
    v3 = oracle_wc_time(WellCoveringQuery(q2, np.array([12.0, 12.0]), 1.0)).value
    scale_ok = v3 <= 3.0 * v1 * (1.0 + 2.0 / 64.0) + 1.0
    ok = sound and scale_ok
    _report(7, "well-covering soundness ordering", ok, "; ".join(details) + f"; scale {v3}<=3x{v1}")


def test_criterion_08_expander_separation():
    res = expander_separation(seed=0)
    _report(
        8,
        "joint vs per-block occupation bounds on the expander pair",
        res.passed,
        f"{res.measured} ({res.seconds:.0f}s)",
    )
    # the seeded values; sampling, label storage and counting must keep them
    assert res.measured == {
        "per_block_feasible_below_m_over_2": False,
        "joint_T": 602,
        "joint_T_budget": 864,
        "basic2_value": 802.6666666666666,
        "basic_value": 7034.666666666666,
    }


def test_criterion_09_toy_kcip_scaling():
    res = toy_kcip_scaling(seed=0)
    _report(
        9,
        "ladder-chain scaling and backbone drift",
        res.passed,
        f"taus={res.measured['taus']} slope={res.measured['slope']:.3f} <= 2.4, "
        f"drift residual {res.measured['backbone_drift_residual']:.2e}",
    )


def test_criterion_10_kcip_reversibility():
    res = kcip_reversibility(seed=0)
    _report(
        10,
        "constrained-spin chain detailed balance and liveness",
        res.passed,
        str(res.measured),
    )


def test_criterion_11_torus_constants():
    t0 = time.time()
    res = torus_constants(seed=0)
    elapsed = time.time() - t0
    ok = res.passed and elapsed < 300.0
    m = res.measured
    _report(
        11,
        "torus well mass, contraction certificate, regularity",
        ok,
        f"mass={m['well_mass_m4']:.6f}, alpha={m['alpha']:.6f}, beta={m['beta']:.2e}, "
        f"delta1={m['delta1']:.3f}, delta2={m['delta2']:.3f}, {elapsed:.0f}s",
    )


def test_criterion_12_calibrated_bound_sanity():
    rows, constants = calibrated_bound_table(seed=0)
    bad = [r for r in rows if not r.dominates]
    lines = [
        f"{r.chain}/{r.bound}: {r.value:.3g} vs tau {r.tau_exact}" for r in rows
    ]
    ok = not bad and constants.calibrated
    _report(
        12,
        f"calibrated bounds dominate exact mixing (c={constants.c_alpha:.4f})",
        ok,
        "; ".join(lines),
    )
