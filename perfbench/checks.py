"""Checks of the workloads' outputs against the benchmark's own computations.

Every reference here is computed with numpy/scipy directly from the input
kernel, never by calling the mixdecomp routine under test.  Each ``check_*``
function returns a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.optimize
import scipy.stats

PI_TOL = 1e-9  # max |pi - pi_ref|, entries are O(1/n) for the chains used
W_TOL = 1e-7  # transport LPs are solved to HiGHS' default 1e-7 tolerance
REL_TOL = 1e-9  # recomputed closed forms (Wilson bound, concentration bound)


# -- reference computations ---------------------------------------------------


def stationary_reference(K: np.ndarray) -> np.ndarray:
    """Left null vector of ``K - I`` (right singular vector of the smallest
    singular value of ``K^T - I``), normalised to a probability vector."""
    n = K.shape[0]
    _, _, vt = np.linalg.svd(K.T - np.eye(n))
    v = vt[-1]
    return v / v.sum()


def mixing_time_reference(K: np.ndarray, pi: np.ndarray, cap: int = 1 << 20) -> int:
    """First t >= 1 whose worst-start TV distance from ``pi`` is <= 1/4."""
    P = np.eye(K.shape[0])
    for t in range(1, cap + 1):
        P = P @ K
        if 0.5 * np.abs(P - pi[None, :]).sum(axis=1).max() <= 0.25:
            return t
    raise ValueError(f"no mixing time up to {cap}")


def wilson_upper(successes: int, trials: int, level: float = 0.99) -> float:
    """Upper end of the two-sided Wilson score interval."""
    z = float(scipy.stats.norm.ppf(0.5 + level / 2.0))
    p = successes / trials
    centre = p + z * z / (2 * trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return min(1.0, (centre + half) / (1.0 + z * z / trials))


def exit_mixtures_reference(K: np.ndarray, block_of: np.ndarray) -> np.ndarray:
    """Exit mixture of every state by an absorbing-chain solve per block.

    Row x is ``1/2 e_i + 1/2 P_x[first block entered after leaving i]`` for
    x in block i: with Q = K restricted to block i and R = K from block i to
    the other states, the absorption probabilities are ``(I - Q)^-1 R``.
    """
    n_blocks = int(block_of.max()) + 1
    onehot = np.eye(n_blocks)[block_of]
    out = np.zeros((K.shape[0], n_blocks))
    for i in range(n_blocks):
        inside = np.nonzero(block_of == i)[0]
        outside = np.nonzero(block_of != i)[0]
        Q = K[np.ix_(inside, inside)]
        R = K[np.ix_(inside, outside)]
        absorbed = np.linalg.solve(np.eye(inside.size) - Q, R)
        out[inside] = 0.5 * (absorbed @ onehot[outside])
        out[inside, i] += 0.5
    return out


def transport_reference(mu: np.ndarray, nu: np.ndarray, d: np.ndarray) -> float:
    """Optimal transport cost as the full n x n transportation LP."""
    n = d.shape[0]
    rows = np.kron(np.eye(n), np.ones((1, n)))  # sum_j plan[i, j] = mu_i
    cols = np.kron(np.ones((1, n)), np.eye(n))  # sum_i plan[i, j] = nu_j
    res = scipy.optimize.linprog(
        c=d.ravel(),
        A_eq=np.vstack([rows, cols]),
        b_eq=np.concatenate([mu, nu]),
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise ValueError(f"reference transport LP failed: {res.message}")
    return float(res.fun)


def hamming_on_bitmasks(bits: int) -> np.ndarray:
    idx = np.arange(1 << bits)
    xor = idx[:, None] ^ idx[None, :]
    return np.array([[bin(v).count("1") for v in row] for row in xor], dtype=float)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_json_strict(text: str):
    """``json.loads`` that refuses NaN/Infinity, which standard JSON lacks."""
    return json.loads(text, parse_constant=_reject_constant)


# -- workload checks ----------------------------------------------------------


def check_cli_report(report: dict, K: np.ndarray, audit_reps: int) -> list[str]:
    """Checks of ``run_experiment``'s report for tasks analyze, bounds, audit."""
    fails: list[str] = []
    tasks = report.get("tasks", {})
    for task in ("analyze", "bounds", "audit"):
        if task not in tasks:
            fails.append(f"report has no {task!r} task")
    if fails:
        return fails
    pi_ref = stationary_reference(K)
    pi = np.asarray(tasks["analyze"]["pi"]["value"], dtype=float)
    if pi.shape != pi_ref.shape:
        fails.append(f"pi has {pi.size} entries, kernel has {pi_ref.size} states")
    else:
        gap = float(np.abs(pi - pi_ref).max())
        if gap > PI_TOL:
            fails.append(f"pi differs from the left null vector by {gap:.3e}")
    tau = mixing_time_reference(K, pi_ref)
    got = tasks["analyze"]["tau_mix"]["value"]
    if got != tau:
        fails.append(f"tau_mix {got} != reference {tau}")
    for row in tasks["bounds"]["comparison"]:
        value = row["value"]["value"]
        if row["feasible"] and not (isinstance(value, (int, float)) and value >= tau):
            fails.append(f"bound {row['name']} = {value} is below tau = {tau}")
    phi_max = tasks["analyze"]["decomposition"]["phi_max"]["value"]
    for row in tasks["audit"]["rows"]:
        fails.extend(_check_audit_row(row, phi_max, audit_reps))
    return fails


def _check_audit_row(row: dict, phi_max: float, reps: int) -> list[str]:
    where = f"audit {row['orientation']} t={row['t']} c={row['c']}"
    empirical = row["empirical"]["value"]
    bound = row["bound"]["value"]
    fails = []
    hi = wilson_upper(round(empirical * reps), reps)
    if abs(row["wilson_hi"] - hi) > REL_TOL * max(1.0, hi):
        fails.append(f"{where}: wilson_hi {row['wilson_hi']} != reference {hi}")
    ref_bound = 4.0 * math.exp(-(row["c"] ** 2) * (row["t"] + 1) / (8.0 * phi_max))
    if abs(bound - ref_bound) > REL_TOL * max(1.0, ref_bound):
        fails.append(f"{where}: bound {bound} != reference {ref_bound}")
    if not (row["wilson_hi"] <= bound or bound >= 1.0):
        fails.append(f"{where}: wilson_hi {row['wilson_hi']} exceeds bound {bound} < 1")
    return fails


def check_calibrated_table(rows, constants, kernels: dict[str, np.ndarray]) -> list[str]:
    """Constants calibrated; every row at least its chain's exact tau."""
    fails: list[str] = []
    if not constants.calibrated:
        fails.append("constants came back uncalibrated")
    for c in (constants.c_alpha, constants.c_alpha_prime):
        if not (math.isfinite(c) and c > 0):
            fails.append(f"calibrated constant {c} is not a positive number")
    taus = {}
    for name, K in kernels.items():
        taus[name] = mixing_time_reference(K, stationary_reference(K))
    seen = set()
    for row in rows:
        if row.chain not in taus:
            fails.append(f"row for unknown chain {row.chain!r}")
            continue
        seen.add(row.chain)
        tau = taus[row.chain]
        if row.tau_exact != tau:
            fails.append(f"{row.chain}: tau_exact {row.tau_exact} != reference {tau}")
        if not row.value >= tau:
            fails.append(f"{row.chain} {row.bound}: value {row.value} is below tau = {tau}")
    for name in sorted(set(taus) - seen):
        fails.append(f"no rows for chain {name}")
    return fails


def check_torus_thresholds(measured: dict, m: int) -> list[str]:
    """The thresholds ``suites.torus_constants`` states, re-applied."""
    fails = []
    if not measured["well_mass_m4"] >= 0.9:
        fails.append(f"well mass {measured['well_mass_m4']} < 0.9")
    if not (measured["certified"] and measured["alpha"] >= 1.0 - 1.0 / m - 1e-9):
        fails.append(f"contraction alpha {measured['alpha']} not certified >= 1 - 1/{m}")
    if not measured["beta"] <= 0.05:
        fails.append(f"contraction slack {measured['beta']} > 0.05")
    for key in ("delta1", "delta2"):
        if not measured[key] >= 0.5:
            fails.append(f"{key} {measured[key]} < 1/2")
    return fails


def check_contraction_pairs(
    estimate, K: np.ndarray, block_of: np.ndarray, d: np.ndarray, program_mixture
) -> list[str]:
    """Recompute the reported worst pairs; check ``w <= alpha d + beta``.

    ``program_mixture(x)`` is the program's exit mixture of state x; it must
    agree with the reference solve within ``W_TOL``.
    """
    fails = []
    if not estimate.worst_pairs:
        return ["contraction estimate reports no worst pairs"]
    mus = exit_mixtures_reference(K, block_of)
    for pair in estimate.worst_pairs:
        where = f"pair ({pair.x}, {pair.y})"
        bx, by = int(block_of[pair.x]), int(block_of[pair.y])
        if (pair.block_x, pair.block_y) != (bx, by) or pair.distance != d[bx, by]:
            fails.append(f"{where}: blocks/distance do not match the partition and metric")
            continue
        for x in (pair.x, pair.y):
            gap = float(np.abs(np.asarray(program_mixture(x)) - mus[x]).max())
            if gap > W_TOL:
                fails.append(f"exit mixture of state {x} differs from the reference by {gap:.3e}")
        w = transport_reference(mus[pair.x], mus[pair.y], d)
        if abs(w - pair.w) > W_TOL:
            fails.append(f"{where}: w {pair.w} != reference {w}")
        if w > estimate.alpha * pair.distance + estimate.beta + W_TOL:
            fails.append(
                f"{where}: w {w} > alpha d + beta = "
                f"{estimate.alpha * pair.distance + estimate.beta}"
            )
    return fails
