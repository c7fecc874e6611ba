"""Tests of the benchmark's own checks, tracer and command.

Run from the repository root with

    PYTHONPATH=src python3 -m pytest perfbench

Each check must reject a planted wrong answer; the short mode must run every
workload end to end with its checks passing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from mixdecomp import chains, contraction, suites
from mixdecomp.bounds import PeresSousiConstants, exact_mixing_time
from mixdecomp.kernel import stationary_distribution
from run import UNITS
from spans import LAYER_UNITS, Tracer
from speed import MIN_SAMPLES, UNIT_REF_S, probe_cpu, speed_factor
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- cli-two-loop checks -------------------------------------------------------


@pytest.fixture(scope="module")
def cli_report(tmp_path_factory):
    wl = WORKLOADS["cli-two-loop"]
    inp = wl.prepare(5, tmp_path_factory.mktemp("cli"), True)
    wl.operate(inp)
    text = (inp.config.output_dir / "report.json").read_text()
    return checks.parse_json_strict(text), chains.pince_nez(inp.m)[0].rows, inp.audit_reps


def _planted(report, edit):
    bad = json.loads(json.dumps(report))
    edit(bad["tasks"])
    return bad


def test_cli_report_passes_its_checks(cli_report):
    report, K, reps = cli_report
    assert checks.check_cli_report(report, K, reps) == []


def test_cli_check_rejects_tau_off_by_one(cli_report):
    report, K, reps = cli_report

    def edit(tasks):
        tasks["analyze"]["tau_mix"]["value"] += 1

    fails = checks.check_cli_report(_planted(report, edit), K, reps)
    assert any("tau_mix" in f for f in fails)


def test_cli_check_rejects_bound_below_tau(cli_report):
    report, K, reps = cli_report
    tau = report["tasks"]["analyze"]["tau_mix"]["value"]

    def edit(tasks):
        row = tasks["bounds"]["comparison"][0]
        row["feasible"] = True
        row["value"]["value"] = tau - 1

    fails = checks.check_cli_report(_planted(report, edit), K, reps)
    assert any("below tau" in f for f in fails)


def test_cli_check_rejects_perturbed_stationary_vector(cli_report):
    report, K, reps = cli_report

    def edit(tasks):
        pi = tasks["analyze"]["pi"]["value"]
        pi[0] += 1e-6
        pi[1] -= 1e-6

    fails = checks.check_cli_report(_planted(report, edit), K, reps)
    assert any("left null vector" in f for f in fails)


def _audit_row(empirical: float, reps: int = 1000, c: float = 0.3, t: int = 400, phi=1.0):
    hits = round(empirical * reps)
    return {
        "orientation": "ij",
        "t": t,
        "c": c,
        "empirical": {"value": hits / reps, "provenance": f"mc(reps={reps},seed=0)"},
        "wilson_hi": checks.wilson_upper(hits, reps),
        "bound": {"value": 4.0 * np.exp(-c * c * (t + 1) / (8.0 * phi))},
    }


def test_audit_check_rejects_row_above_its_bound():
    assert checks._check_audit_row(_audit_row(0.0), 1.0, 1000) == []
    fails = checks._check_audit_row(_audit_row(0.05), 1.0, 1000)
    assert any("exceeds bound" in f for f in fails)


def test_audit_check_rejects_misreported_wilson_bound():
    row = _audit_row(0.0)
    row["wilson_hi"] /= 2
    assert any("wilson_hi" in f for f in checks._check_audit_row(row, 1.0, 1000))


def test_strict_json_rejects_infinity():
    with pytest.raises(ValueError):
        checks.parse_json_strict('{"value": Infinity}')


# -- calibrated-table checks ---------------------------------------------------


@pytest.fixture(scope="module")
def table_kernels():
    return {
        "pince_nez_m16": chains.pince_nez(16)[0],
        "toy_kcip_m8": chains.toy_kcip(8, 1)[0],
    }


def _rows(kernels, taus, values):
    return [
        suites.BoundRow(name, "basic_occupation", values[name], taus[name], True)
        for name in kernels
    ]


def test_table_check_reference_tau_matches_program(table_kernels):
    for K in table_kernels.values():
        tau = exact_mixing_time(K, stationary_distribution(K))
        assert checks.mixing_time_reference(K.rows, checks.stationary_reference(K.rows)) == tau


def test_table_check_rejects_planted_answers(table_kernels):
    rows_of = {k: K.rows for k, K in table_kernels.items()}
    taus = {
        k: exact_mixing_time(K, stationary_distribution(K)) for k, K in table_kernels.items()
    }
    ok = PeresSousiConstants(c_alpha=0.5, c_alpha_prime=0.5, calibrated=True)
    good = _rows(rows_of, taus, {k: 2.0 * t for k, t in taus.items()})
    assert checks.check_calibrated_table(good, ok, rows_of) == []

    below = _rows(rows_of, taus, {k: t - 1.0 for k, t in taus.items()})
    assert any("below tau" in f for f in checks.check_calibrated_table(below, ok, rows_of))

    off = _rows(rows_of, {k: t + 1 for k, t in taus.items()}, {k: 2.0 * t for k, t in taus.items()})
    assert any("tau_exact" in f for f in checks.check_calibrated_table(off, ok, rows_of))

    uncal = dataclasses.replace(ok, calibrated=False)
    assert any("uncalibrated" in f for f in checks.check_calibrated_table(good, uncal, rows_of))


# -- torus-contraction checks --------------------------------------------------


@pytest.fixture(scope="module")
def small_certificate():
    # the ell=2 torus trace has the same 8 blocks as the workload's, one state each
    tc = chains.torus_metropolis(3, 2, 7.0, k_trace=1)
    metric = contraction.BlockMetric.hamming_on_bitmasks(3)
    est = contraction.estimate_contraction(tc.kernel, tc.partition, metric)
    return tc, est


def _pair_check(tc, est):
    return checks.check_contraction_pairs(
        est,
        tc.kernel.rows,
        np.asarray(tc.partition.block_of),
        checks.hamming_on_bitmasks(3),
        lambda x: contraction.exit_distribution(tc.kernel, tc.partition, x),
    )


def test_contraction_check_passes_true_certificate(small_certificate):
    assert _pair_check(*small_certificate) == []


def test_contraction_check_rejects_wrong_wasserstein_value(small_certificate):
    tc, est = small_certificate
    pair = est.worst_pairs[0]
    wrong = dataclasses.replace(pair, w=pair.w + 1e-4)
    bad = dataclasses.replace(est, worst_pairs=(wrong,) + est.worst_pairs[1:])
    assert any("!= reference" in f for f in _pair_check(tc, bad))


def test_contraction_check_rejects_certificate_below_evidence(small_certificate):
    tc, est = small_certificate
    bad = dataclasses.replace(est, alpha=est.alpha / 2, beta=0.0)
    assert any("alpha d + beta" in f for f in _pair_check(tc, bad))


def test_torus_threshold_check_rejects_weak_alpha():
    measured = {"well_mass_m4": 0.99, "certified": True, "alpha": 0.6, "beta": 0.0,
                "delta1": 0.9, "delta2": 0.9}
    assert any("alpha" in f for f in checks.check_torus_thresholds(measured, 3))
    measured["alpha"] = 0.7
    assert checks.check_torus_thresholds(measured, 3) == []


def test_reference_transport_and_mixtures_agree_with_program(small_certificate):
    tc, _ = small_certificate
    metric = contraction.BlockMetric.hamming_on_bitmasks(3)
    ref = checks.exit_mixtures_reference(tc.kernel.rows, np.asarray(tc.partition.block_of))
    prog = contraction.exit_distributions_all(tc.kernel, tc.partition)
    assert np.abs(ref - prog).max() < checks.W_TOL
    w_ref = checks.transport_reference(ref[0], ref[5], metric.d)
    assert abs(w_ref - contraction.wasserstein_dual(ref[0], ref[5], metric)) < checks.W_TOL


# -- tracer ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    tr = Tracer()
    tr.spans = [
        [0, 0.0, 10.0, -1, 0],
        [0, 1.0, 3.0, 0, 0],
        [0, 2.0, 5.0, 0, 0],  # overlaps its sibling, as pool threads do
        [0, 9.0, 12.0, 0, 0],  # ends after its parent: only [9, 10] counts
    ]
    assert tr.self_times() == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 3.0, 3.0])


def test_tracer_wraps_every_attribute_and_restores_them():
    # the package exports a function named ``simulate``, which hides the
    # submodule attribute, so look the modules up by name
    bounds, simulate = (sys.modules[f"mixdecomp.{m}"] for m in ("bounds", "simulate"))
    original = simulate.simulate_states
    tr = Tracer()
    tr.install()
    try:
        assert bounds.simulate_states is simulate.simulate_states
        assert simulate.simulate_states is not original
        K, _ = chains.pince_nez(3)
        bounds.simulate_states(K, [0, 1], 5, seed=0)
    finally:
        tr.uninstall()
    assert bounds.simulate_states is original and simulate.simulate_states is original
    metrics = tr.layer_metrics(wall_s=1.0)
    assert metrics["simulate.path_steps"] == 10
    assert metrics["simulate.step_rows"] == 0


# -- speed probe ------------------------------------------------------------------


def test_speed_factor_scales_a_window_by_its_own_samples():
    quiet = [[0.01 * k, UNIT_REF_S] for k in range(100)]  # t in [0, 0.99]
    slow = [[1.0 + 0.01 * k, 2 * UNIT_REF_S] for k in range(100)]  # t in [1, 1.99]
    samples = quiet + slow
    assert speed_factor(samples, 0.0, 0.99) == pytest.approx(1.0)
    assert speed_factor(samples, 1.0, 2.0) == pytest.approx(0.5)
    assert probe_cpu(samples, 1.0, 2.0) == pytest.approx(100 * 2 * UNIT_REF_S)
    # too short a window borrows the nearest samples around its middle
    assert speed_factor(samples, 1.5, 1.5) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed_factor(quiet[: MIN_SAMPLES - 1], 0.0, 1.0)


# -- the command ------------------------------------------------------------------


def _run(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_lists_the_metrics_the_command_reports():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCH["per_layer"]] == list(LAYER_UNITS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_mode_runs_every_workload_with_checks(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--short")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = _run("--workload", "cli-two-loop", "--seed", "4", "--seconds", "0", "--trace", "1", "--short")
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        assert set(metrics) == set(LAYER_UNITS)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["simulate.path_steps"] > 0 and counts[0]["bounds.tail_queries"] > 0


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "torus-contraction", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
