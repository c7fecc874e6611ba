"""The benchmark's workloads: inputs made from a seed, one timed operation,
and the checks of its output.

Each workload's ``prepare(seed, out_dir, short)`` builds the input the
program receives, ``operate(input)`` is the timed operation, and
``check(input, output)`` returns failure messages from ``checks``.
``short`` shrinks what the workload's public entry point lets the caller
size; it is used by the benchmark's own tests.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mixdecomp import chains, contraction, report, suites

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path, bool], Any]
    operate: Callable[[Any], Any]
    check: Callable[[Any, Any], list[str]]


# -- cli-two-loop: report.run_experiment, tasks analyze,bounds,audit ---------


@dataclass(frozen=True)
class CliInput:
    config: report.ExperimentConfig
    m: int
    audit_reps: int


def _cli_prepare(seed: int, out_dir: Path, short: bool) -> CliInput:
    m, reps = (4, 1000) if short else (16, 10_000)
    sections = {
        "chain": {"family": "pince_nez", "m": str(m)},
        "run": {"tasks": "analyze,bounds,audit", "seed": str(seed), "output_dir": str(out_dir)},
        "constants": {"c_alpha": "1.3", "c_alpha_prime": "1.3", "calibrated": "true"},
        "audit": {"i": "0", "j": "1", "reps": str(reps)},
    }
    return CliInput(report.ExperimentConfig.from_sections(sections), m, reps)


def _cli_operate(inp: CliInput) -> dict:
    return report.run_experiment(inp.config)


def _cli_check(inp: CliInput, _returned: dict) -> list[str]:
    out_dir = inp.config.output_dir
    try:
        parsed = checks.parse_json_strict((out_dir / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json does not parse: {exc}"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return checks.check_cli_report(parsed, chains.pince_nez(inp.m)[0].rows, inp.audit_reps)


# -- calibrated-table: suites.calibrated_bound_table -------------------------


def _table_check(seed: int, output) -> list[str]:
    rows, constants = output
    kernels = {
        "pince_nez_m16": chains.pince_nez(16)[0].rows,
        "toy_kcip_m8": chains.toy_kcip(8, 1)[0].rows,
    }
    return checks.check_calibrated_table(rows, constants, kernels)


# -- torus-contraction: suites.torus_constants --------------------------------

TORUS_M = 3  # the suite certifies the m=3 torus trace; its thresholds use m


@dataclass
class TorusOutput:
    suite: suites.SuiteResult
    estimate: contraction.ContractionEstimate
    kernel: Any
    partition: Any


def _torus_operate(seed: int) -> TorusOutput:
    # Keep the certificate the suite computes (its SuiteResult reports only
    # alpha and beta) by wrapping the name the suite calls.
    inner = suites.estimate_contraction
    seen = {}

    def keep(kernel, partition, metric, *args, **kwargs):
        seen.update(kernel=kernel, partition=partition)
        seen["estimate"] = inner(kernel, partition, metric, *args, **kwargs)
        return seen["estimate"]

    suites.estimate_contraction = keep
    try:
        result = suites.torus_constants(seed=seed)
    finally:
        suites.estimate_contraction = inner
    return TorusOutput(result, seen["estimate"], seen["kernel"], seen["partition"])


def _torus_check(seed: int, out: TorusOutput) -> list[str]:
    fails = [] if out.suite.passed else [f"suite reports failure: {out.suite.measured}"]
    fails += checks.check_torus_thresholds(out.suite.measured, TORUS_M)
    block_of = np.asarray(out.partition.block_of)
    fails += checks.check_contraction_pairs(
        out.estimate,
        out.kernel.rows,
        block_of,
        checks.hamming_on_bitmasks(TORUS_M),
        lambda x: contraction.exit_distribution(out.kernel, out.partition, x),
    )
    return fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-two-loop", _cli_prepare, _cli_operate, _cli_check),
        Workload(
            "calibrated-table",
            lambda seed, out_dir, short: seed,
            lambda seed: suites.calibrated_bound_table(seed=seed),
            _table_check,
        ),
        Workload("torus-contraction", lambda seed, out_dir, short: seed, _torus_operate, _torus_check),
    )
}
