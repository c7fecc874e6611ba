"""Configuration-driven experiment runner with machine-readable reports.

Configs are flat key=value INI sections (diff-friendly) or a JSON object
with the identical section/key schema.  Reports are JSON with a versioned
schema; every numeric result carries a provenance field (``exact``,
``mc(reps=..,seed=..)`` or ``formula(universal_constant=..)``).  Files are
written to a temp name and atomically renamed, so failures leave no
partial reports.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as iomod
from .bounds import PeresSousiConstants, occupation_bounds
from .chains import ChainSpec, generate
from .config import DEFAULT_TOLERANCES
from .decomposition import Partition, decompose
from .errors import AssertionFailed, ConfigInvalid
from .kernel import (
    StochasticKernel,
    check_reversible,
    kernel_hash,
    mixing_profile,
    relaxation_time,
    stationary_distribution,
)
from .suites import SUITE_NAMES, run_suite
from .wellcovering import MIN_AUDIT_REPS, concentration_audit

SCHEMA_VERSION = 1
TASK_NAMES = ("analyze", "bounds", "audit", "reproduce")
# The keys each config section takes.  [chain] also takes its family's
# parameters, which ChainSpec checks against chains.FAMILY_PARAMS.
SECTION_KEYS = {
    "chain": ("family", "seed"),
    "files": ("kernel", "partition"),
    "run": ("tasks", "seed", "output_dir", "suite", "format"),
    "constants": ("c_alpha", "c_alpha_prime", "calibrated"),
    "audit": ("i", "j", "reps"),
}


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    chain: ChainSpec | None
    kernel_path: str | None
    partition_path: str | None
    tasks: list[str]
    constants: PeresSousiConstants
    seed: int
    output_dir: Path
    audit_blocks: tuple[int, int] = (0, 1)
    audit_reps: int = 2000
    suite: str | None = None
    fmt: str = "json"

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".json":
            sections = json.loads(text)
            if not isinstance(sections, dict):
                raise ConfigInvalid("JSON config must be an object of sections")
            for name, section in sections.items():
                if not isinstance(section, dict):
                    raise ConfigInvalid(f"JSON config section {name!r} must be an object of keys")
            sections = {k: {kk: str(vv) for kk, vv in v.items()} for k, v in sections.items()}
        else:
            parser = configparser.ConfigParser()
            parser.optionxform = str  # keys are case-sensitive, as in JSON
            parser.read_string(text)
            sections = {s: dict(parser.items(s)) for s in parser.sections()}
        return cls.from_sections(sections)

    @classmethod
    def from_sections(cls, sections: dict) -> "ExperimentConfig":
        for name in sections:
            if name not in SECTION_KEYS:
                raise ConfigInvalid(f"unknown section [{name}]; known: {', '.join(SECTION_KEYS)}")
        run = _section(sections, "run")
        tasks_raw = run.get("tasks", "")
        tasks = [t.strip() for t in tasks_raw.split(",") if t.strip()]
        if not tasks:
            raise ConfigInvalid("run.tasks must name at least one task")
        for t in tasks:
            if t not in TASK_NAMES:
                raise ConfigInvalid(f"unknown task {t!r}; choose from {TASK_NAMES}")
        try:
            cfg = cls._parse(sections, run, tasks)
        except ValueError as exc:  # a malformed number or constant, or a chain ChainSpec refuses
            raise ConfigInvalid(str(exc)) from exc
        if cfg.fmt not in ("json", "csv"):
            raise ConfigInvalid(f"unknown format {cfg.fmt!r}")
        if "reproduce" in tasks and (cfg.suite not in SUITE_NAMES):
            raise ConfigInvalid(f"run.suite must be one of {SUITE_NAMES}")
        if "audit" in tasks and cfg.audit_reps < MIN_AUDIT_REPS:
            raise ConfigInvalid(f"audit.reps must be at least {MIN_AUDIT_REPS}")
        # the random streams take only seeds >= 0; chain.seed defaults to run.seed
        for key, seed in (("run.seed", cfg.seed), ("chain.seed", cfg.chain.seed if cfg.chain else 0)):
            if seed < 0:
                raise ConfigInvalid(f"{key} must be nonnegative, not {seed}")
        return cfg

    @classmethod
    def _parse(cls, sections: dict, run: dict, tasks: list[str]) -> "ExperimentConfig":
        chain = None
        kernel_path = partition_path = None
        if "chain" in sections and "files" in sections:
            raise ConfigInvalid("config has both [chain] and [files]; give one")
        if "chain" in sections:
            ch = dict(sections["chain"])
            family = ch.pop("family", None)
            if family is None:
                raise ConfigInvalid("chain.family is required")
            seed = int(ch.pop("seed", run.get("seed", 0)))
            chain = ChainSpec(family=family, params=ch, seed=seed)
        elif "files" in sections:
            fs = _section(sections, "files")
            kernel_path = fs.get("kernel")
            if kernel_path is None:
                raise ConfigInvalid("files.kernel is required")
            if not Path(kernel_path).exists():
                raise ConfigInvalid(f"kernel file not found: {kernel_path}")
            partition_path = fs.get("partition")
            if partition_path and not Path(partition_path).exists():
                raise ConfigInvalid(f"partition file not found: {partition_path}")
        else:
            raise ConfigInvalid("config needs a [chain] or [files] section")
        cons = _section(sections, "constants")
        calibrated = str(cons.get("calibrated", "false"))
        if calibrated.lower() not in ("true", "false"):
            raise ConfigInvalid(f"constants.calibrated must be true or false, not {calibrated!r}")
        constants = PeresSousiConstants(
            c_alpha=float(cons.get("c_alpha", 1.0)),
            c_alpha_prime=float(cons.get("c_alpha_prime", 1.0)),
            calibrated=calibrated.lower() == "true",
        )
        audit = _section(sections, "audit")
        out = Path(run.get("output_dir", "."))
        return cls(
            chain=chain,
            kernel_path=kernel_path,
            partition_path=partition_path,
            tasks=tasks,
            constants=constants,
            seed=int(run.get("seed", 0)),
            output_dir=out,
            audit_blocks=(int(audit.get("i", 0)), int(audit.get("j", 1))),
            audit_reps=int(audit.get("reps", 2000)),
            suite=run.get("suite"),
            fmt=run.get("format", "json"),
        )


def _section(sections: dict, name: str) -> dict:
    """Section ``name`` of a config (empty if absent), refusing keys it does not take."""
    section = sections.get(name, {})
    for key in section:
        if key not in SECTION_KEYS[name]:
            known = ", ".join(SECTION_KEYS[name])
            raise ConfigInvalid(f"unknown key {key!r} in [{name}]; it takes {known}")
    return section


def _load_instance(cfg: ExperimentConfig) -> tuple[StochasticKernel, Partition]:
    if cfg.chain is not None:
        try:
            return generate(cfg.chain)
        except KeyError as exc:
            raise ConfigInvalid(f"chain {cfg.chain.family!r} needs parameter {exc}") from exc
        except ValueError as exc:
            raise ConfigInvalid(f"chain {cfg.chain.family!r}: {exc}") from exc
    try:
        kernel = iomod.load_kernel(cfg.kernel_path)
        if cfg.partition_path:
            partition = iomod.load_partition(cfg.partition_path, kernel.n_states)
        else:
            partition = Partition.single_block(kernel.n_states)
    except ValueError as exc:  # a malformed line, number or index in a file
        raise ConfigInvalid(str(exc)) from exc
    return kernel, partition


def _val(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Execute the configured tasks and write report files.

    Returns the report payload; raises ConfigInvalid (exit 1 at the CLI) or
    AssertionFailed (exit 2) when an internal invariant breaks.
    """
    kernel, partition = _load_instance(cfg)
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "kernel_hash": kernel_hash(kernel),
        "n_states": kernel.n_states,
        "n_blocks": partition.n_blocks,
        "seed": cfg.seed,
        "constants": {
            "c_alpha": cfg.constants.c_alpha,
            "c_alpha_prime": cfg.constants.c_alpha_prime,
            "calibrated": cfg.constants.calibrated,
        },
        "tasks": {},
    }
    pi = stationary_distribution(kernel)
    resid = float(np.abs(pi.weights @ kernel.rows - pi.weights).sum())
    if resid > DEFAULT_TOLERANCES.stationary_residual:
        raise AssertionFailed("stationary-fixed-point", f"residual {resid:.3e}")

    # analyze (on more than one block), bounds and audit share one decomposition
    dec = None
    if {"bounds", "audit"} & set(cfg.tasks) or ("analyze" in cfg.tasks and partition.n_blocks > 1):
        dec = decompose(kernel, pi, partition, horizon=1 << 22)
    if "analyze" in cfg.tasks:
        report["tasks"]["analyze"] = _task_analyze(kernel, pi, partition, cfg, dec)
    if "bounds" in cfg.tasks:
        report["tasks"]["bounds"] = _task_bounds(kernel, pi, partition, cfg, dec)
    if "audit" in cfg.tasks:
        report["tasks"]["audit"] = _task_audit(kernel, pi, partition, cfg, dec)
    if "reproduce" in cfg.tasks:
        report["tasks"]["reproduce"] = reproduce(cfg.suite, cfg.seed, cfg.output_dir)
    iomod.write_json(cfg.output_dir / "report.json", report)
    if cfg.fmt == "csv":
        _emit_csv_views(cfg, report)
    return report


def reproduce(suite: str, seed: int, output_dir: Path) -> dict:
    """Run one reproduction suite, write its CSV and return its summary."""
    if seed < 0:
        raise ConfigInvalid(f"seed must be nonnegative, not {seed}")
    res = run_suite(suite, seed=seed)
    iomod.write_csv(Path(output_dir) / f"suite_{res.name}.csv", res.header, res.rows)
    return {
        "suite": res.name,
        "passed": res.passed,
        "measured": res.measured,
        "threshold": res.threshold,
        "seconds": round(res.seconds, 3),
    }


def _emit_csv_views(cfg: ExperimentConfig, report: dict) -> None:
    tasks = report["tasks"]
    if "analyze" in tasks:
        iomod.write_csv(
            cfg.output_dir / "profile.csv",
            ["t", "tv_distance"],
            [[t, d] for t, d in tasks["analyze"]["profile"]],
        )
    if "bounds" in tasks:
        iomod.write_csv(
            cfg.output_dir / "bounds.csv",
            ["name", "value", "feasible", "universal_constant_flag"],
            [
                [row["name"], row["value"]["value"], row["feasible"], row["universal_constant_flag"]]
                for row in tasks["bounds"]["comparison"]
            ],
        )


def _task_analyze(kernel, pi, partition, cfg, dec) -> dict:
    rev = check_reversible(kernel, pi)
    prof = mixing_profile(kernel, pi, horizon=1 << 22, epsilons=(0.25, 0.1, 0.05))
    out = {
        "kernel_hash": kernel_hash(kernel),
        "pi": _val([float(w) for w in pi.weights], "exact"),
        "tau_mix": _val(prof.mixing_time, "exact"),
        "relaxation_time": _val(
            relaxation_time(kernel, pi) if rev.is_reversible else None, "exact"
        ),
        "profile": [(int(t), float(d)) for t, d in enumerate(prof.distances)],
        "reversible": _val(rev.is_reversible, "exact"),
        "detailed_balance_residual": _val(rev.residual, "exact"),
    }
    if partition.n_blocks > 1:
        if rev.is_reversible:
            pb = partition.masses(pi)
            flux = pb[:, None] * dec.projected.rows
            proj_resid = float(np.abs(flux - flux.T).max())
            if proj_resid > DEFAULT_TOLERANCES.detailed_balance:
                raise AssertionFailed("projected-reversibility", f"residual {proj_resid:.3e}")
        out["decomposition"] = {
            "blocks": int(partition.n_blocks),
            "masses": _val([float(x) for x in dec.block_masses], "exact"),
            "phi_i": _val(list(dec.block_mixing_times), "exact"),
            "phi_max": _val(dec.phi_max, "exact"),
            "projected_kernel": _val(dec.projected.rows.tolist(), "exact"),
        }
    return out


def _task_bounds(kernel, pi, partition, cfg, dec) -> dict:
    masses = partition.masses(pi)
    phis = dec.block_mixing_times
    if any(p is None for p in phis):
        raise AssertionFailed("block-mixing-horizon", "a trace never crossed 1/4")
    phi = [float(p) for p in phis]
    order = np.argsort(masses)[::-1]
    cum = np.cumsum(masses[order])
    take = int(np.searchsorted(cum, 0.75)) + 1
    I = sorted(int(b) for b in order[:take])
    beta = min(0.9, max(0.70, float(masses[I].sum()) - 1e-9))
    results = occupation_bounds(
        kernel, pi, partition, phi, I, 1.0 / 3.0, beta, cfg.constants, 1 << 14, cfg.seed + 1
    )
    flag = not cfg.constants.calibrated
    return {
        "comparison": [
            {
                "name": r.name,
                "value": _val(
                    r.value,
                    f"formula(universal_constant={str(flag).lower()})",
                ),
                "feasible": r.feasible,
                "ingredients": r.ingredients,
                "universal_constant_flag": r.universal_constant_flag,
            }
            for r in results
        ]
    }


def _task_audit(kernel, pi, partition, cfg, dec) -> dict:
    i, j = cfg.audit_blocks
    if not (0 <= i < partition.n_blocks and 0 <= j < partition.n_blocks):
        raise ConfigInvalid(f"audit blocks {i}, {j} outside 0..{partition.n_blocks - 1}")
    phi_max = float(max(p for p in dec.block_mixing_times if p is not None))
    rows = concentration_audit(
        kernel,
        pi,
        partition,
        i,
        j,
        t_grid=(100, 400),
        c_grid=(0.05, 0.1),
        reps=cfg.audit_reps,
        seed=cfg.seed,
        phi_max=phi_max,
    )
    iomod.write_csv(
        cfg.output_dir / "audit.csv",
        ["c", "t", "empirical", "wilson_hi", "bound", "orientation"],
        [[r.c, r.t, r.empirical, r.wilson_hi, r.bound, r.orientation] for r in rows],
    )
    return {
        "blocks": [i, j],
        "rows": [
            {
                "orientation": r.orientation,
                "t": r.t,
                "c": r.c,
                "empirical": _val(r.empirical, f"mc(reps={r.reps},seed={cfg.seed})"),
                "wilson_hi": r.wilson_hi,
                "bound": _val(r.bound, "formula(universal_constant=false)"),
                "holds": r.holds(),
            }
            for r in rows
        ],
    }
