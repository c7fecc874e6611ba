"""Command-line interface: analyze | bounds | audit | reproduce | simulate.

Exit codes: 0 success; 1 invalid configuration or arguments, or a typed
error such as ``HorizonCap`` or ``SingularSystem`` during a run; 2 an
internal invariant assertion failed during a run, or a ``reproduce`` suite
failed its check.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AssertionFailed, ConfigInvalid, MixdecompError
from .io import dump_trajectory
from .report import ExperimentConfig, _load_instance, reproduce, run_experiment
from .simulate import simulate
from .suites import SUITE_NAMES


def _chain_sections(args) -> dict:
    sections: dict = {}
    if args.chain and (args.kernel or args.partition):
        raise ConfigInvalid("--chain cannot be combined with --kernel or --partition")
    if args.chain:
        family, _, rest = args.chain.partition(":")
        params = {}
        if rest:
            for item in rest.split(","):
                k, _, v = item.partition("=")
                if not _ or not k:
                    raise ConfigInvalid(f"bad chain parameter {item!r} (expected key=value)")
                params[k.strip()] = v.strip()
        sections["chain"] = {"family": family.strip(), **params}
    elif args.kernel:
        sections["files"] = {"kernel": args.kernel}
        if args.partition and args.partition != "canonical":
            sections["files"]["partition"] = args.partition
    else:
        raise ConfigInvalid("provide --chain or --kernel")
    return sections


def _constants_section(spec: str | None) -> dict:
    out = {}
    if spec:
        for item in spec.split(","):
            k, _, v = item.partition("=")
            out[k.strip()] = v.strip()
        out.setdefault("calibrated", "true")
    return out


def _common_config(args, tasks: str, extra: dict | None = None) -> ExperimentConfig:
    sections = _chain_sections(args)
    sections["run"] = {
        "tasks": tasks,
        "seed": str(args.seed),
        "output_dir": args.out,
        "format": args.format,
    }
    if args.constants:
        sections["constants"] = _constants_section(args.constants)
    if extra:
        for sec, kv in extra.items():
            sections.setdefault(sec, {}).update(kv)
    return ExperimentConfig.from_sections(sections)


def _add_instance_args(p):
    p.add_argument("--chain", help="family:key=value,... (e.g. pince_nez:m=8)")
    p.add_argument("--kernel", help="kernel file path")
    p.add_argument("--partition", help="partition file path or 'canonical'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", default="json", choices=["json", "csv"], help="report format")
    p.add_argument("--constants", help="c_alpha=..,c_alpha_prime=..")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mixdecomp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    for name in ("analyze", "bounds"):
        p = sub.add_parser(name)
        _add_instance_args(p)

    p = sub.add_parser("audit")
    _add_instance_args(p)
    p.add_argument("--blocks", default="0,1", help="i,j block pair to audit")
    p.add_argument("--reps", type=int, default=2000)

    p = sub.add_parser("reproduce")
    p.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    p.add_argument("--seed", type=int, required=True, help="seeds are mandatory in suites")
    p.add_argument("--out", default=".")

    p = sub.add_parser("simulate")
    _add_instance_args(p)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--steps", type=int, default=1000)

    p = sub.add_parser("run")
    p.add_argument("config", help="INI or JSON experiment config file")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = ExperimentConfig.from_file(args.config)
            report = run_experiment(cfg)
            print(f"report written to {cfg.output_dir / 'report.json'}")
            return 0
        if args.command == "reproduce":
            rep = reproduce(args.suite, args.seed, Path(args.out))
            status = "PASS" if rep["passed"] else "FAIL"
            print(f"{rep['suite']}: {status}  measured={rep['measured']}")
            return 0 if rep["passed"] else 2
        if args.command == "simulate":
            cfg = _common_config(args, "analyze")
            kernel, partition = _load_instance(cfg)
            try:
                traj, record = simulate(kernel, args.start, args.steps, args.seed, partition)
            except ValueError as exc:  # a start outside the chain, or no steps
                raise ConfigInvalid(f"--start {args.start} --steps {args.steps}: {exc}") from exc
            out = Path(args.out) / "trajectory.bin"
            dump_trajectory(out, traj, kernel.n_states)
            print(f"wrote {out} (T={record.T}, occupation={record.kappa.tolist()})")
            return 0
        tasks = args.command
        extra = None
        if args.command == "audit":
            try:
                i, j = (int(x) for x in args.blocks.split(","))
            except ValueError as exc:
                raise ConfigInvalid(f"--blocks must be two block indices i,j, not {args.blocks!r}") from exc
            extra = {"audit": {"i": str(i), "j": str(j), "reps": str(args.reps)}}
        cfg = _common_config(args, tasks, extra)
        run_experiment(cfg)
        print(f"report written to {cfg.output_dir / 'report.json'}")
        return 0
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except AssertionFailed as exc:
        print(f"{exc}", file=sys.stderr)
        return 2
    except MixdecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
