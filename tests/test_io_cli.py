import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixdecomp import decomposition
from mixdecomp import rng as rngmod
from mixdecomp.chains import pince_nez
from mixdecomp.cli import main
from mixdecomp.config import MAX_DENSE_STATES
from mixdecomp.decomposition import Partition
from mixdecomp.errors import ConfigInvalid, StateSpaceTooLarge
from mixdecomp.io import (
    dump_trajectory,
    load_kernel,
    load_partition,
    load_trajectory,
    save_kernel,
    save_partition,
    write_json,
)
from mixdecomp.kernel import StochasticKernel
from mixdecomp.report import ExperimentConfig, run_experiment
from mixdecomp.simulate import RowSampler


def test_kernel_file_roundtrip_dense(tmp_path):
    k, _ = pince_nez(4)
    path = tmp_path / "k.txt"
    save_kernel(k, path)
    back = load_kernel(path)
    assert np.abs(back.rows - k.rows).max() <= 1e-15


def test_kernel_file_sparse_variant(tmp_path):
    path = tmp_path / "sparse.txt"
    path.write_text("# two-state flip\n2\n0 1 0.25\n1 0 0.5\n")
    k = load_kernel(path)
    assert np.allclose(k.rows, [[0.75, 0.25], [0.5, 0.5]])


def test_kernel_file_labels(tmp_path):
    path = tmp_path / "lab.txt"
    path.write_text("# label: a\n# label: b\n2\n0.5 0.5\n0.5 0.5\n")
    k = load_kernel(path)
    assert k.labels == ("a", "b")


def test_kernel_file_with_nan_rejected(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("2\n0 1 nan\n1 0 0.5\n")
    with pytest.raises(ValueError, match="finite"):
        load_kernel(path)


@pytest.mark.parametrize(
    "text, line, total",
    [
        ("2\n0.5 0.4\n0.5 0.5\n", 2, "0.9"),
        ("3\n0.2 0.3 0.5\n0.5 0.3 0.1\n0.1 0.1 0.8\n", 3, "0.9"),
    ],
)
def test_dense_kernel_row_off_one_is_named(tmp_path, text, line, total):
    # an n x n file is dense; with n = 3 its rows also read as triples, and
    # the row sum is named when that reading fails too
    path = tmp_path / "off.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"off.txt, line {line}: dense row sums to {total}, not 1"):
        load_kernel(path)


def test_dense_row_checked_at_the_kernel_row_sum_tolerance(tmp_path):
    # 1e-7 off passes a loose file check but not the kernel's 1e-9, so the
    # file check names the file, the line and the sum
    path = tmp_path / "near.txt"
    path.write_text("2\n0.5 0.5000001\n0.5 0.5\n")
    with pytest.raises(ValueError, match="near.txt, line 2: dense row sums to 1.0000001, not 1"):
        load_kernel(path)


def test_three_state_triples_still_read_as_sparse(tmp_path):
    path = tmp_path / "sparse3.txt"
    path.write_text("3\n0 1 0.5\n1 2 0.5\n2 0 0.25\n")
    k = load_kernel(path)
    assert np.allclose(k.rows, [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.25, 0.0, 0.75]])


def test_kernel_file_over_dense_cap_rejected_before_allocation(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text("5001\n0 1 0.5\n")
    with pytest.raises(StateSpaceTooLarge):
        load_kernel(path)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_write_json_is_strict(tmp_path):
    path = tmp_path / "r.json"
    payload = {
        "value": float("inf"),
        "x": np.float64("nan"),
        "b": np.bool_(True),
        "a": np.arange(2),
        "t": (1, 2.5),
    }
    write_json(path, payload)
    back = json.loads(path.read_text(), parse_constant=_refuse_constant)
    assert back == {"value": "inf", "x": "nan", "b": True, "a": [0, 1], "t": [1, 2.5]}


def test_partition_file_roundtrip(tmp_path):
    p = Partition.from_block_of([0, 1, 1, 0])
    path = tmp_path / "p.txt"
    save_partition(p, path)
    back = load_partition(path)
    assert np.array_equal(back.block_of, p.block_of)


def test_partition_file_missing_state(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n2 1\n")
    with pytest.raises(ValueError):
        load_partition(path, n_states=3)


def test_trajectory_dump_roundtrip(tmp_path):
    traj = np.array([0, 3, 2, 2, 1], dtype=np.int64)
    path = tmp_path / "t.bin"
    dump_trajectory(path, traj, n_states=4)
    raw = path.read_bytes()
    assert raw[:4] == b"MXDT"
    back, n = load_trajectory(path)
    assert n == 4 and np.array_equal(back, traj)


def _analyze_config(tmp_path, seed=3):
    return ExperimentConfig.from_sections(
        {
            "chain": {"family": "pince_nez", "m": "6"},
            "run": {"tasks": "analyze", "seed": str(seed), "output_dir": str(tmp_path)},
        }
    )


def test_run_experiment_report_schema(tmp_path):
    cfg = _analyze_config(tmp_path)
    report = run_experiment(cfg)
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk["schema_version"] == 1
    a = on_disk["tasks"]["analyze"]
    assert set(a) >= {"kernel_hash", "pi", "tau_mix", "relaxation_time", "profile"}
    assert a["tau_mix"]["provenance"] == "exact"
    assert a["decomposition"]["phi_max"]["value"] == max(a["decomposition"]["phi_i"]["value"])


def test_report_hash_stable_across_runs(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        cfg = ExperimentConfig.from_sections(
            {
                "chain": {"family": "toy_kcip", "m": "4", "d": "1"},
                "run": {"tasks": "analyze,audit", "seed": "5", "output_dir": str(d)},
                "audit": {"i": "0", "j": "1", "reps": "1000"},
            }
        )
        run_experiment(cfg)
    h1 = hashlib.sha256((d1 / "report.json").read_bytes()).hexdigest()
    h2 = hashlib.sha256((d2 / "report.json").read_bytes()).hexdigest()
    assert h1 == h2
    assert (d1 / "audit.csv").read_text() == (d2 / "audit.csv").read_text()


def test_experiment_computes_block_mixing_times_once(tmp_path, monkeypatch):
    # every block mixing time is one trace profile in the decomposition
    # module, and the traces are profiled together
    calls = []
    inner = decomposition.mixing_profiles

    def counting(kernels, *args, **kwargs):
        calls.extend(1 for _ in kernels)
        return inner(kernels, *args, **kwargs)

    monkeypatch.setattr(decomposition, "mixing_profiles", counting)
    cfg = ExperimentConfig.from_sections(
        {
            "chain": {"family": "pince_nez", "m": "4"},
            "run": {"tasks": "analyze,bounds,audit", "seed": "2", "output_dir": str(tmp_path)},
            "audit": {"i": "0", "j": "1", "reps": "1000"},
        }
    )
    report = run_experiment(cfg)
    assert len(calls) == 2  # pince_nez has two blocks
    assert set(report["tasks"]) == {"analyze", "bounds", "audit"}


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_sections({"run": {"tasks": ""}})
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_sections(
            {"run": {"tasks": "analyze"}, "files": {"kernel": str(tmp_path / "nope.txt")}}
        )
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_sections(
            {"chain": {"family": "pince_nez", "m": "6"}, "run": {"tasks": "dance"}}
        )
    for value in ("nan", "inf", "0", "abc"):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_sections(
                {
                    "chain": {"family": "pince_nez", "m": "6"},
                    "run": {"tasks": "bounds"},
                    "constants": {"c_alpha": value},
                }
            )
    # a key or section the parser does not know is refused, naming it
    kernel = tmp_path / "k.txt"
    save_kernel(pince_nez(4)[0], kernel)
    chain = {"family": "pince_nez", "m": "6"}
    for extra, match in (
        ({"constants": {"c_alfa": "2.0", "calibrated": "true"}}, r"'c_alfa' in \[constants\]"),
        ({"audit": {"i": "0", "jj": "1"}}, r"'jj' in \[audit\]"),
        ({"run": {"tasks": "analyze", "seeds": "1"}}, r"'seeds' in \[run\]"),
        ({"chain": {**chain, "q": "3"}}, r"'q' in \[chain\]"),
        ({"chain": {"family": "kcip", "graph": "foo", "size": "2"}}, r"\[chain\] graph"),
        ({"files": {"kernel": str(kernel)}}, r"both \[chain\] and \[files\]"),
        ({"constant": {"c_alpha": "2.0"}}, r"unknown section \[constant\]"),
    ):
        with pytest.raises(ConfigInvalid, match=match):
            ExperimentConfig.from_sections({"chain": chain, "run": {"tasks": "analyze"}, **extra})
    # calibrated is true or false in any case, and nothing else is read as false
    for value in ("yes", "1", "on", ""):
        with pytest.raises(ConfigInvalid, match=rf"constants.calibrated .* not '{value}'"):
            ExperimentConfig.from_sections(
                {"chain": chain, "run": {"tasks": "bounds"}, "constants": {"calibrated": value}}
            )
    for value, want in (("TRUE", True), ("False", False)):
        cfg = ExperimentConfig.from_sections(
            {"chain": chain, "run": {"tasks": "bounds"}, "constants": {"calibrated": value}}
        )
        assert cfg.constants.calibrated is want
    with pytest.raises(ConfigInvalid, match=r"'partitions' in \[files\]"):
        ExperimentConfig.from_sections(
            {"files": {"kernel": str(kernel), "partitions": "p.txt"}, "run": {"tasks": "analyze"}}
        )


def test_config_json_equivalent(tmp_path):
    payload = {
        "chain": {"family": "pince_nez", "m": 6},
        "run": {"tasks": "analyze", "seed": 1, "output_dir": str(tmp_path)},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(payload))
    cfg = ExperimentConfig.from_file(p)
    assert cfg.chain.family == "pince_nez"

    ini = tmp_path / "cfg.ini"
    ini.write_text(
        f"[chain]\nfamily = pince_nez\nm = 6\n[run]\ntasks = analyze\nseed = 1\noutput_dir = {tmp_path}\n"
    )
    cfg2 = ExperimentConfig.from_file(ini)
    assert cfg2.chain.params == cfg.chain.params

    # keys are case-sensitive in both forms: the torus takes C, not c
    torus = {"family": "torus_metropolis", "m": "2", "l": "2", "C": "3"}
    p.write_text(json.dumps({"chain": torus, "run": payload["run"]}))
    ini.write_text(
        "[chain]\n" + "".join(f"{k} = {v}\n" for k, v in torus.items())
        + f"[run]\ntasks = analyze\nseed = 1\noutput_dir = {tmp_path}\n"
    )
    from_json, from_ini = ExperimentConfig.from_file(p), ExperimentConfig.from_file(ini)
    assert from_ini.chain == from_json.chain
    assert run_experiment(from_ini) == run_experiment(from_json)


def test_readme_ini_example_loads(tmp_path):
    # the documented schema cannot drift from the strict parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert "output_dir = results\n" in example
    path = tmp_path / "experiment.ini"
    path.write_text(example.replace("output_dir = results", f"output_dir = {tmp_path}"))
    cfg = ExperimentConfig.from_file(path)
    assert cfg.chain.family == "pince_nez" and cfg.output_dir == tmp_path
    assert cfg.tasks == ["analyze", "bounds", "audit"] and cfg.constants.calibrated


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["analyze", "--chain", "pince_nez:m=6", "--out", str(tmp_path)]) == 0
    kernel, part = tmp_path / "k.txt", tmp_path / "p.txt"
    save_kernel(pince_nez(4)[0], kernel)
    part.write_text("".join(f"{s} {s // 4}\n" for s in range(8)))
    ring = "8\n" + "".join(f"{i} {(i + 1) % 8} 0.25\n{(i + 1) % 8} {i} 0.25\n" for i in range(8))
    argv = ["analyze", "--kernel", str(kernel), "--partition", str(part), "--out", str(tmp_path)]
    assert main(argv) == 0
    # (file text, the 1-based line its error names)
    for name, (text, lineno) in {
        "kernel_negative": (ring + "-1 1 0.1\n", 18),  # would fill row 7
        "kernel_past_n": (ring + "8 1 0.1\n", 18),
        "kernel_malformed": (ring + "0 1 half\n", 18),
        "kernel_count_malformed": ("# ring\neight\n" + ring[2:], 2),
        "kernel_dense_malformed": ("2\n0.5 0.5\n\n0.5 half\n", 4),
        "partition_negative": ("0 0\n1 0\n2 0\n3 0\n4 1\n5 1\n6 1\n-1 1\n", 8),  # state 7
        "partition_past_n": ("0 0\n1 0\n2 0\n3 0\n4 1\n5 1\n6 1\n7 1\n8 1\n", 9),
        "partition_malformed": ("0 0\n1 zero\n", 2),
        "partition_one_field": ("# blocks\n0 0\n1\n", 3),
    }.items():
        (tmp_path / name).write_text(text)
        given = {"kernel": kernel, "partition": part, name.split("_")[0]: tmp_path / name}
        argv = ["analyze", "--kernel", str(given["kernel"]), "--partition", str(given["partition"])]
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 1, name
        assert capsys.readouterr().err.startswith(f"config error: {tmp_path / name}, line {lineno}: ")
    # bad outside input ends in one "config error:" line and exit 1, not a traceback
    for argv in (
        ["analyze", "--chain", "pince_nez:m=4,q=3"],
        ["analyze", "--chain", "kcip:graph=foo,size=2"],
        ["analyze", "--chain", "pince_nez:m=4", "--kernel", str(kernel)],
        ["analyze", "--chain", "pince_nez:m=4", "--partition", str(part)],
        ["bounds", "--chain", "pince_nez:m=4", "--constants", "c_alfa=2.0"],
        ["analyze", "--chain", "pince_nez:m<oops"],
        ["analyze", "--chain", "nosuch:m=4"],
        ["analyze", "--chain", "pince_nez"],
        ["analyze", "--chain", "pince_nez:m=-1"],
        ["bounds", "--chain", "pince_nez:m=4", "--constants", "c_alpha=nan"],
        ["audit", "--chain", "pince_nez:m=4", "--reps", "10"],
        ["audit", "--chain", "pince_nez:m=4", "--blocks", "0,5"],
        ["audit", "--chain", "pince_nez:m=4", "--blocks", "0"],
        ["simulate", "--chain", "pince_nez:m=4", "--steps", "5", "--start", "-1"],
        ["simulate", "--chain", "pince_nez:m=4", "--steps", "5", "--start", "99"],
        ["simulate", "--chain", "pince_nez:m=4", "--steps", "0"],
    ):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "bad")]) == 1, argv
        assert capsys.readouterr().err.startswith("config error: "), argv
    # (config file, its text, what its error names)
    for name, text, names in (
        ("bad.ini", "[run]\ntasks =\n", "run.tasks"),
        (
            "bad.ini",
            f"[chain]\nfamily = pince_nez\nm = 4\n[files]\nkernel = {kernel}\n[run]\ntasks = analyze\n",
            "[files]",
        ),
        (
            "bad.json",
            json.dumps({"chain": {"family": "pince_nez", "m": 4}, "run": "analyze"}),
            "section 'run'",
        ),
    ):
        cfg = tmp_path / name
        cfg.write_text(text)
        capsys.readouterr()
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and names in err, text


def test_run_horizon_key_is_refused(tmp_path, capsys):
    # [run] horizon is gone: 0 ended in an untyped ValueError and a small
    # value in the exit-2 invariant block-mixing-horizon
    cfg = tmp_path / "horizon.ini"
    cfg.write_text("[chain]\nfamily = pince_nez\nm = 4\n[run]\ntasks = analyze\nhorizon = 0\n")
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error: unknown key 'horizon' in [run]")


# The three-state kernel of README's library tour, in the dense file format.
README_KERNEL = "3\n0.5 0.5 0.0\n0.25 0.5 0.25\n0.0 0.5 0.5\n"


@pytest.mark.parametrize("command", ["analyze", "bounds", "audit", "simulate"])
def test_cli_on_one_block_kernel_file(tmp_path, capsys, command):
    # without a partition the whole kernel is one block: each command
    # finishes, or refuses with one typed line, never with a traceback
    kernel = tmp_path / "k.txt"
    kernel.write_text(README_KERNEL)
    code = main([command, "--kernel", str(kernel), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0 or (code == 1 and err.startswith(("config error: ", "error: "))), (code, err)


def test_cli_bounds_on_one_block_leaves_out_regular_escape(tmp_path):
    # the one minimal heavy set is every state, hit at time 0: a hitting
    # scale of 0 gave bound_regular "inputs must be positive" and exit 1
    kernel = tmp_path / "k.txt"
    kernel.write_text(README_KERNEL)
    assert main(["bounds", "--kernel", str(kernel), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    names = [row["name"] for row in report["tasks"]["bounds"]["comparison"]]
    assert names == ["basic_occupation", "basic_joint_occupation"]


@pytest.mark.parametrize(
    "argv, key",
    [
        (["analyze", "--chain", "pince_nez:m=4", "--seed", "-1"], "run.seed"),
        (["bounds", "--chain", "pince_nez:m=4", "--seed", "-1"], "run.seed"),
        (["audit", "--chain", "pince_nez:m=4", "--seed", "-1"], "run.seed"),
        (["simulate", "--chain", "pince_nez:m=4", "--steps", "5", "--seed", "-1"], "run.seed"),
        (["reproduce", "--suite", "kcip_reversibility", "--seed", "-5"], "seed"),
    ],
)
def test_cli_refuses_negative_seed(tmp_path, capsys, argv, key):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key} must be nonnegative")


def test_config_refuses_negative_chain_seed(tmp_path, capsys):
    cfg = tmp_path / "neg.ini"
    cfg.write_text("[chain]\nfamily = pince_nez\nm = 4\nseed = -3\n[run]\ntasks = analyze\n")
    assert main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error: chain.seed must be nonnegative")


def test_cli_bounds_and_files(tmp_path):
    k, part = pince_nez(4)
    from mixdecomp.io import save_kernel, save_partition

    kp = tmp_path / "kernel.txt"
    pp = tmp_path / "part.txt"
    save_kernel(k, kp)
    save_partition(part, pp)
    code = main(
        [
            "bounds",
            "--kernel",
            str(kp),
            "--partition",
            str(pp),
            "--out",
            str(tmp_path),
            "--seed",
            "2",
            "--constants",
            "c_alpha=1.2,c_alpha_prime=1.2",
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    comp = report["tasks"]["bounds"]["comparison"]
    names = {row["name"] for row in comp}
    assert "basic_occupation" in names
    for row in comp:
        assert not row["universal_constant_flag"]  # constants were supplied


def test_cli_simulate_writes_trajectory(tmp_path):
    code = main(
        [
            "simulate",
            "--chain",
            "toy_kcip:m=4,d=1",
            "--steps",
            "200",
            "--seed",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    traj, n = load_trajectory(tmp_path / "trajectory.bin")
    assert n == 12 and len(traj) == 201


def test_console_entrypoint():
    out = subprocess.run(
        [sys.executable, "-m", "mixdecomp.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0
    for sub in ("analyze", "bounds", "audit", "reproduce", "simulate"):
        assert sub in out.stdout


def test_bounds_flag_propagates_when_uncalibrated(tmp_path):
    code = main(["bounds", "--chain", "pince_nez:m=4", "--out", str(tmp_path), "--seed", "1"])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for row in report["tasks"]["bounds"]["comparison"]:
        assert row["universal_constant_flag"]
        assert "universal_constant=true" in row["value"]["provenance"]


def test_reproduce_suite_csv_rows(tmp_path):
    cfg = ExperimentConfig.from_sections(
        {
            "chain": {"family": "pince_nez", "m": "8"},
            "run": {
                "tasks": "reproduce",
                "suite": "pince_nez_scaling",
                "seed": "0",
                "output_dir": str(tmp_path),
            },
        }
    )
    run_experiment(cfg)
    lines = (tmp_path / "suite_pince_nez_scaling.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "m"
    assert len(lines) == 1 + 3  # header + one row per chain size


@pytest.mark.parametrize(
    "chain,n_states",
    [("torus_metropolis:m=8,l=3,C=7", 6**8), ("kcip:graph=lattice3d,size=3", 2**27 - 1)],
)
def test_cli_oversized_chain_is_config_error(tmp_path, capsys, chain, n_states):
    code = main(["analyze", "--chain", chain, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: dense kernels capped at {MAX_DENSE_STATES} states, got {n_states}\n"


@pytest.mark.parametrize(
    "argv",
    [
        # 6,400 paths x 16,385 steps over a path budget lowered to 1 MiB,
        # refused before anything is simulated
        ["bounds", "--chain", "pince_nez:m=16"],
        # 2,000,000 dense states, refused before np.zeros
        ["analyze", "--chain", "pince_nez:m=1000000"],
    ],
)
def test_cli_over_size_budget_is_config_error(tmp_path, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated paths over the budget")

    monkeypatch.setattr("mixdecomp.config.MAX_PATH_BYTES", 1 << 20)
    # the provider's stream, and every sampler step anywhere
    monkeypatch.setattr("mixdecomp.tails.PathStream", refuse)
    monkeypatch.setattr(RowSampler, "transitions", refuse)
    assert main(argv + ["--out", str(tmp_path)]) == 1


def test_cli_bounds_on_216_state_torus_completes(tmp_path, monkeypatch):
    # Every block of this torus is kept through T = 16,384 with probability
    # 0.9994, so the exact escape certificate decides both basic bounds and
    # none of the 216 x 200 paths is simulated.
    def refuse(*args, **kwargs):
        raise AssertionError("simulated paths the escape certificate rules out")

    monkeypatch.setattr("mixdecomp.tails.PathStream", refuse)
    monkeypatch.setattr(RowSampler, "transitions", refuse)
    argv = ["bounds", "--chain", "torus_metropolis:m=3,l=3,C=7", "--out", str(tmp_path)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    rows = {r["name"]: r for r in report["tasks"]["bounds"]["comparison"]}
    for name in ("basic_occupation", "basic_joint_occupation"):
        assert rows[name]["feasible"] is False
        assert rows[name]["value"]["value"] == "inf"
        assert rows[name]["ingredients"]["tail_provenance"].startswith("exact-escape(block=")


def test_cli_bounds_tail_provenance_pinned(tmp_path):
    # how far the shared Monte Carlo provider simulated for the occupation
    # rows of the seed-0 run: the searches must ask no further horizons
    argv = ["bounds", "--chain", "pince_nez:m=16", "--seed", "0", "--out", str(tmp_path)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    rows = report["tasks"]["bounds"]["comparison"]
    assert [r["ingredients"].get("tail_provenance") for r in rows] == [
        "mc(reps=200,seed=1,level=0.99/query,T_sim=2304)",
        "min-marginal(mc(reps=200,seed=1,level=0.99/query,T_sim=2304))",
        None,
    ]


def test_cli_reproduce_builds_no_chain_instance(tmp_path, monkeypatch):
    def refuse(spec):
        raise AssertionError(f"reproduce built a chain instance: {spec}")

    monkeypatch.setattr("mixdecomp.report.generate", refuse)
    code = main(["reproduce", "--suite", "toy_kcip_scaling", "--seed", "0", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "suite_toy_kcip_scaling.csv").exists()
    assert not (tmp_path / "report.json").exists()
