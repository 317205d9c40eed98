import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from beliefsim import cli, load_scenario, parse_scenario, simulator
from beliefsim.cli import build_parser, main


def read(path):
    return path.read_bytes()


class TestValidate:
    def test_ok(self, scenario_dir, capsys):
        assert main(["validate", str(scenario_dir / "intersection.scn")]) == 0
        assert "OK: smart-intersection" in capsys.readouterr().out

    def test_missing_file_is_io_failure(self, capsys):
        assert main(["validate", "/nonexistent/path.scn"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_file_names_offending_key(self, tmp_path, scenario_dir, capsys):
        doc = yaml.safe_load((scenario_dir / "intersection.scn").read_text())
        doc["drift"] = [{"agent": "s1", "feature": "distance", "step": 0, "detla": 2.0}]
        bad = tmp_path / "bad.scn"
        bad.write_text(yaml.safe_dump(doc))
        assert main(["validate", str(bad)]) == 1
        assert "drift[0].detla" in capsys.readouterr().err


class TestRun:
    def test_writes_all_outputs(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["run", str(scenario_dir / "intersection.scn"), "--trials", "50",
             "--out-dir", str(out)]
        )
        assert code == 0
        for name in ("trace.jsonl", "metrics.json", "metrics.csv", "manifest.json"):
            assert (out / name).exists()
        stdout = capsys.readouterr().out
        assert "most-expert" in stdout and "majority" in stdout

    def test_reruns_byte_identical(self, scenario_dir, tmp_path):
        src = str(scenario_dir / "intersection.scn")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", src, "--trials", "60", "--out-dir", str(a)]) == 0
        assert main(["run", src, "--trials", "60", "--out-dir", str(b)]) == 0
        for name in ("trace.jsonl", "metrics.json", "metrics.csv"):
            assert read(a / name) == read(b / name)

    def test_rule_flags_select_rows(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", str(scenario_dir / "intersection.scn"), "--trials", "20",
             "--rule", "most-expert", "--rule", "majority", "--out-dir", str(out)]
        )
        assert code == 0
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("most-expert,")
        assert lines[2].startswith("majority,")

    def test_seed_flag_overrides_file(self, scenario_dir, tmp_path):
        src = str(scenario_dir / "intersection.scn")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", src, "--trials", "30", "--seed", "1", "--out-dir", str(a)]) == 0
        assert main(["run", src, "--trials", "30", "--seed", "2", "--out-dir", str(b)]) == 0
        assert read(a / "trace.jsonl") != read(b / "trace.jsonl")
        assert json.loads((a / "manifest.json").read_text())["seed"] == 1

    def test_bad_rule_flag(self, scenario_dir, capsys):
        code = main(
            ["run", str(scenario_dir / "intersection.scn"), "--rule", "oligarchy"]
        )
        assert code == 1
        assert "unknown rule" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "seed"),
            (["--seed", str(2**64)], "seed"),
        ],
    )
    def test_out_of_range_override_exits_1(self, scenario_dir, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        code = main(
            ["run", str(scenario_dir / "intersection.scn"), "--trials", "5", *flags,
             "--out-dir", str(out)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_override_accepted(self, scenario_dir, tmp_path):
        code = main(
            ["run", str(scenario_dir / "intersection.scn"), "--trials", "5",
             "--seed", str(2**64 - 1), "--out-dir", str(tmp_path)]
        )
        assert code == 0

    def test_unwritable_out_dir_is_io_failure(self, scenario_dir, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code = main(
            ["run", str(scenario_dir / "intersection.scn"), "--trials", "5",
             "--out-dir", str(blocker / "sub")]
        )
        assert code == 2
        assert "cannot write" in capsys.readouterr().err


class TestInspect:
    def test_snapshot_is_parseable_and_complete(self, scenario_dir, capsys):
        assert main(["inspect", str(scenario_dir / "intersection.scn")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "lattice-inspect/1"
        assert doc["step"] == 0
        assert doc["experts"]["s4"] == ["s1", "s2", "s3"]
        assert doc["experts"]["s1"] == []
        assert doc["less_experts"]["s1"] == ["s2", "s3", "s4"]
        node_ids = [n["id"] for n in doc["lattice"]["nodes"]]
        assert node_ids == ["__bottom__", "__top__", "s1", "s2", "s3", "s4"]

    def test_one_build_per_distinct_lattice(self, scenario_dir, monkeypatch, capsys):
        path = str(scenario_dir / "drifting_expert.scn")
        distinct = {lattice.digest() for lattice in simulator.lattices_by_step(load_scenario(path))}
        builds = []
        real_build = simulator.build
        monkeypatch.setattr(
            simulator, "build", lambda *args: builds.append(args) or real_build(*args)
        )
        assert main(["inspect", path, "--at-step", "4"]) == 0
        assert len(builds) == len(distinct)

    def test_drift_applied_up_to_step(self, scenario_dir, capsys):
        src = str(scenario_dir / "drifting_expert.scn")
        assert main(["inspect", src, "--at-step", "2"]) == 0
        before = json.loads(capsys.readouterr().out)
        assert before["experts"]["s1"] == []
        assert main(["inspect", src, "--at-step", "3"]) == 0
        after = json.loads(capsys.readouterr().out)
        # drifted s1=(4,3) is dominated by s2=(3,2) and s3=(2,3)
        assert after["experts"]["s1"] == ["s2", "s3"]

    def test_drifted_snapshot_matches_pinned_digest(self, scenario_dir, capsys):
        # sha256 of the stdout, recorded before inspect took its lattice
        # from validation instead of rebuilding the sequence
        src = str(scenario_dir / "drifting_expert.scn")
        assert main(["inspect", src, "--at-step", "4"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == (
            "e50a8b179635c18db7069df7e8882cf7397dc1e5e1de8bd990d493fc8fedd29a"
        )

    def test_step_out_of_range(self, scenario_dir, capsys):
        assert main(["inspect", str(scenario_dir / "intersection.scn"), "--at-step", "99"]) == 1
        assert "out of range" in capsys.readouterr().err


class TestOracle:
    def test_prints_exact_accuracies(self, scenario_dir, capsys):
        assert main(["oracle", str(scenario_dir / "three_agent_expert.scn")]) == 0
        out = capsys.readouterr().out
        majority_line = next(l for l in out.splitlines() if l.startswith("majority"))
        assert math.isclose(float(majority_line.split()[-1]), 0.792, abs_tol=1e-12)

    def test_noiseless_reports_one(self, scenario_dir, tmp_path, capsys):
        doc = yaml.safe_load((scenario_dir / "three_agent_expert.scn").read_text())
        doc["error_model"]["probabilities"] = {a: 0.0 for a in doc["agents"]}
        path = tmp_path / "noiseless.scn"
        path.write_text(yaml.safe_dump(doc))
        assert main(["oracle", str(path)]) == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            assert float(line.split()[-1]) == 1.0

    def test_refuses_21_agents(self, scenario_dir, tmp_path, capsys):
        doc = yaml.safe_load((scenario_dir / "three_agent_expert.scn").read_text())
        doc["agents"] = {f"a{i:02d}": [float(i), float(i)] for i in range(21)}
        doc["error_model"]["probabilities"] = {f"a{i:02d}": 0.1 for i in range(21)}
        path = tmp_path / "big.scn"
        path.write_text(yaml.safe_dump(doc))
        assert main(["oracle", str(path)]) == 1
        assert "at most 20 agents" in capsys.readouterr().err

    def test_agrees_with_run_within_three_sigma(self, scenario_dir, tmp_path, capsys):
        src = str(scenario_dir / "four_agent_majority.scn")
        assert main(["oracle", src]) == 0
        exact = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            name, value = line.split()
            exact[name] = float(value)
        out = tmp_path / "out"
        trials = 4000
        assert main(["run", src, "--trials", str(trials), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        metrics = json.loads((out / "metrics.json").read_text())
        for name, target in exact.items():
            sigma = math.sqrt(target * (1 - target) / trials)
            assert abs(metrics["rules"][name]["accuracy"] - target) <= 3 * sigma


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "drifting_expert.scn"],
        ["inspect", "drifting_expert.scn", "--at-step", "4"],
        ["run", "drifting_expert.scn", "--trials", "2"],
        ["oracle", "three_agent_expert.scn"],
    ],
    ids=lambda argv: argv[0],
)
def test_one_validation_per_command(argv, scenario_dir, tmp_path, monkeypatch, capsys):
    # flags are applied before the one validation, so each step lattice is built once
    command, name, *flags = argv
    path = scenario_dir / name
    distinct = {lattice.digest() for lattice in simulator.lattices_by_step(load_scenario(path))}
    sequences, builds = [], []
    real_sequence, real_build = simulator.lattices_by_step, simulator.build
    monkeypatch.setattr(
        simulator, "lattices_by_step", lambda s: sequences.append(s) or real_sequence(s)
    )
    monkeypatch.setattr(
        simulator, "build", lambda *args: builds.append(args) or real_build(*args)
    )
    out = ["--out-dir", str(tmp_path)] if command == "run" else []
    assert main([command, str(path), *flags, *out]) == 0
    assert len(sequences) == 1
    assert len(builds) == len(distinct)


def _scenario_file(tmp_path, data: bytes) -> str:
    path = tmp_path / "case.scn"
    path.write_bytes(data)
    return str(path)


def _expert_file(tmp_path, scenario_dir, agents: int, probabilities: int) -> str:
    doc = yaml.safe_load((scenario_dir / "three_agent_expert.scn").read_text())
    doc["agents"] = {f"a{i:02d}": [float(i), float(i)] for i in range(agents)}
    doc["error_model"]["probabilities"] = {f"a{i:02d}": 0.1 for i in range(probabilities)}
    return _scenario_file(tmp_path, yaml.safe_dump(doc).encode())


def _intersection_file(tmp_path, scenario_dir, **changes) -> str:
    doc = yaml.safe_load((scenario_dir / "intersection.scn").read_text())
    return _scenario_file(tmp_path, yaml.safe_dump({**doc, **changes}).encode())


# case: (argv from tmp_path and scenario_dir, exit code, text the error line holds)
INPUT_FAULTS = {
    "missing-file": (lambda t, s: ["validate", str(t / "missing.scn")], 2, "cannot read"),
    "directory": (lambda t, s: ["validate", str(t)], 2, "cannot read"),
    "not-utf8": (
        lambda t, s: ["validate", _scenario_file(t, b"version: 1\nname: caf\xe9\n")],
        1, "not valid UTF-8",
    ),
    "not-yaml": (
        lambda t, s: ["validate", _scenario_file(t, b"version: [unclosed")], 1, "not valid YAML"
    ),
    "top-level-list": (
        lambda t, s: ["validate", _scenario_file(t, b"- version\n- 1\n")], 1, "expected a mapping"
    ),
    "empty-file": (
        lambda t, s: ["validate", _scenario_file(t, b"# nothing here\n")], 1, "empty document"
    ),
    "undeclared-truth": (
        lambda t, s: [
            "validate", _intersection_file(t, s, ground_truth={"pedestrian": True, "ghost": False})
        ],
        1, "ground_truth.ghost: not a declared proposition",
    ),
    "error-model-unknown-agent": (
        lambda t, s: ["validate", _expert_file(t, s, 3, 4)],
        1, "error_model.probabilities.a03: not an agent of the scenario",
    ),
    "error-model-missing-agent": (
        lambda t, s: ["validate", _expert_file(t, s, 3, 2)], 1, "missing from error model"
    ),
    "step-out-of-range": (
        lambda t, s: ["inspect", str(s / "intersection.scn"), "--at-step", "99"], 1, "out of range"
    ),
    "oracle-21-agents": (
        lambda t, s: ["oracle", _expert_file(t, s, 21, 21)], 1, "outside oracle domain"
    ),
}


@pytest.mark.parametrize("case", INPUT_FAULTS)
def test_input_fault_exits_with_one_error_line(case, tmp_path, scenario_dir, capsys):
    argv, code, text = INPUT_FAULTS[case]
    assert main(argv(tmp_path, scenario_dir)) == code
    err = capsys.readouterr().err
    error_lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(error_lines) == 1 and err.startswith("error: "), err
    assert not err.startswith("error: : ")
    assert text in error_lines[0]


def test_os_error_naming_no_file_propagates(scenario_dir, tmp_path, monkeypatch, capsys):
    def fail(scenario):
        raise OSError("disk on fire")

    monkeypatch.setattr(cli, "run", fail)
    with pytest.raises(OSError, match="disk on fire"):
        main(["run", str(scenario_dir / "intersection.scn"), "--out-dir", str(tmp_path)])
    assert "cannot read" not in capsys.readouterr().err


def test_python_dash_m_runs_the_cli(scenario_dir):
    package_parent = str(Path(simulator.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "beliefsim", "validate", str(scenario_dir / "intersection.scn")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("OK: smart-intersection")


def test_readme_commands_parse():
    # Every beliefsim command line in README's sh blocks, with "\" continuations
    # joined, as `beliefsim ...` or `python ... -m beliefsim[.cli] ...`.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            for i, word in enumerate(words):
                if word in ("beliefsim", "beliefsim.cli") and (i == 0 or words[i - 1] == "-m"):
                    argv = words[i + 1 :]
                    commands.append(argv[: argv.index("|")] if "|" in argv else argv)
                    break
    assert len(commands) >= 5
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: beliefsim {shlex.join(argv)}")


def test_readme_scenario_example_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario files", 1)[1]
    block = re.search(r"^```yaml\n(.*?)^```", section, re.M | re.S).group(1)
    parse_scenario(yaml.safe_load(block))
