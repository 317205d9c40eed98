"""The benchmark's default-seed references, checked in tier-1.

The benchmark refuses a change whose outputs at the default seed differ
from ``bench/references.json``. This runs each workload's command
in-process on the benchmark's own scenario file and checks its outputs
with the benchmark's own ``workloads`` and ``checks`` modules.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

from beliefsim import cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_outputs_match_references(workload, tmp_path, capsys):
    reference = checks.load_references()[workload]
    doc = workloads.scenario_document(workload, workloads.DEFAULT_SEED, ROOT)
    scenario = tmp_path / f"{workload}.scn"
    assert workloads.write_scenario(doc, scenario) == reference["scenario_sha256"]
    if workloads.command_of(workload) == "run":
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(scenario), "--out-dir", str(out_dir)]) == 0
        assert checks.file_digests(out_dir) == reference["outputs_sha256"]
        assert checks.check_run_outputs(out_dir, scenario) == []
    else:
        capsys.readouterr()
        assert cli.main(["oracle", str(scenario)]) == 0
        printed = checks.parse_oracle_output(capsys.readouterr().out)
        assert checks.compare_accuracies(printed, reference["accuracies"]) == []
        assert checks.check_oracle_outputs(printed, doc) == []
