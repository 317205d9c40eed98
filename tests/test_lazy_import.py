"""Only `beliefsim oracle` imports numpy.

`beliefsim.exact_rule_accuracy` is served by the package's module
``__getattr__`` and `cli.exact_rule_accuracy` imports the oracle on its
first call, so `validate`, `run` and `inspect` start without numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import beliefsim
from beliefsim import oracle

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "intersection.scn"

COMMANDS = """
import sys
from beliefsim import cli
out_dir, scenario = sys.argv[1:]
for argv in (
    ["validate", scenario],
    ["run", scenario, "--trials", "20", "--out-dir", out_dir],
    ["inspect", scenario],
):
    assert cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, sorted(name for name in sys.modules if name.startswith("numpy"))
"""


def test_validate_run_and_inspect_never_import_numpy(tmp_path):
    package_parent = str(Path(beliefsim.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COMMANDS, str(tmp_path / "out"), str(SCENARIO)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "metrics.json").is_file()


def test_package_serves_the_oracle_function():
    from beliefsim import exact_rule_accuracy

    assert exact_rule_accuracy is oracle.exact_rule_accuracy
    assert beliefsim.exact_rule_accuracy is oracle.exact_rule_accuracy
    assert "exact_rule_accuracy" in beliefsim.__all__


def test_unknown_package_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        beliefsim.no_such_name
    with pytest.raises(ImportError):
        from beliefsim import no_such_name  # noqa: F401
