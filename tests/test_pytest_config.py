"""The repository's pytest settings report every failure.

`filterwarnings = ["error"]` turns any warning into an error, including
one raised inside a plugin's hook. If hypothesis' failure report raises
such a warning, pytest stops with INTERNALERROR and the failures after
it go unreported.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TESTS = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_property_fails(x):
    assert False


def test_plain_fails():
    assert False
'''


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output
    failed = [line for line in output.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 2, output
    assert any("test_property_fails" in line for line in failed)
    assert any("test_plain_fails" in line for line in failed)
