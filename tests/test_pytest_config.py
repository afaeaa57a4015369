"""The suite's pytest configuration reports failures and runs on."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 5


def test_runs_after_it():
    pass
'''


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    """Hypothesis imports its failure reporting only when a property fails,
    and that import warns; under the suite's filterwarnings the property is
    a plain failure, and the tests after it still run."""
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
    assert out.returncode == 1
