"""The repository's pytest settings report every failure, a failing property included.

``filterwarnings = ["error"]`` turns warnings into errors everywhere, also
inside plugins: a warning raised while hypothesis reports a failing
property would abort the session with INTERNALERROR and hide the failure
and every later test.
"""

import re
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_never_holds(x):
    assert x != x
"""


def test_failing_property_is_reported_by_name(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert re.search(r"\b1 failed\b", out), out
    assert "test_never_holds" in out, out
