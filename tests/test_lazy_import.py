"""Only verify loads numpy, and not numpy.random; only --json loads json; and
the package's public names resolve lazily."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamcycle

# Runs every design command in a fresh interpreter, then touches one
# validation name, recording after each step which watched modules are
# loaded. The script itself imports none of them, and reports with repr.
STARTUP = """\
import contextlib, io, sys
import beamcycle.cli

WATCHED = ("numpy", "beamcycle.validation", "json", "dataclasses", "inspect")
out = sys.argv[1]
steps = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["optimize"],
        ["sweep", "--out", out + "/power.csv"],
        ["sweep", "--axis", "speed", "--out", out + "/speed.csv"],
        ["baseline"],
        ["optimize", "--json"],
    ):
        code = beamcycle.cli.main(argv)
        steps.append((code, [m for m in WATCHED if m in sys.modules]))
beamcycle.run_all
steps.append((None, [m for m in WATCHED[:2] if m in sys.modules]))
print(repr(steps))
"""

# A default verify in a fresh interpreter: its exit code, then whether numpy
# and numpy.random are loaded after it.
VERIFY = """\
import contextlib, io, sys
import beamcycle.cli

with contextlib.redirect_stdout(io.StringIO()):
    code = beamcycle.cli.main(["verify"])
print(repr((code, "numpy" in sys.modules, "numpy.random" in sys.modules)))
"""


def _run_fresh(script, *args):
    """What ``script`` prints, run by a fresh interpreter on this package."""
    src = Path(beamcycle.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_design_commands_never_load_numpy(tmp_path):
    assert _run_fresh(STARTUP, str(tmp_path)) == [
        (0, []),  # optimize
        (0, []),  # sweep
        (0, []),  # sweep --axis speed
        (0, []),  # baseline
        (0, ["json"]),  # optimize --json
        # The guard can see both modules once something asks for them.
        (None, ["numpy", "beamcycle.validation"]),
    ]
    assert {p.name for p in tmp_path.iterdir()} == {"power.csv", "speed.csv"}


def test_verify_never_loads_numpy_random():
    # The suites draw from the standard library's random; numpy.random
    # alone would add megabytes to a verify's resident memory.
    assert _run_fresh(VERIFY) == (0, True, False)


def test_every_public_name_resolves():
    for name in beamcycle.__all__:
        assert getattr(beamcycle, name) is not None, name
    assert set(beamcycle.__all__) <= set(dir(beamcycle))


def test_validation_names_come_from_validation():
    from beamcycle import validation

    assert beamcycle.run_all is validation.run_all
    assert beamcycle.CheckResult is validation.CheckResult


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from beamcycle import *", namespace)
    assert set(beamcycle.__all__) <= set(namespace)
    assert namespace["run_all"] is beamcycle.validation.run_all


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        beamcycle.no_such_name
    assert not hasattr(beamcycle, "validate")
