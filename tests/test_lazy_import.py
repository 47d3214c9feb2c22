"""Only verify loads numpy; the package's public names resolve lazily."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamcycle

# Runs every design command in a fresh interpreter, then touches one
# validation name, recording which of the two modules are loaded each time.
STARTUP = """\
import contextlib, io, json, sys
import beamcycle.cli

def loaded():
    return [m for m in ("numpy", "beamcycle.validation") if m in sys.modules]

out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        beamcycle.cli.main(argv)
        for argv in (
            ["optimize"],
            ["optimize", "--json"],
            ["sweep", "--out", out + "/power.csv"],
            ["sweep", "--axis", "speed", "--out", out + "/speed.csv"],
            ["baseline"],
        )
    ]
after_cli = loaded()
beamcycle.run_all
print(json.dumps({"codes": codes, "after_cli": after_cli, "after_run_all": loaded()}))
"""


def test_design_commands_never_load_numpy(tmp_path):
    src = Path(beamcycle.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [0, 0, 0, 0, 0],
        "after_cli": [],
        # The guard can see both modules once something asks for them.
        "after_run_all": ["numpy", "beamcycle.validation"],
    }
    assert {p.name for p in tmp_path.iterdir()} == {"power.csv", "speed.csv"}


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
