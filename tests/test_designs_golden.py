"""Bit-identical designs over 2760 budgets and speeds, against a committed golden.

Each line of ``golden/designs-2760.txt`` holds one input, ``p_max`` (W) and
``v_max`` (m/s) as ``float.hex``, then two 12-hex-digit digests of its
``optimize_design`` result: one of the seven scalar fields, one of
``per_beam_count``. They are kept apart so that a change to which counts
the scan bisects can re-capture the second column openly, while a change
to any scalar field at any input fails.

Regenerate (only on purpose, and say why) with::

    PYTHONPATH=src python tests/test_designs_golden.py
"""

import hashlib
import random
from pathlib import Path

from beamcycle import optimize_design

from conftest import make_params

GOLDEN = Path(__file__).resolve().parent / "golden" / "designs-2760.txt"
N_INPUTS = 2760


def golden_inputs():
    """The 2760 ``(p_max, v_max)`` pairs: budgets log-uniform 1e-17..1 W, speeds 2..60 m/s."""
    rng = random.Random(11)
    pairs = []
    for _ in range(N_INPUTS):
        p_max = 10 ** rng.uniform(-17.0, 0.0)
        v_max = rng.uniform(2.0, 60.0)
        pairs.append((p_max, v_max))
    return pairs


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def design_line(p_max, v_max):
    """One golden line: the input as hex, then the scalar and the per-count digests."""
    design = optimize_design(make_params(p_max=p_max, phi=2.0 * v_max))
    n_beams, *scalars, per_beam_count = design
    scalar = " ".join([str(n_beams)] + [float.hex(x) for x in scalars])
    per_count = ";".join(
        f"{n} {float.hex(ups)} {float.hex(rate)}" for n, ups, rate in per_beam_count
    )
    return f"{float.hex(p_max)} {float.hex(v_max)} {_digest(scalar)} {_digest(per_count)}"


def test_designs_match_golden():
    expected = GOLDEN.read_text().splitlines()
    assert len(expected) == N_INPUTS
    for index, (p_max, v_max) in enumerate(golden_inputs()):
        got = design_line(p_max, v_max)
        if got == expected[index]:
            continue
        want = expected[index].split()
        have = got.split()
        fields = [
            name for name, w, h in zip(("p_max", "v_max", "scalars", "per_beam_count"), want, have)
            if w != h
        ]
        raise AssertionError(
            f"input {index} (p_max = {p_max!r} W, v_max = {v_max!r} m/s) differs in "
            f"{', '.join(fields)}: golden {expected[index]!r}, now {got!r}"
        )


if __name__ == "__main__":
    GOLDEN.write_text("".join(design_line(p, v) + "\n" for p, v in golden_inputs()))
