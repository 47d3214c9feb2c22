"""Geometry and timing of one beam-sweeping / data-communication cycle.

Schedules are expressed in a local coordinate frame where the start-of-cycle
uncertainty interval is [0, u_th]; callers tracking absolute positions shift
by (estimated center - u_th/2).

The sweep uses ``n_beams`` probe beams over consecutive microslots of
duration ``delta_s``. Widths grow arithmetically with step ``delta_s*phi/d``
so that the post-sweep uncertainty width ``u_comm`` does not depend on which
beam detects the user, and consecutive scan intervals back off by
``delta_s*phi/2`` to absorb in-sweep motion. A beam detects at the start
of its microslot.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import FeasibilityError
from .params import SystemParams


def trigger_width_branches(n_beams: int) -> tuple[float, float]:
    """Lower bounds on u_th in units of delta_s*phi: (shrinkage, nonnegativity).

    The first branch makes the sweep actually reduce the uncertainty width
    (u_comm <= u_th); the second keeps the first beamwidth nonnegative.
    """
    if n_beams < 2:
        raise ValueError(f"need at least 2 sweeping beams, got {n_beams!r}")
    n = n_beams
    shrink = (n * n / 2.0 + 1.5 * n - 1.0) / (n - 1.0)
    nonneg = 0.5 * (n - 1.0) * (n - 2.0)
    return shrink, nonneg


def min_upsilon(n_beams: int) -> float:
    """Smallest feasible normalized trigger width for ``n_beams`` beams."""
    return max(trigger_width_branches(n_beams))


def min_u_th(params: SystemParams, n_beams: int) -> float:
    """Smallest sweep-trigger width (m) feasible with ``n_beams`` beams."""
    return params.delta_s * params.phi * min_upsilon(n_beams)


def comm_width(params: SystemParams, u_th: float, n_beams: int) -> float:
    """Post-sweep uncertainty width u_comm (m), independent of the winning beam."""
    n = float(n_beams)
    step = params.delta_s * params.phi
    return u_th / n + n * step - step * (n - 1.0) * (n - 2.0) / (2.0 * n)


def cycle_duration(params: SystemParams, u_th: float, n_beams: int) -> float:
    """Cycle duration T (s): the width regrows from u_comm back to u_th."""
    n = float(n_beams)
    # u_th / phi first: phi * n could overflow the float range.
    return (n - 1.0) / n * (u_th / params.phi) + 0.5 * params.delta_s * (n - 1.0) * (n - 2.0) / n


class SweepSchedule(
    namedtuple("SweepSchedule", "n_beams u_th beamwidths intervals u_comm t_cycle")
):
    """One sweep's beams, scan intervals, and the resulting cycle timing.

    ``u_th`` is the sweep-trigger width (m), ``beamwidths`` the beams' widths
    (rad, an arithmetic progression), ``u_comm`` the post-sweep width (m)
    and ``t_cycle`` the cycle duration (s). ``intervals[i]`` is the position
    interval ``(a, b)`` (m) scanned during microslot i+1 in the local frame;
    consecutive intervals overlap by the delta_s*phi/2 mobility back-off.
    """

    __slots__ = ()


def build_schedule(params: SystemParams, u_th: float, n_beams: int) -> SweepSchedule:
    """Construct the sweep schedule triggered at uncertainty width ``u_th``.

    Raises FeasibilityError when ``u_th`` is below the bound for
    ``n_beams``, naming the violated branch.
    """
    shrink, nonneg = trigger_width_branches(n_beams)
    step = params.delta_s * params.phi
    if u_th < shrink * step:
        raise FeasibilityError(
            f"u_th = {u_th} m would not shrink the uncertainty width with "
            f"{n_beams} beams (needs >= {shrink * step} m)",
            branch="shrinkage",
        )
    if u_th < nonneg * step:
        raise FeasibilityError(
            f"u_th = {u_th} m gives a negative first beamwidth with "
            f"{n_beams} beams (needs >= {nonneg * step} m)",
            branch="beamwidth-nonnegativity",
        )

    n = n_beams
    d = params.d
    omega_1 = u_th / (d * n) - (n - 1.0) * (n - 2.0) / (2.0 * n) * step / d
    widths = tuple(omega_1 + i * step / d for i in range(n))

    intervals = []
    left_edge = 0.0  # d * sum of widths scanned so far
    for i in range(n):
        backoff = i * step / 2.0
        right_edge = left_edge + d * widths[i]
        intervals.append((left_edge - backoff, right_edge - backoff))
        left_edge = right_edge

    return SweepSchedule(
        n_beams=n,
        u_th=u_th,
        beamwidths=widths,
        intervals=tuple(intervals),
        u_comm=comm_width(params, u_th, n),
        t_cycle=cycle_duration(params, u_th, n),
    )


def validate_small_angle(
    params: SystemParams, u_th: float, threshold: float = 0.35
) -> list[str]:
    """Warnings (not errors) when the flat-beam approximation degrades.

    The scan geometry equates a beam of width omega with a road segment of
    length d*omega, which is only accurate for small angles. The check is
    boundary-inclusive: u_th/d equal to the threshold stays silent.
    """
    if u_th <= 0.0:
        raise ValueError(f"u_th must be positive, got {u_th!r}")
    warnings = []
    max_angle = u_th / params.d
    if max_angle > threshold:
        exact = 2.0 * math.atan(max_angle / 2.0)
        rel_err = (max_angle - exact) / max_angle
        warnings.append(
            f"largest beamwidth u_th/d = {max_angle:.4g} rad exceeds "
            f"{threshold:.4g} rad; flat-beam approximation error is "
            f"{100.0 * rel_err:.2f}% there"
        )
    return warnings
