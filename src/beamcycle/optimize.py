"""Rate-maximizing cycle design under an average power budget.

The normalized problem is solved per beam count: the power constraint is
always tight at the optimum, which pins ``zeta`` as a function of
``upsilon`` (``tight_zeta``); along that curve the normalized rate is
unimodal in ``upsilon`` with a sign surrogate of its derivative
(``rate_slope``) that decreases strictly, so the inner maximization reduces
to bisection. The outer search over the beam count is exhaustive up to
``max_beams``: every beam count is bisected at once, one numpy lane each,
so its cost is linear in ``max_beams``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FeasibilityError, _any
from .params import SystemParams
from .performance import (
    NormalizedDesign,
    avg_power_closed,
    avg_rate_closed,
    denormalize,
    norm_comm_width,
    norm_power,
    norm_power_budget,
    norm_rate,
)
from .sweep import trigger_width_branches

# Relative nudge away from the pole of tight_zeta at the lower bracket end.
_BRACKET_EPS = 1e-9

_MAX_BEAMS_CAP = 10**6


def max_upsilon(n_beams: int, p_hat_max: float) -> float:
    """Largest ``upsilon`` whose zero-headroom power fits the budget.

    At ``upsilon = max_upsilon`` the normalized power at zeta = 0 equals
    ``p_hat_max`` exactly, so no headroom is left for the water level.
    Elementwise when ``n_beams`` is a numpy array.
    """
    if _any(n_beams < 2):
        raise ValueError(f"need at least 2 sweeping beams, got {n_beams!r}")
    if p_hat_max <= 0.0:
        raise ValueError(f"p_hat_max must be positive, got {p_hat_max!r}")
    n = n_beams
    return trigger_width_branches(n_beams)[0] + n * p_hat_max / (n - 1.0) * (
        1.0 + np.sqrt(1.0 + 2.0 * n / p_hat_max)
    )


def beam_count_threshold(n_beams: int) -> float:
    """Normalized power needed to keep ``n_beams >= 5`` beams feasible.

    Increasing in the beam count; 2..4 beams are feasible at any budget.
    """
    if n_beams < 5:
        return 0.0
    n = float(n_beams)
    return 0.5 * (n * n - 5.0 * n + 2.0) ** 2 / (n * n - 4.0 * n + 2.0)


def max_beams(p_hat_max: float) -> int:
    """Largest beam count kept in the search at budget ``p_hat_max``.

    The largest ``n`` with ``beam_count_threshold(n) <= p_hat_max``, found
    in constant time; the result is always at least 4.
    """
    if not p_hat_max > 0.0:
        raise ValueError(f"p_hat_max must be positive, got {p_hat_max!r}")
    if p_hat_max >= beam_count_threshold(_MAX_BEAMS_CAP):
        raise ValueError(
            f"beam count search exceeded {_MAX_BEAMS_CAP}; "
            f"p_hat_max = {p_hat_max} is implausibly large"
        )
    # beam_count_threshold(n) = (n - 3)**2 / 2 - 3 + (2n - 1)/(n**2 - 4n + 2),
    # so inverting the quadratic lands on the answer or one above it, or,
    # by rounding in the square root near the cap, one below it. The exact
    # threshold settles that last step.
    n = max(4, int(3.0 + math.sqrt(2.0 * p_hat_max + 6.0)))
    while beam_count_threshold(n + 1) <= p_hat_max:
        n += 1
    while beam_count_threshold(n) > p_hat_max:
        n -= 1
    return n


def tight_zeta(upsilon: float, n_beams: int, p_hat_max: float) -> float:
    """Water-level headroom that makes the power constraint tight.

    Solves norm_power(n_beams, upsilon, zeta) = p_hat_max for zeta >= 0,
    elementwise when ``upsilon`` and ``n_beams`` are numpy arrays.
    Singular at upsilon equal to the post-sweep width (no data phase);
    negative results mean ``upsilon`` exceeds ``max_upsilon`` and are
    rejected as infeasible.
    """
    n = n_beams
    u_hat = norm_comm_width(upsilon, n_beams)
    if _any(upsilon <= u_hat):
        raise ValueError(
            f"upsilon = {upsilon} does not exceed the post-sweep width "
            f"{u_hat}; the power-tight headroom is singular there"
        )
    p_zero = norm_power(n_beams, upsilon, 0.0)
    slack = p_hat_max - p_zero
    # p_zero is a difference of terms larger by upsilon / (upsilon - u_hat),
    # which is where its rounding comes from; at small budgets that ratio
    # is large, so a tolerance relative to the budget alone would reject
    # max_upsilon itself.
    if _any(slack < -1e-12 * p_zero * upsilon / (upsilon - u_hat)):
        raise FeasibilityError(
            f"upsilon = {upsilon} needs more than the power budget even at "
            f"zero headroom (exceeds max_upsilon = {max_upsilon(n_beams, p_hat_max)})"
        )
    zeta = (
        (n - 1.0)
        * (upsilon + n / 2.0 - 1.0)
        / (n * upsilon * (upsilon - u_hat))
        * slack
    )
    return np.maximum(zeta, 0.0)


def rate_slope(upsilon: float, n_beams: int, p_hat_max: float) -> float:
    """Sign surrogate for d(norm_rate)/d(upsilon) along the power-tight curve.

    Positive where widening the trigger width still pays, negative past the
    optimum; strictly decreasing in ``upsilon``. Defined on the open
    interval between the shrinkage bound and ``max_upsilon``. Elementwise
    when ``upsilon`` and ``n_beams`` are numpy arrays.
    """
    n = n_beams
    shrink = trigger_width_branches(n_beams)[0]
    if _any(upsilon <= shrink):
        raise ValueError(
            f"upsilon = {upsilon} at or below the shrinkage bound {shrink}"
        )
    hi = max_upsilon(n_beams, p_hat_max)
    if _any(upsilon > hi * (1.0 + 1e-12)):
        raise ValueError(f"upsilon = {upsilon} above max_upsilon = {hi}")
    u_hat = norm_comm_width(upsilon, n_beams)
    zeta = tight_zeta(upsilon, n_beams, p_hat_max)
    w = upsilon + n / 2.0 - 1.0
    return (
        -(upsilon - u_hat) / (upsilon * (1.0 + zeta)) * ((n - 1.0) * w + 2.0 * n) / (2.0 * n)
        - (n - 1.0) * w / (n * (1.0 + zeta)) * zeta
        + n * np.log1p(zeta)
        + (n / 2.0 + 1.0) * np.log(upsilon / u_hat)
    )


def slope_root(n_beams: int, p_hat_max: float, tol: float = 1e-10) -> float:
    """Unique zero of ``rate_slope`` in its sign-change bracket, by bisection.

    ``n_beams`` is one beam count or a numpy array of them. An array is
    bisected in lockstep: every lane halves its own bracket until it is
    within ``tol``, then stays put, so each lane ends exactly where a
    bisection of that beam count alone would.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    top = int(np.max(n_beams))
    # The threshold increases with the count: this is top > max_beams.
    if beam_count_threshold(top) > p_hat_max:
        raise FeasibilityError(
            f"{top} beams infeasible at normalized budget {p_hat_max} "
            f"(max {max_beams(p_hat_max)})"
        )
    lo = trigger_width_branches(n_beams)[0] * (1.0 + _BRACKET_EPS)
    hi = max_upsilon(n_beams, p_hat_max)
    f_lo = rate_slope(lo, n_beams, p_hat_max)
    f_hi = rate_slope(hi, n_beams, p_hat_max)
    if _any(f_lo <= 0.0) or _any(f_hi >= 0.0):
        # The slope surrogate is provably positive at the lower end and
        # negative at max_upsilon; anything else is a transcription bug.
        raise RuntimeError(
            f"no sign change for {n_beams} beams: slope({lo}) = {f_lo}, "
            f"slope({hi}) = {f_hi}"
        )
    for _ in range(200):
        live = hi - lo > tol * hi
        if not _any(live):
            break
        mid = 0.5 * (lo + hi)
        rising = rate_slope(mid, n_beams, p_hat_max) > 0.0
        lo = np.where(live & rising, mid, lo)
        hi = np.where(live & ~rising, mid, hi)
    return 0.5 * (lo + hi)


def best_upsilon(n_beams: int, p_hat_max: float, tol: float = 1e-10) -> float:
    """Rate-maximizing ``upsilon`` for a fixed beam count.

    Bisects ``rate_slope`` on its sign-change bracket, then clamps to the
    beamwidth-nonnegativity bound (which binds only for 5+ beams).
    Elementwise when ``n_beams`` is a numpy array.
    """
    return np.maximum(
        trigger_width_branches(n_beams)[1], slope_root(n_beams, p_hat_max, tol)
    )


@dataclass(frozen=True)
class OptimalDesign:
    """Global optimum with both normalized and physical coordinates."""

    n_beams: int
    upsilon: float
    zeta: float
    u_th: float      # m
    rho: float       # power units
    avg_rate: float  # bit/s
    avg_power: float
    per_beam_count: tuple[tuple[int, float, float], ...]  # (n, upsilon*, norm_rate)


def optimize_design(params: SystemParams, tol: float = 1e-10) -> OptimalDesign:
    """Maximize the average rate subject to the average power budget.

    Solves the normalized per-beam-count problems by bisection, picks the
    best beam count exhaustively (ties toward fewer beams), and converts
    back to physical units. The power constraint is tight at the result.
    """
    p_hat_max = norm_power_budget(params)
    n_max = max_beams(p_hat_max)
    lanes = np.arange(2, n_max + 1, dtype=float)  # one lane per beam count
    ups = best_upsilon(lanes, p_hat_max, tol=tol)
    zetas = tight_zeta(ups, lanes, p_hat_max)
    candidates = []
    best = None
    for n, ups_n, zeta in zip(range(2, n_max + 1), ups.tolist(), zetas.tolist()):
        rate = norm_rate(n, ups_n, zeta)
        candidates.append((n, ups_n, rate))
        if best is None or rate > best[2]:
            best = (n, ups_n, rate, zeta)
    n_star, ups_star, _, zeta_star = best
    u_th_star, rho_star = denormalize(
        params, NormalizedDesign(n_star, ups_star, zeta_star, feasible=True)
    )
    return OptimalDesign(
        n_beams=n_star,
        upsilon=ups_star,
        zeta=zeta_star,
        u_th=u_th_star,
        rho=rho_star,
        avg_rate=avg_rate_closed(params, n_star, u_th_star, rho_star),
        avg_power=avg_power_closed(params, n_star, u_th_star, rho_star),
        per_beam_count=tuple(candidates),
    )
