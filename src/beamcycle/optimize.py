"""Rate-maximizing cycle design under an average power budget.

The normalized problem is solved per beam count: the power constraint is
always tight at the optimum, which pins ``zeta`` as a function of
``upsilon`` (``tight_zeta``); along that curve the normalized rate is
unimodal in ``upsilon`` with a sign surrogate of its derivative
(``rate_slope``) that decreases strictly, so the inner maximization reduces
to bisection (``best_upsilon``, on the bracket from just above the
shrinkage bound to ``max_upsilon``). The outer search scans the beam counts
2, 3, 4, ... in order, bisecting each, and stops at the first count from 5
on whose rate bound (``_rate_bound``) is below the best rate found: the
bound does not rise from 5 beams on, so no later count can win. The stop
is proved, not guessed, and the scan bisects a few dozen counts at any
budget, where ``max_beams`` runs into the thousands.

Everything here works on Python floats with ``math``: the bisection calls
these functions thousands of times per design, and numpy's per-call cost
on scalars would dominate.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .params import SystemParams
from .performance import (
    avg_power_closed,
    avg_rate_closed,
    denormalize,
    norm_comm_width,
    norm_power,
    norm_power_budget,
    norm_rate,
)
from .sweep import FeasibilityError, min_upsilon, trigger_width_branches

# Relative nudge away from the pole of tight_zeta at the lower bracket end.
_BRACKET_EPS = 1e-9

# Relative slack on _rate_bound before it prunes: covers the rounding of the
# bound and of the rates it is compared with.
_BOUND_SLACK = 1e-12

_MAX_BEAMS_CAP = 10**6

# Relative width of the bracket at which the bisection stops.
_TOL = 1e-10

# Normalized budgets below this get the zero-rate design. The bisection
# holds the power constraint to 1e-8 down to about 1e-14, and its sign
# change is lost below about 1e-15.
_ZERO_BUDGET = 1e-12


def max_upsilon(n_beams: int, p_hat_max: float) -> float:
    """Largest ``upsilon`` whose zero-headroom power fits the budget.

    At ``upsilon = max_upsilon`` the normalized power at zeta = 0 equals
    ``p_hat_max`` exactly, so no headroom is left for the water level.
    """
    shrink = trigger_width_branches(n_beams)[0]
    if not p_hat_max > 0.0:
        raise ValueError(f"p_hat_max must be positive, got {p_hat_max!r}")
    n = n_beams
    return shrink + n * p_hat_max / (n - 1.0) * (1.0 + math.sqrt(1.0 + 2.0 * n / p_hat_max))


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

    Solves norm_power(n_beams, upsilon, zeta) = p_hat_max for zeta >= 0.
    Singular at the shrinkage bound, where the post-sweep width reaches
    ``upsilon`` (no data phase): ValueError at or below it. Negative
    results mean ``upsilon`` exceeds ``max_upsilon`` and are rejected as
    infeasible.
    """
    if not p_hat_max > 0.0:
        raise ValueError(f"p_hat_max must be positive, got {p_hat_max!r}")
    n = n_beams
    shrink = trigger_width_branches(n)[0]
    if upsilon <= shrink:
        raise ValueError(
            f"upsilon = {upsilon} at or below the shrinkage bound {shrink}; "
            f"the power-tight headroom is singular there"
        )
    u_hat = norm_comm_width(upsilon, n_beams)
    if upsilon <= u_hat:
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
    if slack < -1e-12 * p_zero * upsilon / (upsilon - u_hat):
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
    return max(zeta, 0.0)


def rate_slope(upsilon: float, n_beams: int, p_hat_max: float) -> float:
    """Sign surrogate for d(norm_rate)/d(upsilon) along the power-tight curve.

    Positive where widening the trigger width still pays, negative past the
    optimum; strictly decreasing in ``upsilon``. Defined above the shrinkage
    bound up to ``max_upsilon``; its domain is ``tight_zeta``'s, which
    raises ValueError at or below the bound and for a NaN budget, and
    FeasibilityError past ``max_upsilon``.
    """
    n = n_beams
    zeta = tight_zeta(upsilon, n_beams, p_hat_max)
    u_hat = norm_comm_width(upsilon, n_beams)
    w = upsilon + n / 2.0 - 1.0
    return (
        -(upsilon - u_hat) / (upsilon * (1.0 + zeta)) * ((n - 1.0) * w + 2.0 * n) / (2.0 * n)
        - (n - 1.0) * w / (n * (1.0 + zeta)) * zeta
        + n * math.log1p(zeta)
        + (n / 2.0 + 1.0) * math.log(upsilon / u_hat)
    )


def best_upsilon(n_beams: int, p_hat_max: float) -> float:
    """Rate-maximizing ``upsilon`` for a fixed beam count.

    Bisects ``rate_slope`` on its sign-change bracket, from just above the
    shrinkage bound to ``max_upsilon``, then clamps to the
    beamwidth-nonnegativity bound (which binds only for 5+ beams).
    """
    # The threshold increases with the count: this is n_beams > max_beams,
    # without computing max_beams.
    if beam_count_threshold(n_beams) > p_hat_max:
        raise FeasibilityError(
            f"{n_beams} beams infeasible at normalized budget {p_hat_max} "
            f"(max {max_beams(p_hat_max)})"
        )
    shrink, nonneg = trigger_width_branches(n_beams)
    lo = shrink * (1.0 + _BRACKET_EPS)
    hi = max_upsilon(n_beams, p_hat_max)
    f_lo = rate_slope(lo, n_beams, p_hat_max)
    f_hi = rate_slope(hi, n_beams, p_hat_max)
    if f_lo <= 0.0 or f_hi >= 0.0:
        # The slope surrogate is provably positive at the lower end and
        # negative at max_upsilon; anything else is a transcription bug.
        raise RuntimeError(
            f"no sign change for {n_beams} beams: slope({lo}) = {f_lo}, "
            f"slope({hi}) = {f_hi}"
        )
    for _ in range(200):
        if not hi - lo > _TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if rate_slope(mid, n_beams, p_hat_max) > 0.0:
            lo = mid
        else:
            hi = mid
    return max(nonneg, 0.5 * (lo + hi))


def _rate_bound(n_beams: int, p_hat_max: float) -> float:
    """An upper bound on the normalized rate of ``n_beams`` beams at its optimum.

    ``B(n) = 1 + log1p(tight_zeta(lo(n), n, p_hat))`` with
    ``lo(n) = max(nonneg(n), shrink(n) * (1 + _BRACKET_EPS))``, the two
    ``trigger_width_branches``. Why it holds, and why a scan may stop at it:

    (a) The rate is below the bound: ``norm_rate <= 1 + log1p(zeta*)``, as
        ``u_hat * g(e) = m - u_hat - u_hat * log1p(e) <= m - u_hat <= upsilon - u_hat``
        (``log1p(e) >= 0``), ``zeta* >= 0`` and ``pref * (upsilon - u_hat) <= 1``.
    (b) ``tight_zeta`` falls in ``upsilon``: with ``a = upsilon - u_hat``
        and ``w = upsilon + n/2 - 1`` it is
        ``(n-1) * w * p_hat / (n * upsilon * a) - a / (2 * upsilon)``, and
        both terms decrease in ``upsilon``.
    (c) The optimum lies at or above ``lo(n)``: ``best_upsilon`` never
        leaves its bracket, whose lower end is ``shrink * (1 + _BRACKET_EPS)``,
        and clamps to ``nonneg``. So ``zeta* <= zeta(lo(n))``.
    (d) The bound falls in ``n`` from 5 on: there ``lo = (n-1)(n-2)/2`` and
        ``zeta(lo) = 2 p_hat / (n^2-5n+2) - (n^2-5n+2) / (2 (n-1)(n-2))``,
        which falls in ``n``, and so does its clamp at 0 in ``tight_zeta``.
        So ``B`` does not rise from ``n = 5`` on, and
        once ``B(n) < best`` there, every later count ``m`` has
        ``rate(m) <= B(m) <= B(n) < best``.

    ``min_upsilon(n) * (1 + _BRACKET_EPS)`` would not do for ``lo``: where
    the nonnegativity clamp binds, the optimum is ``nonneg`` exactly, below
    that value.
    """
    shrink, nonneg = trigger_width_branches(n_beams)
    lo = max(nonneg, shrink * (1.0 + _BRACKET_EPS))
    return 1.0 + math.log1p(tight_zeta(lo, n_beams, p_hat_max))


class OptimalDesign(
    namedtuple("OptimalDesign", "n_beams upsilon zeta u_th rho avg_rate avg_power per_beam_count")
):
    """Global optimum with both normalized and physical coordinates.

    ``u_th`` is in m, ``rho`` in power units and ``avg_rate`` in bit/s.
    ``per_beam_count`` lists ``(n, upsilon*, norm_rate)`` for the beam
    counts the scan bisected, in order; the counts after the last one up
    to ``max_beams`` were pruned by ``_rate_bound``. It is empty for the
    zero-rate design.
    """

    __slots__ = ()


def optimize_design(params: SystemParams) -> OptimalDesign:
    """Maximize the average rate subject to the average power budget.

    Bisects the normalized per-beam-count problems for n = 2, 3, ... in
    order and keeps the best (ties toward fewer beams), stopping at the
    first count from 5 on that ``_rate_bound`` proves cannot win, or at
    ``max_beams``; then converts back to physical units. The power
    constraint is tight at the result.

    An effectively zero budget gets the degenerate zero-rate design: two
    beams at the smallest trigger width, no power and no rate.
    """
    p_hat_max = norm_power_budget(params)
    if p_hat_max < _ZERO_BUDGET:
        upsilon = min_upsilon(2)
        u_th = upsilon * params.delta_s * params.phi
        return OptimalDesign(2, upsilon, 0.0, u_th, 0.0, 0.0, 0.0, ())
    candidates = []
    best = None
    for n in range(2, max_beams(p_hat_max) + 1):
        if n >= 5 and _rate_bound(n, p_hat_max) * (1.0 + _BOUND_SLACK) < best[2]:
            break
        ups = best_upsilon(n, p_hat_max)
        zeta = tight_zeta(ups, n, p_hat_max)
        rate = norm_rate(n, ups, zeta)
        candidates.append((n, ups, rate))
        if best is None or rate > best[2]:
            best = (n, ups, rate, zeta)
    n_star, ups_star, _, zeta_star = best
    u_th_star, rho_star = denormalize(params, ups_star, zeta_star)
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
