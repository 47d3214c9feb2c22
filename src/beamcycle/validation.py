"""Independent verification of the cycle model.

Four families of checks, none of which share algebra with the closed
forms they test:

* exact reachable sets of the sweep protocol -- every user starting in
  the trigger interval must be caught by some beam whatever its speed in
  ``[-phi/2, phi/2]`` (full coverage), and the post-sweep position must
  fall in a window of width ``u_comm`` regardless of which beam won. A
  beam detects at one instant, the start of its microslot, so a user
  moves by at most ``r = delta_s*phi/2`` between two detections. Only the
  paper's abstract is at hand, but the sweep geometry implies this model:
  consecutive scan intervals back off by exactly ``r``, and ``u_comm`` is
  the same for every beam only if the users of beam ``k`` (from 0) drift
  for exactly ``n - k`` microslots, from the start of slot ``k`` to the
  end of the sweep. The positions a user can hold are tracked as unions
  of intervals, so every speed sequence is checked at once;
* composite Gauss-Legendre quadrature of the defining rate/power
  integrals against the closed forms, one array pass per panel count over
  all designs, with the panel count doubled until two estimates agree and
  a design leaving once they do. The integrals run over the sweep geometry
  (``comm_width``, ``cycle_duration``) in drift units and microslots, and
  the oracle applies the physical scale once, to the averages; the closed
  forms are ``norm_rate``/``norm_power`` scaled back by their own code, so
  the oracle tests the formulas the optimizer uses. The integration range
  stops where the water-filling power reaches zero, so the integrand is
  smooth there and a few panels suffice; an integral that does not
  converge is a failed case. The ``SystemParams`` docstring states where
  ``verify`` is known to pass;
* the first-order (KKT) optimality conditions of the water-filling
  profile on a time grid over the data phase, which prove that no
  profile of equal average power on that grid has a higher average rate;
* the signs of the optimizer's derivative surrogate ``rate_slope`` at the
  ends of each beam count's bracket and against central differences of
  the power-tight rate at random points inside it. The rates come from
  the suite's own oracle, ``_tight_rate``, which solves the power integral
  for the water level and integrates the rate, one array pass over all
  points; it calls neither ``tight_zeta`` nor ``norm_rate``, so a fault
  in either shows.

The randomized checks draw from ``random.Random(seed)`` of the master
seed, through its ``random()`` method only, whose sequence Python keeps
the same for a given seed across versions; numpy's ``Generator`` streams
carry no such promise. ``numpy.random`` is never imported.
"""

from __future__ import annotations

import functools
import math
import random
from collections import namedtuple
from typing import Sequence

import numpy as np

from .optimize import max_beams, max_upsilon, rate_slope
from .params import SystemParams, snr_gamma
from .performance import (
    avg_power_closed,
    avg_rate_closed,
    norm_comm_width,
)
from .sweep import (
    SweepSchedule,
    build_schedule,
    comm_width,
    cycle_duration,
    min_upsilon,
    trigger_width_branches,
)

# Scan-interval membership slack relative to u_th, covering the rounding of
# the interval ends.
_MEMBERSHIP_SLACK = 1e-9

# Points per panel of the quadrature oracle, its panel-count cap, and the
# most points one integrand pass takes, which bounds the pass's memory.
GAUSS_NODES = 48
_MAX_PANELS = 2**10
_PASS_POINTS = 2**16

# Agreement of two successive quadrature estimates at which a design's
# integral has converged, and the largest relative gap between a closed
# form and its quadrature that passes a case.
_QUAD_TOL = 1e-12
_CLOSED_FORM_TOL = 1e-7

# Instants of jensen_check's grid over the data phase.
_GRID_POINTS = 10_000


def _dilate(intervals: list[tuple[float, float]], r: float) -> list[tuple[float, float]]:
    """Sorted disjoint intervals grown by ``r`` at both ends, overlaps merged."""
    out: list[tuple[float, float]] = []
    for lo, hi in intervals:
        if out and lo - r <= out[-1][1]:
            out[-1] = (out[-1][0], hi + r)
        else:
            out.append((lo - r, hi + r))
    return out


def _reachable(
    params: SystemParams, schedule: SweepSchedule
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Where the sweep can leave a user, over every speed sequence at once.

    The positions of users not yet detected are kept as sorted disjoint
    intervals, from ``[0, u_th]`` at the start. Between two slot starts the
    set grows by one microslot's drift; at the start of beam ``k``'s slot
    it loses its part inside scan interval ``k``: those users are detected
    by beam ``k``. That part's hull, widened by the ``n - k`` microslots of
    drift still to come, bounds where they end the sweep.

    Returns the set where undetected users can end the sweep, and each
    beam's ``(lo, hi)`` hull of final positions (``(inf, -inf)`` if it
    detects no one).
    """
    r = 0.5 * params.phi * params.delta_s
    slack = _MEMBERSHIP_SLACK * schedule.u_th
    undetected = [(0.0, schedule.u_th)]
    hulls = []
    for k, (a, b) in enumerate(schedule.intervals):
        if k:
            undetected = _dilate(undetected, r)
        lo_win, hi_win = a - slack, b + slack
        drift = (schedule.n_beams - k) * r
        lo_hull, hi_hull = math.inf, -math.inf
        kept = []
        for lo, hi in undetected:
            if hi < lo_win or lo > hi_win:
                kept.append((lo, hi))
                continue
            lo_hull = min(lo_hull, max(lo, lo_win) - drift)
            hi_hull = max(hi_hull, min(hi, hi_win) + drift)
            if lo < lo_win:
                kept.append((lo, lo_win))
            if hi > hi_win:
                kept.append((hi_win, hi))
        undetected = kept
        hulls.append((lo_hull, hi_hull))
    return _dilate(undetected, r), hulls


# ---------------------------------------------------------------------------
# Numerical quadrature of the defining integrals
# ---------------------------------------------------------------------------


def _data_phase(
    params: SystemParams, n_beams: int, u_th: float, rho: float
) -> tuple[float, float, float, float, float]:
    """(level, u_comm, t0, T, t_hi) of a design in drift units, from the public geometry.

    Widths and the water level ``d*gamma*rho`` are over ``delta_s*phi`` and
    times in microslots, so the width grows by one per unit of time. The
    data phase runs from ``t0`` to ``T``. The power (level - width)+, and
    with it the rate, is identically zero from ``t_hi`` on.
    """
    step = params.delta_s * params.phi
    level = params.d * snr_gamma(params) * rho / step
    u_c = comm_width(params, u_th, n_beams) / step
    t0 = n_beams
    t_cycle = cycle_duration(params, u_th, n_beams) / params.delta_s
    t_hi = t_cycle if level >= u_th / step else t0 + (level - u_c)
    return level, u_c, t0, t_cycle, t_hi


def _legendre(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for n = GAUSS_NODES, by the three-term recurrence."""
    n = GAUSS_NODES
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the GAUSS_NODES-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on P_n from Tricomi's estimate of each positive root,
    weights ``2 / ((1 - x^2) P_n'(x)^2)`` at the converged roots; the
    negative half mirrors the positive one.
    """
    x = np.cos(np.pi * (np.arange(GAUSS_NODES // 2) + 0.75) / (GAUSS_NODES + 0.5))
    for _ in range(100):
        p, dp = _legendre(x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    dp = _legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))
    for array in rule:
        array.flags.writeable = False  # every caller shares the cached pair
    return rule


def _gauss_panels(f, a: np.ndarray, b: np.ndarray, rel_tol: float) -> np.ndarray:
    """Composite Gauss-Legendre quadrature with panel doubling, all rows at once.

    Row ``i`` integrates over ``[a[i], b[i]]``; ``f(x, rows)`` is the listed
    rows' integrand at ``x`` of shape (rows, panels, GAUSS_NODES). A row
    doubles its panel count from one until two estimates agree to
    ``rel_tol`` and leaves with the finer one, the same bits in any batch;
    it is NaN if they still disagree at ``_MAX_PANELS`` panels, 0 if b <= a.
    """
    nodes, weights = _gauss_legendre()
    out = np.where(b <= a, 0.0, math.nan)
    rows = np.flatnonzero(~(b <= a))
    prev = np.full(rows.size, math.nan)  # compares false, so one panel never stops a row
    panels = 1
    while rows.size and panels <= _MAX_PANELS:
        offsets = np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)
        per_pass = max(1, _PASS_POINTS // offsets.size)
        cur = np.empty(rows.size)
        for i in range(0, rows.size, per_pass):
            part = rows[i:i + per_pass]
            h = (b[part] - a[part]) / panels
            x = a[part, None, None] + h[:, None, None] * offsets
            cur[i:i + per_pass] = 0.5 * h * np.sum(f(x, part) @ weights, axis=1)
        done = np.abs(cur - prev) <= rel_tol * np.maximum(np.abs(cur), 1e-300)
        out[rows[done]] = cur[done]
        rows, prev = rows[~done], cur[~done]
        panels *= 2
    return out


def _averages(
    params: SystemParams, designs: Sequence[tuple[int, float, float]], rel_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle-averaged rates (bit/s) and powers of ``(n_beams, u_th, rho)`` designs.

    One batched quadrature per integral over all designs, in drift units
    over microslots (``_data_phase``); the physical scale is applied once,
    to the averages. NaN where an integral does not converge to ``rel_tol``.
    """
    phases = [_data_phase(params, *design) for design in designs]
    level, u_c, t0, t_cycle, t_hi = np.array(phases).reshape(-1, 5).T

    def profile(t, rows):
        """Widths and powers at ``t``: the oracle's own water-filling, not ``_waterfilling``."""
        u = u_c[rows, None, None] + (t - t0[rows, None, None])
        return u, np.maximum(0.0, level[rows, None, None] - u)

    def rate(t, rows):
        u, p = profile(t, rows)
        return np.log2(1.0 + p / u)

    power = _gauss_panels(lambda t, rows: profile(t, rows)[1], t0, t_hi, rel_tol)
    return (
        params.w_tot / t_cycle * _gauss_panels(rate, t0, t_hi, rel_tol),
        power / t_cycle * (params.delta_s * params.phi) / (params.d * snr_gamma(params)),
    )


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------


class CheckResult(namedtuple("CheckResult", "check_name n_cases n_failures worst_residual")):
    """One verification suite's outcome; rows of the report CSV."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        """No failures among at least one case: a check that ran nothing proves nothing."""
        return self.n_cases > 0 and self.n_failures == 0


def _waterfilling(level: float, w: np.ndarray) -> np.ndarray:
    """Water-filling power (level - w)+ at widths ``w``, all in drift units."""
    return np.maximum(0.0, level - w)


# Grid arithmetic past the float range (at an extreme phi, say) gives inf or
# NaN residuals, which fail their cases; numpy's warnings would only repeat it.
@np.errstate(all="ignore")
def jensen_check(params: SystemParams, n_beams: int, u_th: float, rho: float) -> CheckResult:
    """Water-filling optimality certificate on a time grid over the data phase.

    On the grid, maximizing the mean of ``log1p(gain * p)`` over profiles
    ``p >= 0`` of the water-filling profile's average power is a concave
    program, so its first-order (KKT) conditions are necessary and
    sufficient: the marginal rate ``gain / (1 + gain * p)`` takes one value
    ``lam`` wherever ``p > 0`` and is at most ``lam`` wherever ``p = 0``.
    The certificate is one case, failing if any sample departs from it by
    more than 1e-9 relative to ``lam``; a negative power fails it too.
    Three fixed equal-power profiles are compared by average rate as well,
    failing if one exceeds water-filling by more than 1e-9 (in nats per
    sample): the water-filling profile itself, a constant one, and the
    water-filling profile reversed in time, each one array over the grid.
    At zero power the only profile is zero, so only the comparisons run.

    The grid is ``_data_phase``'s, in drift units, so the gain is ``1/w``:
    the physical gain ``d*gamma/u`` overflows at a tiny ``phi``.
    """
    level, u_c, t0, t_cycle, _ = _data_phase(params, n_beams, u_th, rho)
    w = u_c + (t_cycle - t0) * (np.arange(_GRID_POINTS) + 0.5) / _GRID_POINTS
    gain = 1.0 / w
    wf = _waterfilling(level, w)
    budget = float(np.mean(wf))
    rate_wf = float(np.mean(np.log1p(gain * wf)))
    residuals = [
        float(np.mean(np.log1p(gain * p))) - rate_wf
        for p in (wf, np.full(_GRID_POINTS, budget), wf[::-1])
    ]
    if budget > 0.0:
        marginal = gain / (1.0 + gain * wf)
        active = wf > 0.0
        lam = float(np.max(marginal[active]))
        gap = np.where(active, lam - marginal, marginal - lam) / lam
        residuals.append(float(np.max(np.where(wf < 0.0, math.inf, gap))))
    # Written so that NaN counts as a failure and reaches the worst residual.
    failures = sum(not r <= 1e-9 for r in residuals)
    return CheckResult(
        "jensen_waterfilling", len(residuals), failures, float(np.max(residuals))
    )


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _uniform(rng: random.Random, a: float, b: float) -> float:
    """The stream's next draw mapped onto ``[a, b)`` as ``a + (b - a) * u``."""
    return a + (b - a) * rng.random()


# Like jensen_check's grid: an integrand past the float range gives NaN
# estimates, which fail their cases, so numpy's warnings add nothing.
@np.errstate(all="ignore")
def quadrature_suite(
    params: SystemParams,
    n_tuples: int = 200,
    seed: int = 0,
    perturb_closed_form: float = 0.0,
) -> list[CheckResult]:
    """Closed forms vs quadrature over random feasible designs.

    Alternating tuples exercise both regimes: water level inside and above
    the cycle's width range. The rate and the power integrals are one
    batched quadrature each over all tuples.
    ``perturb_closed_form`` injects a relative error into the closed-form
    values (fault-injection self-test of this suite).
    """
    rng = random.Random(seed)
    gamma = snr_gamma(params)
    step = params.delta_s * params.phi
    tuples = []
    for j in range(n_tuples):
        n = 2 + int(7 * rng.random())
        ups = _uniform(rng, min_upsilon(n) * (1.0 + 1e-6), 1000.0)
        u_th = ups * step
        u_c = norm_comm_width(ups, n) * step
        if j % 2 == 0:
            level = u_c + (u_th - u_c) * _uniform(rng, 0.05, 0.95)
        else:
            level = u_th * _uniform(rng, 1.05, 3.0)
        tuples.append((n, u_th, level / (params.d * gamma)))

    results = []
    for name, closed, reference in zip(
        ("closed_vs_numeric_rate", "closed_vs_numeric_power"),
        (avg_rate_closed, avg_power_closed),
        _averages(params, tuples, _QUAD_TOL),
    ):
        value = np.empty(n_tuples)
        for j, (n, u_th, rho) in enumerate(tuples):
            try:
                value[j] = closed(params, n, u_th, rho) * (1.0 + perturb_closed_form)
            except ArithmeticError:
                # Arithmetic past the float range (at a huge phi, say)
                # leaves nothing to compare: a failed case.
                value[j] = math.nan
        rel = np.abs(value - reference) / np.abs(reference)
        # A NaN residual is a failure, and np.max carries it into worst.
        failures = int(np.sum(~(rel <= _CLOSED_FORM_TOL)))
        results.append(CheckResult(name, n_tuples, failures, float(np.max(rel, initial=0.0))))
    return results


def coverage_suite(
    params: SystemParams,
    points: Sequence[tuple[int, float]] | None = None,
) -> list[CheckResult]:
    """Exact coverage and post-sweep width checks by reachable sets.

    ``points`` are (n_beams, upsilon) design points; the default set
    includes a minimum-width schedule whose first beam degenerates to zero
    width. ``sweep_coverage`` has one case per point, which fails if any
    user can escape every beam; its residual is the length of the escaped
    set over ``u_th``. ``post_sweep_width`` has one case per beam, which
    fails if the users that beam detects can end the sweep spread over
    more than ``u_comm`` plus the slack of both window ends.
    """
    if points is None:
        points = ((2, 8.0), (3, 60.0), (5, 6.0))
    step = params.delta_s * params.phi
    cover_fail = width_fail = n_beams_total = 0
    worst_escaped = worst_spread = 0.0
    for n_beams, ups in points:
        schedule = build_schedule(params, ups * step, n_beams)
        escaped, hulls = _reachable(params, schedule)
        cover_fail += bool(escaped)
        escaped_length = sum(hi - lo for lo, hi in escaped) / schedule.u_th
        worst_escaped = max(worst_escaped, escaped_length)
        slack = _MEMBERSHIP_SLACK * schedule.u_th
        for lo, hi in hulls:
            excess = (hi - lo - schedule.u_comm - 2.0 * slack) / schedule.u_comm
            # Written so that NaN counts as a failure.
            width_fail += not excess <= 1e-9
            worst_spread = max(worst_spread, excess)
        n_beams_total += n_beams
    return [
        CheckResult("sweep_coverage", len(points), cover_fail, worst_escaped),
        CheckResult("post_sweep_width", n_beams_total, width_fail, worst_spread),
    ]


def _tight_rate(upsilon: np.ndarray, n_beams: np.ndarray, p_hat_max: np.ndarray) -> np.ndarray:
    """Normalized rate on the power-tight curve, elementwise: the slope suite's oracle.

    In drift units the data phase sweeps the widths ``u`` from the
    post-sweep width ``u_hat`` up to ``upsilon`` at a time-average weight
    ``pref = n / ((n-1) (upsilon + n/2 - 1))``. With the water level
    ``X = upsilon (1 + zeta)`` at or above ``upsilon`` (``zeta >= 0``, which
    holds strictly between the shrinkage bound and ``max_upsilon``) and
    ``a = upsilon - u_hat``, the power ``pref/2 * integral of 2 (X - u)`` is
    ``pref/2 * a * (a + 2 upsilon zeta)``; equal to the budget, it gives
    ``zeta``. The rate ``pref * integral of ln(X/u)`` is then
    ``pref * (a (1 + ln(1 + zeta)) - u_hat ln(1 + a/u_hat))``, with both
    logarithms as ``log1p`` for conditioning near either bracket end.
    """
    n = n_beams
    u_hat = upsilon / n + n / 2.0 + 1.5 - 1.0 / n  # the sweep geometry, as norm_comm_width
    a = upsilon - u_hat
    pref = n / ((n - 1.0) * (upsilon + n / 2.0 - 1.0))
    zeta = (2.0 * p_hat_max / (pref * a) - a) / (2.0 * upsilon)
    return pref * (a * (1.0 + np.log1p(zeta)) - u_hat * np.log1p(a / u_hat))


def slope_sign_suite(
    budgets: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
    n_points: int = 50,
    seed: int = 0,
) -> list[CheckResult]:
    """Checks the slope surrogate against finite differences of the rate.

    At each feasible beam count: the surrogate must be positive just above
    the lower boundary, negative at ``max_upsilon``, and match the sign of
    a central difference of the power-tight rate at random interior points.
    The rates come from ``_tight_rate``, one array pass over every point of
    every count; ``rate_slope`` is called, checked, once per point.
    """
    rng = random.Random(seed)
    bound_cases = bound_fail = 0
    draws, counts, levels = [], [], []
    for budget in budgets:
        for n in range(2, max_beams(budget) + 1):
            shrink = trigger_width_branches(n)[0]
            hi = max_upsilon(n, budget)
            bound_cases += 2
            if not rate_slope(shrink * (1.0 + 1e-9), n, budget) > 0.0:
                bound_fail += 1
            if not rate_slope(hi, n, budget) < 0.0:
                bound_fail += 1
            lo, top = shrink * (1.0 + 1e-5), hi * (1.0 - 1e-5)
            draws.extend(_uniform(rng, lo, top) for _ in range(n_points))
            counts.append(n)
            levels.append(budget)
    ups = np.array(draws, dtype=float)
    n_beams = np.repeat(np.array(counts, dtype=np.int64), n_points)
    p_hat = np.repeat(np.array(levels, dtype=float), n_points)
    h = 1e-6 * ups
    # (ups + h, ups - h) of each point side by side, in one pass.
    rates = _tight_rate(
        np.stack((ups + h, ups - h), axis=1).ravel(), np.repeat(n_beams, 2), np.repeat(p_hat, 2)
    ).reshape(-1, 2)
    fd = (rates[:, 0] - rates[:, 1]) / (2.0 * h)
    sign_cases = sign_fail = 0
    worst = 0.0
    for point, n, budget, diff in zip(ups.tolist(), n_beams.tolist(), p_hat.tolist(), fd.tolist()):
        if abs(diff) <= 1e-9:
            continue  # too close to the optimum for a stable sign
        sign_cases += 1
        value = rate_slope(point, n, budget)
        if math.copysign(1.0, diff) != math.copysign(1.0, value):
            sign_fail += 1
            worst = max(worst, abs(diff))
    return [
        CheckResult("slope_sign", sign_cases, sign_fail, worst),
        CheckResult("slope_boundaries", bound_cases, bound_fail, float(bound_fail)),
    ]


def run_all(
    params: SystemParams,
    seed: int = 0,
    perturb_closed_form: float = 0.0,
) -> list[CheckResult]:
    """Every verification suite with shared defaults; rows for the report CSV."""
    results = quadrature_suite(params, seed=seed, perturb_closed_form=perturb_closed_form)
    u_th = 100.0 * (params.delta_s * params.phi)
    rho = 0.8 * u_th / (params.d * snr_gamma(params))
    results.append(jensen_check(params, n_beams=2, u_th=u_th, rho=rho))
    results.extend(coverage_suite(params))
    results.extend(slope_sign_suite(seed=seed))
    return results
