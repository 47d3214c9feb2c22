"""Independent verification of the cycle model.

Three families of checks, none of which share algebra with the closed
forms they test:

* trajectory Monte Carlo of the sweep protocol -- every user starting in
  the trigger interval must be caught by some beam during that beam's own
  microslot (full coverage), and the post-sweep position must fall in a
  window of width ``u_comm`` regardless of which beam won;
* adaptive midpoint quadrature of the defining rate/power integrals,
  refined until self-consistent, against the closed forms;
* random power profiles with matched average power, which can never beat
  the water-filling profile's average rate.

Per-trajectory randomness comes from one stream per design point, drawn
in trajectory order, so results depend only on the master seed. The
trajectories stream through the sweep one time step at a time, in blocks
of ``_BLOCK`` rows: a block draws its own speed levels and keeps its
running position sums, speed increments and per-beam hit flags, never a
sampled path, so memory is O(block) whatever the number of steps. The
running sums add left to right, as ``np.cumsum`` does, so every sampled
position is the one a materialized path would hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .optimize import max_beams, max_upsilon, rate_slope, tight_zeta
from .params import SystemParams, snr_gamma
from .performance import (
    avg_power_closed,
    avg_rate_closed,
    norm_comm_width,
    norm_rate,
    waterfilling_power,
)
from .sweep import (
    SweepSchedule,
    build_schedule,
    comm_width,
    cycle_duration,
    min_upsilon,
    trigger_width_branches,
)

SPEED_KINDS = ("constant-extreme", "piecewise-constant-uniform", "bang-bang")

# Integration steps per microslot; speeds are constant within a step, so
# explicit Euler is exact at this resolution. The switching speed
# processes also dwell one microslot, this many steps, per speed segment.
RESOLUTION = 100

# Interval-membership slack relative to u_th, covering accumulated rounding
# in the position sums ("integration resolution" in the checks below).
_MEMBERSHIP_SLACK = 1e-9

# Trajectories per block of the coverage kernel. A block's per-row state
# stays in cache: 1.35 us per trajectory at this size, 1.59 us at 100k rows.
_BLOCK = 32_768

# Random power profiles per batch of the Jensen check; two buffers of this
# many profiles (0.8 MB each at the default grid) serve every batch. Freeing
# larger ones raises glibc's dynamic mmap threshold, after which verify's
# later large arrays come from the heap and its peak RSS can read ~10 MiB
# higher.
_JENSEN_BATCH = 10

_PIECEWISE = SPEED_KINDS.index("piecewise-constant-uniform")
_BANG_BANG = SPEED_KINDS.index("bang-bang")


def _sweep(
    params: SystemParams,
    schedule: SweepSchedule,
    kinds: np.ndarray,
    p0: np.ndarray,
    sign: np.ndarray,
    offset: np.ndarray,
    levels: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Step a block of trajectories through the sweep phase.

    Row ``r`` starts at ``p0[r]`` and moves with speed process
    ``SPEED_KINDS[kinds[r]]``. Step ``j`` lies in speed segment
    ``(j + offset) // RESOLUTION``. Its speed there is ``sign * phi/2``
    (constant-extreme), the same negated in odd segments (bang-bang), or
    the segment's uniform level in ``levels`` (piecewise). A beam detects
    a row if the position lies in its scan interval at any sampled time of
    its own microslot (slot boundaries belong to both adjacent slots); the
    first such beam wins.

    Returns the 1-based detected beam (0 if none) and the final position
    of each row.
    """
    dt = params.delta_s / RESOLUTION
    n_rows = p0.size
    # Sorted by kind and then offset, the rows whose speed segment changes
    # at step j (offset == -j mod RESOLUTION) are one slice per kind.
    key = kinds * RESOLUTION + offset
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(
        key[order], np.arange(len(SPEED_KINDS) * RESOLUTION + 1)
    ).tolist()

    def phase_slices(kind: int) -> list[slice]:
        first = kind * RESOLUTION
        return [slice(bounds[first + k], bounds[first + k + 1]) for k in range(RESOLUTION)]

    flips = phase_slices(_BANG_BANG)
    loads = phase_slices(_PIECEWISE)
    piecewise = slice(loads[0].start, loads[-1].stop)
    # Per-step increments speed * dt, rounded as materialized speeds were.
    inc = sign[order] * (0.5 * params.phi) * dt
    levels = levels[order[piecewise]]
    inc[piecewise] = levels[:, 0] * dt

    p0 = p0[order]
    total = np.zeros(n_rows)
    pos = p0.copy()
    inside = np.empty(n_rows, dtype=bool)
    hit = np.empty(n_rows, dtype=bool)
    below = np.empty(n_rows, dtype=bool)
    detected = np.zeros(n_rows, dtype=np.int64)
    slack = _MEMBERSHIP_SLACK * schedule.u_th
    j = 0
    for beam, (a, b) in enumerate(schedule.intervals, start=1):
        lo = a - slack
        hi = b + slack
        np.greater_equal(pos, lo, out=inside)
        inside &= np.less_equal(pos, hi, out=below)
        for _ in range(RESOLUTION):
            if j:
                phase = -j % RESOLUTION
                flip = flips[phase]
                np.negative(inc[flip], out=inc[flip])
                load = loads[phase]
                segment = (j + phase) // RESOLUTION
                rows = slice(load.start - piecewise.start, load.stop - piecewise.start)
                np.multiply(levels[rows, segment], dt, out=inc[load])
            j += 1
            total += inc
            np.add(total, p0, out=pos)
            np.greater_equal(pos, lo, out=hit)
            hit &= np.less_equal(pos, hi, out=below)
            inside |= hit
        np.copyto(detected, beam, where=inside & (detected == 0))

    detected[order] = detected.copy()
    pos[order] = pos.copy()
    return detected, pos


def _final_ok(
    schedule: SweepSchedule, detected: np.ndarray, final: np.ndarray, delta_s_phi: float
) -> np.ndarray:
    """Whether each detected trajectory ends inside its beam's u_comm window."""
    n = schedule.n_beams
    slack = _MEMBERSHIP_SLACK * schedule.u_th
    a_arr = np.array([iv[0] for iv in schedule.intervals])
    b_arr = np.array([iv[1] for iv in schedule.intervals])
    idx = np.maximum(detected - 1, 0)
    # Motion after detection can spread the position by (n+1-i) microslots
    # of drift around the winning beam's scan interval; that window has
    # width u_comm for every beam.
    grow = (n + 1 - detected.astype(float)) * 0.5 * delta_s_phi
    lo = a_arr[idx] - grow
    hi = b_arr[idx] + grow
    return (detected > 0) & (final >= lo - slack) & (final <= hi + slack)


# ---------------------------------------------------------------------------
# Numerical quadrature of the defining integrals
# ---------------------------------------------------------------------------


def _cycle_terms(
    params: SystemParams, n_beams: int, u_th: float
) -> tuple[float, float, float]:
    """(gamma, u_comm, T) of a design, from the public geometry."""
    return (
        snr_gamma(params),
        comm_width(params, u_th, n_beams),
        cycle_duration(params, u_th, n_beams),
    )


def _refine_midpoint(f, a: float, b: float, rel_tol: float) -> float:
    """Composite midpoint with doubling and one Richardson extrapolation.

    Refines until two successive estimates agree to ``rel_tol``; the
    returned value is the extrapolated one.
    """
    if b <= a:
        return 0.0
    n = 64
    x = a + (b - a) * (np.arange(n) + 0.5) / n
    prev = (b - a) * float(np.mean(f(x)))
    while n <= 2**23:
        n *= 2
        x = a + (b - a) * (np.arange(n) + 0.5) / n
        cur = (b - a) * float(np.mean(f(x)))
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return (4.0 * cur - prev) / 3.0
        prev = cur
    raise RuntimeError(f"quadrature did not self-converge to {rel_tol} by n = {n}")


def avg_rate_numeric(
    params: SystemParams,
    n_beams: int,
    u_th: float,
    rho: float,
    rel_tol: float = 1e-9,
) -> float:
    """Cycle-averaged rate (bit/s) by direct quadrature of the rate integral."""
    gamma, u_c, t_cycle = _cycle_terms(params, n_beams, u_th)
    t0 = n_beams * params.delta_s
    # The integrand is identically zero once the width outgrows the water
    # level (the (.)+ in the power), so that tail is skipped exactly.
    level = params.d * gamma * rho
    t_hi = t_cycle if level >= u_th else t0 + (level - u_c) / params.phi

    def integrand(t):
        u = u_c + params.phi * (t - t0)
        p = np.maximum(0.0, rho - u / (params.d * gamma))
        return np.log2(1.0 + gamma * p / (u / params.d))

    return params.w_tot / t_cycle * _refine_midpoint(integrand, t0, t_hi, rel_tol)


def avg_power_numeric(
    params: SystemParams,
    n_beams: int,
    u_th: float,
    rho: float,
    rel_tol: float = 1e-9,
) -> float:
    """Cycle-averaged power by direct quadrature of the power integral."""
    gamma, u_c, t_cycle = _cycle_terms(params, n_beams, u_th)
    t0 = n_beams * params.delta_s
    level = params.d * gamma * rho
    t_hi = t_cycle if level >= u_th else t0 + (level - u_c) / params.phi

    def integrand(t):
        u = u_c + params.phi * (t - t0)
        return np.maximum(0.0, rho - u / (params.d * gamma))

    return _refine_midpoint(integrand, t0, t_hi, rel_tol) / t_cycle


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One verification suite's outcome; rows of the report CSV."""

    check_name: str
    n_cases: int
    n_failures: int
    worst_residual: float

    @property
    def passed(self) -> bool:
        """No failures among at least one case: a check that ran nothing proves nothing."""
        return self.n_cases > 0 and self.n_failures == 0


def jensen_check(
    params: SystemParams,
    n_beams: int,
    u_th: float,
    rho: float,
    n_perturbations: int = 1000,
    seed: int = 0,
    grid_points: int = 10_000,
) -> CheckResult:
    """Water-filling optimality check against random equal-power profiles.

    Draws nonnegative power profiles on a time grid over the data phase,
    rescaled to the water-filling profile's average power, and verifies
    none exceeds its average rate by more than 1e-9 (in nats per sample).
    The water-filling profile itself, a constant profile, and a shuffled
    copy of the water-filling profile are included as fixed cases.
    """
    gamma, u_c, t_cycle = _cycle_terms(params, n_beams, u_th)
    t0 = n_beams * params.delta_s
    t = t0 + (t_cycle - t0) * (np.arange(grid_points) + 0.5) / grid_points
    u = u_c + params.phi * (t - t0)
    gain = params.d * gamma / u  # per-sample SNR factor per unit power
    wf = np.array([waterfilling_power(rho, ui, params.d, gamma) for ui in u])
    budget = float(np.mean(wf))
    rate_wf = float(np.mean(np.log1p(gain * wf)))

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst = -math.inf
    failures = 0
    n_cases = 0
    batch = np.empty((min(_JENSEN_BATCH, n_perturbations + 2), grid_points))
    snr = np.empty_like(batch)

    def account(profiles: np.ndarray) -> None:
        nonlocal worst, failures, n_cases
        out = np.multiply(gain[None, :], profiles, out=snr[: len(profiles)])
        rates = np.mean(np.log1p(out, out=out), axis=1)
        excess = rates - rate_wf
        # Written so that NaN counts as a failure and reaches ``worst``.
        worst = float(np.maximum(worst, excess.max()))
        failures += int(np.sum(~(excess <= 1e-9)))
        n_cases += profiles.shape[0]

    account(wf[None, :])
    if budget > 0.0:
        account(np.full((1, grid_points), budget))
        account(rng.permutation(wf)[None, :])
        for start in range(0, n_perturbations, _JENSEN_BATCH):
            # Unit-scale exponential draws, the stream rng.exponential(1.0) gives.
            rows = min(_JENSEN_BATCH, n_perturbations - start)
            profiles = rng.standard_exponential(out=batch[:rows])
            profiles *= (budget / np.mean(profiles, axis=1))[:, None]
            account(profiles)
    else:
        batch.fill(0.0)
        for start in range(0, n_perturbations + 2, _JENSEN_BATCH):
            account(batch[: min(_JENSEN_BATCH, n_perturbations + 2 - start)])
    return CheckResult("jensen_waterfilling", n_cases, failures, worst)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def quadrature_suite(
    params: SystemParams,
    n_tuples: int = 200,
    seed: int = 0,
    rel_tol: float = 1e-7,
    quad_tol: float = 1e-9,
    perturb_closed_form: float = 0.0,
) -> list[CheckResult]:
    """Closed forms vs quadrature over random feasible designs.

    Alternating tuples place the water level inside and above the cycle's
    width range so both branches of the closed forms are exercised.
    ``perturb_closed_form`` injects a relative error into the closed-form
    values (fault-injection self-test of this suite).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    gamma = snr_gamma(params)
    step = params.delta_s * params.phi
    tuples = []
    for j in range(n_tuples):
        n = int(rng.integers(2, 9))
        ups = rng.uniform(min_upsilon(n) * (1.0 + 1e-6), 1000.0)
        u_th = ups * step
        u_c = norm_comm_width(ups, n) * step
        if j % 2 == 0:
            level = u_c + (u_th - u_c) * rng.uniform(0.05, 0.95)
        else:
            level = u_th * rng.uniform(1.05, 3.0)
        tuples.append((n, u_th, level / (params.d * gamma)))

    results = []
    for name, closed, numeric in (
        ("closed_vs_numeric_rate", avg_rate_closed, avg_rate_numeric),
        ("closed_vs_numeric_power", avg_power_closed, avg_power_numeric),
    ):
        rel = np.zeros(n_tuples)
        for j, (n, u_th, rho) in enumerate(tuples):
            reference = numeric(params, n, u_th, rho, rel_tol=quad_tol)
            value = closed(params, n, u_th, rho) * (1.0 + perturb_closed_form)
            rel[j] = abs(value - reference) / max(abs(reference), 1e-300)
        # A NaN residual is a failure, and np.max carries it into worst.
        failures = int(np.sum(~(rel <= rel_tol)))
        results.append(CheckResult(name, n_tuples, failures, float(np.max(rel, initial=0.0))))
    return results


def _coverage_point(
    params: SystemParams, schedule: SweepSchedule, n_traj: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Detected beam and final position of each trajectory at one design point.

    Every trajectory's start, speed sign and switch offset are drawn first;
    the trajectories then go through ``_sweep`` ``_BLOCK`` rows at a time,
    each block drawing its speed levels just before it runs. The levels
    fill row by row, so the stream is that of one (n_traj, segments) draw.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, schedule.n_beams)))
    p0 = rng.uniform(0.0, schedule.u_th, size=n_traj)
    sign = rng.integers(0, 2, size=n_traj) * 2 - 1
    offset = rng.integers(0, RESOLUTION, size=n_traj)
    # Step j < n_beams * RESOLUTION lies in segment (j + offset) // RESOLUTION.
    n_segments = schedule.n_beams + 1
    half = 0.5 * params.phi
    kinds = np.arange(n_traj) % len(SPEED_KINDS)
    detected = np.empty(n_traj, dtype=np.int64)
    final = np.empty(n_traj)
    for start in range(0, n_traj, _BLOCK):
        rows = slice(start, min(start + _BLOCK, n_traj))
        levels = rng.uniform(-half, half, size=(rows.stop - start, n_segments))
        detected[rows], final[rows] = _sweep(
            params, schedule, kinds[rows], p0[rows], sign[rows], offset[rows], levels
        )
    return detected, final


def coverage_suite(
    params: SystemParams,
    points: Sequence[tuple[int, float]] | None = None,
    n_traj: int = 100_000,
    seed: int = 0,
) -> list[CheckResult]:
    """Monte Carlo coverage and post-sweep width checks.

    ``points`` are (n_beams, upsilon) design points; the default set
    includes a minimum-width schedule whose first beam degenerates to zero
    width. Trajectories are split round-robin over the speed process kinds,
    with dwell equal to one microslot.
    """
    if points is None:
        points = ((2, 8.0), (3, 60.0), (5, 6.0))
    step = params.delta_s * params.phi
    cover_fail = 0
    width_fail = 0
    worst_spread = 0.0
    n_cases = 0
    for n_beams, ups in points:
        schedule = build_schedule(params, ups * step, n_beams)
        detected, final = _coverage_point(params, schedule, n_traj, seed)
        covered = detected > 0
        cover_fail += int(np.sum(~covered))
        width_fail += int(np.sum(covered & ~_final_ok(schedule, detected, final, step)))
        hits = [final[detected == b] for b in range(1, n_beams + 1)]
        final_lo = np.array([hit.min(initial=np.inf) for hit in hits])
        final_hi = np.array([hit.max(initial=-np.inf) for hit in hits])
        n_cases += n_traj
        spreads = final_hi - final_lo
        seen = np.isfinite(spreads)
        if seen.any():
            excess = float(np.max(spreads[seen] - schedule.u_comm)) / schedule.u_comm
            worst_spread = max(worst_spread, excess)
            width_fail += int(np.sum(spreads[seen] > schedule.u_comm * (1.0 + 1e-9)))
    return [
        CheckResult("sweep_coverage", n_cases, cover_fail, float(cover_fail)),
        CheckResult("post_sweep_width", n_cases, width_fail, worst_spread),
    ]


def slope_sign_suite(
    budgets: Sequence[float] = (0.1, 1.0, 10.0, 100.0),
    n_points: int = 50,
    seed: int = 0,
) -> list[CheckResult]:
    """Checks the slope surrogate against finite differences of the rate.

    At each feasible beam count: the surrogate must be positive just above
    the lower boundary, negative at ``max_upsilon``, and match the sign of
    a central difference of the power-tight rate at random interior points.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sign_cases = sign_fail = 0
    bound_cases = bound_fail = 0
    worst = 0.0
    for budget in budgets:
        for n in range(2, max_beams(budget) + 1):
            shrink = trigger_width_branches(n)[0]
            hi = max_upsilon(n, budget)
            bound_cases += 2
            if not rate_slope(shrink * (1.0 + 1e-9), n, budget) > 0.0:
                bound_fail += 1
            if not rate_slope(hi, n, budget) < 0.0:
                bound_fail += 1
            for _ in range(n_points):
                ups = rng.uniform(shrink * (1.0 + 1e-5), hi * (1.0 - 1e-5))
                h = 1e-6 * ups
                rp = norm_rate(n, ups + h, tight_zeta(ups + h, n, budget))
                rm = norm_rate(n, ups - h, tight_zeta(ups - h, n, budget))
                fd = (rp - rm) / (2.0 * h)
                if abs(fd) <= 1e-9:
                    continue  # too close to the optimum for a stable sign
                sign_cases += 1
                value = rate_slope(ups, n, budget)
                if math.copysign(1.0, fd) != math.copysign(1.0, value):
                    sign_fail += 1
                    worst = max(worst, abs(fd))
    return [
        CheckResult("slope_sign", sign_cases, sign_fail, worst),
        CheckResult("slope_boundaries", bound_cases, bound_fail, float(bound_fail)),
    ]


def run_all(
    params: SystemParams,
    seed: int = 0,
    perturb_closed_form: float = 0.0,
    n_tuples: int = 200,
    n_traj: int = 100_000,
    n_profiles: int = 1000,
) -> list[CheckResult]:
    """Every verification suite with shared defaults; rows for the report CSV."""
    results = quadrature_suite(
        params, n_tuples=n_tuples, seed=seed, perturb_closed_form=perturb_closed_form
    )
    step = params.delta_s * params.phi
    gamma = snr_gamma(params)
    u_th = 100.0 * step
    results.append(
        jensen_check(
            params,
            n_beams=2,
            u_th=u_th,
            rho=0.8 * u_th / (params.d * gamma),
            n_perturbations=n_profiles,
            seed=seed,
        )
    )
    results.extend(coverage_suite(params, n_traj=n_traj, seed=seed))
    results.extend(slope_sign_suite(seed=seed))
    return results
