import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcycle import (
    CheckResult,
    avg_power_closed,
    avg_power_numeric,
    avg_rate_closed,
    avg_rate_numeric,
    build_schedule,
    comm_width,
    coverage_suite,
    jensen_check,
    max_beams,
    max_upsilon,
    min_upsilon,
    quadrature_suite,
    slope_sign_suite,
    snr_gamma,
    validation,
)
from beamcycle.sweep import trigger_width_branches

from conftest import SUITE_MUTANTS, make_params, run_mutant

DEFAULT_POINTS = ((2, 8.0), (3, 60.0), (5, 6.0))  # coverage_suite's design points
COVERAGE_MUTANTS = sorted(
    name for name, mutant in SUITE_MUTANTS.items() if mutant.suite is coverage_suite
)

# Displacement processes of the reference Monte Carlo, one displacement in
# [-r, r] per microslot; bang-bang flips its sign every microslot.
DRIFT_KINDS = ("constant-extreme", "uniform", "bang-bang")


def _rho_for_level(params, level):
    return level / (params.d * snr_gamma(params))


# Reference: sampled paths under coverage_suite's detection model. Beam k
# checks a path at the start of its microslot, and over each microslot the
# path moves by at most r = phi*delta_s/2 either way. Every path is
# materialized and summed with np.cumsum; the exact reachable sets of
# coverage_suite must contain every outcome it samples.


def _displacements(rng, kind, n_paths, n_beams, r):
    """Per-microslot displacements of ``n_paths`` paths of one kind, shape (n_paths, n_beams)."""
    if kind == "uniform":
        return rng.uniform(-r, r, size=(n_paths, n_beams))
    sign = (rng.integers(0, 2, size=n_paths) * 2 - 1)[:, None] * r
    if kind == "constant-extreme":
        return np.repeat(sign, n_beams, axis=1)
    return sign * np.where(np.arange(n_beams) % 2 == 0, 1.0, -1.0)


def _positions(p0, steps):
    """Positions at each slot start and at the end of the sweep, shape (rows, n_beams + 1)."""
    out = np.empty((steps.shape[0], steps.shape[1] + 1))
    out[:, 0] = p0
    np.cumsum(steps, axis=1, out=out[:, 1:])
    out[:, 1:] += p0[:, None]
    return out


def _detect(schedule, positions):
    """1-based beam that detects each materialized path first, 0 for none."""
    slack = validation._MEMBERSHIP_SLACK * schedule.u_th
    detected = np.zeros(positions.shape[0], dtype=np.int64)
    for i, (a, b) in enumerate(schedule.intervals):
        inside = (positions[:, i] >= a - slack) & (positions[:, i] <= b + slack)
        np.copyto(detected, i + 1, where=inside & (detected == 0))
    return detected


def _reference_point(params, schedule, n_paths, seed):
    """(detected beam, final position) per path, kinds round-robin."""
    r = 0.5 * params.phi * params.delta_s
    rng = np.random.default_rng(np.random.SeedSequence((seed, schedule.n_beams)))
    p0 = rng.uniform(0.0, schedule.u_th, size=n_paths)
    kinds = np.arange(n_paths) % len(DRIFT_KINDS)
    steps = np.empty((n_paths, schedule.n_beams))
    for k, kind in enumerate(DRIFT_KINDS):
        rows = kinds == k
        steps[rows] = _displacements(rng, kind, int(rows.sum()), schedule.n_beams, r)
    positions = _positions(p0, steps)
    return _detect(schedule, positions), positions[:, -1]


def _assert_inside_exact_sets(params, schedule, detected, final):
    """Each detected path ends in its beam's exact hull, each miss in the escaped set.

    Returns the number of misses.
    """
    escaped, hulls = validation._reachable(params, schedule)
    tol = 1e-12 * schedule.u_th  # cumsum and the interval ends round differently
    for beam, (lo, hi) in enumerate(hulls, start=1):
        ends = final[detected == beam]
        assert np.all((ends >= lo - tol) & (ends <= hi + tol)), beam
    misses = final[detected == 0]
    inside = np.zeros(misses.size, dtype=bool)
    for lo, hi in escaped:
        inside |= (misses >= lo - tol) & (misses <= hi + tol)
    assert inside.all()
    return misses.size


def _one_row(params, schedule, kind, p0, seed):
    """(detected beam, final position) of one reference path of one kind."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    r = 0.5 * params.phi * params.delta_s
    positions = _positions(np.array([p0]), _displacements(rng, kind, 1, schedule.n_beams, r))
    return int(_detect(schedule, positions)[0]), float(positions[0, -1])


class TestCoverageKernel:
    """Sampled reference trajectories against the exact reachable sets."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n_beams, upsilon", DEFAULT_POINTS)
    def test_default_points(self, params, n_beams, upsilon, seed):
        schedule = build_schedule(params, upsilon * params.delta_s * params.phi, n_beams)
        detected, final = _reference_point(params, schedule, 20_000, seed)
        assert _assert_inside_exact_sets(params, schedule, detected, final) == 0

    @pytest.mark.parametrize("mutant", COVERAGE_MUTANTS)
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n_beams, upsilon", DEFAULT_POINTS)
    def test_default_points_under_mutant(self, params, n_beams, upsilon, seed, mutant):
        build = SUITE_MUTANTS[mutant].stand_in
        schedule = build(params, upsilon * params.delta_s * params.phi, n_beams)
        detected, final = _reference_point(params, schedule, 20_000, seed)
        misses = _assert_inside_exact_sets(params, schedule, detected, final)
        # Unshifted scan intervals let users through at every point, and
        # the sample finds some of them.
        assert (misses > 0) == (mutant == "no-backoff")

    # One kind only, no bang-bang, and a few of each.
    @pytest.mark.parametrize("n_traj", [1, 2, 5])
    @pytest.mark.parametrize("n_beams, upsilon", DEFAULT_POINTS)
    def test_edge_sizes(self, params, n_beams, upsilon, n_traj):
        schedule = build_schedule(params, upsilon * params.delta_s * params.phi, n_beams)
        detected, final = _reference_point(params, schedule, n_traj, 3)
        assert _assert_inside_exact_sets(params, schedule, detected, final) == 0

    def test_static_user_detected_by_first_beam(self, params):
        schedule = build_schedule(params, 80 * params.delta_s * params.phi, 2)
        p0 = 0.5 * (schedule.intervals[0][0] + schedule.intervals[0][1])
        lo, hi = validation._reachable(params, schedule)[1][0]
        # Beam 1 checks the user at the start of the sweep, before any drift.
        for kind in DRIFT_KINDS:
            detected, final = _one_row(params, schedule, kind, p0, seed=1)
            assert detected == 1, kind
            assert lo <= final <= hi, kind

    def test_identical_seeds_bit_identical(self, params):
        schedule = build_schedule(params, 50 * params.delta_s * params.phi, 2)
        for kind in DRIFT_KINDS:
            runs = [_one_row(params, schedule, kind, 0.001, seed=1234) for _ in range(2)]
            assert runs[0] == runs[1], kind

    def test_speed_bound_respected(self, params):
        # Each of the n_beams microslots moves a user by at most
        # phi/2 * delta_s, and a constant-extreme user moves by exactly that.
        schedule = build_schedule(params, 50 * params.delta_s * params.phi, 2)
        bound = 0.5 * params.phi * schedule.n_beams * params.delta_s
        for kind in DRIFT_KINDS:
            _, final = _one_row(params, schedule, kind, 0.001, seed=5)
            moved = abs(final - 0.001)
            assert moved <= bound * (1 + 1e-12), kind
            if kind == "constant-extreme":
                assert moved == pytest.approx(bound, rel=1e-12)


class TestReachableSets:
    @settings(max_examples=60, deadline=None)
    @given(
        n_beams=st.integers(2, 16),
        upsilon_frac=st.floats(0.0, 1.0),
        phi=st.sampled_from([2.0, 40.0, 120.0]),
    )
    def test_every_design_covers_within_u_comm(self, n_beams, upsilon_frac, phi):
        params = make_params(phi=phi)
        lowest = min_upsilon(n_beams)
        upsilon = lowest + upsilon_frac * (2000.0 - lowest)
        results = coverage_suite(params, points=[(n_beams, upsilon)])
        assert [(r.n_cases, r.n_failures) for r in results] == [(1, 0), (n_beams, 0)]
        # Beam 1 detects every user in [0, b_1] at the sweep's start, and no
        # user starts below 0, so its hull is u_comm plus one slack, not two.
        schedule = build_schedule(params, upsilon * (params.delta_s * params.phi), n_beams)
        lo, hi = validation._reachable(params, schedule)[1][0]
        slack = validation._MEMBERSHIP_SLACK * schedule.u_th
        assert hi - lo == pytest.approx(schedule.u_comm + slack, rel=1e-12)

    def test_no_backoff_escaped_set(self, params):
        # Without the back-off, users that end the sweep in [-2.5, 4] and
        # [5, 6.5] times delta_s*phi were never inside the beam of their
        # microslot at its start.
        step = params.delta_s * params.phi
        schedule = SUITE_MUTANTS["no-backoff"].stand_in(params, 6.0 * step, 5)
        escaped, _ = validation._reachable(params, schedule)
        assert len(escaped) == 2
        assert escaped[0] == pytest.approx((-2.5 * step, 4.0 * step), rel=1e-6)
        assert escaped[1] == pytest.approx((5.0 * step, 6.5 * step), rel=1e-6)

    def test_one_dilation_per_microslot(self, params, monkeypatch):
        # n - 1 dilations between slot starts and one after the last slot: a
        # bug that brings back per-instant work exceeds sum(n) = 10.
        calls = []
        dilate = validation._dilate

        def counted(intervals, r):
            calls.append(r)
            return dilate(intervals, r)

        monkeypatch.setattr(validation, "_dilate", counted)
        coverage_suite(params)
        assert len(calls) <= sum(n for n, _ in DEFAULT_POINTS)


def _refine_midpoint(f, a, b, rel_tol):
    """Slow reference: composite midpoint with doubling and one Richardson step.

    Refines from 64 points until two successive estimates agree to
    ``rel_tol``; returns the extrapolated value.
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
    raise RuntimeError(f"midpoint reference did not converge to {rel_tol}")


def _refine_midpoint_rows(f, a, b, rel_tol):
    """``_refine_midpoint`` row by row, in ``_gauss_panels``' signature."""
    return np.array([
        _refine_midpoint(lambda x: f(x[None, None, :], np.array([i]))[0, 0], a[i], b[i], rel_tol)
        for i in range(a.size)
    ])


def _gauss_panels_scalar(f, a, b, rel_tol):
    """The one-integral loop that ``_gauss_panels`` batches, kept as its reference."""
    if b <= a:
        return 0.0
    nodes, weights = validation._gauss_legendre()
    prev = math.nan
    panels = 1
    while panels <= validation._MAX_PANELS:
        h = (b - a) / panels
        x = a + h * (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0))
        cur = 0.5 * h * float(np.sum(f(x) @ weights))
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
        panels *= 2
    return math.nan


def _step_at_third(x, rows):
    # Panel doubling never puts a panel edge on 1/3, so the panel that
    # holds the step keeps an error of the order of its width.
    return (x > 1.0 / 3.0).astype(float)


def _mixed_integrands(x, rows):
    """A smooth integrand of its own per row, but the unconverging step in row 2."""
    row = rows[:, None, None]
    return np.where(row == 2, _step_at_third(x, rows), np.exp(np.sin(3.0 * x + row)))


class TestQuadrature:
    def test_matches_closed_forms_both_branches(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        u_th = 1.0
        for level in (1.25, 0.7):  # above and inside the width range
            rho = _rho_for_level(p, level * u_th)
            rate_c = avg_rate_closed(p, 2, u_th, rho)
            rate_n = avg_rate_numeric(p, 2, u_th, rho)
            assert rate_n == pytest.approx(rate_c, rel=1e-8)
            power_c = avg_power_closed(p, 2, u_th, rho)
            power_n = avg_power_numeric(p, 2, u_th, rho)
            assert power_n == pytest.approx(power_c, rel=1e-8)

    @pytest.mark.parametrize("n_beams, upsilon", [(2, 50.0), (5, 900.0), (8, 12.0)])
    @pytest.mark.parametrize("level_frac", [0.3, 0.9, 2.5])  # inside, inside, above
    def test_matches_midpoint_reference(self, params, monkeypatch, n_beams, upsilon, level_frac):
        u_th = upsilon * params.delta_s * params.phi
        u_c = comm_width(params, u_th, n_beams)
        level = u_c + level_frac * (u_th - u_c)
        rho = _rho_for_level(params, level)
        gauss = [f(params, n_beams, u_th, rho) for f in (avg_rate_numeric, avg_power_numeric)]
        monkeypatch.setattr(validation, "_gauss_panels", _refine_midpoint_rows)
        midpoint = [
            f(params, n_beams, u_th, rho, rel_tol=1e-9)
            for f in (avg_rate_numeric, avg_power_numeric)
        ]
        assert gauss == pytest.approx(midpoint, rel=1e-12)

    def test_nodes_match_numpy(self):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = validation._gauss_legendre()
        ref_nodes, ref_weights = leggauss(validation.GAUSS_NODES)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
        assert np.max(np.abs(weights - ref_weights)) <= 1e-14
        assert math.fsum(weights) == pytest.approx(2.0, abs=1e-15)
        # Built once and shared, so no caller may write to them.
        assert not (nodes.flags.writeable or weights.flags.writeable)

    def test_unconverged_is_nan(self):
        zero, one = np.array([0.0]), np.array([1.0])
        assert math.isnan(validation._gauss_panels(_step_at_third, zero, one, 1e-12)[0])
        # A looser tolerance accepts it.
        value = validation._gauss_panels(_step_at_third, zero, one, 1e-2)[0]
        assert value == pytest.approx(2.0 / 3.0, rel=1e-2)

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-6])
    def test_batch_rows_keep_their_bits(self, rel_tol):
        # Each row of a batch gets the bits of a batch of one and of the
        # scalar loop, also next to a row that never converges, whose NaN
        # must not reach its neighbours; an empty or reversed range is 0.
        a = np.array([0.0, 0.0, 0.0, -1.0, 0.5, 0.0, 2.0, 1e-3, 0.0])
        b = np.array([1.0, 1.0, 1.0, 2.0, 0.5, 3.0, 1.0, 4.0, 1.0])
        batch = validation._gauss_panels(_mixed_integrands, a, b, rel_tol)
        for i in range(a.size):
            def one(x, rows, i=i):
                return _mixed_integrands(x, np.full(rows.size, i))

            alone = validation._gauss_panels(one, a[i:i + 1], b[i:i + 1], rel_tol)
            scalar = _gauss_panels_scalar(
                lambda x, i=i: _mixed_integrands(x[None], np.array([i]))[0], a[i], b[i], rel_tol
            )
            assert batch[i:i + 1].tobytes() == alone.tobytes() == np.array([scalar]).tobytes(), i
        assert math.isnan(batch[2]) and batch[4] == batch[6] == 0.0
        assert np.isfinite(np.delete(batch, 2)).all()

    def test_unconverged_rows_keep_a_pass_small(self):
        # Rows that run on to _MAX_PANELS are evaluated a few at a time, so a
        # pass holds about as much as one row did before batching.
        n = 20
        peak = _traced_peak(
            lambda: validation._gauss_panels(_step_at_third, np.zeros(n), np.ones(n), 1e-12)
        )
        assert peak < 2**21

    def test_default_verify_point_ceiling(self, monkeypatch, tmp_path):
        # A default verify is two batched integrals, each converging at 2
        # panels over its 200 tuples: 4 integrand passes. At most 1 + 2
        # panels per tuple, 57,600 points in all (the midpoint rule took
        # 1.01e7). Per-tuple quadrature would take 400 passes or more.
        from beamcycle.cli import main

        counts = []
        rule = validation._gauss_panels

        def counted(f, a, b, rel_tol):
            def g(x, rows):
                counts.append(x.size)
                assert x.ndim == 3 and x.shape[2] == validation.GAUSS_NODES
                return f(x, rows)

            return rule(g, a, b, rel_tol)

        monkeypatch.setattr(validation, "_gauss_panels", counted)
        assert main(["verify", "--out", str(tmp_path / "report.csv")]) == 0
        assert len(counts) <= 4
        assert sum(counts) <= 57_600

    def test_zero_at_floor(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        rho = _rho_for_level(p, comm_width(p, 1.0, 2))
        assert avg_rate_numeric(p, 2, 1.0, rho) == 0.0
        assert avg_power_numeric(p, 2, 1.0, rho) == 0.0

    def test_tolerance_is_self_consistency(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        rho = _rho_for_level(p, 0.8)
        coarse = avg_rate_numeric(p, 2, 1.0, rho, rel_tol=1e-6)
        fine = avg_rate_numeric(p, 2, 1.0, rho, rel_tol=1e-10)
        assert coarse == pytest.approx(fine, rel=1e-6)


class TestJensen:
    def test_no_profile_beats_waterfilling(self, params):
        u_th = 100 * params.delta_s * params.phi
        result = jensen_check(params, 2, u_th, _rho_for_level(params, 0.8 * u_th))
        assert result.n_failures == 0
        assert result.worst_residual <= 1e-9

    def test_waterfilling_itself_included_as_equality(self, params):
        # The water-filling profile against itself scores exactly 0, so the
        # worst residual is never negative; the certificate adds rounding.
        u_th = 100 * params.delta_s * params.phi
        result = jensen_check(params, 2, u_th, _rho_for_level(params, 1.5 * u_th))
        assert 0.0 <= result.worst_residual <= 1e-15

    def test_certificate_and_three_profiles(self, params):
        # The KKT certificate plus the water-filling, constant and reversed
        # profiles; nothing is drawn, so two calls agree.
        u_th = 50 * params.delta_s * params.phi
        rho = _rho_for_level(params, 0.9 * u_th)
        result = jensen_check(params, 2, u_th, rho)
        assert result.n_cases == 4 and result.passed
        assert jensen_check(params, 2, u_th, rho) == result

    def test_zero_budget_runs_the_comparisons_only(self, params):
        # rho = 0 gives an all-zero profile, the only one of zero power.
        u_th = 50 * params.delta_s * params.phi
        result = jensen_check(params, 2, u_th, 0.0)
        assert result == CheckResult("jensen_waterfilling", 3, 0, 0.0)

    def test_nan_rates_fail(self, params):
        # A NaN trigger width makes every profile's rate NaN.
        result = jensen_check(params, 2, math.nan, 1.0)
        assert result.n_failures == result.n_cases > 0
        assert math.isnan(result.worst_residual)

    def test_negative_power_fails_the_certificate(self, params, monkeypatch):
        # Water-filling without its (.)+ has one marginal rate everywhere,
        # but its negative powers are infeasible.
        monkeypatch.setattr(
            validation, "_waterfilling", lambda rho, u, d, gamma: rho - u / (d * gamma)
        )
        u_th = 100 * params.delta_s * params.phi
        result = jensen_check(params, 2, u_th, _rho_for_level(params, 0.8 * u_th))
        assert result.n_failures >= 1
        assert result.worst_residual == math.inf

    @settings(max_examples=40, deadline=None)
    @given(
        n_beams=st.integers(2, 8),
        upsilon_frac=st.floats(0.0, 1.0),
        level_frac=st.floats(0.05, 3.0),
        phi=st.sampled_from([2.0, 40.0, 120.0]),
        d=st.sampled_from([1.0, 10.0, 100.0]),
    )
    def test_certificate_holds_on_true_designs(
        self, n_beams, upsilon_frac, level_frac, phi, d
    ):
        # Water levels inside the cycle's width range and above it.
        params = make_params(phi=phi, d=d)
        upsilon = min_upsilon(n_beams) * (1.0 + 1e-6) + 1000.0 * upsilon_frac
        u_th = upsilon * params.delta_s * params.phi
        u_c = comm_width(params, u_th, n_beams)
        level = u_c + level_frac * (u_th - u_c)
        result = jensen_check(params, n_beams, u_th, _rho_for_level(params, level))
        assert result.n_cases == 4 and result.n_failures == 0
        assert result.worst_residual <= 1e-14


def _assert_caught_alone(params, monkeypatch, mutant):
    """The mutant's own check fails as often as the table says; its suite's others pass."""
    results = run_mutant(params, monkeypatch, mutant)
    check, failures = SUITE_MUTANTS[mutant].check, SUITE_MUTANTS[mutant].failures
    assert results[check].n_failures == failures
    assert [name for name, r in results.items() if not r.passed] == [check]


class TestSuites:
    def test_quadrature_suite_passes(self, params):
        for result in quadrature_suite(params, n_tuples=40, seed=2):
            assert result.passed
            assert result.worst_residual < 1e-7

    def test_quadrature_suite_catches_injected_fault(self, params):
        results = quadrature_suite(
            params, n_tuples=10, seed=2, perturb_closed_form=1e-3
        )
        assert all(r.n_failures == r.n_cases for r in results)

    def test_quadrature_suite_fails_on_nan(self, params):
        # A NaN closed form compares false against the tolerance either way.
        results = quadrature_suite(
            params, n_tuples=4, seed=2, perturb_closed_form=math.nan
        )
        for result in results:
            assert result.n_failures == result.n_cases == 4
            assert math.isnan(result.worst_residual)
            assert not result.passed

    @pytest.mark.parametrize("phi", [1.7e308])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_quadrature_suite_fails_past_float_range(self, phi):
        # With 10 ms microslots the drift per microslot is 1.7e306, and the
        # oracle's arithmetic leaves the float range: failed cases, not a
        # traceback.
        *_, power = quadrature_suite(make_params(phi=phi, delta_s=1e-2), n_tuples=4, seed=2)
        assert power.check_name == "closed_vs_numeric_power"
        assert power.n_failures == power.n_cases == 4
        assert not math.isfinite(power.worst_residual)

    def test_coverage_suite_small(self, params):
        results = coverage_suite(params, points=[(2, 8.0), (4, 300.0)])
        assert results == [
            CheckResult("sweep_coverage", 2, 0, 0.0),
            CheckResult("post_sweep_width", 6, 0, 0.0),
        ]

    @pytest.mark.parametrize("mutant", COVERAGE_MUTANTS)
    def test_coverage_suite_catches_mutant(self, params, monkeypatch, mutant):
        _assert_caught_alone(params, monkeypatch, mutant)

    @pytest.mark.parametrize(
        "mutant", sorted(set(SUITE_MUTANTS) - set(COVERAGE_MUTANTS))
    )
    def test_other_suites_catch_mutant(self, params, monkeypatch, mutant):
        _assert_caught_alone(params, monkeypatch, mutant)

    @pytest.mark.parametrize("seed", [0, 3, 7, 99, 505])
    def test_slope_sign_points_match_one_draw_per_point(self, monkeypatch, seed):
        # The suite draws each beam count's points in one call; they must be
        # bit for bit the points of one scalar draw per point.
        points = []
        tight = validation.tight_zeta

        def recorded(upsilon, n_beams, p_hat_max):
            points.append((upsilon, n_beams, p_hat_max))
            return tight(upsilon, n_beams, p_hat_max)

        monkeypatch.setattr(validation, "tight_zeta", recorded)
        slope_sign_suite(seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        expected = []
        for budget in (0.1, 1.0, 10.0, 100.0):
            for n in range(2, max_beams(budget) + 1):
                lo = trigger_width_branches(n)[0] * (1.0 + 1e-5)
                hi = max_upsilon(n, budget) * (1.0 - 1e-5)
                for _ in range(50):
                    ups = rng.uniform(lo, hi)
                    expected += [(ups + 1e-6 * ups, n, budget), (ups - 1e-6 * ups, n, budget)]
        assert points == expected

    def test_slope_sign_suite_passes(self):
        for result in slope_sign_suite(budgets=(0.5, 5.0), n_points=10, seed=6):
            assert result.passed

    def test_zero_cases_is_not_a_pass(self, params):
        assert not CheckResult("empty", 0, 0, 0.0).passed
        assert CheckResult("one", 1, 0, 0.0).passed
        for result in quadrature_suite(params, n_tuples=0):
            assert result.n_cases == 0
            assert not result.passed


def _traced_peak(fn):
    """Peak bytes that ``fn()`` holds allocated at once, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Allocation peaks of the suites at verify's defaults.

    jensen_check holds a few grid-sized arrays, and coverage_suite a few
    intervals per design point.
    """

    def test_jensen_check_peak(self, params):
        u_th = 100 * params.delta_s * params.phi
        rho = _rho_for_level(params, 0.8 * u_th)
        assert _traced_peak(lambda: jensen_check(params, 2, u_th, rho)) < 2**20

    def test_coverage_suite_peak(self, params):
        assert _traced_peak(lambda: coverage_suite(params)) < 2**20
