import math
import tracemalloc

import numpy as np
import pytest

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
    quadrature_suite,
    slope_sign_suite,
    snr_gamma,
    validation,
)

from conftest import COVERAGE_MUTANTS, make_params

DEFAULT_POINTS = ((2, 8.0), (3, 60.0), (5, 6.0))  # coverage_suite's design points
R = validation.RESOLUTION  # integration steps per microslot, and steps per speed segment


def _rho_for_level(params, level):
    return level / (params.d * snr_gamma(params))


# Reference: every sampled path materialized and summed with np.cumsum. The
# streamed kernel must reproduce its outcomes bit for bit.


def _speed_draws(rng, n_traj, n_steps, phi):
    """Speed draws of ``n_traj`` trajectories in one piece: (sign, offset, levels)."""
    n_segments = (n_steps + R - 1) // R + 1
    return (
        rng.integers(0, 2, size=n_traj) * 2 - 1,
        rng.integers(0, R, size=n_traj),
        rng.uniform(-0.5 * phi, 0.5 * phi, size=(n_traj, n_segments)),
    )


def _speeds_from_draws(kind, sign, offset, levels, n_steps, phi):
    """Per-step speeds of trajectories of one kind, shape (rows, n_steps)."""
    half = 0.5 * phi
    if kind == "constant-extreme":
        return np.repeat(sign[:, None] * half, n_steps, axis=1).astype(float)
    seg = (np.arange(n_steps)[None, :] + offset[:, None]) // R
    if kind == "bang-bang":
        return sign[:, None] * half * np.where(seg % 2 == 0, 1.0, -1.0)
    return np.take_along_axis(levels, seg, axis=1)


def _positions(p0, speeds, dt):
    out = np.empty((speeds.shape[0], speeds.shape[1] + 1))
    out[:, 0] = p0
    np.cumsum(speeds * dt, axis=1, out=out[:, 1:])
    out[:, 1:] += p0[:, None]
    return out


def _detect(schedule, positions, delta_s_phi):
    """(covered, detected 1-based, final_ok) of materialized paths."""
    n = schedule.n_beams
    slack = validation._MEMBERSHIP_SLACK * schedule.u_th
    detected = np.zeros(positions.shape[0], dtype=np.int64)
    for i, (a, b) in enumerate(schedule.intervals):
        window = positions[:, i * R : (i + 1) * R + 1]
        inside = np.any((window >= a - slack) & (window <= b + slack), axis=1)
        np.copyto(detected, i + 1, where=inside & (detected == 0))
    covered = detected > 0
    final = positions[:, n * R]
    a_arr = np.array([iv[0] for iv in schedule.intervals])
    b_arr = np.array([iv[1] for iv in schedule.intervals])
    idx = np.maximum(detected - 1, 0)
    grow = (n + 1 - detected.astype(float)) * 0.5 * delta_s_phi
    lo = a_arr[idx] - grow
    hi = b_arr[idx] + grow
    final_ok = covered & (final >= lo - slack) & (final <= hi + slack)
    return covered, detected, final_ok


def _reference_positions(params, kinds, p0, draws, n_steps):
    """Sampled positions of each row, the rows of kind k built by _speeds_from_draws."""
    speeds = np.empty((len(p0), n_steps))
    for k, kind in enumerate(validation.SPEED_KINDS):
        sel = np.flatnonzero(kinds == k)
        if sel.size:
            speeds[sel] = _speeds_from_draws(
                kind, *(d[sel] for d in draws), n_steps, params.phi
            )
    return _positions(p0, speeds, params.delta_s / R)


def _reference_point(params, schedule, n_traj, seed):
    """(covered, detected, final_ok, final position) per trajectory, in chunks."""
    n_steps = schedule.n_beams * R
    rng = np.random.default_rng(np.random.SeedSequence((seed, schedule.n_beams)))
    p0 = rng.uniform(0.0, schedule.u_th, size=n_traj)
    draws = _speed_draws(rng, n_traj, n_steps, params.phi)
    kinds = np.arange(n_traj) % len(validation.SPEED_KINDS)
    outcomes = []
    for start in range(0, n_traj, 4096):
        rows = slice(start, start + 4096)
        positions = _reference_positions(
            params, kinds[rows], p0[rows], [d[rows] for d in draws], n_steps
        )
        step = params.delta_s * params.phi
        outcomes.append((*_detect(schedule, positions, step), positions[:, -1]))
    return tuple(np.concatenate(parts) for parts in zip(*outcomes))


def _streamed_point(params, schedule, n_traj, seed):
    detected, final = validation._coverage_point(params, schedule, n_traj, seed)
    step = params.delta_s * params.phi
    return detected > 0, detected, validation._final_ok(schedule, detected, final, step), final


def _assert_same_outcomes(streamed, reference):
    for name, got, want in zip(("covered", "detected", "final_ok", "final"), streamed, reference):
        assert np.array_equal(got, want), name


def _one_row(params, schedule, kind, p0, seed):
    """(detected beam, final position, final_ok) of one trajectory through _sweep."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = _speed_draws(rng, 1, schedule.n_beams * R, params.phi)
    kinds = np.array([validation.SPEED_KINDS.index(kind)])
    detected, final = validation._sweep(params, schedule, kinds, np.array([p0]), *draws)
    final_ok = validation._final_ok(schedule, detected, final, params.delta_s * params.phi)
    return int(detected[0]), float(final[0]), bool(final_ok[0])


class TestCoverageKernel:
    """The streamed kernel against materialized paths, trajectory by trajectory."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n_beams, upsilon", DEFAULT_POINTS)
    def test_default_points(self, params, n_beams, upsilon, seed):
        schedule = build_schedule(params, upsilon * params.delta_s * params.phi, n_beams)
        _assert_same_outcomes(
            _streamed_point(params, schedule, 20_000, seed),
            _reference_point(params, schedule, 20_000, seed),
        )

    # One kind only, no bang-bang, a few of each, and one row past a block.
    @pytest.mark.parametrize("n_traj", [1, 2, 5, validation._BLOCK + 1])
    @pytest.mark.parametrize("n_beams, upsilon", DEFAULT_POINTS)
    def test_edge_sizes(self, params, n_beams, upsilon, n_traj):
        schedule = build_schedule(params, upsilon * params.delta_s * params.phi, n_beams)
        _assert_same_outcomes(
            _streamed_point(params, schedule, n_traj, 3),
            _reference_point(params, schedule, n_traj, 3),
        )

    def test_static_user_detected_by_first_beam(self, params):
        schedule = build_schedule(params, 80 * params.delta_s * params.phi, 2)
        p0 = 0.5 * (schedule.intervals[0][0] + schedule.intervals[0][1])
        # Beam 1 scans its interval from the first sample on, and within one
        # microslot no speed process carries the user out of it here.
        for kind in validation.SPEED_KINDS:
            detected, _, final_ok = _one_row(params, schedule, kind, p0, seed=1)
            assert detected == 1, kind
            assert final_ok, kind

    def test_identical_seeds_bit_identical(self, params):
        schedule = build_schedule(params, 50 * params.delta_s * params.phi, 2)
        for kind in validation.SPEED_KINDS:
            runs = [_one_row(params, schedule, kind, 0.001, seed=1234) for _ in range(2)]
            assert runs[0] == runs[1], kind
        points = [validation._coverage_point(params, schedule, 30, seed=1234) for _ in range(2)]
        for got, want in zip(*points):
            assert np.array_equal(got, want)

    def test_speed_bound_respected(self, params):
        # Each of the n_beams * R steps moves a user by at most phi/2 * dt,
        # and a constant-extreme user moves by exactly that.
        schedule = build_schedule(params, 50 * params.delta_s * params.phi, 2)
        bound = 0.5 * params.phi * schedule.n_beams * params.delta_s
        for kind in validation.SPEED_KINDS:
            _, final, _ = _one_row(params, schedule, kind, 0.001, seed=5)
            moved = abs(final - 0.001)
            assert moved <= bound * (1 + 1e-12), kind
            if kind == "constant-extreme":
                assert moved == pytest.approx(bound, rel=1e-12)


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
        result = jensen_check(
            params, 2, u_th, _rho_for_level(params, 0.8 * u_th), seed=3
        )
        assert result.n_failures == 0
        assert result.worst_residual <= 1e-9

    def test_waterfilling_itself_included_as_equality(self, params):
        u_th = 100 * params.delta_s * params.phi
        result = jensen_check(
            params,
            2,
            u_th,
            _rho_for_level(params, 1.5 * u_th),
            n_perturbations=10,
            seed=0,
        )
        assert result.worst_residual == 0.0  # the water-filling case itself

    def test_seed_determinism(self, params):
        u_th = 50 * params.delta_s * params.phi
        rho = _rho_for_level(params, 0.9 * u_th)
        a = jensen_check(params, 2, u_th, rho, n_perturbations=50, seed=12)
        b = jensen_check(params, 2, u_th, rho, n_perturbations=50, seed=12)
        assert a == b

    def test_zero_budget_counts_every_profile(self, params):
        # rho = 0 gives an all-zero water-filling profile; 252 zero profiles
        # take 26 batches, the last one short.
        u_th = 50 * params.delta_s * params.phi
        result = jensen_check(params, 2, u_th, 0.0, n_perturbations=250)
        assert result == CheckResult("jensen_waterfilling", 253, 0, 0.0)

    def test_nan_rates_fail(self, params):
        # A NaN trigger width makes every profile's rate NaN.
        result = jensen_check(params, 2, math.nan, 1.0, n_perturbations=10)
        assert result.n_failures == result.n_cases > 0
        assert math.isnan(result.worst_residual)


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

    def test_coverage_suite_small(self, params):
        for result in coverage_suite(params, n_traj=2000, seed=4):
            assert result.passed

    @pytest.mark.parametrize("mutant", sorted(COVERAGE_MUTANTS))
    def test_coverage_suite_catches_mutant(self, params, monkeypatch, mutant):
        build, check, failures = COVERAGE_MUTANTS[mutant]
        monkeypatch.setattr(validation, "build_schedule", build)
        results = {r.check_name: r for r in coverage_suite(params, n_traj=3000, seed=1)}
        assert results[check].n_failures == failures
        # Each mutant is caught by its own check; the other one still passes.
        assert [name for name, r in results.items() if not r.passed] == [check]

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

    jensen_check reuses two small batch buffers, and coverage_suite draws
    its speed levels one block at a time, so neither holds an array sized
    by the whole run.
    """

    def test_jensen_check_peak(self, params):
        u_th = 100 * params.delta_s * params.phi
        rho = _rho_for_level(params, 0.8 * u_th)
        assert _traced_peak(lambda: jensen_check(params, 2, u_th, rho)) < 4 * 2**20

    def test_coverage_suite_peak(self, params):
        assert _traced_peak(lambda: coverage_suite(params)) < 12.5 * 2**20
