import math

import numpy as np
import pytest

from beamcycle import (
    CheckResult,
    SpeedProcess,
    avg_power_closed,
    avg_power_numeric,
    avg_rate_closed,
    avg_rate_numeric,
    build_schedule,
    comm_width,
    coverage_suite,
    jensen_check,
    quadrature_suite,
    simulate_cycle,
    slope_sign_suite,
    snr_gamma,
)

from conftest import make_params


def _rho_for_level(params, level):
    return level / (params.d * snr_gamma(params))


class TestSimulateCycle:
    def test_static_user_detected_by_first_beam(self, params):
        schedule = build_schedule(params, 80 * params.delta_s * params.phi, 2)
        p0 = 0.5 * (schedule.intervals[0][0] + schedule.intervals[0][1])
        result = simulate_cycle(
            params, schedule, SpeedProcess("piecewise-constant-uniform", seed=1), p0
        )
        # A piecewise process can wander, but from the center of beam 1's
        # interval the user cannot leave it within one microslot here.
        assert result.covered
        assert result.detected_beam == 1
        assert result.final_width_ok

    def test_trajectory_shape_and_start(self, params):
        schedule = build_schedule(params, 100 * params.delta_s * params.phi, 3)
        result = simulate_cycle(
            params, schedule, SpeedProcess("bang-bang", seed=9), p0=0.01
        )
        assert result.true_positions.shape == (3 * 100 + 1,)
        assert result.true_positions[0] == 0.01

    def test_identical_seeds_bit_identical(self, params):
        schedule = build_schedule(params, 50 * params.delta_s * params.phi, 2)
        runs = [
            simulate_cycle(
                params, schedule, SpeedProcess("bang-bang", seed=1234), p0=0.001
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].true_positions, runs[1].true_positions)
        assert runs[0].detected_beam == runs[1].detected_beam

    def test_speed_bound_respected(self, params):
        schedule = build_schedule(params, 50 * params.delta_s * params.phi, 2)
        for kind in ("constant-extreme", "piecewise-constant-uniform", "bang-bang"):
            result = simulate_cycle(
                params, schedule, SpeedProcess(kind, seed=5), p0=0.001
            )
            steps = np.diff(result.true_positions)
            dt = params.delta_s / 100
            assert np.all(np.abs(steps) <= 0.5 * params.phi * dt * (1 + 1e-12))

    def test_p0_outside_interval_rejected(self, params):
        schedule = build_schedule(params, 50 * params.delta_s * params.phi, 2)
        with pytest.raises(ValueError, match="p0"):
            simulate_cycle(
                params, schedule, SpeedProcess("bang-bang", seed=1), p0=-0.1
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            SpeedProcess("brownian", seed=1)


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

    def test_coverage_suite_chunking_invariant(self, params):
        # Chunked evaluation must not change outcomes: randomness is
        # addressed by trajectory index.
        a = coverage_suite(params, points=((2, 8.0),), n_traj=5000, seed=9)
        b = coverage_suite(params, points=((2, 8.0),), n_traj=5000, seed=9)
        assert a == b

    def test_slope_sign_suite_passes(self):
        for result in slope_sign_suite(budgets=(0.5, 5.0), n_points=10, seed=6):
            assert result.passed

    def test_zero_cases_is_not_a_pass(self, params):
        assert not CheckResult("empty", 0, 0, 0.0).passed
        assert CheckResult("one", 1, 0, 0.0).passed
        for result in quadrature_suite(params, n_tuples=0):
            assert result.n_cases == 0
            assert not result.passed
