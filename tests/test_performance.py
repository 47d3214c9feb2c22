import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beamcycle import (
    FeasibilityError,
    avg_power_closed,
    avg_rate_closed,
    comm_width,
    cycle_duration,
    denormalize,
    min_u_th,
    min_upsilon,
    norm_comm_width,
    norm_power,
    norm_power_budget,
    norm_rate,
    snr_gamma,
    validation,
)
from beamcycle.performance import LN2

from conftest import exact_closed_forms, make_params

EPS = 2.0**-52


class TestWaterfilling:
    """The water-filling profile that jensen_check certifies, in drift units.

    With widths ``w = u/(delta_s*phi)``, the level ``d*gamma*rho/(delta_s*phi)``
    and power in units of ``delta_s*phi/(d*gamma)``, ``(rho - u/(d*gamma))+``
    is ``(level - w)+``.
    """

    def test_level_at_floor(self):
        assert validation._waterfilling(2.0, np.array([2.0])).tolist() == [0.0]

    def test_zero_level(self):
        assert validation._waterfilling(0.0, np.array([1.0])).tolist() == [0.0]

    def test_double_floor(self):
        w_t = 3.0
        powers = validation._waterfilling(2.0 * w_t, np.array([w_t, 2.0 * w_t]))
        assert powers[0] == pytest.approx(w_t, rel=1e-12)
        assert powers[1] == 0.0

    def test_profile_validates_floor(self, params):
        u_th = 100 * params.delta_s * params.phi
        floor = comm_width(params, u_th, 2) / (params.d * snr_gamma(params))
        assert avg_power_closed(params, 2, u_th, 2 * floor) > 0.0
        with pytest.raises(ValueError, match="floor"):
            avg_power_closed(params, 2, u_th, 0.5 * floor)

    def test_profile_power_decays_over_data_phase(self, params):
        u_th = 100 * params.delta_s * params.phi
        u_c = comm_width(params, u_th, 2)
        gamma = snr_gamma(params)
        rho = 0.9 * u_th / (params.d * gamma)
        t_start = 2 * params.delta_s
        times = np.linspace(t_start, cycle_duration(params, u_th, 2), 50)
        step = params.delta_s * params.phi
        widths = (u_c + params.phi * (times - t_start)) / step
        level = params.d * gamma * rho / step
        powers = validation._waterfilling(level, widths)
        # The array expression gives the bits of the scalar one, sample by sample.
        assert powers.tolist() == [max(0.0, level - w) for w in widths]
        assert np.all(np.diff(powers) <= 0.0)
        assert powers[-1] == 0.0  # level below u_th leaves an idle tail


def _rho_for_level(params, level):
    """Water level expressed as a width (m) back to power units."""
    return level / (params.d * snr_gamma(params))


class TestClosedForms:
    def test_zero_at_waterfilling_floor(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        u_th = 1.0
        rho = _rho_for_level(p, comm_width(p, u_th, 2))
        assert avg_rate_closed(p, 2, u_th, rho) == pytest.approx(0.0, abs=1e-6)
        assert avg_power_closed(p, 2, u_th, rho) == pytest.approx(0.0, abs=1e-18)

    def test_indicator_boundary_is_continuous(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        u_th = 1.0
        rho = _rho_for_level(p, u_th)
        for fn in (avg_rate_closed, avg_power_closed):
            at = fn(p, 2, u_th, rho)
            below = fn(p, 2, u_th, rho * (1 - 1e-9))
            above = fn(p, 2, u_th, rho * (1 + 1e-9))
            scale = max(abs(at), 1.0)
            assert abs(above - at) <= 1e-6 * scale
            assert abs(below - at) <= 1e-6 * scale

    def test_rejects_infeasible_inputs(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        with pytest.raises(FeasibilityError):
            avg_rate_closed(p, 2, 0.5 * min_u_th(p, 2), _rho_for_level(p, 1.0))
        with pytest.raises(ValueError):
            avg_power_closed(p, 2, 1.0, _rho_for_level(p, 0.1 * comm_width(p, 1.0, 2)))

    def test_normalization_identity(self):
        # ln(2)/w_tot * avg rate equals the dimensionless form at the
        # matching (upsilon, zeta), and likewise for power.
        p = make_params(delta_s=1e-5, phi=10.0)
        upsilon = 1e4  # u_th = 1 m
        for level in (1.25, 0.8, 0.6):
            zeta = level - 1.0  # water level at level * u_th
            u_th, rho = denormalize(p, upsilon, zeta)
            assert u_th == pytest.approx(1.0, rel=1e-15)
            assert rho == pytest.approx(_rho_for_level(p, level * u_th), rel=1e-14)
            assert LN2 * avg_rate_closed(p, 2, u_th, rho) / p.w_tot == pytest.approx(
                norm_rate(2, upsilon, zeta), rel=1e-12
            )
            # norm_power_budget scales p_max by the same factor as norm_power.
            scale = norm_power_budget(p) / p.p_max
            assert scale * avg_power_closed(p, 2, u_th, rho) == pytest.approx(
                norm_power(2, upsilon, zeta), rel=1e-12
            )


class TestNormCommWidth:
    def test_boundary_coincidence(self):
        # At upsilon = 4 with two beams the sweep gains nothing.
        assert norm_comm_width(4.0, 2) == pytest.approx(4.0, rel=1e-15)

    def test_hand_value(self):
        assert norm_comm_width(8.0, 2) == pytest.approx(6.0, rel=1e-15)

    def test_asymptotic_fraction(self):
        for n in (2, 3, 5, 8):
            assert norm_comm_width(1e9, n) / 1e9 == pytest.approx(1.0 / n, rel=1e-6)


class TestNormalizedForms:
    def test_rate_hand_value(self):
        expected = 0.25 * (2 * (1 + math.log(1.25)) - 6 * math.log(4 / 3))
        assert norm_rate(2, 8.0, 0.25) == pytest.approx(expected, rel=1e-12)
        assert norm_rate(2, 8.0, 0.25) == pytest.approx(0.18005, rel=1e-4)

    def test_rate_hand_value_against_quadrature(self):
        # Same point through the physical integral instead of algebra.
        p = make_params()
        u_th, rho = denormalize(p, 8.0, 0.25)
        rate = validation._averages(p, [(2, u_th, rho)], 1e-12)[0][0]
        numeric = LN2 * float(rate) / p.w_tot
        assert norm_rate(2, 8.0, 0.25) == pytest.approx(numeric, rel=1e-8)

    def test_rate_zero_at_power_floor(self):
        for n, ups in ((2, 8.0), (3, 12.0), (5, 30.0)):
            zeta = norm_comm_width(ups, n) / ups - 1.0
            assert norm_rate(n, ups, zeta) == pytest.approx(0.0, abs=1e-12)
            assert norm_power(n, ups, zeta) == pytest.approx(0.0, abs=1e-12)

    def test_power_hand_values(self):
        assert norm_power(2, 8.0, 0.25) == pytest.approx(1.5, rel=1e-12)
        assert norm_power(2, 8.0, 0.0) == pytest.approx(0.5, rel=1e-12)

    def test_zeta_branch_continuity(self):
        for n, ups in ((2, 8.0), (4, 25.0)):
            for fn in (norm_rate, norm_power):
                at = fn(n, ups, 0.0)
                below = fn(n, ups, -1e-13)
                assert abs(below - at) <= 1e-12 * max(abs(at), 1.0)

    @pytest.mark.parametrize("n,ups", [(2, 8.0), (3, 10.0), (6, 25.0)])
    def test_strictly_increasing_in_zeta(self, n, ups):
        grid = np.linspace(0.0, 5.0, 40)
        rates = [norm_rate(n, ups, z) for z in grid]
        powers = [norm_power(n, ups, z) for z in grid]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(b > a for a, b in zip(powers, powers[1:]))

    def test_rejects_zeta_below_floor(self):
        zeta = norm_comm_width(8.0, 2) / 8.0 - 1.0
        with pytest.raises(ValueError, match="zero-power"):
            norm_rate(2, 8.0, zeta - 1e-3)

    @given(
        n=st.integers(2, 12),
        log_spread=st.floats(0.0, 3.0),
        mode=st.sampled_from(["boundary", "log-uniform", "idle-tail"]),
        t=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_accurate_to_the_conditioning_of_the_inputs(self, n, log_spread, t, mode):
        # Rounding the inputs alone moves each quantity by up to eps * kappa
        # relative, kappa = 1 + upsilon (1 + |zeta|) / |m - u_hat|; the forms
        # must stay within a small multiple of that, also within 1e-9 of
        # the zero-power boundary, where a difference of large terms cannot.
        ups = min_upsilon(n) * 10.0**log_spread
        zmin = norm_comm_width(ups, n) / ups - 1.0
        if mode == "boundary":  # water level (1 + 1e-9..2) * u_hat
            zeta = zmin + 10.0 ** (-9.0 * t) * (1.0 + zmin)
        elif mode == "log-uniform":
            zeta = 10.0 ** (-12.0 + 15.0 * t)
        else:
            zeta = zmin * t
        rate, power, active = exact_closed_forms(n, ups, zeta)
        # Where the inputs fix fewer than three digits, second-order rounding
        # of the inputs outgrows the first-order kappa.
        assume(active != 0)
        kappa = 1.0 + ups * (1.0 + abs(zeta)) / abs(float(active))
        assume(kappa * EPS < 1e-3)
        for got, exact in ((norm_rate(n, ups, zeta), rate), (norm_power(n, ups, zeta), power)):
            assert abs(got - float(exact)) <= 16.0 * EPS * kappa * abs(float(exact))


def _normalize(params, u_th, rho):
    """The normalization's definitions (module docstring), inverse of denormalize."""
    step = params.delta_s * params.phi
    upsilon = u_th / step
    return upsilon, params.d * snr_gamma(params) * rho / (step * upsilon) - 1.0


class TestNormalizeRoundTrip:
    def test_upsilon_is_width_ratio(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        u_th, _ = denormalize(p, 1e4, 0.0)
        assert u_th == pytest.approx(1.0, rel=1e-15)

    def test_zeta_zero_when_level_equals_width(self):
        p = make_params()
        u_th, rho = denormalize(p, 0.01 / (p.delta_s * p.phi), 0.0)
        assert rho == pytest.approx(_rho_for_level(p, u_th), rel=1e-14)

    @given(
        upsilon=st.floats(4.0, 1e6),
        zeta=st.floats(-0.4, 1e3),
        delta_s=st.floats(1e-6, 1e-4),
        phi=st.floats(1.0, 100.0),
    )
    @settings(max_examples=200)
    def test_round_trip(self, upsilon, zeta, delta_s, phi):
        p = make_params(delta_s=delta_s, phi=phi)
        u_th, rho = denormalize(p, upsilon, zeta)
        back_upsilon, back_zeta = _normalize(p, u_th, rho)
        assert back_upsilon == pytest.approx(upsilon, rel=1e-12)
        assert back_zeta == pytest.approx(zeta, rel=1e-12, abs=1e-12)

    def test_round_trip_from_physical_side(self):
        rng = np.random.default_rng(31)
        p = make_params()
        for _ in range(1000):
            u_th = float(rng.uniform(1e-4, 10.0))
            rho = float(rng.uniform(1e-9, 1e-1))
            u_back, rho_back = denormalize(p, *_normalize(p, u_th, rho))
            assert u_back == pytest.approx(u_th, rel=1e-12)
            assert rho_back == pytest.approx(rho, rel=1e-12)


class TestScaleInvariance:
    def test_normalized_metrics_ignore_system_constants(self):
        # Pairs of unrelated scenarios sharing (n_beams, upsilon, zeta)
        # report identical dimensionless metrics through the physical
        # closed forms.
        rng = np.random.default_rng(20240817)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            ups = float(rng.uniform(min_upsilon(n) * 1.01, 500.0))
            zmin = norm_comm_width(ups, n) / ups - 1.0
            if rng.random() < 0.3 and zmin < -0.05:
                zeta = 0.5 * zmin
            else:
                zeta = float(rng.uniform(0.05, 5.0))
            pair = []
            for _ in range(2):
                p = make_params(
                    w_tot=float(rng.uniform(1e8, 1e10)),
                    wavelength=float(rng.uniform(1e-3, 1e-2)),
                    n0=float(rng.uniform(1e-21, 1e-19)),
                    delta_s=float(rng.uniform(1e-6, 1e-4)),
                    d=float(rng.uniform(5.0, 50.0)),
                    xi=float(rng.uniform(0.5, 1.0)),
                    phi=float(rng.uniform(5.0, 100.0)),
                )
                u_th, rho = denormalize(p, ups, zeta)
                r_hat = LN2 * avg_rate_closed(p, n, u_th, rho) / p.w_tot
                p_hat = (
                    p.d
                    * snr_gamma(p)
                    / (p.delta_s * p.phi)
                    * avg_power_closed(p, n, u_th, rho)
                )
                pair.append((r_hat, p_hat))
            (r1, p1), (r2, p2) = pair
            assert r1 == pytest.approx(r2, rel=1e-12)
            assert p1 == pytest.approx(p2, rel=1e-12)
            assert r1 == pytest.approx(norm_rate(n, ups, zeta), rel=1e-12)
            assert p1 == pytest.approx(norm_power(n, ups, zeta), rel=1e-12)


def test_norm_power_budget(params):
    expected = params.d * snr_gamma(params) / (params.delta_s * params.phi) * params.p_max
    assert norm_power_budget(params) == pytest.approx(expected, rel=1e-15)
