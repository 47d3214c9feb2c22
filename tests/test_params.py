import math

import pytest

from beamcycle import snr_gamma

from conftest import make_params


class TestSystemParams:
    @pytest.mark.parametrize(
        "field", ["w_tot", "wavelength", "n0", "delta_s", "d", "xi", "phi", "p_max"]
    )
    def test_positive_fields(self, field):
        with pytest.raises(ValueError, match=field):
            make_params(**{field: 0.0})
        with pytest.raises(ValueError, match=field):
            make_params(**{field: -1.0})
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                make_params(**{field: value})

    @pytest.mark.parametrize("overrides", [{"phi": 5e-324}, {"delta_s": 1e300, "phi": 1e300}])
    def test_drift_step_in_float_range(self, overrides):
        with pytest.raises(ValueError, match=r"delta_s \* phi must be positive and finite"):
            make_params(**overrides)

    def test_xi_capped_at_one(self):
        with pytest.raises(ValueError, match="xi"):
            make_params(xi=1.2)
        make_params(xi=1.0)


class TestSnrGamma:
    def test_simulation_table_value(self, params):
        # Recompute each factor independently: lambda^2 * xi over
        # 8 pi d^2 N0 W with lambda = 5e-3 m, N0 = 10^-20.4 W/Hz.
        expected = (5e-3) ** 2 * 1.0 / (8 * math.pi * 10.0**2 * 10**-20.4 * 1.76e9)
        assert snr_gamma(params) == pytest.approx(expected, rel=1e-15)
        assert snr_gamma(params) == pytest.approx(1.4197e3, rel=1e-4)

    def test_inverse_square_distance(self, params):
        assert snr_gamma(make_params(d=20.0)) == pytest.approx(
            snr_gamma(params) / 4.0, rel=1e-15
        )

    def test_linear_in_efficiency(self, params):
        assert snr_gamma(make_params(xi=0.5)) == pytest.approx(
            snr_gamma(params) / 2.0, rel=1e-15
        )
