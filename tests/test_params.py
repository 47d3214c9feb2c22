import math

import pytest

from beamcycle import (
    BaselineConfig,
    CheckResult,
    build_schedule,
    optimize_design,
    snr_gamma,
)
from beamcycle.cli import RunConfig, main

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

    # Zero, infinite and subnormal drifts.
    @pytest.mark.parametrize(
        "overrides", [{"phi": 5e-324}, {"delta_s": 1e300, "phi": 1e300}, {"phi": 1e-310}]
    )
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


class TestRecords:
    """The public records are named tuples, and the two with a domain check it."""

    def test_replace_runs_the_constructor_checks(self, params, capsys):
        with pytest.raises(ValueError, match="p_max must be positive and finite"):
            params._replace(p_max=-1.0)
        with pytest.raises(ValueError, match="p_t must be nonnegative and finite"):
            BaselineConfig()._replace(p_t=math.nan)
        assert params._replace(p_max=2e-3) == make_params(p_max=2e-3)
        assert BaselineConfig()._replace(v_max=35.0) == BaselineConfig(v_max=35.0)
        # The CLI sweep builds each point with _replace, so a subnormal drift
        # per microslot is invalid input there too.
        assert main(["sweep", "--axis", "speed", "--values", "5e-324"]) == 2
        assert "delta_s * phi must be positive" in capsys.readouterr().err

    def test_immutable_tuples_with_a_keyword_repr(self, params):
        records = [
            params,
            BaselineConfig(),
            optimize_design(params),
            build_schedule(params, 0.01, 3),
            CheckResult("check", 1, 0, 0.0),
            RunConfig(params, "power", (1e-3,), 7.0, None, None, 0),
        ]
        for record in records:
            name = type(record).__name__
            assert isinstance(record, tuple) and len(record) == len(record._fields), name
            fields = ", ".join(f"{f}={v!r}" for f, v in record._asdict().items())
            assert repr(record) == f"{name}({fields})"
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            with pytest.raises(AttributeError):
                record.extra = None
        assert repr(BaselineConfig()) == "BaselineConfig(beamwidth_deg=7.0, v_max=20.0, p_t=1.0)"
        assert BaselineConfig() == (7.0, 20.0, 1.0)
