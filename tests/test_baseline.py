import math

import numpy as np
import pytest

from beamcycle import (
    BaselineConfig,
    comm_fraction,
    power_for_avg,
    rate_and_power,
    snr_gamma,
)

from conftest import make_params


class TestCommFraction:
    def test_hand_value(self):
        p = make_params(phi=40.0)
        cfg = BaselineConfig()
        r = 10.0 * math.tan(math.radians(3.5))
        assert r == pytest.approx(0.61163, rel=1e-4)
        assert comm_fraction(p, cfg) == pytest.approx(0.999346, abs=1e-6)
        assert comm_fraction(p, cfg) == pytest.approx(
            (r / 20.0) / (r / 20.0 + 2e-5), rel=1e-12
        )

    def test_limits(self):
        slow = comm_fraction(make_params(phi=2e-6), BaselineConfig())
        assert slow == pytest.approx(1.0, abs=1e-9)
        tiny_slot = comm_fraction(make_params(delta_s=1e-12, phi=40.0), BaselineConfig())
        assert tiny_slot == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "beamwidth_deg, v_max", [(5e-324, 20.0), (1e-300, 1e300), (7.0, 5e-324)]
    )
    def test_fraction_out_of_float_range_rejected(self, beamwidth_deg, v_max):
        # The dwell time underflows to 0 or overflows to inf (a NaN fraction).
        # A long microslot keeps the drift delta_s * phi of the slowest
        # speed a normal float, as SystemParams requires.
        p = make_params(phi=2.0 * v_max, delta_s=1e300 if v_max < 1.0 else 1e-5)
        cfg = BaselineConfig(beamwidth_deg=beamwidth_deg)
        with pytest.raises(ValueError, match="communication fraction"):
            comm_fraction(p, cfg)
        with pytest.raises(ValueError, match="communication fraction"):
            power_for_avg(p, cfg, 1e-3)

    def test_strictly_decreasing_in_speed_and_slot(self):
        speeds = np.linspace(1.0, 60.0, 30)
        values = [comm_fraction(make_params(phi=2.0 * v), BaselineConfig()) for v in speeds]
        assert all(b < a for a, b in zip(values, values[1:]))
        slots = np.linspace(1e-6, 1e-3, 30)
        values = [
            comm_fraction(make_params(delta_s=float(s), phi=40.0), BaselineConfig())
            for s in slots
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestRateAndPower:
    def test_zero_power(self):
        p = make_params(phi=40.0)
        rate, p_bar = rate_and_power(p, BaselineConfig(p_t=0.0))
        assert rate == 0.0
        assert p_bar == 0.0

    def test_unit_snr(self):
        p = make_params(phi=40.0)
        omega = math.radians(7.0)
        cfg = BaselineConfig(p_t=omega / snr_gamma(p))
        rate, _ = rate_and_power(p, cfg)
        assert rate == pytest.approx(p.w_tot * comm_fraction(p, cfg), rel=1e-12)

    def test_tiny_power_keeps_a_positive_rate(self):
        # At an SNR below about 1e-16, 1 + snr rounds to 1 and log2 of it
        # to 0; the rate is w * f * snr / ln 2 to first order.
        p = make_params(phi=40.0)
        cfg = BaselineConfig(p_t=3e-25)
        snr = snr_gamma(p) * cfg.p_t / math.radians(7.0)
        assert snr < 1e-16
        rate, _ = rate_and_power(p, cfg)
        assert rate == pytest.approx(
            p.w_tot * comm_fraction(p, cfg) * snr / math.log(2.0), rel=1e-12
        )

    def test_strictly_increasing_in_power(self):
        p = make_params(phi=40.0)
        rates = [
            rate_and_power(p, BaselineConfig(p_t=float(pt)))[0]
            for pt in np.logspace(-5, -1, 20)
        ]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_near_flat_in_speed(self):
        # Realignment is rare for a 7 degree beam at these scales, so the
        # rate barely moves across the whole speed range.
        rates = [
            rate_and_power(make_params(phi=2.0 * v), BaselineConfig(p_t=1e-3))[0]
            for v in np.linspace(5.0, 40.0, 8)
        ]
        assert (max(rates) - min(rates)) / max(rates) < 0.01


class TestPowerForAvg:
    def test_inverts_comm_fraction(self):
        p = make_params(phi=40.0)
        cfg = BaselineConfig()
        f = comm_fraction(p, cfg)
        assert power_for_avg(p, cfg, 1.0) == pytest.approx(1.0 / f, rel=1e-12)

    def test_round_trip(self):
        p = make_params(phi=70.0)
        cfg = BaselineConfig()
        target = 2.5e-4
        p_t = power_for_avg(p, cfg, target)
        _, p_bar = rate_and_power(p, cfg._replace(p_t=p_t))
        assert p_bar == pytest.approx(target, rel=1e-12)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError):
            power_for_avg(make_params(), BaselineConfig(), 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        BaselineConfig(beamwidth_deg=0.0)
    with pytest.raises(ValueError):
        BaselineConfig(p_t=-0.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("beamwidth_deg", 180.0),
        ("beamwidth_deg", 200.0),
        ("beamwidth_deg", 360.0),
        ("beamwidth_deg", math.nan),
        ("p_t", math.nan),
        ("p_t", math.inf),
    ],
)
def test_config_rejects_nonsense_and_nonfinite(field, value):
    with pytest.raises(ValueError, match=field):
        BaselineConfig(**{field: value})
