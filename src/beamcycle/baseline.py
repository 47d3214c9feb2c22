"""Fixed-beamwidth comparison scheme in the style of IEEE 802.11ad.

The comparison point keeps a constant (default 7 degree) beam and realigns
with a two-beam scan whenever worst-case motion at ``v_max`` could have
carried the user to the beam edge. Only the beam half-length on the road,
``r = d * tan(beamwidth/2)``, the realignment overhead ``2 * delta_s``,
and the constant transmit power enter the resulting rate/power formulas.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .params import SystemParams, snr_gamma
from .performance import LN2


class BaselineConfig(
    namedtuple("BaselineConfig", "beamwidth_deg v_max p_t", defaults=(7.0, 20.0, 1.0))
):
    """The fixed scan/communication beamwidth in degrees, the worst-case
    speed magnitude in m/s, and the constant transmit power while
    communicating. As for SystemParams, the constructor and ``_replace``
    raise ValueError for a nonsense value.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Written so that NaN fails every check.
        if not 0.0 < self.beamwidth_deg < 180.0:
            raise ValueError(f"beamwidth_deg must be in (0, 180), got {self.beamwidth_deg!r}")
        if not 0.0 < self.v_max < math.inf:
            raise ValueError(f"v_max must be positive and finite, got {self.v_max!r}")
        if not 0.0 <= self.p_t < math.inf:
            raise ValueError(f"p_t must be nonnegative and finite, got {self.p_t!r}")
        return self

    # namedtuple's _replace builds its result with _make, so it checks too.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def comm_fraction(params: SystemParams, cfg: BaselineConfig) -> float:
    """Fraction of time spent communicating between two-beam realignments."""
    r = params.d * math.tan(math.radians(cfg.beamwidth_deg) / 2.0)
    dwell = r / cfg.v_max
    fraction = dwell / (dwell + 2.0 * params.delta_s)
    if not fraction > 0.0:
        # A dwell time that underflows or overflows (NaN fails this too);
        # power_for_avg divides by the fraction.
        raise ValueError(
            f"communication fraction {fraction!r} out of range for a "
            f"{cfg.beamwidth_deg!r} degree beam at v_max = {cfg.v_max!r} m/s"
        )
    return fraction


def rate_and_power(params: SystemParams, cfg: BaselineConfig) -> tuple[float, float]:
    """Average rate (bit/s) and average power of the fixed-beam scheme."""
    f_comm = comm_fraction(params, cfg)
    omega = math.radians(cfg.beamwidth_deg)
    rate = params.w_tot * math.log1p(snr_gamma(params) * cfg.p_t / omega) / LN2 * f_comm
    if not math.isfinite(rate):
        raise ValueError(
            f"baseline rate overflows at p_t = {cfg.p_t!r} with a "
            f"{cfg.beamwidth_deg!r} degree beam"
        )
    return rate, cfg.p_t * f_comm


def power_for_avg(params: SystemParams, cfg: BaselineConfig, p_bar_target: float) -> float:
    """Transmit power that makes the scheme's average power hit the target."""
    if p_bar_target <= 0.0:
        raise ValueError(f"p_bar_target must be positive, got {p_bar_target!r}")
    return p_bar_target / comm_fraction(params, cfg)
