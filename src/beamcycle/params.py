"""Physical scenario constants for one roadside BS / mobile user link.

Power convention: transmit powers (``p_max``, water level ``rho``, the
baseline's ``p_t``) are an opaque but mutually consistent unit. Only the
dimensionless product ``gamma * power`` enters any rate expression, so the
unit cancels as long as the same one is used throughout. With ``n0`` in
W/Hz the natural choice is watts.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple


class SystemParams(namedtuple("SystemParams", "w_tot wavelength n0 delta_s d xi phi p_max")):
    """Scenario constants shared by every cycle computation.

    Fields: bandwidth ``w_tot`` (Hz), carrier ``wavelength`` (m), noise
    power spectral density ``n0`` (W/Hz), microslot duration ``delta_s``
    (s), BS-MU distance ``d`` (m), antenna efficiency ``xi`` in (0, 1],
    speed uncertainty ``phi = v_max - v_min`` (m/s) and average power
    budget ``p_max``. Speed enters only as ``phi``: the BS steers out the
    user's mean speed, so the cycle math sees symmetric speeds in
    [-phi/2, phi/2].

    A named tuple: immutable, compared and hashed as a plain tuple of the
    eight values. The constructor and ``_replace`` raise ValueError for
    constants outside the accepted domain.

    Where ``verify`` is known to pass, with the other constants at the CLI
    defaults: every accepted ``phi``, and ``delta_s`` from about 5.6e-310
    (the smallest whose drift per microslot is a normal float at
    ``phi = 40``) up to 1e300. Two accepted settings are known to fail
    cases (exit 1), because a value the quadrature suite compares is past
    the float range: ``delta_s = 1e-2`` with ``phi = 1.7e308``, where the
    drawn trigger widths ``u_th`` in metres overflow (188 of 200 cases in
    each row), and ``w_tot = 1e308``, where the rate in bit/s does (53 of
    200 rate cases).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not value > 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # The cycle math divides by the drift per microslot, a normal float.
        step = self.delta_s * self.phi
        if not sys.float_info.min <= step < math.inf:
            raise ValueError(
                f"delta_s * phi must be positive and finite, and not subnormal, got {step!r}"
            )
        if self.xi > 1.0:
            raise ValueError(f"xi must be in (0, 1], got {self.xi!r}")
        # Every rate and power scales by gamma; its powers of d and wavelength
        # can leave the float range even when each constant is inside it.
        try:
            gamma = snr_gamma(self)
        except ArithmeticError:
            gamma = math.nan
        if not 0.0 < gamma < math.inf:
            raise ValueError(f"the SNR factor gamma must be positive and finite, got {gamma!r}")
        return self

    # namedtuple's _replace builds its result with _make, so it checks too.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


def snr_gamma(params: SystemParams) -> float:
    """SNR scaling factor per unit transmit power.

    ``gamma * P / omega`` is the receive SNR when power ``P`` is spread
    over a beam of ``omega`` radians: wavelength^2 * xi / (8 pi d^2 N0 W).
    """
    return (params.wavelength**2 * params.xi) / (
        8.0 * math.pi * params.d**2 * params.n0 * params.w_tot
    )
