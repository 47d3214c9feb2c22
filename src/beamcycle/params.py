"""Physical scenario constants for one roadside BS / mobile user link.

Power convention: transmit powers (``p_max``, water level ``rho``, the
baseline's ``p_t``) are an opaque but mutually consistent unit. Only the
dimensionless product ``gamma * power`` enters any rate expression, so the
unit cancels as long as the same one is used throughout. With ``n0`` in
W/Hz the natural choice is watts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SystemParams:
    """Scenario constants shared by every cycle computation.

    Speed enters only as the uncertainty ``phi``: the BS steers out the
    user's mean speed, so the cycle math sees symmetric speeds in
    [-phi/2, phi/2].
    """

    w_tot: float          # bandwidth, Hz
    wavelength: float     # carrier wavelength, m
    n0: float             # noise power spectral density, W/Hz
    delta_s: float        # microslot duration, s
    d: float              # BS-MU distance, m
    xi: float             # antenna efficiency, in (0, 1]
    phi: float            # speed uncertainty v_max - v_min, m/s
    p_max: float          # average power budget

    def __post_init__(self):
        positive = {
            "w_tot": self.w_tot,
            "wavelength": self.wavelength,
            "n0": self.n0,
            "delta_s": self.delta_s,
            "d": self.d,
            "xi": self.xi,
            "phi": self.phi,
            "p_max": self.p_max,
        }
        for name, value in positive.items():
            if not value > 0.0 or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # The cycle math divides by the drift per microslot.
        step = self.delta_s * self.phi
        if not 0.0 < step < math.inf:
            raise ValueError(f"delta_s * phi must be positive and finite, got {step!r}")
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


def snr_gamma(params: SystemParams) -> float:
    """SNR scaling factor per unit transmit power.

    ``gamma * P / omega`` is the receive SNR when power ``P`` is spread
    over a beam of ``omega`` radians: wavelength^2 * xi / (8 pi d^2 N0 W).
    """
    return (params.wavelength**2 * params.xi) / (
        8.0 * math.pi * params.d**2 * params.n0 * params.w_tot
    )
