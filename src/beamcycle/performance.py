"""Closed-form cycle performance and its dimensionless normalization.

During data communication the beam tracks the growing uncertainty width
u_t, so the SNR decays as gamma*P_t/(u_t/d). The rate-optimal power
allocation at fixed average power is water-filling over time with level
``rho``, and the cycle-averaged rate and power then have closed forms.

The normalization
    upsilon = u_th / (delta_s * phi)        (trigger width in drift units)
    zeta    = d*gamma*rho / (delta_s*phi*upsilon) - 1   (water-level headroom)
removes every system constant from the design problem: the normalized rate
``norm_rate`` and power ``norm_power`` depend on (n_beams, upsilon, zeta)
only. Each is one branch-free integral over the active data phase, from u_hat
to m = min(upsilon, X), X = upsilon*(1+zeta) the water level; it is the one
statement of that closed form. The physical ``avg_rate_closed`` and
``avg_power_closed`` validate a design, normalize it and scale these back, so
``phi`` from 1e-300 to 1e300 leaves the formulas' arithmetic in the float range.
"""

from __future__ import annotations

import math

from .errors import FeasibilityError
from .params import SystemParams, snr_gamma
from .sweep import comm_width, min_u_th

LN2 = math.log(2.0)

# Relative slack for boundary feasibility checks; the formulas themselves
# are short closed forms, so anything beyond rounding noise is a real
# violation.
_EPS = 1e-9


def _check_cycle_inputs(
    params: SystemParams, n_beams: int, u_th: float, rho: float
) -> tuple[float, float]:
    """Validate a (n_beams, u_th, rho) design; return its (upsilon, zeta).

    The exact inverse of ``denormalize``.
    """
    if u_th < min_u_th(params, n_beams) * (1.0 - _EPS):
        raise FeasibilityError(
            f"u_th = {u_th} m infeasible for {n_beams} beams "
            f"(minimum {min_u_th(params, n_beams)} m)"
        )
    gamma = snr_gamma(params)
    u_c = comm_width(params, u_th, n_beams)
    if rho * params.d * gamma < u_c * (1.0 - _EPS):
        raise ValueError(
            f"rho = {rho} below the water-filling floor u_comm/(d*gamma) "
            f"= {u_c / (params.d * gamma)}"
        )
    step = params.delta_s * params.phi
    upsilon = u_th / step
    return upsilon, params.d * gamma * rho / (step * upsilon) - 1.0


def avg_rate_closed(
    params: SystemParams, n_beams: int, u_th: float, rho: float
) -> float:
    """Cycle-averaged rate (bit/s) under water-filling at level ``rho``."""
    upsilon, zeta = _check_cycle_inputs(params, n_beams, u_th, rho)
    return params.w_tot * norm_rate(n_beams, upsilon, zeta) / LN2


def avg_power_closed(
    params: SystemParams, n_beams: int, u_th: float, rho: float
) -> float:
    """Cycle-averaged transmit power under water-filling at level ``rho``."""
    upsilon, zeta = _check_cycle_inputs(params, n_beams, u_th, rho)
    step = params.delta_s * params.phi
    return norm_power(n_beams, upsilon, zeta) * step / (params.d * snr_gamma(params))


# ---------------------------------------------------------------------------
# Dimensionless forms
# ---------------------------------------------------------------------------


def norm_comm_width(upsilon: float, n_beams: int) -> float:
    """Post-sweep width in drift units: upsilon/n + n/2 + 3/2 - 1/n."""
    if n_beams < 2:
        raise ValueError(f"need at least 2 sweeping beams, got {n_beams!r}")
    n = n_beams
    return upsilon / n + n / 2.0 + 1.5 - 1.0 / n


def _check_normalized(n_beams: int, upsilon: float, zeta: float) -> float:
    """Validate the analytic domain of the normalized forms.

    Geometric feasibility (upsilon at or above its per-beam-count minimum)
    is deliberately not required here: the per-beam-count optimizer
    evaluates these expressions below that bound before clamping.
    """
    if upsilon <= 0.0:
        raise ValueError(f"upsilon must be positive, got {upsilon!r}")
    u_hat = norm_comm_width(upsilon, n_beams)
    if zeta < (u_hat / upsilon - 1.0) - _EPS:
        raise ValueError(
            f"zeta = {zeta} below the zero-power boundary {u_hat / upsilon - 1.0}"
        )
    return u_hat


def norm_rate(n_beams: int, upsilon: float, zeta: float) -> float:
    """Normalized average rate, ln(2)/w_tot times the physical one:
    pref * integral of ln(X/u) over [u_hat, m], m = min(upsilon, X)."""
    u_hat = _check_normalized(n_beams, upsilon, zeta)
    pref = n_beams / ((n_beams - 1.0) * (upsilon + n_beams / 2.0 - 1.0))
    idle = 0.5 * (zeta - abs(zeta))  # min(zeta, 0), exactly, without a builtin call
    m = upsilon * (1.0 + idle)
    e = (m - u_hat) / u_hat  # u_hat * (e - log1p(e)) is the integral up to m of ln(m/u)
    return pref * (u_hat * (e - math.log1p(e)) + (m - u_hat) * math.log1p(zeta - idle))


def norm_power(n_beams: int, upsilon: float, zeta: float) -> float:
    """Normalized average power, d*gamma/(delta_s*phi) times the physical one:
    pref * integral of 2 (X - u) over [u_hat, m], m = min(upsilon, X)."""
    u_hat = _check_normalized(n_beams, upsilon, zeta)
    pref = n_beams / (2.0 * (n_beams - 1.0) * (upsilon + n_beams / 2.0 - 1.0))
    x = upsilon * (1.0 + zeta)
    m = upsilon * (1.0 + 0.5 * (zeta - abs(zeta)))  # min(upsilon, x), as in norm_rate
    return pref * ((m - u_hat) * (2.0 * x - m - u_hat))


def norm_power_budget(params: SystemParams) -> float:
    """The power budget p_max in normalized units."""
    return params.d * snr_gamma(params) / (params.delta_s * params.phi) * params.p_max


def denormalize(params: SystemParams, upsilon: float, zeta: float) -> tuple[float, float]:
    """Physical design (u_th, rho) of the dimensionless (upsilon, zeta)."""
    step = params.delta_s * params.phi
    u_th = upsilon * step
    rho = (1.0 + zeta) * step * upsilon / (params.d * snr_gamma(params))
    return u_th, rho
