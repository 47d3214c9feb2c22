from decimal import Decimal, localcontext
from typing import Callable, NamedTuple

import numpy as np
import pytest

from beamcycle import (
    SystemParams,
    build_schedule,
    coverage_suite,
    norm_comm_width,
    norm_rate,
    quadrature_suite,
    rate_slope,
    run_all,
    slope_sign_suite,
    tight_zeta,
)


def make_params(**overrides) -> SystemParams:
    """Scenario of the simulation table: 60 GHz carrier, 1.76 GHz bandwidth,
    -174 dBm/Hz noise, 10 us microslots, 10 m link, phi = 40 m/s."""
    values = dict(
        w_tot=1.76e9,
        wavelength=5e-3,
        n0=10**-20.4,
        delta_s=1e-5,
        d=10.0,
        xi=1.0,
        phi=40.0,
        p_max=1e-3,
    )
    values.update(overrides)
    return SystemParams(**values)


@pytest.fixture
def params() -> SystemParams:
    return make_params()


def exact_closed_forms(n_beams, upsilon, zeta):
    """(norm_rate, norm_power, m - u_hat) at 60 decimal digits.

    The textbook two-branch forms, each with its idle-tail term below zero
    headroom, evaluated on the exact values of the float inputs; m =
    min(upsilon, upsilon*(1+zeta)) ends the active data phase.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        n, ups, z = Decimal(n_beams), Decimal(upsilon), Decimal(zeta)
        u_hat = ups / n + n / 2 + Decimal("1.5") - 1 / n
        pref = n / ((n - 1) * (ups + n / 2 - 1))
        log1p_z = (1 + z).ln()
        rate = (ups - u_hat) * (1 + log1p_z) - u_hat * (ups / u_hat).ln()
        power = (ups - u_hat) * (2 * ups * (1 + z) - ups - u_hat)
        if z < 0:
            rate += ups * (z - log1p_z)
            power += (ups * z) ** 2
        return pref * rate, pref / 2 * power, min(ups, ups * (1 + z)) - u_hat


def _no_backoff(params, u_th, n_beams):
    """Scan intervals without the i * delta_s*phi/2 mobility back-off."""
    schedule = build_schedule(params, u_th, n_beams)
    half_step = params.delta_s * params.phi / 2.0
    intervals = tuple(
        (a + i * half_step, b + i * half_step) for i, (a, b) in enumerate(schedule.intervals)
    )
    return schedule._replace(intervals=intervals)


def _narrow_window(params, u_th, n_beams):
    """A post-sweep window 10% narrower than u_comm."""
    schedule = build_schedule(params, u_th, n_beams)
    return schedule._replace(u_comm=0.9 * schedule.u_comm)


def _rate_slope_flipped(upsilon, n_beams, p_hat_max):
    """rate_slope with its ``(n-1) * w * zeta / (n (1 + zeta))`` term added, not subtracted."""
    n = n_beams
    zeta = tight_zeta(upsilon, n, p_hat_max)
    w = upsilon + n / 2.0 - 1.0
    return rate_slope(upsilon, n, p_hat_max) + 2.0 * (n - 1.0) * w * zeta / (n * (1.0 + zeta))


def _rising_power(rho, u, d, gamma):
    """A power profile that rises with the width, the reverse of water-filling."""
    return u / (d * gamma)


def _half_slope_power(rho, u, d, gamma):
    """Water-filling falling at half its slope: no fixed profile beats it."""
    return np.maximum(0.0, rho - u / (2.0 * d * gamma))


def _pref(n_beams, upsilon):
    """The prefactor n / ((n-1) (upsilon + n/2 - 1)) of the normalized forms."""
    n = n_beams
    return n / ((n - 1.0) * (upsilon + n / 2.0 - 1.0))


def _norm_rate_no_tail(n_beams, upsilon, zeta):
    """norm_rate with m = upsilon: the data phase runs on past a water level below u_th."""
    return norm_rate(n_beams, upsilon, max(zeta, 0.0))


def _norm_power_no_tail(n_beams, upsilon, zeta):
    """norm_power with m = upsilon: the data phase runs on past a water level below u_th."""
    x = upsilon * (1.0 + zeta)
    u_hat = norm_comm_width(upsilon, n_beams)
    return 0.5 * _pref(n_beams, upsilon) * (upsilon - u_hat) * (2.0 * x - upsilon - u_hat)


class Mutant(NamedTuple):
    """A faulty stand-in for one module-level name of the package."""

    target: str                      # the dotted name it replaces, below beamcycle
    stand_in: Callable
    suite: Callable                  # params -> the suite's CheckResults
    check: str                       # the one check that must catch it
    failures: int                    # its failures at the suite's defaults


SUITE_MUTANTS = {
    "no-backoff": Mutant(
        "validation.build_schedule", _no_backoff, coverage_suite, "sweep_coverage", 3
    ),
    "narrow-window": Mutant(
        "validation.build_schedule", _narrow_window, coverage_suite, "post_sweep_width", 10
    ),
    "rate-slope": Mutant(
        "validation.rate_slope",
        _rate_slope_flipped,
        lambda params: slope_sign_suite(),
        "slope_sign",
        807,
    ),
    # The whole verify report, so that every other check is seen to pass.
    "rising-power": Mutant(
        "validation._waterfilling", _rising_power, run_all, "jensen_waterfilling", 3
    ),
    "half-slope": Mutant(
        "validation._waterfilling", _half_slope_power, run_all, "jensen_waterfilling", 1
    ),
    # The closed forms are wrappers over these, so the oracle guards them.
    "rate-no-tail": Mutant(
        "performance.norm_rate", _norm_rate_no_tail, quadrature_suite,
        "closed_vs_numeric_rate", 100,
    ),
    "power-no-tail": Mutant(
        "performance.norm_power", _norm_power_no_tail, quadrature_suite,
        "closed_vs_numeric_power", 100,
    ),
}


def run_mutant(params, monkeypatch, name):
    """Results by check name of mutant ``name``'s suite, run with the mutant in place."""
    mutant = SUITE_MUTANTS[name]
    with monkeypatch.context() as patch:
        patch.setattr(f"beamcycle.{mutant.target}", mutant.stand_in)
        return {r.check_name: r for r in mutant.suite(params)}
