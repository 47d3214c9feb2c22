from dataclasses import replace

import pytest

from beamcycle import SystemParams, build_schedule


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


def _no_backoff(params, u_th, n_beams):
    """Scan intervals without the i * delta_s*phi/2 mobility back-off."""
    schedule = build_schedule(params, u_th, n_beams)
    half_step = params.delta_s * params.phi / 2.0
    intervals = tuple(
        (a + i * half_step, b + i * half_step) for i, (a, b) in enumerate(schedule.intervals)
    )
    return replace(schedule, intervals=intervals)


def _narrow_window(params, u_th, n_beams):
    """A post-sweep window 10% narrower than u_comm."""
    schedule = build_schedule(params, u_th, n_beams)
    return replace(schedule, u_comm=0.9 * schedule.u_comm)


# Faulty stand-ins for validation.build_schedule: (mutant, the coverage check
# that must catch it, its failures in coverage_suite at n_traj=3000, seed=1).
COVERAGE_MUTANTS = {
    "no-backoff": (_no_backoff, "sweep_coverage", 56),
    "narrow-window": (_narrow_window, "post_sweep_width", 5),
}
