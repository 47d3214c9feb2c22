"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import math
import time

import numpy as np

from beamcycle import (
    BaselineConfig,
    avg_power_closed,
    avg_rate_closed,
    coverage_suite,
    denormalize,
    jensen_check,
    max_beams,
    max_upsilon,
    min_upsilon,
    norm_comm_width,
    norm_power,
    norm_power_budget,
    norm_rate,
    optimize_design,
    power_for_avg,
    quadrature_suite,
    rate_and_power,
    rate_slope,
    slope_root,
    snr_gamma,
    tight_zeta,
)
from beamcycle.performance import LN2

from conftest import SUITE_MUTANTS, make_params, run_mutant


def test_criterion_1_closed_form_fidelity(params):
    start = time.monotonic()
    results = quadrature_suite(params, n_tuples=200, seed=101, rel_tol=1e-7)
    elapsed = time.monotonic() - start
    for result in results:
        assert result.n_cases == 200
        assert result.n_failures == 0, result
        assert result.worst_residual <= 1e-7
    assert elapsed < 10.0
    worst = max(r.worst_residual for r in results)
    print(
        f"ACCEPTANCE 1 closed-form fidelity: PASS "
        f"(worst rel err {worst:.3g}, {elapsed:.2f}s)"
    )


def test_criterion_2_normalization_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(2, 9))
        ups = float(rng.uniform(min_upsilon(n) * 1.01, 500.0))
        zmin = norm_comm_width(ups, n) / ups - 1.0
        if k % 3 == 2 and zmin < -0.05:
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
                p.d * snr_gamma(p) / (p.delta_s * p.phi)
                * avg_power_closed(p, n, u_th, rho)
            )
            pair.append((r_hat, p_hat))
        (r1, p1), (r2, p2) = pair
        rel_r = abs(r1 - r2) / max(abs(r1), 1e-300)
        rel_p = abs(p1 - p2) / max(abs(p1), 1e-300)
        worst = max(worst, rel_r, rel_p)
        assert rel_r <= 1e-12 and rel_p <= 1e-12, (n, ups, zeta)
    print(f"ACCEPTANCE 2 normalization identity: PASS (worst rel diff {worst:.3g})")


def test_criterion_3_slope_machinery():
    budgets = (0.1, 1.0, 10.0, 100.0)
    worst_root_residual = 0.0
    for budget in budgets:
        for n in range(2, max_beams(budget) + 1):
            lo = (n * n + 3.0 * n - 2.0) / (2.0 * (n - 1.0))
            hi = max_upsilon(n, budget)
            grid = np.linspace(lo * (1.0 + 1e-7), hi, 100)
            values = [rate_slope(float(u), n, budget) for u in grid]
            assert all(b < a for a, b in zip(values, values[1:])), (budget, n)
            assert rate_slope(lo * (1.0 + 1e-9), n, budget) > 0.0
            assert rate_slope(hi, n, budget) < 0.0
            residual = abs(rate_slope(slope_root(n, budget), n, budget))
            worst_root_residual = max(worst_root_residual, residual)
            assert residual <= 1e-6, (budget, n, residual)
    print(
        f"ACCEPTANCE 3 slope machinery: PASS "
        f"(worst root residual {worst_root_residual:.3g})"
    )


def test_criterion_4_optimizer_dominance(params):
    start = time.monotonic()
    design = optimize_design(params)
    budget = norm_power_budget(params)
    best_rate = norm_rate(design.n_beams, design.upsilon, design.zeta)

    assert abs(design.avg_power - params.p_max) <= 1e-8 * params.p_max
    assert (
        abs(norm_power(design.n_beams, design.upsilon, design.zeta) - budget)
        <= 1e-8 * budget
    )

    rng = np.random.default_rng(404)
    n_samples = 10_000
    n_negative = 0
    worst_margin = math.inf
    count_max = max_beams(budget)
    for k in range(n_samples):
        n = int(rng.integers(2, count_max + 1))
        lo = min_upsilon(n)
        hi = max_upsilon(n, budget)
        if k % 4 == 3:
            # Negative-headroom region: power-feasible points with an idle
            # communication tail, allowed beyond max_upsilon.
            w = n / 2.0 - 1.0
            ups = float(rng.uniform(lo * (1 + 1e-9), 2.0 * hi))
            u_hat = norm_comm_width(ups, n)
            zmin = u_hat / ups - 1.0
            zroof = min(
                0.0,
                (u_hat + math.sqrt(2.0 * budget * (n - 1.0) * (ups + w) / n)) / ups
                - 1.0,
            )
            if zroof <= zmin:
                continue
            zeta = float(rng.uniform(zmin, zroof))
            n_negative += zeta < 0.0
        elif k % 4 == 1:
            # Power-tight curve: the strongest competitors to the optimum.
            ups = float(rng.uniform(lo * (1 + 1e-9), hi))
            zeta = tight_zeta(ups, n, budget)
        else:
            ups = float(rng.uniform(lo * (1 + 1e-9), hi))
            zeta = float(rng.uniform(0.0, tight_zeta(ups, n, budget)))
        assert norm_power(n, ups, zeta) <= budget * (1.0 + 1e-9)
        margin = best_rate - norm_rate(n, ups, zeta)
        worst_margin = min(worst_margin, margin)
        assert margin >= -1e-9, (n, ups, zeta, margin)

    # Deterministic probe of the strongest competitors: the power-tight
    # curve in a neighborhood of each beam count's own optimum.
    from beamcycle import best_upsilon

    for n in range(2, count_max + 1):
        center = best_upsilon(n, budget)
        lo = min_upsilon(n) * (1 + 1e-9)
        hi = max_upsilon(n, budget)
        for factor in np.linspace(0.8, 1.2, 201):
            ups = min(max(center * float(factor), lo), hi)
            margin = best_rate - norm_rate(n, ups, tight_zeta(ups, n, budget))
            worst_margin = min(worst_margin, margin)
            assert margin >= -1e-9, (n, ups, margin)
    elapsed = time.monotonic() - start
    assert n_negative > 1000  # the suboptimal region was actually sampled
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 4 optimizer dominance: PASS (worst margin {worst_margin:.3g}, "
        f"{n_negative} negative-headroom samples, {elapsed:.2f}s)"
    )


def test_criterion_5_sweep_protocol(params):
    start = time.monotonic()
    results = coverage_suite(params)
    elapsed = time.monotonic() - start
    by_name = {r.check_name: r for r in results}
    coverage = by_name["sweep_coverage"]
    width = by_name["post_sweep_width"]
    # Every speed sequence at once: 3 design points, 2 + 3 + 5 beams.
    assert (coverage.n_cases, width.n_cases) == (3, 10)
    assert coverage.n_failures == 0
    assert width.n_failures == 0
    assert width.worst_residual <= 1e-9
    print(
        f"ACCEPTANCE 5 sweep protocol: PASS ({coverage.n_cases} design points, "
        f"{width.n_cases} beams, full coverage, width residual "
        f"{width.worst_residual:.3g}, {elapsed:.3f}s)"
    )


def test_criterion_6_waterfilling_optimality(params):
    u_th = 100 * params.delta_s * params.phi
    gamma = snr_gamma(params)
    worst = -math.inf
    for level_frac in (0.8, 1.5):
        result = jensen_check(
            params,
            n_beams=2,
            u_th=u_th,
            rho=level_frac * u_th / (params.d * gamma),
        )
        # The KKT certificate and three equal-power profiles.
        assert result.n_cases == 4
        assert result.n_failures == 0
        assert result.worst_residual <= 1e-9
        worst = max(worst, result.worst_residual)
    print(f"ACCEPTANCE 6 water-filling optimality: PASS (worst residual {worst:.3g})")


def test_criterion_7_figure_trends(params):
    start = time.monotonic()
    baseline_cfg = BaselineConfig(v_max=params.phi / 2.0)

    def spectral_efficiencies(p, cfg, p_bar_target):
        design = optimize_design(p)
        matched = BaselineConfig(
            beamwidth_deg=cfg.beamwidth_deg,
            v_max=cfg.v_max,
            p_t=power_for_avg(p, cfg, p_bar_target),
        )
        rate_b, _ = rate_and_power(p, matched)
        return design.avg_rate / p.w_tot, rate_b / p.w_tot

    degradations = []

    # Two decades of average power at fixed speed.
    power_grid = np.logspace(-4, -2, 9)
    se_power = []
    for p_bar in power_grid:
        p = make_params(p_max=float(p_bar))
        se, se_b = spectral_efficiencies(p, baseline_cfg, float(p_bar))
        se_power.append(se)
        assert se_b <= se
        degradations.append(1.0 - se_b / se)
    assert all(b > a for a, b in zip(se_power, se_power[1:]))

    # Speed range at fixed power budget.
    se_speed = []
    for v_max in range(5, 41, 5):
        p = make_params(phi=2.0 * v_max)
        se, se_b = spectral_efficiencies(
            p, BaselineConfig(v_max=float(v_max)), params.p_max
        )
        se_speed.append(se)
        assert se_b <= se
        degradations.append(1.0 - se_b / se)
    assert all(b < a for a, b in zip(se_speed, se_speed[1:]))

    assert max(degradations) >= 0.8
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 7 figure trends: PASS (max degradation "
        f"{max(degradations):.3f}, {elapsed:.2f}s)"
    )


def test_criterion_8_fault_injection(params, monkeypatch):
    clean = quadrature_suite(params, n_tuples=10, seed=808)
    assert all(r.n_failures == 0 for r in clean)
    faulty = quadrature_suite(params, n_tuples=10, seed=808, perturb_closed_form=1e-3)
    assert all(r.n_failures > 0 for r in faulty)
    from beamcycle.cli import main

    assert main(["verify", "--perturb-closed-form", "1e-3", "--out", "/dev/null"]) == 1
    caught = []
    for name, mutant in sorted(SUITE_MUTANTS.items()):
        results = run_mutant(params, monkeypatch, name)
        # Each mutant is caught by its own check, and by no other.
        assert results[mutant.check].n_failures == mutant.failures, name
        assert [c for c, r in results.items() if not r.passed] == [mutant.check], name
        n_cases = results[mutant.check].n_cases
        caught.append(f"{name} by {mutant.check} {mutant.failures}/{n_cases}")
    print(
        "ACCEPTANCE 8 fault injection: PASS (perturbed closed forms detected; "
        f"mutants: {', '.join(caught)})"
    )
