import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamcycle
from beamcycle import (
    FeasibilityError,
    best_upsilon,
    max_beams,
    max_upsilon,
    min_upsilon,
    norm_power,
    norm_power_budget,
    norm_rate,
    optimize_design,
    rate_slope,
    tight_zeta,
)
from beamcycle.optimize import (
    _MAX_BEAMS_CAP,
    _ZERO_BUDGET,
    OptimalDesign,
    _rate_bound,
    beam_count_threshold,
)
from beamcycle.sweep import trigger_width_branches

from conftest import exact_closed_forms, make_params


class TestBounds:
    @pytest.mark.parametrize("n,expected", [(2, 4.0), (3, 4.0), (5, 6.0)])
    def test_min_upsilon(self, n, expected):
        assert min_upsilon(n) == pytest.approx(expected, rel=1e-15)

    def test_max_upsilon_hand_values(self):
        assert max_upsilon(2, 100.0) == pytest.approx(
            4.0 + 200.0 * (1.0 + math.sqrt(1.04)), rel=1e-12
        )
        assert max_upsilon(3, 1.0) == pytest.approx(
            4.0 + 1.5 * (1.0 + math.sqrt(7.0)), rel=1e-12
        )

    def test_max_upsilon_collapses_with_budget(self):
        assert max_upsilon(2, 1e-12) == pytest.approx(4.0, abs=1e-4)

    def test_max_upsilon_is_power_boundary(self):
        for n, budget in ((2, 100.0), (3, 1.0), (6, 10.0)):
            hi = max_upsilon(n, budget)
            assert norm_power(n, hi, 0.0) == pytest.approx(budget, rel=1e-10)

    def test_feasibility_bounds_always_ok_for_small_counts(self):
        for budget in (1e-6, 0.1, 1.0, 100.0):
            for n in (2, 3, 4):
                assert min_upsilon(n) <= max_upsilon(n, budget)

    def test_feasibility_flag_matches_window(self):
        # Nine beams need more than a unit budget: the window is empty.
        assert min_upsilon(9) > max_upsilon(9, 1.0)


class TestMaxBeams:
    @pytest.mark.parametrize("budget,expected", [(1.0, 5), (0.1, 4), (3.0, 6)])
    def test_hand_values(self, budget, expected):
        assert max_beams(budget) == expected

    def test_threshold_values(self):
        assert beam_count_threshold(5) == pytest.approx(2.0 / 7.0, rel=1e-15)
        assert beam_count_threshold(6) == pytest.approx(32.0 / 14.0, rel=1e-15)
        assert beam_count_threshold(7) == pytest.approx(128.0 / 23.0, rel=1e-15)

    def test_nondecreasing_in_budget(self):
        budgets = np.logspace(-3, 4, 40)
        counts = [max_beams(float(b)) for b in budgets]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert min(counts) >= 4

    def test_matches_linear_scan_at_every_threshold(self):
        thresholds = [beam_count_threshold(n) for n in range(5, 3001)]
        budgets = sorted(
            b
            for t in thresholds
            for b in (t, np.nextafter(t, 0.0), np.nextafter(t, np.inf))
        )
        assert [max_beams(float(b)) for b in budgets] == max_beams_scan(budgets)

    def test_matches_linear_scan_on_random_budgets(self):
        rng = np.random.default_rng(5)
        budgets = sorted(10.0 ** rng.uniform(-4.0, 9.0, 2000))
        assert [max_beams(float(b)) for b in budgets] == max_beams_scan(budgets)

    def test_exact_at_thresholds_near_the_cap(self):
        # Here the square root of the inversion can round below the answer
        # (first at 881748 beams, budget exactly at its threshold).
        for n in range(881_748, _MAX_BEAMS_CAP, 59):
            t = beam_count_threshold(n)
            assert max_beams(t) == n
            assert max_beams(float(np.nextafter(t, 0.0))) == n - 1

    def test_cap_raises_without_scanning(self, monkeypatch):
        cap = beam_count_threshold(_MAX_BEAMS_CAP)
        assert max_beams(float(np.nextafter(cap, 0.0))) == _MAX_BEAMS_CAP - 1
        calls = []

        def counted(n):
            calls.append(n)
            return beam_count_threshold(n)

        monkeypatch.setattr("beamcycle.optimize.beam_count_threshold", counted)
        for budget in (cap, 1e300, math.inf):
            with pytest.raises(ValueError, match="implausibly large"):
                max_beams(budget)
        assert len(calls) == 3

    def test_included_counts_are_feasible(self):
        for budget in (0.05, 0.5, 5.0, 50.0):
            for n in range(2, max_beams(budget) + 1):
                assert min_upsilon(n) <= max_upsilon(n, budget)


class TestTightZeta:
    def test_hand_value(self):
        assert tight_zeta(8.0, 2, 1.5) == pytest.approx(0.25, rel=1e-12)
        assert norm_power(2, 8.0, tight_zeta(8.0, 2, 1.5)) == pytest.approx(
            1.5, rel=1e-12
        )

    def test_zero_when_budget_spent_at_zero_headroom(self):
        assert tight_zeta(8.0, 2, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_zero_at_max_upsilon(self):
        for n, budget in ((2, 1.5), (4, 20.0)):
            assert tight_zeta(max_upsilon(n, budget), n, budget) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_power_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            budget = float(rng.uniform(0.05, 50.0))
            n = int(rng.integers(2, max_beams(budget) + 1))
            lo = (n * n + 3.0 * n - 2.0) / (2.0 * (n - 1.0))
            ups = float(rng.uniform(lo * 1.001, max_upsilon(n, budget)))
            zeta = tight_zeta(ups, n, budget)
            assert norm_power(n, ups, zeta) == pytest.approx(budget, rel=1e-10)

    def test_singular_at_comm_width(self):
        with pytest.raises(ValueError, match="singular"):
            tight_zeta(4.0, 2, 1.0)  # upsilon equals the post-sweep width

    def test_beyond_max_upsilon_is_infeasible(self):
        with pytest.raises(FeasibilityError):
            tight_zeta(max_upsilon(2, 1.0) * 1.01, 2, 1.0)

    @pytest.mark.parametrize("budget", np.logspace(-12, 6, 37).tolist())
    def test_max_upsilon_feasible_at_any_budget(self, budget):
        # At small budgets norm_power(n, max_upsilon, 0) rounds relative to
        # terms far larger than the budget; max_upsilon must still pass and
        # anything a little beyond it must still fail.
        for n in range(2, max_beams(budget) + 1):
            hi = max_upsilon(n, budget)
            assert tight_zeta(hi, n, budget) >= 0.0
            with pytest.raises(FeasibilityError):
                tight_zeta(hi * (1.0 + 1e-9), n, budget)


class TestRateSlope:
    def test_domain(self):
        with pytest.raises(ValueError):
            rate_slope(4.0, 2, 1.0)
        with pytest.raises(ValueError):
            rate_slope(max_upsilon(2, 1.0) * 1.001, 2, 1.0)

    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0, 100.0])
    def test_boundary_signs(self, budget):
        for n in range(2, max_beams(budget) + 1):
            lo = (n * n + 3.0 * n - 2.0) / (2.0 * (n - 1.0))
            assert rate_slope(lo * (1.0 + 1e-9), n, budget) > 0.0
            assert rate_slope(max_upsilon(n, budget), n, budget) < 0.0

    @pytest.mark.parametrize("budget", [0.1, 1.0, 10.0, 100.0])
    def test_strictly_decreasing(self, budget):
        for n in range(2, max_beams(budget) + 1):
            lo = (n * n + 3.0 * n - 2.0) / (2.0 * (n - 1.0))
            grid = np.linspace(lo * (1.0 + 1e-7), max_upsilon(n, budget), 100)
            values = [rate_slope(float(u), n, budget) for u in grid]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_sign_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        for budget in (0.1, 1.0, 10.0, 100.0):
            for n in range(2, max_beams(budget) + 1):
                lo = (n * n + 3.0 * n - 2.0) / (2.0 * (n - 1.0))
                hi = max_upsilon(n, budget)
                for _ in range(50):
                    ups = float(rng.uniform(lo * (1 + 1e-5), hi * (1 - 1e-5)))
                    h = 1e-6 * ups
                    rp = norm_rate(n, ups + h, tight_zeta(ups + h, n, budget))
                    rm = norm_rate(n, ups - h, tight_zeta(ups - h, n, budget))
                    fd = (rp - rm) / (2.0 * h)
                    if abs(fd) <= 1e-9:
                        continue
                    assert math.copysign(1.0, fd) == math.copysign(
                        1.0, rate_slope(ups, n, budget)
                    ), (budget, n, ups)


class TestBestUpsilon:
    def test_root_residual(self):
        ups = best_upsilon(2, 1.5)
        assert abs(rate_slope(ups, 2, 1.5)) < 1e-6

    def test_local_maximum(self):
        for n, budget in ((2, 1.5), (3, 10.0)):
            ups = best_upsilon(n, budget, tol=1e-12)
            delta = 10.0 * 1e-12 * max_upsilon(n, budget)
            here = norm_rate(n, ups, tight_zeta(ups, n, budget))
            for cand in (ups - delta, ups + delta):
                assert norm_rate(n, cand, tight_zeta(cand, n, budget)) <= here + 1e-15

    def test_clamped_for_many_beams(self):
        # With 6+ beams at modest budget the unconstrained root sits below
        # the beamwidth-nonnegativity bound and must be clamped onto it.
        budget = beam_count_threshold(6) * 1.05
        ups = best_upsilon(6, budget)
        assert ups == 0.5 * 5 * 4
        assert ups == min_upsilon(6)

    def test_within_window(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            budget = float(rng.uniform(0.05, 100.0))
            n = int(rng.integers(2, max_beams(budget) + 1))
            ups = best_upsilon(n, budget)
            assert min_upsilon(n) <= ups <= max_upsilon(n, budget) * (1 + 1e-12)

    def test_infeasible_count_rejected(self):
        with pytest.raises(FeasibilityError):
            best_upsilon(6, 1.0)


class TestOptimizeDesign:
    def test_power_constraint_tight(self, params):
        design = optimize_design(params)
        assert design.avg_power == pytest.approx(params.p_max, rel=1e-8)
        assert design.zeta >= 0.0

    def test_tiny_budgets_feasible(self):
        # Normalized budgets of about 3.5e-10 .. 3.5e-7: a slack tolerance
        # relative to the budget rejected 45 of these 100 at max_upsilon.
        for p_max in np.logspace(-17, -14, 100):
            design = optimize_design(make_params(p_max=float(p_max)))
            assert design.avg_power == pytest.approx(p_max, rel=1e-8)

    def test_zero_budget_design(self):
        # Normalized budgets from 1e-300 to just below the threshold, where
        # the bisection finds no sign change (below about 1e-15), or none
        # that holds the power constraint to 1e-8 (about 1e-15 .. 1e-14).
        unit = norm_power_budget(make_params(p_max=1.0))
        for p_hat in (1e-300, 1e-17, 1e-15, 0.999 * _ZERO_BUDGET):
            params = make_params(p_max=p_hat / unit)
            step = params.delta_s * params.phi
            assert optimize_design(params) == OptimalDesign(
                2, 4.0, 0.0, 4.0 * step, 0.0, 0.0, 0.0, ()
            )
        design = optimize_design(make_params(p_max=1.001 * _ZERO_BUDGET / unit))
        assert design.per_beam_count and design.avg_rate > 0.0

    def test_deterministic(self, params):
        a = optimize_design(params)
        b = optimize_design(params)
        assert a == b

    def test_tie_break_prefers_fewer_beams(self, params):
        design = optimize_design(params)
        for n, _, rate in design.per_beam_count:
            if n < design.n_beams:
                assert rate < rates_of(design, design.n_beams)

    def test_scale_invariance(self):
        # Rescaling every system constant while preserving the normalized
        # budget leaves the normalized optimum untouched.
        base = make_params()
        scaled = make_params(
            w_tot=3.3e9,
            d=25.0,
            delta_s=2e-5,
            phi=12.0,
            wavelength=8e-3,
            xi=0.7,
        )
        ratio = norm_power_budget(base) / norm_power_budget(scaled)
        scaled = make_params(
            w_tot=3.3e9,
            d=25.0,
            delta_s=2e-5,
            phi=12.0,
            wavelength=8e-3,
            xi=0.7,
            p_max=base.p_max * ratio,
        )
        a = optimize_design(base)
        b = optimize_design(scaled)
        assert a.n_beams == b.n_beams
        assert a.upsilon == pytest.approx(b.upsilon, rel=1e-9)
        assert a.zeta == pytest.approx(b.zeta, rel=1e-9)

    @pytest.mark.parametrize("budget", [10.0 ** (k / 3.0) for k in range(-27, 19)])
    def test_matches_per_count_bisection(self, budget):
        # The scan bisects the counts 2..k and prunes the rest by a proved
        # bound: it must pick the design an exhaustive search picks, bit for
        # bit, and agree with it on every count it bisected.
        base = make_params()
        params = make_params(p_max=base.p_max * budget / norm_power_budget(base))
        design = optimize_design(params)
        expected = reference_candidates(norm_power_budget(params))
        assert 3 <= len(design.per_beam_count) <= len(expected)
        assert design.per_beam_count == expected[: len(design.per_beam_count)]
        best = max(expected, key=lambda c: c[2])  # the first maximum: fewest beams
        assert (design.n_beams, design.upsilon) == best[:2]

    @pytest.mark.parametrize("p_max", np.logspace(-4, 0, 17).tolist())
    def test_bisects_few_counts_at_any_budget(self, p_max):
        # A noise-free work ceiling: the exhaustive search bisected 86 counts
        # at 1e-4 W and 8427 at 1 W; the pruned scan bisects 16 to 25.
        design = optimize_design(make_params(p_max=p_max))
        assert len(design.per_beam_count) <= 40

    @pytest.mark.parametrize("p_max,ceiling", [(1e-4, 700), (1.0, 1400)])
    def test_rate_slope_calls_per_design(self, monkeypatch, p_max, ceiling):
        # A noise-free work ceiling on the closed forms and the scan, where
        # wall-clock time moves 15-40% between runs: 690 calls at 1e-4 W and
        # 1364 at 1 W.
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return rate_slope(*args)

        monkeypatch.setattr(beamcycle.optimize, "rate_slope", counted)
        optimize_design(make_params(p_max=p_max))
        assert 0 < calls <= ceiling

    @pytest.mark.parametrize(
        "p_max,phi",
        [(1.037e-17, 2 * 45.28), (3.246414854069736e-17, 2 * 28.908198750950504)],
    )
    def test_picks_the_exactly_best_count_at_tiny_budgets(self, p_max, phi):
        # Rates of 2 and 3 beams differ in the eighth digit here (0.1031938141
        # against 0.1031938191 bit/s at the first point), so a rate that loses
        # digits to cancellation near the zero-power boundary can pick either.
        params = make_params(p_max=p_max, phi=phi)
        design = optimize_design(params)
        budget = norm_power_budget(params)
        exact = {
            n: exact_closed_forms(n, ups, tight_zeta(ups, n, budget))[0]
            for n, ups, _ in design.per_beam_count
        }
        assert design.n_beams == max(exact, key=exact.get)


class TestRateBound:
    @given(log_budget=st.floats(-9.0, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_bounds_every_rate_and_falls_from_five_beams(self, log_budget):
        budget = 10.0**log_budget
        rates = [rate for _, _, rate in reference_candidates(budget)]
        bounds = [_rate_bound(n, budget) for n in range(2, len(rates) + 2)]
        assert all(rate <= bound for rate, bound in zip(rates, bounds))
        from_five = bounds[3:]
        assert all(b <= a for a, b in zip(from_five, from_five[1:]))


def grid_rates(n, budget, points=500):
    """Power-tight rates of ``n`` beams on an even ``upsilon`` grid, no bisection."""
    shrink, nonneg = trigger_width_branches(n)
    lo = max(nonneg, shrink * (1.0 + 1e-9))
    hi = max_upsilon(n, budget)
    grid = (lo + (hi - lo) * k / points for k in range(points + 1))
    return [norm_rate(n, ups, tight_zeta(ups, n, budget)) for ups in grid]


class TestGridOracle:
    @given(log_budget=st.floats(-3.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_design_is_the_best_grid_point(self, log_budget):
        # A dense search over every feasible beam count shares no code with
        # the bisection: no grid point may beat the design, and the design
        # may beat the best one by no more than one grid step of rate.
        unit = norm_power_budget(make_params(p_max=1.0))
        params = make_params(p_max=10.0**log_budget / unit)
        budget = norm_power_budget(params)
        design = optimize_design(params)
        rate = norm_rate(design.n_beams, design.upsilon, design.zeta)
        grids = [grid_rates(n, budget) for n in range(2, max_beams(budget) + 1)]
        best = max(max(rates) for rates in grids)
        step = max(abs(b - a) for rates in grids for a, b in zip(rates, rates[1:]))
        assert best * (1.0 - 1e-12) <= rate <= best + step


def test_design_path_imports_no_numpy():
    # The closed forms and the optimizer are scalar code on math: numpy's
    # per-call cost on Python floats made the bisection several times slower.
    # Only verify needs numpy, so the CLI and the package import the
    # verification suites where they are used, not at module level.
    package = Path(beamcycle.__file__).parent
    modules = (
        "optimize", "performance", "sweep", "errors", "baseline", "params", "cli", "__init__"
    )
    for name in modules:
        tree = ast.parse((package / f"{name}.py").read_text())
        imported = [
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [m for m in imported if m.split(".")[0] == "numpy"], name
    for name in ("cli", "__init__"):
        tree = ast.parse((package / f"{name}.py").read_text())
        top_level = [
            node for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and (node.module == "validation"
                 or any(alias.name == "validation" for alias in node.names))
        ]
        assert not top_level, name


def rates_of(design, n):
    return next(r for count, _, r in design.per_beam_count if count == n)


def max_beams_scan(budgets):
    """The linear scan that max_beams replaced, the reference for it.

    One pass over ascending budgets: the scan for a larger budget runs
    through every state of the scan for a smaller one.
    """
    counts = []
    n = 5
    for budget in budgets:
        while beam_count_threshold(n) <= budget:
            n += 1
        counts.append(n - 1)
    return counts


def scalar_slope_root(n, budget, tol=1e-10):
    """One beam count's bisection, with the scalar ``rate_slope``."""
    lo = trigger_width_branches(n)[0] * (1.0 + 1e-9)
    hi = max_upsilon(n, budget)
    for _ in range(200):
        if hi - lo <= tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if rate_slope(mid, n, budget) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_candidates(budget):
    """``per_beam_count`` as a search bisecting one beam count at a time."""
    candidates = []
    for n in range(2, max_beams_scan([budget])[0] + 1):
        ups = max(0.5 * (n - 1.0) * (n - 2.0), scalar_slope_root(n, budget))
        candidates.append((n, ups, norm_rate(n, ups, tight_zeta(ups, n, budget))))
    return tuple(candidates)
