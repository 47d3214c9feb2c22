
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamcycle import (
    FeasibilityError,
    build_schedule,
    comm_width,
    cycle_duration,
    min_u_th,
    validate_small_angle,
)

from conftest import make_params


class TestMinTriggerWidth:
    # Evaluated by hand from the two lower-bound branches, delta_s*phi = 1e-4 m.
    @pytest.mark.parametrize(
        "n_beams,expected",
        [(2, 4e-4), (5, 6e-4), (4, 1e-4 * 13.0 / 3.0)],
    )
    def test_hand_values(self, n_beams, expected):
        p = make_params(delta_s=1e-5, phi=10.0)
        assert min_u_th(p, n_beams) == pytest.approx(expected, rel=1e-12)

    def test_needs_two_beams(self):
        with pytest.raises(ValueError):
            min_u_th(make_params(), 1)


class TestBuildSchedule:
    def test_two_beam_example(self):
        # d = 10 m, delta_s*phi = 1e-4 m, u_th = 1 m.
        p = make_params(delta_s=1e-5, phi=10.0)
        s = build_schedule(p, u_th=1.0, n_beams=2)
        assert s.beamwidths[0] == pytest.approx(0.05, rel=1e-12)
        assert s.beamwidths[1] == pytest.approx(0.05001, rel=1e-12)
        assert s.u_comm == pytest.approx(0.5 + 2e-4, rel=1e-12)
        assert s.t_cycle == pytest.approx(0.05, rel=1e-12)

    def test_three_beam_example(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        s = build_schedule(p, u_th=1.0, n_beams=3)
        assert s.beamwidths[0] == pytest.approx(1.0 / 30.0 - 1e-5 / 3.0, rel=1e-12)
        total = p.d * sum(s.beamwidths)
        assert total == pytest.approx(1.0 + 2e-4, rel=1e-12)

    def test_below_minimum_names_branch(self):
        p = make_params(delta_s=1e-5, phi=10.0)
        with pytest.raises(FeasibilityError, match="would not shrink the uncertainty width"):
            build_schedule(p, u_th=0.9 * min_u_th(p, 2), n_beams=2)
        # For 5+ beams the beamwidth-nonnegativity branch binds first: just
        # below its bound the shrinkage branch is still satisfied.
        lo = 0.999 * min_u_th(p, 6)
        with pytest.raises(FeasibilityError, match="negative first beamwidth"):
            build_schedule(p, u_th=lo, n_beams=6)

    @given(
        n_beams=st.integers(2, 10),
        margin=st.floats(1.0, 200.0),
        delta_s=st.floats(1e-6, 1e-4),
        phi=st.floats(1.0, 100.0),
    )
    @settings(max_examples=200)
    def test_invariants(self, n_beams, margin, delta_s, phi):
        p = make_params(delta_s=delta_s, phi=phi)
        step = delta_s * phi
        u_th = min_u_th(p, n_beams) + margin * step
        s = build_schedule(p, u_th, n_beams)

        diffs = [b - a for a, b in zip(s.beamwidths, s.beamwidths[1:])]
        for diff in diffs:
            assert diff == pytest.approx(step / p.d, rel=1e-12)
        assert all(w >= 0.0 for w in s.beamwidths)

        total = p.d * sum(s.beamwidths)
        assert total == pytest.approx(u_th + (n_beams - 1) * step, rel=1e-12)

        # Post-sweep width must not depend on the winning beam.
        for i, w in enumerate(s.beamwidths, start=1):
            width_if_i = p.d * w + (n_beams + 1 - i) * step
            assert width_if_i == pytest.approx(s.u_comm, rel=1e-12)

        assert s.u_comm <= u_th * (1 + 1e-12)
        assert s.intervals[0][0] == 0.0
        for (a1, b1), (a2, _) in zip(s.intervals, s.intervals[1:]):
            assert a2 == pytest.approx(b1 - step / 2.0, rel=1e-12, abs=1e-300)

        # Cycle closes: width regrows from u_comm back to u_th at t_cycle.
        regrown = s.u_comm + phi * (s.t_cycle - n_beams * delta_s)
        assert regrown == pytest.approx(u_th, rel=1e-12)

    def test_shrinkage_equality_at_first_branch(self):
        # At the shrinkage bound the sweep exactly preserves the width.
        p = make_params(delta_s=1e-5, phi=10.0)
        for n in (2, 3, 4):
            u_th = min_u_th(p, n)
            s = build_schedule(p, u_th, n)
            assert s.u_comm == pytest.approx(u_th, rel=1e-12)

    def test_zero_first_beam_at_nonneg_bound(self):
        # For 5+ beams the binding constraint is the first beamwidth.
        p = make_params(delta_s=1e-5, phi=10.0)
        s = build_schedule(p, min_u_th(p, 6), 6)
        assert s.beamwidths[0] == pytest.approx(0.0, abs=1e-18)
        assert s.u_comm < s.u_th


class TestHelpers:
    def test_comm_width_matches_schedule(self, params):
        u_th = 50 * params.delta_s * params.phi
        s = build_schedule(params, u_th, 4)
        assert comm_width(params, u_th, 4) == s.u_comm
        assert cycle_duration(params, u_th, 4) == s.t_cycle


class TestSmallAngle:
    def test_quiet_when_narrow(self, params):
        assert validate_small_angle(params, 1.0) == []

    def test_warns_when_wide(self, params):
        warnings = validate_small_angle(params, 5.0)
        assert len(warnings) == 1
        assert "0.5" in warnings[0]

    def test_boundary_inclusive(self, params):
        assert validate_small_angle(params, 3.5) == []

    def test_never_raises_for_positive_widths(self, params):
        validate_small_angle(params, 1e6)
        with pytest.raises(ValueError):
            validate_small_angle(params, 0.0)
