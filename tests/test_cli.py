import argparse
import contextlib
import io
import json
import re
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beamcycle.cli import _make_parser, dbm_per_hz_to_w_per_hz, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptimize:
    def test_deterministic_output(self, capsys):
        first = run_cli(capsys, "optimize", "--pmax", "1e-3")
        second = run_cli(capsys, "optimize", "--pmax", "1e-3")
        assert first == second
        assert first[0] == 0
        assert "n_beams" in first[1]

    def test_json_matches_text(self, capsys):
        code, text, _ = run_cli(capsys, "optimize", "--pmax", "1e-3")
        code_j, out, _ = run_cli(capsys, "optimize", "--pmax", "1e-3", "--json")
        assert code == code_j == 0
        record = json.loads(out)
        plain = dict(
            line.split(": ", 1) for line in text.strip().splitlines()
        )
        assert set(record) == set(plain)
        for key, value in record.items():
            assert float(plain[key]) == pytest.approx(float(value), rel=1e-11)

    def test_zero_power_budget_warns_not_crashes(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--pmax", "0")
        assert code == 0
        assert "warning" in err
        assert "spectral_efficiency_bit_s_hz: 0" in out

    def test_negative_power_budget_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--pmax", "-1")
        assert code == 2
        assert out == ""
        assert "p_max" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_power_budget_exit_2(self, capsys, value):
        code, out, err = run_cli(capsys, "optimize", "--pmax", value)
        assert code == 2
        assert out == ""
        assert f"p_max must be positive and finite, got {value}" in err

    @pytest.mark.parametrize("command", ["sweep", "baseline"])
    def test_zero_power_budget_rejected_elsewhere(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--pmax", "0")
        assert code == 2
        assert "p_max" in err

    def test_beam_count_cap_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--pmax", "1e5")
        assert code == 2
        assert out == ""
        assert "implausibly large" in err

    def test_one_watt_budget(self, capsys):
        # About 8400 beam counts. The search bisects them all at once, in
        # well under a second; with a max_beams scan per count it took 25 s.
        code, out, _ = run_cli(capsys, "optimize", "--pmax", "1")
        assert code == 0
        record = dict(line.split(": ", 1) for line in out.strip().splitlines())
        assert record["n_beams"] == "3"
        assert float(record["avg_power"]) == pytest.approx(1.0, rel=1e-8)

    def test_tiny_budget_is_feasible(self, capsys):
        code, out, err = run_cli(capsys, "optimize", "--pmax", "2.9e-17")
        assert code == 0, err
        record = dict(line.split(": ", 1) for line in out.strip().splitlines())
        # norm_power cancels near its zero-power boundary, so the last of
        # the 12 printed digits is not pinned.
        assert float(record["avg_power"]) == pytest.approx(2.9e-17, rel=1e-10)

    def test_csv_row_written(self, capsys, tmp_path):
        out_path = tmp_path / "design.csv"
        code, _, _ = run_cli(capsys, "optimize", "--pmax", "1e-3", "--out", str(out_path))
        assert code == 0
        header, row = out_path.read_text().strip().splitlines()
        assert header.startswith("n_beams,")
        assert len(header.split(",")) == len(row.split(","))


class TestConfigFile:
    def test_config_keys_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(
            "# scenario\n"
            "w_tot = 1.76e9\n"
            "lambda = 5e-3\n"
            "n0 = -174\n"
            "delta_s = 1e-5\n"
            "d = 10\n"
            "xi = 1\n"
            "vmax = 20\n"
            "p_max = 1e-3\n"
        )
        base = run_cli(capsys, "optimize", "--config", str(cfg), "--json")
        assert base[0] == 0
        overridden = run_cli(
            capsys, "optimize", "--config", str(cfg), "--pmax", "2e-3", "--json"
        )
        assert json.loads(overridden[1])["avg_power"] == pytest.approx(2e-3)
        assert json.loads(base[1])["avg_power"] == pytest.approx(1e-3)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bandwidth = 1e9\n")
        code, _, err = run_cli(capsys, "optimize", "--config", str(cfg))
        assert code == 2
        assert "unknown key" in err

    # Constants inside the float range whose gamma, or n0 in W/Hz, is not:
    # d^2 or wavelength^2 overflows or underflows, 10^(n0/10) overflows.
    @pytest.mark.parametrize(
        "line",
        ["d = 1e200", "d = 1.7e308", "d = 1e-200", "lambda = 1e300", "lambda = 1e-200",
         "n0 = 1e300", "n0 = 1.7e308", "w_tot = 5e-324", "xi = 5e-324"],
    )
    def test_constant_past_float_range_exit_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text(line + "\n")
        for command in ("optimize", "sweep", "verify", "baseline"):
            code, out, err = run_cli(capsys, command, "--config", str(cfg))
            assert (code, out) == (2, ""), (command, err)
            assert err.startswith("error:") and ("gamma" in err or "n0" in err)

    def test_bad_value_names_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# scenario\nd = abc\n")
        code, _, err = run_cli(capsys, "optimize", "--config", str(cfg))
        assert code == 2
        assert f"{cfg}:2:" in err
        assert "'abc'" in err

    def test_baseline_keys_honoured(self, capsys, tmp_path):
        cfg = tmp_path / "baseline.cfg"
        cfg.write_text("pt = 2e-3\nbeamwidth_deg = 12\n")
        code, out, _ = run_cli(capsys, "baseline", "--config", str(cfg), "--json")
        assert code == 0
        record = json.loads(out)
        assert record["p_t"] == 2e-3
        assert record["beamwidth_deg"] == 12.0
        # The flag still wins over the file.
        _, out, _ = run_cli(capsys, "baseline", "--config", str(cfg), "--pt", "3e-3", "--json")
        assert json.loads(out)["p_t"] == 3e-3

    def test_noise_conversion(self):
        assert dbm_per_hz_to_w_per_hz(-174.0) == pytest.approx(10**-20.4, rel=1e-12)
        assert dbm_per_hz_to_w_per_hz(0.0) == pytest.approx(1e-3, rel=1e-12)


class TestSweep:
    def test_power_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "--axis",
            "power",
            "--values",
            "1e-4,3e-4,1e-3",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "axis_value,se_proposed,se_11ad,eta_star,u_th_star_m,p_bar"
        assert len(lines) == 4
        se = [float(line.split(",")[1]) for line in lines[1:]]
        assert se == sorted(se)
        se_11ad = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b <= p for b, p in zip(se_11ad, se))

    def test_speed_sweep_decreasing(self, capsys, tmp_path):
        out_path = tmp_path / "speed.csv"
        code, _, _ = run_cli(
            capsys, "sweep", "--axis", "speed", "--values", "5,20,40",
            "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        se = [float(r.split(",")[1]) for r in rows]
        assert all(b < a for a, b in zip(se, se[1:]))

    def test_byte_stable(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run_cli(capsys, "sweep", "--axis", "power", "--values", "1e-4,1e-3",
                    "--out", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_unsorted_values_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--values", "2,1")
        assert code == 2
        assert "strictly increasing" in err

    def test_unresolvable_power_grid_exit_2(self, capsys):
        # One ulp apart: both budgets give the same spectral efficiency.
        code, out, err = run_cli(
            capsys, "sweep", "--axis", "power", "--values", "0.001,0.0010000000000000002"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: spectral efficiency is not strictly increasing")
        assert "optimizer's tolerance" in err
        assert "Traceback" not in err

    # Effectively zero budgets take optimize's zero-rate design: 3e-25 W used
    # to end in a traceback (no sign change for the bisection), and 1e-300 W
    # in exit 2 (upsilon above max_upsilon).
    @pytest.mark.parametrize("values", ["3e-25", "1e-300,1e-3"])
    def test_zero_budget_rows(self, capsys, values):
        code, out, err = run_cli(capsys, "sweep", "--values", values)
        assert code == 0, err
        header, first, *rest = out.splitlines()
        assert header == "axis_value,se_proposed,se_11ad,eta_star,u_th_star_m,p_bar"
        se_proposed, se_11ad, *design = first.split(",")[1:]
        assert (se_proposed, design) == ("0", ["2", "0.0016", "0"])
        # The fixed beam still gets a rate out of a budget this small.
        assert float(se_11ad) > 0.0
        assert len(rest) == values.count(",")

    def test_zero_budget_grid_exit_2_names_the_cause(self, capsys):
        # Both budgets are effectively zero, a decade apart: the rows are
        # equal zero-rate designs, not budgets too close to tell apart.
        code, out, err = run_cli(capsys, "sweep", "--values", "1e-300,1e-299")
        assert code == 2
        assert out == ""
        assert err.startswith("error: spectral efficiency is not strictly increasing")
        assert "effectively zero" in err
        assert "tolerance" not in err

    def test_unwritable_path_exit_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "--values",
            "1e-4,1e-3",
            "--out",
            str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 3


def _assert_all_pass(code, out, err):
    """A verify run that exits 0 quietly, with its 7 rows each passing some cases."""
    assert (code, err) == (0, ""), out
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 7
    assert all(int(cases) > 0 and failures == "0" for _, cases, failures, _ in rows)


class TestVerify:
    def test_ignores_config_budget(self, capsys, tmp_path):
        # verify reads no budget, so one that optimize would take as zero
        # neither stops it nor changes its report.
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("p_max = 0\n")
        plain = run_cli(capsys, "verify")
        assert plain[0] == 0
        assert run_cli(capsys, "verify", "--config", str(cfg)) == plain

    def test_passes_and_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "check_name,n_cases,n_failures,worst_residual"
        names = [line.split(",")[0] for line in lines[1:]]
        assert "closed_vs_numeric_rate" in names
        assert "sweep_coverage" in names
        assert all(line.split(",")[2] == "0" for line in lines[1:])

    # The closed forms are scale-free and the oracles work in drift units,
    # so every suite passes across the float range of phi; the SystemParams
    # docstring states where verify is known to pass.
    @pytest.mark.parametrize(
        "phi", ["3e-303", "1e-302", "1e-301", "1e-300", "1e-200", "1e200", "1e300", "1.7e308"]
    )
    def test_passes_at_extreme_phi(self, capsys, phi):
        _assert_all_pass(*run_cli(capsys, "verify", "--phi", phi))

    def test_passes_at_tiny_microslots(self, capsys, tmp_path):
        # Physical times and powers leave the float range here; the
        # quadrature oracle's microslots and drift units do not.
        cfg = tmp_path / "tiny-slots.cfg"
        cfg.write_text("delta_s = 1e-300\n")
        _assert_all_pass(*run_cli(capsys, "verify", "--config", str(cfg)))

    def test_quadrature_past_the_float_range_is_quiet(self, capsys, tmp_path):
        # The quadrature suite's own design widths overflow here. Its cases
        # count that as failures, which exit 1 for now, and numpy must not
        # also warn about them on stderr.
        cfg = tmp_path / "slow-slots.cfg"
        cfg.write_text("delta_s = 1e-2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "verify", "--config", str(cfg), "--phi", "1.7e308")
        assert code in (0, 1)
        assert err == ""
        rows = {line.split(",")[0]: line.split(",")[1] for line in out.splitlines()[1:]}
        assert rows["closed_vs_numeric_rate"] == rows["closed_vs_numeric_power"] == "200"

    def test_negative_seed_rejected(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be nonnegative" in err

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_nonfinite_perturbation_rejected(self, capsys, eps):
        code, out, err = run_cli(capsys, "verify", "--perturb-closed-form", eps)
        assert code == 2
        assert out == ""
        assert "--perturb-closed-form" in err

    def test_report_schema(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(capsys, "verify", "--out", str(out_path))
        assert code == 0
        assert out == ""
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "check_name,n_cases,n_failures,worst_residual"
        assert len(lines) == 8
        for line in lines[1:]:
            name, n_cases, n_failures, worst = line.split(",")
            int(n_cases), int(n_failures), float(worst)

    def test_fault_injection_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--perturb-closed-form", "1e-3")
        assert code == 1
        rate_row = next(
            line for line in out.splitlines() if line.startswith("closed_vs_numeric_rate")
        )
        assert int(rate_row.split(",")[2]) > 0

    def test_unconverged_quadrature_is_a_failed_case(self, capsys, monkeypatch):
        # The oracle returns NaN when panel doubling does not converge. A NaN
        # rate integrand never converges, so every rate row of the batched
        # quadrature runs on to the panel cap (lowered here to keep it quick)
        # and leaves as NaN; the power rows, one batch of their own, pass.
        from beamcycle import validation

        rule = validation._gauss_panels

        def nan_rates(f, a, b, rel_tol):
            if f.__name__ == "rate":
                return rule(lambda x, rows: x * float("nan"), a, b, rel_tol)
            return rule(f, a, b, rel_tol)

        monkeypatch.setattr(validation, "_gauss_panels", nan_rates)
        monkeypatch.setattr(validation, "_MAX_PANELS", 8)
        code, out, err = run_cli(capsys, "verify")
        assert code == 1
        assert "Traceback" not in err
        rows = {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}
        assert rows["closed_vs_numeric_rate"] == ["200", "200", "nan"]
        assert rows["closed_vs_numeric_power"][1] == "0"


class TestBaseline:
    def test_power_matched_to_budget(self, capsys):
        code, out, _ = run_cli(
            capsys, "baseline", "--vmax", "20", "--pmax", "1e-3", "--json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["avg_power"] == pytest.approx(1e-3, rel=1e-12)
        assert record["f_comm"] == pytest.approx(0.999346, abs=1e-6)

    def test_explicit_transmit_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "baseline", "--vmax", "20", "--pt", "2e-3", "--json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["p_t"] == 2e-3
        assert record["avg_power"] == pytest.approx(
            2e-3 * record["f_comm"], rel=1e-12
        )

    def test_csv_written(self, capsys, tmp_path):
        out_path = tmp_path / "baseline.csv"
        code, out, _ = run_cli(capsys, "baseline", "--out", str(out_path))
        assert code == 0
        header, row = out_path.read_text().splitlines()
        assert header == (
            "beamwidth_deg,v_max_m_s,p_t,f_comm,spectral_efficiency_bit_s_hz,"
            "avg_rate_bit_s,avg_power"
        )
        # The CSV row carries the same 12-digit values as the text report.
        assert row.split(",") == [line.split(": ")[1] for line in out.splitlines()]

    @pytest.mark.parametrize(
        "flags", [["--beamwidth-deg", "200"], ["--beamwidth-deg", "nan"], ["--pt", "nan"]]
    )
    def test_nonsense_beam_or_power_exit_2(self, capsys, flags):
        code, out, err = run_cli(capsys, "baseline", *flags)
        assert code == 2
        assert out == ""
        assert "error" in err

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    def test_rate_overflow_exit_2(self, capsys, as_json):
        # The power-matched p_t of a 1e-300 degree beam overflows the rate.
        code, out, err = run_cli(capsys, "baseline", "--beamwidth-deg", "1e-300", *as_json)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("pt", [[], ["--pt", "1e-3"]])
    @pytest.mark.parametrize("phi", ["5e-324", "1e-322"])
    def test_dwell_overflow_at_tiny_phi_exit_2(self, capsys, tmp_path, phi, pt):
        # A long microslot keeps delta_s * phi normal, so the run reaches the
        # baseline, whose dwell time 2 r / phi overflows (a NaN fraction).
        cfg = tmp_path / "slot.cfg"
        cfg.write_text("delta_s = 1e300\n")
        code, out, err = run_cli(capsys, "baseline", "--config", str(cfg), "--phi", phi, *pt)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "communication fraction" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["optimize", "verify", "sweep", "baseline"])
def test_only_baseline_users_check_its_beam(capsys, tmp_path, command):
    # A beam the baseline rejects stops the commands that compute the
    # baseline, and no other.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("beamwidth_deg = 200\n")
    code, _, err = run_cli(capsys, command, "--config", str(cfg))
    if command in ("sweep", "baseline"):
        assert code == 2 and "beamwidth_deg" in err
    else:
        assert code == 0


def test_optimize_ends_on_its_own_error_where_the_baseline_fails(capsys):
    # At this phi the baseline's communication fraction would be NaN, but
    # the subnormal drift per microslot stops the run before any model does.
    code, out, err = run_cli(capsys, "optimize", "--phi", "1e-310")
    assert code == 2 and out == ""
    assert err.startswith("error: delta_s * phi must be positive and finite, and not subnormal")
    assert "communication fraction" not in err


def test_bad_flag_value_exit_2(capsys):
    code, _, err = run_cli(capsys, "optimize", "--phi", "-5")
    assert code == 2
    assert "error" in err


# Flags that the command does not read are not parsed: argparse exits 2.
@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--seed", "1"],
        ["sweep", "--seed", "1"],
        ["baseline", "--seed", "1"],
        ["sweep", "--json"],
        ["verify", "--json"],
        ["verify", "--pmax", "0"],
        ["verify", "--trajectories", "3"],
        ["verify", "--tuples", "3"],
        ["verify", "--profiles", "3"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_unread_flag_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


GOLDEN_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "cli"

# The benchmark's cli-defaults commands; their outputs must not change by a byte.
CLI_DEFAULTS = {
    "optimize": ["optimize"],
    "optimize-json": ["optimize", "--json"],
    "sweep-power": ["sweep", "--out"],
    "sweep-speed": ["sweep", "--axis", "speed", "--out"],
    "baseline": ["baseline"],
}


@pytest.mark.parametrize("kind", CLI_DEFAULTS)
def test_defaults_match_golden_bytes(capsys, tmp_path, kind):
    argv = CLI_DEFAULTS[kind]
    csv_path = tmp_path / f"{kind}.csv"
    if argv[-1] == "--out":
        argv = [*argv, str(csv_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN_CLI / f"{kind}.stdout").read_bytes()
    if "--out" in argv:
        assert csv_path.read_bytes() == (GOLDEN_CLI / f"{kind}.csv").read_bytes()


GOLDEN_TESTS = Path(__file__).resolve().parent / "golden"

# Each verify golden's name, flags and exit code. Regenerate all six (only
# on purpose, and say why) with::
#
#     PYTHONPATH=src python tests/test_cli.py
VERIFY_GOLDENS = {
    **{f"verify-seed{seed}": (["--seed", str(seed)], 0) for seed in (0, 3, 7, 99, 505)},
    "verify-perturb1e-3": (["--perturb-closed-form", "1e-3"], 1),
}


def test_small_verify_matches_golden_bytes(capsys):
    # No benchmark check compares verify's report bytes; this pins them.
    code, out, _ = run_cli(capsys, "verify", "--seed", "0")
    assert code == 0
    assert out.encode() == (GOLDEN_TESTS / "verify-seed0.csv").read_bytes()


@pytest.mark.parametrize(
    "name", [name for name in VERIFY_GOLDENS if name != "verify-seed0"],
    ids=lambda name: name.removeprefix("verify-"),
)
def test_more_verify_reports_match_golden_bytes(capsys, name):
    # More seeds, and a failing report, each captured before the quadrature
    # and water-filling oracles were batched into array passes. Re-captured
    # when the water-filling check moved to drift units, which moved its
    # residual only, and when the quadrature oracle did, which moved the
    # two closed_vs_numeric residuals only. Re-captured again when the
    # suites began to draw from random.Random(seed): the two
    # closed_vs_numeric residuals, maxima over the drawn designs, moved;
    # every case and failure count stayed.
    argv, expected_code = VERIFY_GOLDENS[name]
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == expected_code
    assert out.encode() == (GOLDEN_TESTS / f"{name}.csv").read_bytes()


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main``, argparse's own exits included."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())


def test_parser_is_built_once_and_reused(capsys):
    # main reuses one argparse tree; runs through it, erroring ones included,
    # give the bytes and exit codes of a fresh tree each.
    argvs = [
        ["baseline", "--json"],
        ["verify", "--seed", "-1"],
        ["optimize", "--pmax", "nope"],
        ["sweep", "--axis", "speed", "--values", "10,20"],
        ["optimize", "--json"],
        ["baseline"],
    ]
    assert _make_parser() is _make_parser()
    reused = [_outcome(capsys, argv) for argv in argvs]
    fresh = []
    for argv in argvs:
        _make_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert reused == fresh
    assert [code for code, *_ in reused] == [0, 2, 2, 0, 0, 0]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_zero_budget_matches_golden_bytes(capsys, tmp_path, as_json):
    # The zero-rate design takes its own path through optimize_design, which
    # the benchmark goldens do not reach.
    name = "optimize-pmax0-json" if as_json else "optimize-pmax0"
    csv_path = tmp_path / "design.csv"
    argv = ["optimize", "--pmax", "0", "--out", str(csv_path)] + ["--json"] * as_json
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err.startswith("warning: power budget is effectively zero")
    assert out.encode() == (GOLDEN_TESTS / f"{name}.stdout").read_bytes()
    assert csv_path.read_bytes() == (GOLDEN_TESTS / "optimize-pmax0.csv").read_bytes()


# Each subcommand's float flags, and the values drawn for them: the edges of
# the float range and of every domain, then typical values.
FUZZ_FLAGS = {
    "optimize": ("--pmax", "--phi", "--vmax"),
    "sweep": ("--pmax", "--phi", "--vmax"),
    "verify": ("--phi", "--vmax", "--perturb-closed-form"),
    "baseline": ("--pmax", "--phi", "--vmax", "--beamwidth-deg", "--pt"),
}
FUZZ_VALUES = st.one_of(
    st.sampled_from(
        ["0", "-0.0", "-1", "-1e-300", "5e-324", "1e-300", "1e300", "1.7e308",
         "nan", "inf", "-inf", "180"]
    ),
    st.floats(1e-4, 100.0).map(repr),
)


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), unique=True))
    # --flag=value, so that argparse never reads "-1e-300" as a flag.
    argv = [command] + [f"{flag}={draw(FUZZ_VALUES)}" for flag in flags]
    if command in ("optimize", "baseline") and draw(st.booleans()):
        argv.append("--json")
    if command == "sweep":
        argv.append(f"--axis={draw(st.sampled_from(['power', 'speed']))}")
        if draw(st.booleans()):
            values = draw(st.lists(FUZZ_VALUES, min_size=1, max_size=3))
            argv.append(f"--values={','.join(values)}")
    if command == "verify":
        argv.append(f"--seed={draw(st.integers(-1, 2**64))}")
    return argv


@given(argv=cli_argv())
# Inputs that once escaped as ZeroDivisionError or OverflowError.
@example(["baseline", "--beamwidth-deg=5e-324"])
@example(["sweep", "--axis=speed", "--values=5e-324"])
@example(["verify", "--phi=1e300"])
@example(["verify", "--phi=1.7e308"])
# Inputs that the baseline, which neither command uses, once stopped.
@example(["optimize", "--phi=1e-310"])
@example(["verify", "--phi=1e-310"])
@settings(max_examples=80, deadline=None)
def test_every_argv_gets_a_bounded_answer(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 10.0
    # 1 means a failed verification, which only verify reports.
    assert code in ((0, 1, 2) if argv[0] == "verify" else (0, 2)), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:") and out.getvalue() == ""


README = Path(__file__).resolve().parent.parent / "README.md"


def _flags(text):
    return set(re.findall(r"--[a-z][a-z-]*", text))


def test_readme_flag_table_matches_parser():
    # The README names the flags every command takes in one sentence and
    # each command's own flags in one table; the parser must agree with both.
    (commands,) = [
        action for action in _make_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    parsed = {
        name: {flag for action in sub._actions for flag in action.option_strings}
        - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    shared = set.intersection(*parsed.values())
    text = README.read_text()
    sentence = text.split("Every command takes ", 1)[1].split(";", 1)[0]
    table = text.split("| Command | Own flags |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
    assert _flags(sentence) == shared
    assert {name: _flags(flags) for name, flags in rows.items()} == {
        name: flags - shared for name, flags in parsed.items()
    }


def test_readme_library_example_runs(capsys):
    # The README's one Python block is what a library user copies first.
    text = README.read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    design_line, schedule_line = capsys.readouterr().out.splitlines()
    n_beams, u_th, efficiency = design_line.split()
    assert int(n_beams) >= 2 and float(u_th) > 0.0 and float(efficiency) > 0.0
    assert schedule_line.startswith("(")


if __name__ == "__main__":
    for name, (argv, _) in VERIFY_GOLDENS.items():
        main(["verify", *argv, "--out", str(GOLDEN_TESTS / f"{name}.csv")])
