"""Tests of the benchmark itself: percentile rule, golden checks, tracing.

    python3 -m pytest perfbench/tests
"""

import json

import pytest

import run
import tracer
import workloads
from beamcycle import cli, optimize, validation


@pytest.mark.parametrize(
    "n, index",
    [(1, 0), (2, 0), (10, 4), (20, 9), (21, 10), (30, 19), (100, 89), (1000, 989)],
)
def test_tail_index(n, index):
    p, i = run.tail_percentile(n)
    assert i == index
    assert p == pytest.approx(100.0 * (index + 1) / n)


def test_tail_of_known_sample():
    sample = [float(v) for v in range(100, 0, -1)]  # 100 .. 1, unsorted
    summary = run.latency_summary(sample)
    assert summary["tail_s"] == 90.0
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_samples_beyond"] == 10
    assert summary["p50_s"] == 50.5
    assert summary["samples"] == 100


def test_tail_falls_back_to_median_for_few_samples():
    summary = run.latency_summary([3.0, 1.0, 2.0, 5.0, 4.0])
    assert summary["tail_s"] == 3.0
    assert summary["tail_samples_beyond"] == 2


@pytest.mark.parametrize("kind", [k for k, _ in workloads.CLI_COMMANDS])
def test_one_byte_change_to_a_golden_is_detected(kind):
    stdout_path, csv_path = workloads.golden_paths(kind)
    stdout = stdout_path.read_bytes()
    csv = csv_path.read_bytes() if csv_path.exists() else None
    op = workloads.Op(0, kind, [])
    assert workloads._check_cli(op, (0, stdout, csv)) is None
    assert workloads._check_cli(op, (1, stdout, csv)) is not None
    for name, data in (("stdout", stdout), ("csv", csv)):
        if not data:
            continue
        for pos in (0, len(data) // 2, len(data) - 1):
            mutated = bytearray(data)
            mutated[pos] ^= 0x01
            outputs = {"stdout": stdout, "csv": csv, name: bytes(mutated)}
            error = workloads._check_cli(op, (0, outputs["stdout"], outputs["csv"]))
            assert error is not None and f"byte {pos}" in error
    assert workloads._check_cli(op, (0, stdout + b"\n", csv)) is not None


def test_verify_report_must_run_and_pass_every_check():
    rows = [f"{name},10,0,0" for name in workloads.VERIFY_CHECKS]
    good = "\n".join([workloads.VERIFY_HEADER, *rows]) + "\n"
    assert workloads.check_verify_report(good.encode()) is None
    assert "zero cases" in workloads.check_verify_report(good.replace("slope_sign,10", "slope_sign,0").encode())
    assert "failed" in workloads.check_verify_report(good.replace("sweep_coverage,10,0", "sweep_coverage,10,2").encode())
    assert "malformed" in workloads.check_verify_report(good.replace("slope_sign,10", "slope_sign,x").encode())
    assert "lacks" in workloads.check_verify_report("\n".join([workloads.VERIFY_HEADER, *rows[1:]]).encode())


def test_design_stream_is_seeded_and_in_range():
    def take(seed, n=64):
        stream = workloads.design_requests(seed)
        return [next(stream).arg for _ in range(n)]

    assert take(3) == take(3)
    assert take(3) != take(4)
    for p_max, v_max in take(5, 512):
        assert 1e-4 <= p_max <= 1e-2 and 5.0 <= v_max <= 40.0


def test_design_stream_spans_budget_quantiles_evenly():
    # Budget quantiles of p_max log-uniform and v_max uniform, from a finer grid.
    m = 300
    budgets = sorted(
        workloads.norm_budget(1e-4 * 100.0 ** ((i + 0.5) / m), 5.0 + 35.0 * (k + 0.5) / m)
        for i in range(m) for k in range(m)
    )
    for seed in range(1, 6):
        stream = workloads.design_requests(seed)
        sample = [workloads.norm_budget(*next(stream).arg) for _ in range(250)]
        for share in (0.04, 0.1, 0.5):
            cut = budgets[int((1.0 - share) * len(budgets))]
            assert abs(sum(b > cut for b in sample) - share * 250) <= 2


def test_independent_beam_count_bound_matches_package():
    for p_hat in (0.5, 3.0, 17.0, 1774.6, 35491.8, 1.4e6):
        assert workloads.max_beam_count(p_hat) == optimize.max_beams(p_hat)


def test_design_check_against_reference():
    check = workloads.make_design_check(0)  # seed 0 is run.py's default
    stream = workloads.design_requests(0)
    op = next(stream)
    design = workloads._run_design(op)
    assert check(op, design) is None
    assert check(op, workloads.Failed(ValueError("boom"))) is not None
    import dataclasses

    assert "reference" in check(op, dataclasses.replace(design, upsilon=design.upsilon * (1 + 1e-8)))
    assert "reported" in check(op, dataclasses.replace(design, avg_power=design.avg_power * 0.99))
    assert "recomputed" in check(op, dataclasses.replace(design, rho=design.rho * (1 + 1e-5)))
    assert "outside" in check(op, dataclasses.replace(design, n_beams=10**6))
    assert "infeasible" in check(op, dataclasses.replace(design, upsilon=1.0))


def test_recomputed_power_matches_package():
    from beamcycle import performance

    # (n_beams, u_th, rho): the water level as a width, d*gamma*rho, lies
    # above u_th in the first two and inside the cycle in the third.
    designs = ((3, 0.05, 0.01), (7, 0.05, 2e-3), (3, 0.05, 2.1e-6))
    for p_max, v_max in ((1e-4, 40.0), (3e-3, 12.5), (1e-2, 5.0)):
        params = workloads.scenario(p_max, v_max)
        for n, u_th, rho in designs:
            expected = performance.avg_power_closed(params, n, u_th, rho)
            got = workloads.cycle_avg_power(v_max, n, u_th, rho)
            assert got == pytest.approx(expected, rel=1e-12)


def traced(fn):
    t = tracer.Tracer(run.trace_hooks())
    with t, t.operation(0):
        fn()
    return t


def test_wrapper_counts_at_smallest_budget():
    t = traced(lambda: optimize.optimize_design(workloads.scenario(1e-4, 20.0)))
    metrics = run.layer_metrics(t.totals(), t.counters(), 1, 1.0, 1.0)
    assert metrics["optimize.beam_counts_visited"][0] == 86
    assert metrics["optimize.search_yield"][0] == 1 / 86
    assert metrics["optimize.max_beams.calls"][0] == 87  # once for the range, once per slope_root
    assert t.totals()["optimize.best_upsilon"][0] == 86
    assert metrics["performance.norm_rate.calls"][0] == 86
    assert metrics["performance.closed_form.calls"][0] == 2
    assert metrics["cli.main.time_s"][0] == 0.0


def test_wrappers_cover_every_namespace_and_are_removed():
    original = optimize.max_beams
    t = tracer.Tracer()
    with t:
        assert validation.max_beams is optimize.max_beams is not original
        validation.slope_sign_suite(budgets=(0.1,), n_points=2)
    assert optimize.max_beams is original and validation.max_beams is original
    totals = t.totals()
    assert totals["validation.slope_sign_suite"][0] == 1
    assert totals["optimize.max_beams"][0] == 1
    assert totals["optimize.rate_slope"][0] > 0


def test_covered_length_merges_overlaps():
    assert tracer.covered_length([(1.0, 3.0), (0.0, 2.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0
    assert tracer.covered_length([]) == 0.0


def test_worker_spans_keep_their_parent_and_self_time_uses_the_union(tmp_path):
    out = tmp_path / "sweep.csv"
    t = traced(lambda: cli.main(["sweep", "--values", "1e-4,2e-4,4e-4", "--out", str(out)]))
    totals = t.totals()
    assert totals["cli.main"][0] == totals["cli.cmd_sweep"][0] == 1
    assert totals["optimize.optimize_design"][0] == 3
    spans_path = tmp_path / "spans.json"
    t.write_spans(spans_path)
    doc = json.loads(spans_path.read_text())
    names = doc["names"]
    spans = doc["spans"]
    sweep = next(s for s in spans if names[s[3]] == "cli.cmd_sweep")
    children = [s for s in spans if s[2] == sweep[1]]
    designs = [s for s in children if names[s[3]] == "optimize.optimize_design"]
    assert len(designs) == 3  # run on pool threads, parented by the submitting span
    assert all(s[0] == 0 for s in spans)
    covered = tracer.covered_length([(s[4], s[5]) for s in children])
    assert covered < sum(s[5] - s[4] for s in designs)  # the pool threads overlapped
    _, inclusive, own = totals["cli.cmd_sweep"]
    assert own == pytest.approx(inclusive - covered, abs=1e-9)
    assert 0.0 <= own < inclusive


def test_per_layer_metrics_match_the_declared_set():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {k: u for k, (_, u) in run.layer_metrics({}, {}, 1, 1.0, 1.0).items()}
    assert produced == declared
