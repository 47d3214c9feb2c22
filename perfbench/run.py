"""beamcycle benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload design-stream --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and from nowhere else. With ``--trace 0`` the run measures
the end-to-end metrics with no instrumentation. With ``--trace 1`` it
first runs the workload untraced for a quarter of ``--seconds``, then
replays the same operations, for at most ``--seconds``, with every public
function of the package wrapped (see ``tracer.py``) and reports per-layer
metrics per operation, plus the tracing overhead as traced minus untraced
time over the operations replayed. Every output is checked (see
``workloads.py``).

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is the run record (environment, seed, sample counts,
the percentile behind the tail latency, failures). Both are also written
to ``.perfbench-out/`` in the checkout, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# Tail latency leaves this many samples above it.
TAIL_BEYOND = 10

SETUP_RUNS = 12  # spread evenly over the timed loop, so the median spans the run
# A fresh interpreter imports the CLI and runs its cheapest command, which
# builds the default config; every CLI invocation pays this.
SETUP_CODE = """\
import contextlib, io, time
t0 = time.perf_counter()
import beamcycle.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = beamcycle.cli.main(["baseline"])
print(rc, repr(time.perf_counter() - t0))
"""

# The runner re-executes itself with these variables set, so every run, and
# every set-up run it starts, sees the same environment (measured on a 2-vCPU
# Xeon VM, Python 3.11, numpy 2.4 with OpenBLAS):
# - String hashing is otherwise salted per process, and the salt alone moved
#   design-stream throughput between about 6.8 and 9.9 ops/s from one
#   process to the next; with the salt fixed, five processes agreed within
#   0.5%.
# - OpenBLAS otherwise starts a thread per CPU, whose spinning took a second
#   CPU: whether the host gave one decided if set-up took 0.10 s or 0.21 s,
#   and one verify 2.6-3.3 s, against 2.15-2.19 s with one thread.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}

UNTRACED_SHARE = 0.25  # of --seconds, in a traced run
TRACE_TIME_LIMIT = 1.0  # traced replay stops after this many times --seconds


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, 0-based index into the sorted sample) of the tail metric.

    The highest percentile that still has TAIL_BEYOND samples above it is
    the (n - TAIL_BEYOND)-th smallest sample, at percentile
    100 * (n - TAIL_BEYOND) / n by nearest rank. With fewer than
    2 * TAIL_BEYOND + 1 samples that falls below the median, and the
    median is used instead.
    """
    index = max(n - 1 - TAIL_BEYOND, math.ceil(n / 2) - 1, 0)
    return 100.0 * (index + 1) / n, index


def setup_time() -> float:
    """Time SETUP_CODE takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    rc, seconds = proc.stdout.split() if proc.returncode == 0 else ("?", "")
    if rc != "0":
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
    return float(seconds)


def run_loop(workload, ops, seconds: float, tracer=None, setup=None):
    """Run ``ops`` in whole groups until ``seconds`` have passed.

    ``ops`` is an iterator or a list. Each output is checked as soon as it
    is timed and then dropped, so outputs do not pile up in memory. When
    ``setup`` is a list, SETUP_RUNS set-up times are appended to it, taken
    between groups at even steps of the loop's time; the loop's time does
    not count them. Returns (ops run, check results, latencies, elapsed
    seconds).
    """
    import workloads

    done, errors, latencies = [], [], []
    ops = iter(ops)
    paused = 0.0
    start = perf_counter()

    def elapsed():
        return perf_counter() - start - paused

    while elapsed() < seconds:
        if setup is not None and elapsed() >= len(setup) * seconds / SETUP_RUNS:
            t0 = perf_counter()
            setup.append(setup_time())
            paused += perf_counter() - t0
        for _ in range(workload.group):
            op = next(ops, None)
            if op is None:
                return done, errors, latencies, elapsed()
            scope = tracer.operation(op.index) if tracer else contextlib.nullcontext()
            with scope:
                t0 = perf_counter()
                out = workloads.call(workload.run, op)
                latencies.append(perf_counter() - t0)
            done.append(op)
            errors.append(workload.check(op, out))
    while setup is not None and len(setup) < SETUP_RUNS:
        setup.append(setup_time())
    return done, errors, latencies, elapsed()


def trace_hooks() -> dict:
    """Counts taken from what a layer returned."""

    def designs(counters, design):
        counters["beam_counts_visited"] = (
            counters.get("beam_counts_visited", 0) + len(design.per_beam_count)
        )

    def cases(counters, results):
        for r in results if isinstance(results, list) else [results]:
            counters["n_cases"] = counters.get("n_cases", 0) + r.n_cases
            counters["n_failures"] = counters.get("n_failures", 0) + r.n_failures
            if r.check_name == "sweep_coverage":
                counters["trajectories"] = counters.get("trajectories", 0) + r.n_cases
            elif r.check_name == "closed_vs_numeric_rate":
                counters["tuples"] = counters.get("tuples", 0) + r.n_cases

    hooks = {"optimize.optimize_design": designs}
    for suite in ("coverage_suite", "quadrature_suite", "jensen_check", "slope_sign_suite"):
        hooks[f"validation.{suite}"] = cases
    return hooks


def layer_metrics(
    totals: dict, counters: dict, n_ops: int, untraced_s: float, traced_s: float
) -> dict:
    """Per-layer metrics per operation from a tracer's totals and counters.

    ``untraced_s`` and ``traced_s`` are the time the same ``n_ops``
    operations took without and with tracing.
    """

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names) / n_ops

    def time_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names) / n_ops

    def self_s(layer):
        return sum(t[2] for n, t in totals.items() if n.startswith(layer + ".")) / n_ops

    def rate(count, name):
        busy = totals.get(name, (0, 0.0, 0.0))[1]
        return counters.get(count, 0) / busy if busy > 0.0 else 0.0

    visited = counters.get("beam_counts_visited", 0)
    designs = totals.get("optimize.optimize_design", (0, 0.0, 0.0))[0]
    closed = ("performance.avg_rate_closed", "performance.avg_power_closed")
    baseline = ("baseline.rate_and_power", "baseline.power_for_avg")
    s, c, one = "s/op", "count/op", "1"
    return {
        "optimize.optimize_design.time_s": (time_s("optimize.optimize_design"), s),
        "optimize.max_beams.time_s": (time_s("optimize.max_beams"), s),
        "optimize.max_beams.calls": (calls("optimize.max_beams"), c),
        "optimize.best_upsilon.time_s": (time_s("optimize.best_upsilon"), s),
        "optimize.rate_slope.calls": (calls("optimize.rate_slope"), c),
        "optimize.tight_zeta.calls": (calls("optimize.tight_zeta"), c),
        "optimize.beam_counts_visited": (visited / n_ops, c),
        "optimize.search_yield": (designs / visited if visited else 0.0, one),
        "optimize.self_s": (self_s("optimize"), s),
        "performance.norm_rate.calls": (calls("performance.norm_rate"), c),
        "performance.norm_rate.time_s": (time_s("performance.norm_rate"), s),
        "performance.closed_form.calls": (calls(*closed), c),
        "performance.closed_form.time_s": (time_s(*closed), s),
        "sweep.build_schedule.calls": (calls("sweep.build_schedule"), c),
        "sweep.build_schedule.time_s": (time_s("sweep.build_schedule"), s),
        "baseline.rate_and_power.calls": (calls(*baseline), c),
        "baseline.rate_and_power.time_s": (time_s(*baseline), s),
        "validation.coverage_suite.time_s": (time_s("validation.coverage_suite"), s),
        "validation.quadrature_suite.time_s": (time_s("validation.quadrature_suite"), s),
        "validation.jensen_check.time_s": (time_s("validation.jensen_check"), s),
        "validation.slope_sign_suite.time_s": (time_s("validation.slope_sign_suite"), s),
        "validation.trajectories_per_s": (rate("trajectories", "validation.coverage_suite"), "1/s"),
        "validation.tuples_per_s": (rate("tuples", "validation.quadrature_suite"), "1/s"),
        "validation.n_cases": (counters.get("n_cases", 0) / n_ops, c),
        "validation.n_failures": (counters.get("n_failures", 0) / n_ops, c),
        "cli.main.time_s": (time_s("cli.main"), s),
        "cli.self_s": (self_s("cli"), s),
        "trace.overhead_s": ((traced_s - untraced_s) / n_ops, s),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, one),
    }


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import beamcycle
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "beamcycle": beamcycle.__version__,
        "git_commit": git_commit(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "seed": seed,
    }


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    p, index = tail_percentile(len(ordered))
    return {
        "p50_s": statistics.median(ordered),
        "tail_s": ordered[index],
        "tail_percentile": p,
        "tail_samples_beyond": len(ordered) - 1 - index,
        "samples": len(ordered),
    }


def measure(args, workload) -> tuple[dict, dict, list]:
    """The timed run; returns (metrics, record fields, check results)."""
    import tracer as tracing

    if args.trace == 0:
        setup = []
        done, errors, latencies, elapsed = run_loop(
            workload, workload.ops(args.seed), args.seconds, setup=setup
        )
        summary = latency_summary(latencies)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "latency_p50_s": (summary["p50_s"], "s"),
            "latency_tail_s": (summary["tail_s"], "s"),
            "throughput_ops_s": (len(done) / elapsed, "ops/s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        record = {"latency": summary, "elapsed_s": elapsed, "setup_s": setup}
        if workload.group > 1:
            record["p50_s_by_kind"] = {
                kind: statistics.median(t for o, t in zip(done, latencies) if o.kind == kind)
                for kind in dict.fromkeys(o.kind for o in done)
            }
        return metrics, record, errors

    done, errors, untraced, _ = run_loop(
        workload, workload.ops(args.seed), UNTRACED_SHARE * args.seconds
    )
    tracer = tracing.Tracer(trace_hooks())
    with tracer:
        replayed, traced_errors, traced, _ = run_loop(
            workload, done, TRACE_TIME_LIMIT * args.seconds, tracer
        )
    n = len(replayed)
    values = layer_metrics(
        tracer.totals(), tracer.counters(), n, sum(untraced[:n]), sum(traced)
    )
    spans_path = OUT_DIR / f"spans-{workload.name}.json"
    record = {
        "untraced_ops": len(done),
        "traced_ops": n,
        "untraced_s": sum(untraced[:n]),
        "traced_s": sum(traced),
        "spans_kept": tracer.write_spans(spans_path),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_totals": {k: list(v) for k, v in sorted(tracer.totals().items())},
    }
    return values, record, errors + traced_errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design-stream", "verify-suites", "cli-defaults"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "beamcycle" / "__init__.py").is_file():
        print(f"error: no beamcycle package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import beamcycle

    if Path(beamcycle.__file__).resolve().parent != SRC / "beamcycle":
        print(f"error: imported beamcycle from {beamcycle.__file__}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        workload = workloads.make(args.workload, args.seed, scratch)
        errors = workload.preflight(args.seed)
        metrics, record, checked = measure(args, workload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    errors += checked
    failures = [e for e in errors if e is not None]
    attempted = len(errors)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        **environment(args.seed),
        **record,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # Replaces this process; no child is left to wait for.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})
    sys.exit(main())
