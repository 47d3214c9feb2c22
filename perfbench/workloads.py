"""The benchmark's three workloads: inputs from a seed, one operation, checks.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned. Operations call into the package the
way a user does (``optimize_design`` as a library call, ``cli.main`` for a
command) and return what the user would see, which ``check`` then compares
with an independent expectation or a golden captured at a known-good
commit.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from beamcycle import cli, optimize
from beamcycle.params import SystemParams

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DESIGN_REFERENCE = GOLDEN_DIR / "design-stream.json"

# design-stream draws p_max log-uniform and v_max uniform over these ranges
# (the paper's figure range and the default speed grid), with phi = 2*v_max.
P_RANGE = (1e-4, 1e-2)  # W
V_RANGE = (5.0, 40.0)   # m/s
# The stream draws from a GRID x GRID grid of equal-probability cells over
# (ln p_max, v_max), sorted by normalized budget, stepping by the golden ratio.
GRID = 128
GOLDEN_STEP = 0.6180339887498949  # 1/phi

# Scenario defaults of the command line, restated here so the benchmark's
# inputs do not move when the package's defaults do.
W_TOT = 1.76e9
WAVELENGTH = 5e-3
N0 = 10.0 ** (-174.0 / 10.0 - 3.0)  # -174 dBm/Hz in W/Hz
DELTA_S = 1e-5
DISTANCE = 10.0
XI = 1.0

POWER_TIGHT_RTOL = 1e-6
OPTIMIZER_TOL = 1e-10  # optimize_design's default bisection tolerance

CLI_COMMANDS = (
    ("optimize", ["optimize"]),
    ("optimize-json", ["optimize", "--json"]),
    ("sweep-power", ["sweep", "--out", "{out}"]),
    ("sweep-speed", ["sweep", "--axis", "speed", "--out", "{out}"]),
    ("baseline", ["baseline"]),
)

VERIFY_HEADER = "check_name,n_cases,n_failures,worst_residual"
VERIFY_CHECKS = (
    "closed_vs_numeric_rate",
    "closed_vs_numeric_power",
    "jensen_waterfilling",
    "sweep_coverage",
    "post_sweep_width",
    "slope_sign",
    "slope_boundaries",
)
FAULT_ARGS = ["--perturb-closed-form", "1e-3"]


@dataclass(frozen=True)
class Op:
    """One operation of a workload; ``index`` is its position in the stream."""

    index: int
    kind: str
    arg: object


@dataclass
class Workload:
    name: str
    ops: Callable[[int], Iterator[Op]]       # seed -> endless op stream
    run: Callable[[Op], object]              # the timed call
    check: Callable[[Op, object], str | None]  # None when the output is right
    group: int                               # ops are run in whole groups
    # Untimed calls made once per run before timing, which also warm up;
    # each returns an error message or None.
    preflight: Callable[[int], list[str | None]]


class Failed:
    """Output of an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()

    def __repr__(self) -> str:
        return f"raised {self.text}"


def call(fn, *args):
    """Run ``fn``, turning an exception (argparse exits too) into ``Failed``."""
    try:
        return fn(*args)
    except (Exception, SystemExit) as exc:
        return Failed(exc)


def first_difference(expected: bytes, actual: bytes) -> str | None:
    """Describe the first byte where two outputs differ, or None if equal."""
    if expected == actual:
        return None
    n = min(len(expected), len(actual))
    i = next((k for k in range(n) if expected[k] != actual[k]), n)
    return (
        f"differs at byte {i} (expected {expected[i:i + 20]!r}, "
        f"got {actual[i:i + 20]!r}; lengths {len(expected)} vs {len(actual)})"
    )


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """``cli.main(argv)`` with stdout captured; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue().encode()


# ---------------------------------------------------------------------------
# design-stream
# ---------------------------------------------------------------------------


def scenario(p_max: float, v_max: float) -> SystemParams:
    return SystemParams(
        w_tot=W_TOT, wavelength=WAVELENGTH, n0=N0, delta_s=DELTA_S,
        d=DISTANCE, xi=XI, phi=2.0 * v_max, p_max=p_max,
    )


# SNR per unit power and beamwidth: wavelength^2 xi / (8 pi d^2 N0 W).
GAMMA = WAVELENGTH**2 * XI / (8.0 * math.pi * DISTANCE**2 * N0 * W_TOT)


def norm_budget(p_max: float, v_max: float) -> float:
    """Normalized power budget d*gamma*p_max/(delta_s*phi), computed here."""
    return DISTANCE * GAMMA * p_max / (DELTA_S * 2.0 * v_max)


def min_upsilon(n_beams: int) -> float:
    """Smallest trigger width, in units of delta_s*phi, that n_beams can sweep.

    Below the first bound the sweep does not shrink the uncertainty; below
    the second the first beam has negative width.
    """
    n = float(n_beams)
    return max((n * n / 2.0 + 1.5 * n - 1.0) / (n - 1.0), 0.5 * (n - 1.0) * (n - 2.0))


def cycle_avg_power(v_max: float, n_beams: int, u_th: float, rho: float) -> float:
    """Average power of a cycle, integrated here from its geometry.

    The sweep takes n_beams microslots of delta_s at no data power and
    leaves the uncertainty width at u_comm. The width then grows at phi
    back to u_th, while water-filling sends (rho - u/(d*gamma))+ at width u.
    """
    n, phi = float(n_beams), 2.0 * v_max
    step = DELTA_S * phi
    u_comm = u_th / n + n * step - step * (n - 1.0) * (n - 2.0) / (2.0 * n)
    level = DISTANCE * GAMMA * rho  # the width at which the power reaches 0
    energy = (max(level - u_comm, 0.0) ** 2 - max(level - u_th, 0.0) ** 2) / (
        2.0 * DISTANCE * GAMMA * phi
    )
    return energy / (n * DELTA_S + (u_th - u_comm) / phi)


def max_beam_count(p_hat: float) -> int:
    """Largest feasible beam count at normalized budget ``p_hat``.

    2..4 beams are feasible at any budget; n >= 5 beams need
    (n^2-5n+2)^2 / (2(n^2-4n+2)), which grows with n.
    """
    n = 4
    while True:
        m = float(n + 1)
        if 0.5 * (m * m - 5.0 * m + 2.0) ** 2 / (m * m - 4.0 * m + 2.0) > p_hat:
            return n
        n += 1


def design_requests(seed: int) -> Iterator[Op]:
    """Endless stream of (p_max, v_max) requests.

    A request's cost is set by its normalized budget, which grows with
    p_max/v_max, so independent draws would give each seed a different mix
    of cheap and expensive requests. The stream instead sorts the cells of
    an equal-probability grid over (ln p_max, v_max) by budget and visits
    them along the golden-ratio sequence, shifted at random by the seed:
    every stretch of requests then spans the budget quantiles evenly. Each
    request lies at a seeded random point of its cell.
    """
    rng = random.Random(f"design-stream:{seed}")
    a, b = math.log(P_RANGE[0]), math.log(P_RANGE[1])
    v0, v1 = V_RANGE

    def log_budget(cell):  # up to a constant
        i, k = cell
        return (b - a) * (i + 0.5) / GRID - math.log(v0 + (v1 - v0) * (k + 0.5) / GRID)

    # Sorted here rather than in the generator, so no timed request pays for it.
    cells = sorted(itertools.product(range(GRID), repeat=2), key=log_budget)
    u0 = rng.random()

    def stream() -> Iterator[Op]:
        for j in itertools.count():
            i, k = cells[int((u0 + j * GOLDEN_STEP) % 1.0 * len(cells))]
            p_max = math.exp(a + (b - a) * (i + rng.random()) / GRID)
            v_max = v0 + (v1 - v0) * (k + rng.random()) / GRID
            yield Op(j, "design", (p_max, v_max))

    return stream()


def _run_design(op: Op):
    p_max, v_max = op.arg
    return optimize.optimize_design(scenario(p_max, v_max))


def _design_warmup(seed: int) -> list[str | None]:
    op = Op(-1, "design", (1e-3, 20.0))
    return [make_design_check(seed)(op, call(_run_design, op))]


def make_design_check(seed: int) -> Callable[[Op, object], str | None]:
    reference = json.loads(DESIGN_REFERENCE.read_text())["seeds"].get(str(seed), [])

    def check(op: Op, design) -> str | None:
        if isinstance(design, Failed):
            return repr(design)
        p_max, v_max = op.arg
        n_hi = max_beam_count(norm_budget(p_max, v_max))
        if not 2 <= design.n_beams <= n_hi:
            return f"n_beams {design.n_beams} outside [2, {n_hi}]"
        if not design.upsilon >= min_upsilon(design.n_beams):
            return f"upsilon {design.upsilon!r} infeasible for {design.n_beams} beams"
        power = cycle_avg_power(v_max, design.n_beams, design.u_th, design.rho)
        for name, value in (("recomputed", power), ("reported", design.avg_power)):
            if not abs(value - p_max) <= POWER_TIGHT_RTOL * p_max:
                return f"power constraint not tight: {name} avg_power {value!r} vs p_max {p_max!r}"
        if 0 <= op.index < len(reference):
            ref_p, ref_v, ref_n, ref_ups = reference[op.index]
            if (ref_p, ref_v) != (p_max, v_max):
                return f"request {op.index} is not the reference input"
            if design.n_beams != ref_n:
                return f"n_beams {design.n_beams} != reference {ref_n}"
            if not abs(design.upsilon - ref_ups) <= OPTIMIZER_TOL * ref_ups:
                return f"upsilon {design.upsilon!r} != reference {ref_ups!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------


def verify_seeds(seed: int) -> Iterator[int]:
    rng = random.Random(f"verify-suites:{seed}")
    while True:
        yield rng.randrange(2**31)


def verify_ops(seed: int) -> Iterator[Op]:
    for j, s in enumerate(verify_seeds(seed)):
        yield Op(j, "verify", s)


def _run_verify(op: Op):
    return run_cli(["verify", "--seed", str(op.arg)])


def check_verify_report(report: bytes) -> str | None:
    """A report passes only if every known check ran cases and none failed."""
    lines = report.decode().splitlines()
    if not lines or lines[0] != VERIFY_HEADER:
        return f"unexpected report header {lines[:1]!r}"
    seen = set()
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 4 or not (fields[1].isdigit() and fields[2].isdigit()):
            return f"malformed report row {line!r}"
        name, n_cases, n_failures, _ = fields
        seen.add(name)
        if int(n_cases) == 0:
            return f"{name} ran zero cases"
        if int(n_failures) > 0:
            return f"{name} failed {n_failures} of {n_cases} cases"
    missing = [name for name in VERIFY_CHECKS if name not in seen]
    return f"report lacks {missing}" if missing else None


def _check_verify(op: Op, output) -> str | None:
    if isinstance(output, Failed):
        return repr(output)
    rc, report = output
    if rc != 0:
        return f"verify exited {rc}"
    return check_verify_report(report)


def _verify_fault_injection(seed: int) -> list[str | None]:
    """A fault-injected verify must exit 1, or the oracle cannot fail."""
    s = next(verify_seeds(seed))
    out = call(run_cli, ["verify", "--seed", str(s), *FAULT_ARGS])
    if isinstance(out, Failed):
        return [f"fault-injected verify {out!r}"]
    rc, _ = out
    return [None if rc == 1 else f"fault-injected verify exited {rc}, expected 1"]


# ---------------------------------------------------------------------------
# cli-defaults
# ---------------------------------------------------------------------------


def cli_ops(seed: int) -> Iterator[Op]:
    """The five default commands in turn; the seed plays no part."""
    j = 0
    while True:
        for key, argv in CLI_COMMANDS:
            yield Op(j, key, argv)
            j += 1


def make_cli_runner(out_dir: Path) -> Callable[[Op], object]:
    def run(op: Op):
        out_file = out_dir / f"{op.kind}.csv"
        argv = [a.format(out=out_file) for a in op.arg]
        rc, stdout = run_cli(argv)
        csv = None
        if "--out" in op.arg:
            csv = out_file.read_bytes()
            out_file.unlink()
        return rc, stdout, csv

    return run


def _cli_warmup(seed: int) -> list[str | None]:
    op = Op(-1, *CLI_COMMANDS[0])
    return [_check_cli(op, call(make_cli_runner(Path()), op))]


def golden_paths(kind: str) -> tuple[Path, Path]:
    return GOLDEN_DIR / "cli" / f"{kind}.stdout", GOLDEN_DIR / "cli" / f"{kind}.csv"


def _check_cli(op: Op, output) -> str | None:
    if isinstance(output, Failed):
        return repr(output)
    rc, stdout, csv = output
    if rc != 0:
        return f"{op.kind} exited {rc}"
    stdout_golden, csv_golden = golden_paths(op.kind)
    diff = first_difference(stdout_golden.read_bytes(), stdout)
    if diff:
        return f"{op.kind} stdout {diff}"
    if csv is not None:
        diff = first_difference(csv_golden.read_bytes(), csv)
        if diff:
            return f"{op.kind} csv {diff}"
    return None


# ---------------------------------------------------------------------------


def make(name: str, seed: int, scratch: Path) -> Workload:
    """Build workload ``name``; ``scratch`` receives command output files."""
    if name == "design-stream":
        return Workload(
            name, design_requests, _run_design, make_design_check(seed), 1, _design_warmup
        )
    if name == "verify-suites":
        return Workload(
            name, verify_ops, _run_verify, _check_verify, 1, _verify_fault_injection
        )
    if name == "cli-defaults":
        return Workload(
            name, cli_ops, make_cli_runner(scratch), _check_cli, len(CLI_COMMANDS), _cli_warmup
        )
    raise ValueError(f"unknown workload {name!r}")
