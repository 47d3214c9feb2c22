"""Command-line interface: optimize, sweep, verify, baseline.

Configuration is a flat ``key = value`` text file whose keys match the
SystemParams fields (``lambda`` is accepted for the wavelength); every
flag is named after the key it overrides, and a flag wins over the file.
The noise PSD is taken in dBm/Hz on this interface and converted to W/Hz
internally. The sweep axis for speed is ``v_max`` with ``phi = 2 * v_max``
(symmetric speeds, zero drift).

Exit codes: 0 success, 1 verification failures, 2 infeasible problem or
invalid input (including a power sweep whose spectral efficiency does not
strictly increase), 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections import namedtuple

from . import __version__
from .baseline import BaselineConfig, comm_fraction, power_for_avg, rate_and_power
from .optimize import OptimalDesign, optimize_design
from .params import SystemParams
from .sweep import FeasibilityError, cycle_duration, validate_small_angle

# Scenario defaults; phi follows v_max unless set explicitly, and n0 is in
# dBm/Hz at this boundary.
DEFAULTS = {
    "w_tot": 1.76e9,    # Hz
    "lambda": 5e-3,     # m (60 GHz carrier)
    "n0": -174.0,       # dBm/Hz
    "delta_s": 1e-5,    # s
    "d": 10.0,          # m
    "xi": 1.0,
    "vmax": 20.0,       # m/s
    "p_max": 1e-3,      # W
}

_CONFIG_KEYS = set(DEFAULTS) | {
    "phi",
    "wavelength",
    "axis",
    "values",
    "out",
    "seed",
    "beamwidth_deg",
    "pt",
}

_POWER_GRID = tuple(1e-4 * 10 ** (i / 4.0) for i in range(9))  # 1e-4 .. 1e-2 W
_SPEED_GRID = tuple(float(v) for v in range(5, 41, 5))         # m/s


def dbm_per_hz_to_w_per_hz(n0_dbm: float) -> float:
    try:
        return 10.0 ** (n0_dbm / 10.0 - 3.0)
    except OverflowError:
        raise ValueError(f"n0 = {n0_dbm!r} dBm/Hz is past the float range in W/Hz") from None


class RunConfig(
    namedtuple("RunConfig", "params sweep_axis axis_values beamwidth_deg p_t output_path seed")
):
    """Everything one CLI invocation needs.

    ``beamwidth_deg`` and ``p_t`` set the fixed-beam baseline; a ``p_t``
    of None matches the budget, and an ``output_path`` of None is stdout.
    """

    __slots__ = ()


def _parse_config_file(path: str) -> dict:
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            convert = {"axis": str, "values": str, "out": str, "seed": int}.get(key, float)
            try:
                values[key] = convert(val)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _parse_values(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ValueError(f"bad --values list {text!r}") from exc
    if not values:
        raise ValueError("--values must list at least one number")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"--values must be strictly increasing, got {text!r}")
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags."""
    cfg = dict(DEFAULTS)
    if args.config:
        cfg.update(_parse_config_file(args.config))
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag

    if args.command == "verify":
        # No verification suite reads the budget, so a config file's
        # p_max, legal for optimize or not, must not stop verify.
        cfg["p_max"] = DEFAULTS["p_max"]
    elif args.command == "optimize" and cfg["p_max"] == 0.0:
        # optimize reports every effectively zero budget as the zero-rate
        # design (see optimize_design). SystemParams holds positive budgets
        # only, so zero becomes the smallest one, which that branch takes.
        cfg["p_max"] = math.ulp(0.0)
    phi = cfg.get("phi", 2.0 * cfg["vmax"])
    params = SystemParams(
        w_tot=cfg["w_tot"],
        wavelength=cfg.get("wavelength", cfg["lambda"]),
        n0=dbm_per_hz_to_w_per_hz(cfg["n0"]),
        delta_s=cfg["delta_s"],
        d=cfg["d"],
        xi=cfg["xi"],
        phi=phi,
        p_max=cfg["p_max"],
    )
    axis = cfg.get("axis", "power")
    if axis not in ("power", "speed"):
        raise ValueError(f"axis must be 'power' or 'speed', got {axis!r}")
    if "values" in cfg:
        values = _parse_values(cfg["values"])
    else:
        values = _POWER_GRID if axis == "power" else _SPEED_GRID
    return RunConfig(
        params=params,
        sweep_axis=axis,
        axis_values=values,
        beamwidth_deg=cfg.get("beamwidth_deg", 7.0),
        p_t=cfg.get("pt"),
        output_path=cfg.get("out"),
        seed=cfg.get("seed", 0),
    )


def _cell(value) -> str:
    """One value as written to stdout and CSV: floats to 12 significant digits."""
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _csv(rows: list[dict]) -> str:
    """Header from the first row's keys, then one line per row."""
    lines = [",".join(rows[0])]
    lines += [",".join(_cell(value) for value in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _emit(config: RunConfig, record: dict, as_json: bool) -> int:
    """Print one record as text or JSON, and as a one-row CSV with --out."""
    if as_json:
        # Imported here so that only --json output loads json.
        import json

        print(json.dumps(record, indent=2))
    else:
        for key, value in record.items():
            print(f"{key}: {_cell(value)}")
    if config.output_path:
        _write_text(config.output_path, _csv([record]))
    return 0


def _design_record(config: RunConfig, design: OptimalDesign) -> dict:
    params = config.params
    return {
        "n_beams": design.n_beams,
        "upsilon": design.upsilon,
        "zeta": design.zeta,
        "u_th_m": design.u_th,
        "rho": design.rho,
        "t_cycle_s": cycle_duration(params, design.u_th, design.n_beams),
        "spectral_efficiency_bit_s_hz": design.avg_rate / params.w_tot,
        "avg_rate_bit_s": design.avg_rate,
        "avg_power": design.avg_power,
    }


def cmd_optimize(config: RunConfig, as_json: bool) -> int:
    design = optimize_design(config.params)
    if not design.per_beam_count:
        print(
            "warning: power budget is effectively zero; reporting the "
            "degenerate zero-rate design",
            file=sys.stderr,
        )
    else:
        for warning in validate_small_angle(config.params, design.u_th):
            print(f"warning: {warning}", file=sys.stderr)
    return _emit(config, _design_record(config, design), as_json)


def _matched_baseline(params: SystemParams, beamwidth_deg: float) -> BaselineConfig:
    """The fixed-beam scheme at ``params``' speed, spending its average power budget."""
    cfg = BaselineConfig(beamwidth_deg=beamwidth_deg)
    return cfg._replace(p_t=power_for_avg(params, cfg, params.p_max))


def _sweep_point(config: RunConfig, value: float) -> dict:
    if config.sweep_axis == "power":
        point_params = config.params._replace(p_max=value)
    else:
        point_params = config.params._replace(phi=2.0 * value)
    design = optimize_design(point_params)
    rate_11ad, _ = rate_and_power(
        point_params, _matched_baseline(point_params, config.beamwidth_deg)
    )
    return {
        "axis_value": value,
        "se_proposed": design.avg_rate / point_params.w_tot,
        "se_11ad": rate_11ad / point_params.w_tot,
        "eta_star": design.n_beams,
        "u_th_star_m": design.u_th,
        "p_bar": design.avg_power,
    }


def cmd_sweep(config: RunConfig) -> int:
    rows = [_sweep_point(config, value) for value in config.axis_values]
    if config.sweep_axis == "power":
        se = [row["se_proposed"] for row in rows]
        equal = [a for a, b in zip(se, se[1:]) if b <= a]
        if equal:
            # Budgets closer together than the optimizer's tolerance give
            # equal efficiencies, and so do effectively zero budgets (the
            # zero-rate design), so the grid is rejected as invalid input.
            cause = (
                "effectively zero --values all give the zero-rate design"
                if 0.0 in equal
                else "--values closer than the optimizer's tolerance cannot be told apart"
            )
            raise ValueError(
                "spectral efficiency is not strictly increasing along the "
                f"power axis: {se}; {cause}"
            )
    _write_text(config.output_path, _csv(rows))
    return 0


def cmd_verify(config: RunConfig, args: argparse.Namespace) -> int:
    if config.seed < 0:
        raise ValueError(f"seed must be nonnegative, got {config.seed}")
    if not math.isfinite(args.perturb_closed_form):
        raise ValueError(
            f"--perturb-closed-form must be finite, got {args.perturb_closed_form}"
        )
    # Imported here so that the other commands never load numpy.
    from .validation import run_all

    results = run_all(
        config.params, seed=config.seed, perturb_closed_form=args.perturb_closed_form
    )
    _write_text(config.output_path, _csv([r._asdict() for r in results]))
    return 0 if all(r.passed for r in results) else 1


def cmd_baseline(config: RunConfig, as_json: bool) -> int:
    params = config.params
    if config.p_t is None:
        cfg = _matched_baseline(params, config.beamwidth_deg)
    else:
        cfg = BaselineConfig(beamwidth_deg=config.beamwidth_deg, p_t=config.p_t)
    rate, p_bar = rate_and_power(params, cfg)
    record = {
        "beamwidth_deg": cfg.beamwidth_deg,
        "v_max_m_s": params.phi / 2.0,
        "p_t": cfg.p_t,
        "f_comm": comm_fraction(params, cfg),
        "spectral_efficiency_bit_s_hz": rate / params.w_tot,
        "avg_rate_bit_s": rate,
        "avg_power": p_bar,
    }
    return _emit(config, record, as_json)


# Parsing leaves the tree as it was, so a process builds it once.
@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    # Each flag's dest is the config key it overrides.
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key = value config file")
    shared.add_argument("--phi", type=float, help="speed uncertainty v_max - v_min, m/s")
    shared.add_argument("--vmax", type=float, help="worst-case speed, m/s (phi = 2*vmax)")
    shared.add_argument("--out", help="output file path (default: stdout)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--pmax", type=float, dest="p_max", help="average power budget")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="machine-readable output")

    parser = argparse.ArgumentParser(
        prog="beamcycle",
        description="Design and verify beam-sweeping / data-communication cycles",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "optimize", parents=[shared, budget, as_json], help="rate-maximal cycle design"
    )

    sweep = sub.add_parser("sweep", parents=[shared, budget], help="grid sweep to CSV")
    sweep.add_argument("--axis", choices=("power", "speed"), help="sweep axis")
    sweep.add_argument("--values", help="comma-separated, strictly increasing grid")

    verify = sub.add_parser("verify", parents=[shared], help="run verification suites")
    verify.add_argument("--seed", type=int, help="master seed for randomized checks")
    verify.add_argument(
        "--perturb-closed-form",
        type=float,
        default=0.0,
        help="inject a relative error into the closed forms (self-test)",
    )

    baseline = sub.add_parser(
        "baseline", parents=[shared, budget, as_json], help="fixed-beam comparison point"
    )
    baseline.add_argument("--beamwidth-deg", type=float, dest="beamwidth_deg")
    baseline.add_argument("--pt", type=float, help="constant transmit power")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        config = _build_config(args)
        if args.command == "optimize":
            return cmd_optimize(config, args.json)
        if args.command == "sweep":
            return cmd_sweep(config)
        if args.command == "verify":
            return cmd_verify(config, args)
        return cmd_baseline(config, args.json)
    except FeasibilityError as exc:
        print(f"error: infeasible problem: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
