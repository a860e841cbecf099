"""Command-line entry point: simulation runs, verification cases, sweeps.

The CLI is a thin shell over the module APIs; every behavior it exposes is
reachable programmatically.  Exit codes: 0 success, 2 configuration or
usage error, 3 numerical failure.  The environment variable CCMSIM_LOG
(error | info | debug) controls log verbosity.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

from . import meshgen, verify
from .driver import _float, _tags, check_values, load_config, output_path, run
from .errors import ConfigError, NumericalError

__all__ = ["main"]

log = logging.getLogger(__name__)


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("CCMSIM_LOG", "error").strip().lower()
    if name not in levels:
        raise ConfigError(f"CCMSIM_LOG: must be one of {sorted(levels)}, got {name!r}")
    logging.basicConfig(level=levels[name],
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccmsim",
        description="Close-contact-melting simulator: sliding-mesh space-time "
                    "heat solver coupled to analytical melt-film closures.")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="execute a simulation from a config file")
    p_run.add_argument("--config", required=True, help="INI configuration file")
    p_run.add_argument("--out", help="override the configured output directory")

    p_ver = sub.add_parser("verify", help="run a built-in verification case")
    p_ver.add_argument("case", choices=("cbf", "meshupdate"))
    p_ver.add_argument("--h", type=float, required=True, help="grid size")
    p_ver.add_argument("--dt", type=float,
                       help="time step (default 0.05 for cbf, 1.0 for meshupdate)")
    p_ver.add_argument("--steps", type=int, help="number of steps (default 20)")
    p_ver.add_argument("--out", required=True, help="output directory")

    p_sw = sub.add_parser("sweep", help="run a config once per swept value")
    p_sw.add_argument("--config", required=True)
    p_sw.add_argument("--key", required=True,
                      help="swept key: source.q_h (values in bulk watts, "
                           "converted via [source] tip_area) or source.T_w (K)")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.add_argument("--out", required=True, help="parent output directory")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    report = run(cfg)
    s = report.summary
    print(f"run complete: {len(report.records)} steps, "
          f"final displacement {s.final_displacement:.6g} m, "
          f"mean velocity (last 10%) {s.mean_velocity_last_10pct:.6g} m/s")
    return 0


def _verify_options(args) -> dict:
    """The given ``--dt``/``--steps`` as case keywords, after checking them
    and ``--h``; unset options keep each case's own defaults."""
    least = meshgen.STRIP_MIN_ROWS if args.case == "meshupdate" else 1
    try:
        verify.grid_cells(args.h, least)
    except ValueError as exc:
        raise ConfigError(f"--h: {exc}") from exc
    if args.dt is not None and not (math.isfinite(args.dt) and args.dt > 0.0):
        raise ConfigError(f"--dt: must be a positive number, got {args.dt:g}")
    if args.steps is not None and args.steps < 1:
        raise ConfigError(f"--steps: must be at least 1, got {args.steps}")
    return {k: v for k, v in (("dt", args.dt), ("n_steps", args.steps)) if v is not None}


def _cmd_verify(args) -> int:
    given = _verify_options(args)
    path = output_path(args.out, f"{args.case}_errors.csv", "--out")
    if args.case == "cbf":
        table = verify.run_cbf_case(h=args.h, **given)
        print("h,dt,error,runtime")
        for h, dt, e, r in zip(table.h, table.dt, table.error, table.runtime):
            print(f"{h:g},{dt:g},{e:.6e},{r:.3f}")
    else:
        table = verify.meshupdate_convergence((args.h,), **given)
        print(f"max L2 error at h={args.h:g}: {table.error[0]:.6e}")
    table.to_csv(path)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        values = [_float(chunk) for chunk in _tags(args.values)]
    except ValueError as exc:
        raise ConfigError(f"--values: {exc}") from exc
    if not values:
        raise ConfigError("--values: no values given")

    for k, value in enumerate(values):
        cfg = load_config(args.config)
        if args.key == "source.q_h":
            if cfg.mode != "power":
                raise ConfigError("sweep over source.q_h needs mode = power")
            if cfg.tip_area is None:
                raise ConfigError("[source] tip_area: required to convert bulk "
                                  "watts to a flux for the q_h sweep")
            cfg.q_h = value / cfg.tip_area
            label = f"{value:g} W -> q_h = {cfg.q_h:.6g} W/m^2"
        elif args.key == "source.T_w":
            if cfg.mode != "temperature":
                raise ConfigError("sweep over source.T_w needs mode = temperature")
            cfg.T_w = value
            label = f"T_w = {value:g} K"
        else:
            raise ConfigError(f"--key: unsupported sweep key {args.key!r} "
                              "(supported: source.q_h, source.T_w)")
        check_values(cfg)
        cfg.out_dir = os.path.join(args.out, f"point_{k}")
        report = run(cfg)
        s = report.summary
        print(f"point {k}: {label}; final displacement "
              f"{s.final_displacement:.6g} m, mean velocity (last 10%) "
              f"{s.mean_velocity_last_10pct:.6g} m/s")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _setup_logging()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sweep(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
