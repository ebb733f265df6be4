"""Command-line interface: figure reproduction, parameter sweeps, and the
cross-backend validation suite.

Exit codes: 0 on success, 1 when validation fails, 2 on usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import __version__
from .figures import build_figure, write_csv
from .sweep import ConfigError, SweepConfig, load_config, run_sweep
from .validation import format_table, run_validation, write_report

USAGE_ERROR = 2


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha-max", type=float, default=None,
                        help="upper end of the field-amplitude grid (default 4)")
    parser.add_argument("--steps", type=int, default=None,
                        help="number of grid points (default 401)")
    parser.add_argument("--eta", type=float, action="append", default=None,
                        help="transmissivity; repeat to set several")
    parser.add_argument("--m", type=int, action="append", default=None,
                        help="mode count; repeat to set several")
    parser.add_argument("--parity", choices=["odd", "even", "both"], default=None,
                        help="which parity branch figures 5 and 6 emit")
    parser.add_argument("--sides", choices=["one", "two", "both"], default=None,
                        help="channel sidedness for damped-state quantities")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="vanishing threshold for alpha_star extraction")
    parser.add_argument("--seed", type=int, default=None,
                        help="accepted for interface uniformity; figure and "
                             "sweep outputs are deterministic regardless")
    parser.add_argument("--out", default=None, help="output CSV path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catdamp",
        description="entangled coherent states through photon-loss channels: "
                    "figure data, parameter sweeps, validation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("fig", help="write one figure's data as CSV")
    fig.add_argument("figure", type=int, choices=range(1, 7), metavar="FIG",
                     help="figure id, 1..6")
    _add_grid_flags(fig)

    sweep = sub.add_parser("sweep", help="evaluate quantities over a parameter grid")
    sweep.add_argument("--config", default=None, help="JSON sweep configuration")
    _add_grid_flags(sweep)

    val = sub.add_parser("validate", help="run the cross-backend validation suite")
    val.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    val.add_argument("--out", default="validation_report.json",
                     help="path of the JSON report")
    val.add_argument("--tolerance", action="append", default=[],
                     metavar="[NAME=]VALUE",
                     help="override a check tolerance (NAME=VALUE) or all of "
                          "them (bare VALUE); repeatable")
    return parser


def _one_or_both(flag: str | None):
    """A --sides or --parity value as `build_figure` takes it: one value,
    or None (the figure's default, both) for "both" or no flag."""
    return None if flag in (None, "both") else (flag,)


def _with_flags(config: SweepConfig, args) -> SweepConfig:
    """The config with the grid flags applied; --eta and --m set the fixed
    value to the last one given."""
    overrides = {}
    if args.alpha_max is not None:
        if config.axis_name != "alpha":
            raise ConfigError("--alpha-max applies only to alpha sweeps")
        overrides["stop"] = args.alpha_max
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.out is not None:
        overrides["out"] = args.out
    fixed_overrides = {}
    if args.eta is not None:
        fixed_overrides["eta"] = args.eta[-1]
    if args.m is not None:
        fixed_overrides["m"] = args.m[-1]
    if args.parity is not None and config.figure is None:
        raise ConfigError("--parity applies only to figures 5 and 6")
    if _one_or_both(args.sides):
        fixed_overrides["sides"] = args.sides
    if fixed_overrides:
        try:
            overrides["fixed"] = replace(config.fixed, **fixed_overrides)
        except ValueError as exc:
            raise ConfigError(f"fixed: {exc}")
    return replace(config, **overrides)


def _write_sweep(command: str, config: SweepConfig, args, default_out: str) -> int:
    """Apply the flags to the config, build its figure (every flag value of
    --eta and --m counts there) or its sweep, and write the CSV."""
    try:
        config = _with_flags(config, args)
        if config.figure is not None:
            header, rows = build_figure(
                config.figure, alpha_max=config.stop, steps=config.steps, etas=args.eta,
                modes=args.m, sides=_one_or_both(args.sides),
                parities=_one_or_both(args.parity),
            )
        else:
            header, rows = run_sweep(config)
    except (ValueError, OverflowError) as exc:
        print(f"catdamp {command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = config.out or default_out
    try:
        write_csv(out, header, rows)
    except OSError as exc:
        print(f"catdamp {command}: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


def cmd_fig(args) -> int:
    return _write_sweep("fig", SweepConfig(figure=args.figure), args, f"fig{args.figure}.csv")


def cmd_sweep(args) -> int:
    try:
        config = load_config(args.config) if args.config else SweepConfig()
    except ConfigError as exc:
        print(f"catdamp sweep: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return _write_sweep("sweep", config, args, "sweep.csv")


def _parse_tolerances(entries: list[str]):
    named: dict[str, float] = {}
    global_tol: float | None = None
    for entry in entries:
        if "=" in entry:
            name, _, value = entry.partition("=")
            try:
                named[name.strip()] = float(value)
            except ValueError:
                raise ValueError(f"bad tolerance override {entry!r}")
        else:
            try:
                global_tol = float(entry)
            except ValueError:
                raise ValueError(f"bad tolerance override {entry!r}")
    return named, global_tol


def cmd_validate(args) -> int:
    try:
        named, global_tol = _parse_tolerances(args.tolerance)
        results = run_validation(args.seed, named, global_tol)
    except (ValueError, OverflowError) as exc:
        print(f"catdamp validate: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(format_table(results))
    try:
        write_report(args.out, args.seed, results)
    except OSError as exc:
        print(f"catdamp validate: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    ok = all(r.passed for r in results)
    print(f"report: {args.out}")
    print(f"overall: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "fig":
        return cmd_fig(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    return cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
