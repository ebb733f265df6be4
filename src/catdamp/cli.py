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
from .figures import build_figure, figure_reads, write_csv
from .sweep import ConfigError, SweepConfig, load_config, run_sweep
from .validation import format_table, run_validation, write_report

USAGE_ERROR = 2


class _Once(argparse.Action):
    """A store that exits 2 on a repeat, where a plain one keeps the last."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error(f"{option_string} takes one value, got a second: {values!r}")
        setattr(namespace, self.dest, values)


# `fig` grid flags: the `build_figure` keyword each sets -> the flag and its
# options; a figure reads the keywords that `figure_reads` lists for it
FIG_FLAGS = {
    "alpha_max": ("--alpha-max", {"type": float,
                                  "help": "upper end of the field-amplitude grid (default 4)"}),
    "steps": ("--steps", {"type": int, "help": "number of grid points (default 401)"}),
    "etas": ("--eta", {"type": float, "action": "append", "metavar": "ETA",
                       "help": "transmissivity; repeat to set several"}),
    "modes": ("--m", {"type": int, "action": "append", "metavar": "M",
                      "help": "mode count; repeat to set several"}),
    "parities": ("--parity", {"choices": ["odd", "even", "both"],
                              "help": "which parity branch figures 5 and 6 emit"}),
    "sides": ("--sides", {"choices": ["one", "two", "both"],
                          "help": "which channel sidedness figure 3 emits"}),
}


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
    for keyword, (flag, options) in FIG_FLAGS.items():
        fig.add_argument(flag, dest=keyword, **options)
    fig.add_argument("--out", help="output CSV path (default figFIG.csv)")

    sweep = sub.add_parser("sweep", help="evaluate quantities over a parameter grid")
    sweep.add_argument("--config", help="JSON sweep configuration; the fields it omits "
                                        "take their defaults")
    sweep.add_argument("--alpha-max", type=float, help="upper end of the alpha axis")
    sweep.add_argument("--steps", type=int, help="number of grid points")
    sweep.add_argument("--eta", type=float, action=_Once, help="fixed transmissivity")
    sweep.add_argument("--m", type=int, action=_Once, help="fixed mode count")
    sweep.add_argument("--sides", choices=["one", "two"],
                       help="fixed channel sidedness of the damped-state quantities")
    sweep.add_argument("--epsilon", type=float, help="vanishing threshold of the alpha_star columns")
    sweep.add_argument("--out", help="output CSV path (default: the config's, else sweep.csv)")

    val = sub.add_parser("validate", help="run the cross-backend validation suite")
    val.add_argument("--seed", type=int, default=0, help="seed for the randomized checks")
    val.add_argument("--out", default="validation_report.json",
                     help="path of the JSON report")
    val.add_argument("--tolerance", action="append", default=[],
                     metavar="[NAME=]VALUE",
                     help="override a check tolerance (NAME=VALUE) or all of "
                          "them (bare VALUE); repeatable")
    return parser


def _fig_keywords(args) -> dict:
    """The `build_figure` keywords of the grid flags given.  Raises
    ConfigError for the first flag whose keyword the figure does not read,
    naming the figures that read it."""
    keywords = {}
    for keyword, (flag, _) in FIG_FLAGS.items():
        value = getattr(args, keyword)
        if value is None:
            continue
        if keyword not in figure_reads(args.figure):
            figures = [str(f) for f in range(1, 7) if keyword in figure_reads(f)]
            where = (f"figure {figures[0]}" if len(figures) == 1 else
                     f"figures {', '.join(figures[:-1])} and {figures[-1]}")
            raise ConfigError(f"{flag} applies only to {where}")
        if value != "both":  # else the figure's default, both branches
            keywords[keyword] = (value,) if isinstance(value, str) else value
    return keywords


def _with_flags(config: SweepConfig, args) -> SweepConfig:
    """The config with the flags given: --alpha-max, --steps, --epsilon and
    --out set its grid, threshold and output, --eta, --m and --sides its
    fixed parameters; --eta on the eta axis raises ConfigError."""
    if args.alpha_max is not None and config.axis_name != "alpha":
        raise ConfigError("--alpha-max applies only to alpha sweeps")
    if args.eta is not None and config.axis_name == "eta":
        raise ConfigError("--eta applies only to sweeps off the eta axis")
    overrides = {key: value for key, value in (("stop", args.alpha_max), ("steps", args.steps),
                                               ("epsilon", args.epsilon), ("out", args.out))
                 if value is not None}
    fixed = {key: value for key, value in (("eta", args.eta), ("m", args.m), ("sides", args.sides))
             if value is not None}
    if fixed:
        try:
            overrides["fixed"] = replace(config.fixed, **fixed)
        except ValueError as exc:
            raise ConfigError(f"fixed: {exc}")
    return replace(config, **overrides)


def _write(command: str, build, out: str) -> int:
    """Write the (header, table) that `build()` returns to out as CSV; exit
    2 when `build` raises ValueError or OverflowError, or out is not
    writable."""
    try:
        header, table = build()
    except (ValueError, OverflowError) as exc:
        print(f"catdamp {command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        write_csv(out, header, table)
    except OSError as exc:
        print(f"catdamp {command}: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {out} ({len(table)} rows)")
    return 0


def cmd_fig(args) -> int:
    return _write("fig", lambda: build_figure(args.figure, **_fig_keywords(args)),
                  args.out or f"fig{args.figure}.csv")


def cmd_sweep(args) -> int:
    try:
        config = _with_flags(load_config(args.config) if args.config else SweepConfig(), args)
    except ConfigError as exc:
        print(f"catdamp sweep: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return _write("sweep", lambda: run_sweep(config), config.out or "sweep.csv")


def _parse_tolerances(entries: list[str]):
    named: dict[str, float] = {}
    global_tol: float | None = None
    for entry in entries:
        name, eq, value = entry.partition("=")
        try:
            tol = float(value if eq else name)
        except ValueError:
            raise ValueError(f"bad tolerance override {entry!r}")
        if eq:
            named[name.strip()] = tol
        else:
            global_tol = tol
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
