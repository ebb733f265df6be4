"""Parameter sweeps: the one evaluation engine for the registered
quantities, behind both `catdamp sweep` and figures 2-6.

A sweep is described by a JSON document:

    {
      "axis": {"name": "alpha", "start": 0.0, "stop": 4.0, "steps": 401},
      "quantities": ["concurrence_odd", "concurrence_even"],
      "fixed": {"alpha": 1.0, "eta": 0.9, "theta": 3.141592653589793,
                "m": 5, "sides": "one"},
      "epsilon": 0.001,
      "out": "sweep.csv",
      "figure": null
    }

`run_sweep` evaluates columns over the axis grid.  A column is a registered
quantity at fixed parameters under a CSV label: a config gives one column
per quantity, at "fixed", labelled with the quantity's name; a figure's
`Preset` lists its own.  Every quantity, the exact ones too, is one call per
block of `BLOCK` axis points, with the block as an array argument; each
value equals the float call at that point bit for bit, and a quantity that
does not depend on the axis gives its one value at every point.  Values at
alpha = 0 are the limits the formulas return.  Parity is part of a
quantity's name (`concurrence_odd`, `concurrence_even`).

If "figure" is set, the CLI writes that figure instead (see
`figures.build_figure`).  When the axis is `alpha`, each quantity of a config
additionally gets an `alpha_star_*` column holding the first grid alpha at
which the quantity drops below epsilon after having been at or above it
("none" when that never happens).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real

import numpy as np

from .formulas import (
    ChannelParams,
    concurrence_m,
    concurrence_pure,
    damped_concurrence,
    damped_concurrence_bound,
    ghz_concurrence,
    phase_flip_prob,
    phase_flip_prob_m,
)

AXES = ("alpha", "eta", "theta")

DEFAULT_QUANTITIES = ("concurrence_odd", "concurrence_even")


# Grid points per quantity call.  Whole-grid calls on a 10^5-point sweep
# make 0.8 MB temporaries that fragment the heap (peak RSS 84 MB over 45
# sweeps, against 78 MB for per-point calls); 64 KB ones stay in cache.
BLOCK = 8192

# name -> f(alpha, eta, theta, fixed parameters): floats, or an array block
# of the axis for the parameter it names, and a float or an array back
QUANTITIES = {
    "pure_concurrence": lambda a, e, t, p: concurrence_pure(a, t),
    "phase_flip_prob": lambda a, e, t, p: phase_flip_prob(a, e),
    "phase_flip_prob_m": lambda a, e, t, p: phase_flip_prob_m(a, e, p.m),
    "concurrence_odd": lambda a, e, t, p: concurrence_m(a, e, p.m, "odd"),
    "concurrence_even": lambda a, e, t, p: concurrence_m(a, e, p.m, "even"),
    "ghz_concurrence": lambda a, e, t, p: ghz_concurrence(a, e, p.sides),
    "damped_concurrence": lambda a, e, t, p: damped_concurrence(a, e, t, p.sides),
    "concurrence_bound": lambda a, e, t, p: damped_concurrence_bound(a, e, t, p.sides),
}


def _evaluate(quantity: str, axis: str, grid: np.ndarray, p: ChannelParams) -> list[float]:
    """The quantity at each grid point as plain floats: one call per block of
    `BLOCK` points, the block as the axis argument and floats elsewhere."""
    values = []
    for start in range(0, len(grid), BLOCK):
        block = grid[start:start + BLOCK]
        # the axis entry replaces its fixed value in place, so the order holds
        args = {"alpha": p.alpha, "eta": p.eta, "theta": p.theta, axis: block}
        out = QUANTITIES[quantity](*args.values(), p)
        values += np.broadcast_to(out, block.shape).tolist()
    return values


@dataclass(frozen=True)
class Column:
    """One output column: a registered quantity at fixed parameters."""

    quantity: str
    fixed: ChannelParams
    label: str


@dataclass(frozen=True)
class Preset:
    """A figure as a sweep: its columns over the alpha grid [0, stop], with
    no alpha_star columns."""

    columns: tuple[Column, ...]
    stop: float
    steps: int
    axis_name = "alpha"
    start = 0.0
    stars = False

    def __post_init__(self):
        if not (self.steps >= 1 and 0.0 < self.stop < math.inf):
            raise ValueError("need a positive, finite grid")


class ConfigError(ValueError):
    """Sweep configuration problem; the message names the offending field."""


@dataclass(frozen=True)
class SweepConfig:
    axis_name: str = "alpha"
    start: float = 0.0
    stop: float = 4.0
    steps: int = 401
    quantities: tuple[str, ...] = DEFAULT_QUANTITIES
    fixed: ChannelParams = field(default_factory=lambda: ChannelParams(eta=0.9, m=5))
    epsilon: float = 1e-3
    out: str | None = None
    figure: int | None = None

    def __post_init__(self):
        number, integer, text = (Real, "a number"), (Integral, "an integer"), (str, "a string")
        text_or_null = ((str, type(None)), "a string or null")
        integer_or_null = ((Integral, type(None)), "an integer or null")
        for name, value, (kind, what) in (
            ("axis.start", self.start, number), ("axis.stop", self.stop, number),
            ("axis.steps", self.steps, integer), ("epsilon", self.epsilon, number),
            ("fixed.alpha", self.fixed.alpha, number), ("fixed.eta", self.fixed.eta, number),
            ("fixed.theta", self.fixed.theta, number), ("fixed.m", self.fixed.m, integer),
            ("fixed.sides", self.fixed.sides, text),
            ("out", self.out, text_or_null), ("figure", self.figure, integer_or_null),
        ):
            # JSON true/false arrive as bool, a subclass of int
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name}: must be {what}, got {value!r}")
        if isinstance(self.quantities, str) or not all(isinstance(q, str) for q in self.quantities):
            raise ConfigError(f"quantities: must be a list of names, got {self.quantities!r}")
        if self.axis_name not in AXES:
            raise ConfigError(f"axis.name: expected one of {AXES}, got {self.axis_name!r}")
        if self.steps < 1:
            raise ConfigError(f"axis.steps: must be >= 1, got {self.steps}")
        for end in ("start", "stop"):
            try:
                replace(self.fixed, **{self.axis_name: getattr(self, end)})
            except ValueError as exc:
                raise ConfigError(f"axis.{end}: {exc}")
        if self.stop < self.start:
            raise ConfigError("axis.stop: must be >= axis.start")
        if not self.epsilon >= 0:
            raise ConfigError(f"epsilon: must be nonnegative, got {self.epsilon!r}")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise ConfigError(f"quantities: unknown quantity {unknown[0]!r} "
                              f"(available: {', '.join(sorted(QUANTITIES))})")
        if not self.quantities:
            raise ConfigError("quantities: must not be empty")
        if self.figure is not None and not 1 <= self.figure <= 6:
            raise ConfigError(f"figure: expected 1..6, got {self.figure}")

    @property
    def columns(self) -> tuple[Column, ...]:
        return tuple(Column(q, self.fixed, q) for q in self.quantities)

    @property
    def stars(self) -> bool:
        return self.axis_name == "alpha"


def load_config(path: str) -> SweepConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}")
    return config_from_dict(raw, source=path)


def config_from_dict(raw: dict, source: str = "<config>") -> SweepConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    known = {"axis", "quantities", "fixed", "epsilon", "out", "figure"}
    for key in raw:
        if key not in known:
            raise ConfigError(f"{source}: unknown field {key!r}")
    axis = raw.get("axis", {})
    if not isinstance(axis, dict):
        raise ConfigError(f"{source}: axis must be an object")
    kwargs = {"axis_name" if k == "name" else k: axis[k]
              for k in ("name", "start", "stop", "steps") if k in axis}
    kwargs.update({k: raw[k] for k in ("epsilon", "out") if k in raw})
    if raw.get("figure") is not None:
        kwargs["figure"] = raw["figure"]
    if "quantities" in raw:
        if not isinstance(raw["quantities"], list):
            raise ConfigError(f"{source}: quantities must be a list")
        kwargs["quantities"] = tuple(raw["quantities"])
    fixed_raw = raw.get("fixed", {})
    if not isinstance(fixed_raw, dict):
        raise ConfigError(f"{source}: fixed must be an object")
    try:
        kwargs["fixed"] = replace(ChannelParams(eta=0.9, m=5), **fixed_raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: fixed: {exc}")
    return SweepConfig(**kwargs)


def run_sweep(config: SweepConfig | Preset):
    """Evaluate the columns of a config or a figure preset over its grid.

    Returns (header, rows); rows carry the axis value, one value per
    column, and (for configs on the alpha axis) one constant alpha_star
    column per quantity.
    """
    grid = np.linspace(config.start, config.stop, config.steps)
    columns = config.columns
    values = []
    for c in columns:
        try:
            values.append(_evaluate(c.quantity, config.axis_name, grid, c.fixed))
        except ValueError as exc:
            raise ConfigError(f"quantity {c.quantity!r} over {config.axis_name} "
                              f"[{config.start}, {config.stop}]: {exc}")
    # the rows carry the grid as plain floats; the array goes first, so it
    # does not add to the peak memory of the rows
    grid = grid.tolist()
    header = [config.axis_name] + [c.label for c in columns]
    stars: list[str] = []
    if config.stars:
        for c, column in zip(columns, values):
            star = vanishing_point(grid, column, config.epsilon)
            stars.append("none" if star is None else repr(float(star)))
        header += [f"alpha_star_{c.label}" for c in columns]
    rows = [[point, *row, *stars] for point, *row in zip(grid, *values)]
    return header, rows


def vanishing_point(grid, values, epsilon: float):
    """First grid point where the series drops below epsilon after having
    been at or above it; None if it never drops."""
    seen_above = False
    for x, v in zip(grid, values):
        if v >= epsilon:
            seen_above = True
        elif seen_above:
            return x
    return None
