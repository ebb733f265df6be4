"""Generic parameter sweeps over the exposed closed-form quantities.

A sweep is described by a JSON document:

    {
      "axis": {"name": "alpha", "start": 0.0, "stop": 4.0, "steps": 401},
      "quantities": ["concurrence_odd", "concurrence_even"],
      "fixed": {"alpha": 1.0, "eta": 0.9, "theta": 3.141592653589793,
                "m": 5, "parity": "odd", "sides": "one"},
      "epsilon": 0.001,
      "out": "sweep.csv",
      "figure": null
    }

If "figure" is set the sweep delegates to the corresponding figure builder.
When the axis is `alpha`, each quantity additionally gets an `alpha_star_*`
column holding the first grid alpha at which the quantity drops below
epsilon after having been at or above it ("none" when that never happens).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .formulas import (
    ChannelParams,
    concurrence_m,
    concurrence_pure,
    damped_concurrence_bound,
    damped_state_elements,
    ghz_concurrence_limit,
    ghz_damped_elements,
    phase_flip_prob,
    phase_flip_prob_limit,
    phase_flip_prob_m,
)
from .logical import xstate_concurrence

AXES = ("alpha", "eta", "theta")

DEFAULT_QUANTITIES = ("concurrence_odd", "concurrence_even")


def _q_pure_concurrence(p: ChannelParams) -> float:
    if p.alpha == 0.0 and math.cos(p.theta) == -1.0:
        return 0.0
    return concurrence_pure(p.alpha, p.theta)


def _q_phase_flip(p: ChannelParams) -> float:
    return phase_flip_prob_limit(p.eta) if p.alpha == 0.0 else phase_flip_prob(p.alpha, p.eta)


def _q_phase_flip_m(p: ChannelParams) -> float:
    return (
        phase_flip_prob_limit(p.eta)
        if p.alpha == 0.0
        else phase_flip_prob_m(p.alpha, p.eta, p.m)
    )


def _q_conc_odd(p: ChannelParams) -> float:
    return concurrence_m(p.alpha, p.eta, p.m, "odd")


def _q_conc_even(p: ChannelParams) -> float:
    return concurrence_m(p.alpha, p.eta, p.m, "even")


def _q_ghz_concurrence(p: ChannelParams) -> float:
    return xstate_concurrence(ghz_damped_elements(p.alpha, p.eta, p.sides))


def _q_damped_concurrence(p: ChannelParams) -> float:
    if p.alpha == 0.0:
        return 0.0
    return xstate_concurrence(damped_state_elements(p.alpha, p.eta, p.theta, p.sides))


def _q_bound(p: ChannelParams) -> float:
    if p.alpha == 0.0:
        pure = 1.0 if math.cos(p.theta) == -1.0 else concurrence_pure(0.0, p.theta)
        return ghz_concurrence_limit(p.eta, p.sides) * pure
    return damped_concurrence_bound(p.alpha, p.eta, p.theta, p.sides)


QUANTITIES = {
    "pure_concurrence": _q_pure_concurrence,
    "phase_flip_prob": _q_phase_flip,
    "phase_flip_prob_m": _q_phase_flip_m,
    "concurrence_odd": _q_conc_odd,
    "concurrence_even": _q_conc_even,
    "ghz_concurrence": _q_ghz_concurrence,
    "damped_concurrence": _q_damped_concurrence,
    "concurrence_bound": _q_bound,
}


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
        if self.axis_name not in AXES:
            raise ConfigError(f"axis.name: expected one of {AXES}, got {self.axis_name!r}")
        if self.steps < 1:
            raise ConfigError(f"axis.steps: must be >= 1, got {self.steps}")
        if self.stop < self.start:
            raise ConfigError("axis.stop: must be >= axis.start")
        if self.epsilon < 0:
            raise ConfigError("epsilon: must be nonnegative")
        for q in self.quantities:
            if q not in QUANTITIES:
                raise ConfigError(
                    f"quantities: unknown quantity {q!r} "
                    f"(available: {', '.join(sorted(QUANTITIES))})"
                )
        if not self.quantities:
            raise ConfigError("quantities: must not be empty")
        if self.figure is not None and not 1 <= self.figure <= 6:
            raise ConfigError(f"figure: expected 1..6, got {self.figure}")


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
    kwargs = {}
    axis = raw.get("axis", {})
    if not isinstance(axis, dict):
        raise ConfigError(f"{source}: axis must be an object")
    if "name" in axis:
        kwargs["axis_name"] = axis["name"]
    for src, dst in (("start", "start"), ("stop", "stop"), ("steps", "steps")):
        if src in axis:
            kwargs[dst] = axis[src]
    if "quantities" in raw:
        if not isinstance(raw["quantities"], list):
            raise ConfigError(f"{source}: quantities must be a list")
        kwargs["quantities"] = tuple(raw["quantities"])
    fixed_raw = raw.get("fixed", {})
    if not isinstance(fixed_raw, dict):
        raise ConfigError(f"{source}: fixed must be an object")
    try:
        kwargs["fixed"] = replace(ChannelParams(eta=0.9, m=5), **fixed_raw)
    except TypeError as exc:
        raise ConfigError(f"{source}: fixed: {exc}")
    except ValueError as exc:
        raise ConfigError(f"{source}: fixed: {exc}")
    if "epsilon" in raw:
        kwargs["epsilon"] = raw["epsilon"]
    if "out" in raw:
        kwargs["out"] = raw["out"]
    if "figure" in raw and raw["figure"] is not None:
        kwargs["figure"] = raw["figure"]
    return SweepConfig(**kwargs)


def run_sweep(config: SweepConfig):
    """Evaluate the configured quantities over the grid.

    Returns (header, rows); rows carry the axis value, one column per
    quantity, and (for alpha sweeps) one constant alpha_star column per
    quantity.
    """
    grid = [float(v) for v in np.linspace(config.start, config.stop, config.steps)]
    columns: dict[str, list[float]] = {q: [] for q in config.quantities}
    for value in grid:
        params = replace(config.fixed, **{config.axis_name: value})
        for q in config.quantities:
            try:
                columns[q].append(QUANTITIES[q](params))
            except ValueError as exc:
                raise ConfigError(
                    f"quantity {q!r} undefined at {config.axis_name} = {value}: {exc}"
                )
    header = [config.axis_name] + list(config.quantities)
    stars: list[str] = []
    if config.axis_name == "alpha":
        for q in config.quantities:
            star = vanishing_point(grid, columns[q], config.epsilon)
            stars.append("none" if star is None else repr(float(star)))
        header += [f"alpha_star_{q}" for q in config.quantities]
    rows = []
    for i, value in enumerate(grid):
        row: list = [value] + [columns[q][i] for q in config.quantities]
        row += stars
        rows.append(row)
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
