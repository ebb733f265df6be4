"""Figure data generation: deterministic CSV tables for the standard plots.

Each builder returns (header, rows) with plain Python floats; `write_csv`
renders them with shortest round-trip decimal formatting so identical
parameters always produce byte-identical files.

Figure catalogue:

1. pure-state concurrence surface over (theta, p) with p the squared overlap
   of the two branch amplitudes;
2. phase-flip probability vs field amplitude for several transmissivities;
3. damped-GHZ X concurrence (the factor bounding the surviving entanglement)
   and the directly damped three-mode X concurrence, one- and two-sided,
   per transmissivity;
4. m-mode phase-flip probability for several mode counts at strong and weak
   transmissivity;
5. m-mode odd/even concurrence at transmissivity 0.9;
6. same as 5 at transmissivity 0.1.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .formulas import (
    _x_elements,
    concurrence_m,
    concurrence_pure,
    damped_state_projection,
    ghz_concurrence_limit,
    ghz_damped_elements,
    phase_flip_prob,
    phase_flip_prob_limit,
    phase_flip_prob_m,
)
from .logical import xstate_concurrence

ALPHA_MAX_DEFAULT = 4.0
ALPHA_STEPS_DEFAULT = 401
THETA_STEPS_DEFAULT = 181
P_STEPS_DEFAULT = 101

FIG2_ETAS = (0.3, 0.6, 0.9)
FIG3_ETAS = (0.3, 0.6, 0.9)
FIG4_ETAS = (0.99, 0.1)
MODE_COUNTS = (2, 5, 8)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _alpha_grid(alpha_max: float, steps: int) -> list[float]:
    if steps < 1 or alpha_max <= 0:
        raise ValueError("need a positive grid")
    return [float(a) for a in np.linspace(0.0, alpha_max, steps)]


def _eta_tag(eta: float) -> str:
    return format(eta, "g")


def fig1_rows(theta_steps: int = THETA_STEPS_DEFAULT, p_steps: int = P_STEPS_DEFAULT):
    """Surface C(theta, p) = (1 - p^2) / (1 + p^2 cos(theta)).

    At the single point p = 1, theta = pi the expression is 0/0 (the state
    itself vanishes there); the emitted value is 0, consistent with the rest
    of the p = 1 row.
    """
    header = ["theta", "p", "concurrence"]
    rows = []
    for theta in np.linspace(0.0, 2.0 * math.pi, theta_steps):
        ct = math.cos(float(theta))
        for p in np.linspace(0.0, 1.0, p_steps):
            p = float(p)
            den = 1.0 + p * p * ct
            value = 0.0 if den == 0.0 else (1.0 - p * p) / den
            rows.append([float(theta), p, value])
    return header, rows


def fig2_rows(alpha_max: float = ALPHA_MAX_DEFAULT, steps: int = ALPHA_STEPS_DEFAULT,
              etas: Sequence[float] = FIG2_ETAS):
    header = ["alpha"] + [f"pf_eta{_eta_tag(e)}" for e in etas]
    rows = []
    for a in _alpha_grid(alpha_max, steps):
        row = [a]
        for eta in etas:
            row.append(phase_flip_prob_limit(eta) if a == 0.0 else phase_flip_prob(a, eta))
        rows.append(row)
    return header, rows


def fig3_rows(alpha_max: float = ALPHA_MAX_DEFAULT, steps: int = ALPHA_STEPS_DEFAULT,
              etas: Sequence[float] = FIG3_ETAS, sides: Sequence[str] = ("one", "two")):
    """Per transmissivity: the damped-GHZ bound factor and the directly
    damped three-mode X concurrence, for each requested channel sidedness.

    The bound columns use the stable closed forms of the GHZ elements (the
    validation suite pins them to both exact routes at 1e-11).  The direct
    columns run the exact Kraus route of `damped_state_projection`, one call
    per (eta, sidedness) over the positive alphas; its output is
    parity-block-diagonal, so they are zero (see that docstring for why the
    bytes are stable): emitted to make that explicit.
    """
    header = ["alpha"]
    for eta in etas:
        for s in sides:
            header.append(f"bound_{s}sided_eta{_eta_tag(eta)}")
        for s in sides:
            header.append(f"direct_{s}sided_eta{_eta_tag(eta)}")
    grid = _alpha_grid(alpha_max, steps)
    positive = [i for i, a in enumerate(grid) if a > 0.0]
    direct = {}
    for eta in etas:
        for s in sides:
            column = [0.0] * len(grid)
            mats, _ = damped_state_projection(
                np.array([grid[i] for i in positive]), eta, math.pi, s
            )
            for i, mat in zip(positive, mats):
                column[i] = xstate_concurrence(_x_elements(mat))
            direct[eta, s] = column
    rows = []
    for i, a in enumerate(grid):
        row = [a]
        for eta in etas:
            for s in sides:
                if a == 0.0:
                    row.append(ghz_concurrence_limit(eta, s))
                else:
                    factor = xstate_concurrence(
                        ghz_damped_elements(a, eta, s, method="closed")
                    )
                    row.append(factor * concurrence_pure(a, math.pi))
            for s in sides:
                row.append(direct[eta, s][i])
        rows.append(row)
    return header, rows


def fig4_rows(alpha_max: float = ALPHA_MAX_DEFAULT, steps: int = ALPHA_STEPS_DEFAULT,
              etas: Sequence[float] = FIG4_ETAS, modes: Sequence[int] = MODE_COUNTS):
    header = ["alpha"] + [
        f"pfm_m{m}_eta{_eta_tag(eta)}" for eta in etas for m in modes
    ]
    rows = []
    for a in _alpha_grid(alpha_max, steps):
        row = [a]
        for eta in etas:
            for m in modes:
                row.append(
                    phase_flip_prob_limit(eta) if a == 0.0 else phase_flip_prob_m(a, eta, m)
                )
        rows.append(row)
    return header, rows


def _mmode_conc_rows(eta: float, alpha_max: float, steps: int, modes: Sequence[int],
                     parities: Sequence[str]):
    header = ["alpha"]
    for parity in parities:
        label = "cminus" if parity == "odd" else "cplus"
        header += [f"{label}_m{m}_eta{_eta_tag(eta)}" for m in modes]
    rows = []
    for a in _alpha_grid(alpha_max, steps):
        row = [a]
        for parity in parities:
            for m in modes:
                row.append(concurrence_m(a, eta, m, parity))
        rows.append(row)
    return header, rows


def fig5_rows(alpha_max: float = ALPHA_MAX_DEFAULT, steps: int = ALPHA_STEPS_DEFAULT,
              eta: float = 0.9, modes: Sequence[int] = MODE_COUNTS,
              parities: Sequence[str] = ("odd", "even")):
    return _mmode_conc_rows(eta, alpha_max, steps, modes, parities)


def fig6_rows(alpha_max: float = ALPHA_MAX_DEFAULT, steps: int = ALPHA_STEPS_DEFAULT,
              eta: float = 0.1, modes: Sequence[int] = MODE_COUNTS,
              parities: Sequence[str] = ("odd", "even")):
    return _mmode_conc_rows(eta, alpha_max, steps, modes, parities)


def build_figure(fig: int, *, alpha_max: float = ALPHA_MAX_DEFAULT,
                 steps: int = ALPHA_STEPS_DEFAULT, etas: Sequence[float] | None = None,
                 modes: Sequence[int] | None = None, sides: Sequence[str] | None = None,
                 parities: Sequence[str] | None = None):
    """Dispatch a figure id to its row builder, applying overrides."""
    modes = tuple(modes) if modes else MODE_COUNTS
    sides = tuple(sides) if sides else ("one", "two")
    parities = tuple(parities) if parities else ("odd", "even")
    if fig == 1:
        return fig1_rows()
    if fig == 2:
        return fig2_rows(alpha_max, steps, tuple(etas) if etas else FIG2_ETAS)
    if fig == 3:
        return fig3_rows(alpha_max, steps, tuple(etas) if etas else FIG3_ETAS, sides)
    if fig == 4:
        return fig4_rows(alpha_max, steps, tuple(etas) if etas else FIG4_ETAS, modes)
    if fig == 5:
        return fig5_rows(alpha_max, steps, etas[0] if etas else 0.9, modes, parities)
    if fig == 6:
        return fig6_rows(alpha_max, steps, etas[0] if etas else 0.1, modes, parities)
    raise ValueError(f"unknown figure id {fig} (expected 1..6)")
