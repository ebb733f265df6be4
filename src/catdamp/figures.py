"""Figure data generation: deterministic CSV tables for the standard plots.

`build_figure` returns (header, rows) with plain Python floats; `write_csv`
renders them with shortest round-trip decimal formatting so identical
parameters always produce byte-identical files.

Figure catalogue:

1. pure-state concurrence surface over (theta, p) with p the squared overlap
   of the two branch amplitudes;
2. phase-flip probability vs field amplitude for several transmissivities;
3. damped-GHZ X concurrence times the pure-state concurrence (`bound_*`;
   despite the name not an upper bound on the exact 0|12 concurrence, which
   lies above it one-sided and on either side two-sided) and the directly
   damped three-mode X concurrence, one- and two-sided, per transmissivity;
4. m-mode phase-flip probability for several mode counts at strong and weak
   transmissivity;
5. m-mode odd/even concurrence at transmissivity 0.9;
6. same as 5 at transmissivity 0.1.

Figure 1 is a (theta, p) surface, built by `fig1_rows`.  Figures 2-6 are
alpha sweeps: each is an entry of `PRESETS`, whose columns (a registered
sweep quantity, its fixed parameters and a CSV label) `sweep.run_sweep`
evaluates over the grid [0, alpha_max].  Their alpha = 0 rows are the limits
the formulas return.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .formulas import ChannelParams
from .sweep import Column, Preset, run_sweep

ALPHA_MAX_DEFAULT = 4.0
ALPHA_STEPS_DEFAULT = 401
THETA_STEPS_DEFAULT = 181
P_STEPS_DEFAULT = 101

FIG2_ETAS = (0.3, 0.6, 0.9)
FIG3_ETAS = (0.3, 0.6, 0.9)
FIG4_ETAS = (0.99, 0.1)
MODE_COUNTS = (2, 5, 8)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write the header and then the rows, one at a time.  A str value is
    written as it is; any other value v as repr(float(v)), the shortest
    decimal that reads back as the same float, so an int or np.float64
    prints as the equal plain float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join([v if isinstance(v, str) else repr(float(v)) for v in row]) + "\n")


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


def _fig2(etas, modes, sides, parities):
    return [Column("phase_flip_prob", ChannelParams(eta=eta), f"pf_eta{eta:g}") for eta in etas]


def _fig3(etas, modes, sides, parities):
    return [
        Column(quantity, ChannelParams(eta=eta, sides=s), f"{prefix}_{s}sided_eta{eta:g}")
        for eta in etas
        for quantity, prefix in (("concurrence_bound", "bound"), ("damped_concurrence", "direct"))
        for s in sides
    ]


def _fig4(etas, modes, sides, parities):
    return [Column("phase_flip_prob_m", ChannelParams(eta=eta, m=m), f"pfm_m{m}_eta{eta:g}")
            for eta in etas for m in modes]


def _mmode_concurrence(etas, modes, sides, parities):
    eta = etas[0]
    return [
        Column(f"concurrence_{parity}", ChannelParams(eta=eta, m=m),
               f"{'cminus' if parity == 'odd' else 'cplus'}_m{m}_eta{eta:g}")
        for parity in parities
        for m in modes
    ]


# figure id -> (default transmissivities, the columns for given
# transmissivities, mode counts, sidednesses and parities); figures 5 and 6
# take the first transmissivity only
PRESETS = {
    2: (FIG2_ETAS, _fig2),
    3: (FIG3_ETAS, _fig3),
    4: (FIG4_ETAS, _fig4),
    5: ((0.9,), _mmode_concurrence),
    6: ((0.1,), _mmode_concurrence),
}


def build_figure(fig: int, *, alpha_max: float = ALPHA_MAX_DEFAULT,
                 steps: int = ALPHA_STEPS_DEFAULT, etas: Sequence[float] | None = None,
                 modes: Sequence[int] | None = None, sides: Sequence[str] | None = None,
                 parities: Sequence[str] | None = None):
    """Figure 1's surface, or the preset of figures 2-6 run through
    `run_sweep`, with the given overrides of the preset's values."""
    if fig == 1:
        return fig1_rows()
    if fig not in PRESETS:
        raise ValueError(f"unknown figure id {fig} (expected 1..6)")
    default_etas, columns = PRESETS[fig]
    return run_sweep(Preset(tuple(columns(
        tuple(etas) if etas else default_etas,
        tuple(modes) if modes else MODE_COUNTS,
        tuple(sides) if sides else ("one", "two"),
        tuple(parities) if parities else ("odd", "even"),
    )), alpha_max, steps))
