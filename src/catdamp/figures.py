"""Figure data generation: deterministic CSV tables for the standard plots.

`build_figure` returns (header, table), the table's columns float64 arrays
(`sweep.Table`); `write_csv` renders them with shortest round-trip decimal
formatting so identical parameters always produce byte-identical files.

Figure catalogue:

1. pure-state concurrence surface over (theta, p) with p the squared overlap
   of the two branch amplitudes;
2. phase-flip probability vs field amplitude for several transmissivities;
3. per transmissivity, one- and two-sided: the damped-GHZ X concurrence
   times the pure-state concurrence (`bound_*`; despite the name not an
   upper bound on the exact 0|12 concurrence), and the damped three-mode
   state's X positions (0,7), (1,6) (`direct_*`), which take qubits 0 and 1
   as one block against qubit 2, not mode 0 against the rest: they read 0,
   where the exact 0|12 concurrence peaks between 0.55 and 0.97.  The column
   stays until the benchmark's fig 3 check can hold it to real values;
4. m-mode phase-flip probability for several mode counts at strong and weak
   transmissivity;
5. m-mode odd/even concurrence at transmissivity 0.9;
6. same as 5 at transmissivity 0.1.

Figure 1 is a (theta, p) surface, built by `fig1_rows`.  Figures 2-6 are
alpha sweeps, the entries of `PRESETS`, whose columns `sweep.run_sweep`
evaluates over the grid [0, alpha_max]; a figure reads the overrides that
its builder names.  Their alpha = 0 rows are the limits the formulas return.
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import Sequence

import numpy as np

from .formulas import ChannelParams
from .sweep import BLOCK, Column, Preset, Table, run_sweep

ALPHA_MAX_DEFAULT = 4.0
ALPHA_STEPS_DEFAULT = 401
THETA_STEPS_DEFAULT = 181
P_STEPS_DEFAULT = 101

FIG2_ETAS = (0.3, 0.6, 0.9)
FIG3_ETAS = (0.3, 0.6, 0.9)
FIG4_ETAS = (0.99, 0.1)
MODE_COUNTS = (2, 5, 8)


def write_csv(path: str, header: Sequence[str], table: Table) -> None:
    """Write the header and then the table's rows, formatted by column in
    blocks of `BLOCK` rows: a str column repeats its value on every row, and
    each float of an array column prints as its repr, the shortest decimal
    that reads back as the same float."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), BLOCK):
            n = min(BLOCK, len(table) - start)
            cells = [[c] * n if isinstance(c, str) else map(repr, c[start:start + n].tolist())
                     for c in table.columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def fig1_rows(theta_steps: int = THETA_STEPS_DEFAULT, p_steps: int = P_STEPS_DEFAULT):
    """Surface C(theta, p) = (1 - p^2) / (1 + p^2 cos(theta)), theta-major.

    At the single point p = 1, theta = pi the expression is 0/0 (the state
    itself vanishes there); the emitted value is 0, consistent with the rest
    of the p = 1 row.
    """
    thetas = np.linspace(0.0, 2.0 * math.pi, theta_steps)
    p = np.tile(np.linspace(0.0, 1.0, p_steps), theta_steps)
    ct = np.repeat([math.cos(theta) for theta in thetas.tolist()], p_steps)
    den = 1.0 + p * p * ct
    value = np.divide(1.0 - p * p, den, out=np.zeros_like(den), where=den != 0.0)
    return ["theta", "p", "concurrence"], Table((np.repeat(thetas, p_steps), p, value))


def _fig2(etas=FIG2_ETAS):
    return [Column("phase_flip_prob", ChannelParams(eta=eta), f"pf_eta{eta:g}") for eta in etas]


def _fig3(etas=FIG3_ETAS, sides=("one", "two")):
    return [
        Column(quantity, ChannelParams(eta=eta, sides=s), f"{prefix}_{s}sided_eta{eta:g}")
        for eta in etas
        for quantity, prefix in (("concurrence_bound", "bound"), ("damped_concurrence", "direct"))
        for s in sides
    ]


def _fig4(etas=FIG4_ETAS, modes=MODE_COUNTS):
    return [Column("phase_flip_prob_m", ChannelParams(eta=eta, m=m), f"pfm_m{m}_eta{eta:g}")
            for eta in etas for m in modes]


def _mmode_concurrence(etas, modes=MODE_COUNTS, parities=("odd", "even")):
    return [
        Column(f"concurrence_{parity}", ChannelParams(eta=eta, m=m),
               f"{'cminus' if parity == 'odd' else 'cplus'}_m{m}_eta{eta:g}")
        for eta in etas
        for parity in parities
        for m in modes
    ]


# figure id -> the builder of its columns; the builder's arguments, with
# their defaults, are the `build_figure` keywords the figure reads.
PRESETS = {
    2: _fig2,
    3: _fig3,
    4: _fig4,
    5: functools.partial(_mmode_concurrence, etas=(0.9,)),
    6: functools.partial(_mmode_concurrence, etas=(0.1,)),
}


def figure_reads(fig: int) -> tuple[str, ...]:
    """The `build_figure` keywords that figure `fig` reads: none for figure
    1's fixed surface, and the grid and its builder's arguments otherwise."""
    if fig == 1:
        return ()
    return ("alpha_max", "steps", *inspect.signature(PRESETS[fig]).parameters)


def build_figure(fig: int, *, alpha_max: float | None = None, steps: int | None = None,
                 etas: Sequence[float] | None = None, modes: Sequence[int] | None = None,
                 sides: Sequence[str] | None = None, parities: Sequence[str] | None = None):
    """Figure 1's surface, or the preset of figures 2-6 run through
    `run_sweep` over the grid [0, alpha_max] (default `ALPHA_MAX_DEFAULT`,
    `ALPHA_STEPS_DEFAULT` points), with the given overrides of the preset's
    values.  A keyword that is not None and that `figure_reads` does not
    list for the figure is a ValueError."""
    if fig not in range(1, 7):
        raise ValueError(f"unknown figure id {fig} (expected 1..6)")
    given = {k: v for k, v in (("alpha_max", alpha_max), ("steps", steps), ("etas", etas),
                               ("modes", modes), ("sides", sides), ("parities", parities))
             if v is not None}
    unread = [k for k in given if k not in figure_reads(fig)]
    if unread:
        raise ValueError(f"figure {fig} does not read {unread[0]}")
    if fig == 1:
        return fig1_rows()
    alpha_max = given.pop("alpha_max", ALPHA_MAX_DEFAULT)
    steps = given.pop("steps", ALPHA_STEPS_DEFAULT)
    columns = PRESETS[fig](**{k: tuple(v) for k, v in given.items()})
    return run_sweep(Preset(tuple(columns), alpha_max, steps))
