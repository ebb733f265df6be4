"""Figures 2-6 as sweep presets: each header is pinned, and each column
equals its scalar formula bit for bit on the default grid, the alpha = 0 row
included."""

import math

import numpy as np
import pytest

from catdamp import formulas
from catdamp.figures import build_figure
from catdamp.formulas import (
    ChannelParams,
    _ghz_elements_closed,
    _x_parts,
    concurrence_m,
    concurrence_pure,
    damped_state_projection,
    ghz_concurrence_limit,
    phase_flip_prob,
    phase_flip_prob_m,
)
from catdamp.logical import _x_matrix, xstate_concurrence
from catdamp.sweep import SweepConfig, run_sweep

ALPHAS = [float(a) for a in np.linspace(0.0, 4.0, 401)]


def bound(alpha, eta, sides):
    # the GHZ factor from the stable closed forms times the pure-state
    # concurrence; at alpha = 0 the factor's limit times the pure limit, 1
    if alpha == 0.0:
        return ghz_concurrence_limit(eta, sides)
    factor = xstate_concurrence(_x_matrix(*_ghz_elements_closed(alpha, eta, sides)))
    return factor * concurrence_pure(alpha, math.pi)


def direct(alpha, eta, sides, theta=math.pi):
    if alpha == 0.0:
        return 0.0
    return xstate_concurrence(_x_parts(damped_state_projection(alpha, eta, theta, sides)[0]))


def fig3_columns():
    header, values = [], []
    for eta in (0.3, 0.6, 0.9):
        for name, fn in (("bound", bound), ("direct", direct)):
            for sides in ("one", "two"):
                header.append(f"{name}_{sides}sided_eta{eta:g}")
                values.append(lambda a, fn=fn, eta=eta, sides=sides: fn(a, eta, sides))
    return header, values


def mmode_columns(eta):
    header, values = [], []
    for parity, label in (("odd", "cminus"), ("even", "cplus")):
        for m in (2, 5, 8):
            header.append(f"{label}_m{m}_eta{eta:g}")
            values.append(lambda a, m=m, parity=parity: concurrence_m(a, eta, m, parity))
    return header, values


EXPECTED = {
    2: (["pf_eta0.3", "pf_eta0.6", "pf_eta0.9"],
        [lambda a, eta=eta: phase_flip_prob(a, eta) for eta in (0.3, 0.6, 0.9)]),
    3: fig3_columns(),
    4: ([f"pfm_m{m}_eta{eta:g}" for eta in (0.99, 0.1) for m in (2, 5, 8)],
        [lambda a, eta=eta, m=m: phase_flip_prob_m(a, eta, m)
         for eta in (0.99, 0.1) for m in (2, 5, 8)]),
    5: mmode_columns(0.9),
    6: mmode_columns(0.1),
}

# the analytic alpha = 0 value of each column family
LIMITS = {
    "pf": lambda eta, rest: (1.0 - eta) / 2.0,
    "pfm": lambda eta, rest: (1.0 - eta) / 2.0,
    "bound": lambda eta, rest: math.sqrt(eta) if rest.startswith("one") else eta,
    "direct": lambda eta, rest: 0.0,
    "cminus": lambda eta, rest: 2.0 * eta**1.5 / (1.0 + eta),
    "cplus": lambda eta, rest: 0.0,
}


@pytest.mark.parametrize("fig", (2, 3, 4, 5, 6))
def test_preset_columns_equal_scalar_formulas(fig):
    labels, formulas_of = EXPECTED[fig]
    header, table = build_figure(fig)
    assert header == ["alpha"] + labels
    assert table.columns[0].tolist() == ALPHAS
    for j, value_at in enumerate(formulas_of, start=1):
        for alpha, value in zip(ALPHAS, table.columns[j].tolist()):
            assert value == value_at(alpha), (header[j], alpha)
    for label, value in zip(labels, [c[0] for c in table.columns[1:]]):
        family, *rest, eta = label.split("_")
        limit = LIMITS[family](float(eta.removeprefix("eta")), "_".join(rest))
        assert value == pytest.approx(limit, abs=1e-15), label


@pytest.mark.parametrize("sides", ("one", "two"))
def test_damped_concurrence_is_one_grid_call(monkeypatch, sides):
    calls = []
    projection = formulas.damped_state_projection

    def counted(*args, **kwargs):
        calls.append(args[0])
        return projection(*args, **kwargs)

    monkeypatch.setattr(formulas, "damped_state_projection", counted)
    _, table = run_sweep(SweepConfig(quantities=("damped_concurrence",),
                                     fixed=ChannelParams(eta=0.3, theta=1.0, sides=sides)))
    assert len(calls) == 1 and len(calls[0]) == 400
    monkeypatch.undo()
    alphas, values = table.columns[0].tolist(), table.columns[1].tolist()
    assert alphas[0] == values[0] == 0.0
    for alpha, value in zip(alphas[1:], values[1:]):
        assert value == direct(alpha, 0.3, sides, theta=1.0)


@pytest.mark.parametrize("fig,keyword,value", [
    (1, "steps", 5), (1, "alpha_max", 2.0), (2, "modes", (3,)), (3, "parities", ("odd",)),
    (4, "sides", ("two",)),
])
def test_build_figure_rejects_a_keyword_the_figure_does_not_read(fig, keyword, value):
    with pytest.raises(ValueError, match=f"figure {fig} does not read {keyword}"):
        build_figure(fig, **{keyword: value})
