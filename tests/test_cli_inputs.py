"""Edge inputs: the m-mode closed forms at amplitudes down to 1e-150 and
below, and `catdamp sweep` inputs that are out of range, of the wrong type,
repeated, or replaced by the axis."""

import csv
import json
import math

import mpmath
import numpy as np
import pytest

from catdamp.cli import main
from catdamp.figures import figure_reads
from catdamp.formulas import concurrence_m, phase_flip_prob, phase_flip_prob_m
from catdamp.sweep import ConfigError, SweepConfig


def mp_family(alpha: float, eta: float, m: int) -> dict:
    """p_{f,m} and the odd and even concurrences as the paper writes them,
    1 - e^{-y} by subtraction included, in mpmath with enough digits that
    those differences keep 30 (alpha > 0)."""
    with mpmath.workdps(40 + max(0, int(-2.0 * math.log10(alpha)))):
        x = mpmath.mpf(alpha) ** 2
        c, eta = mpmath.mpf(2) ** (m - 1), mpmath.mpf(eta)
        e2, g = mpmath.exp(-2 * c * x), mpmath.exp(-c * (1 + eta) * x)
        p = (1 - e2 - mpmath.exp(-c * (1 - eta) * x) + g) / (2 * (1 - e2))
        root = mpmath.sqrt(1 - e2) * mpmath.sqrt(1 - mpmath.exp(-2 * c * eta * x))
        return {"p": p, "odd": (1 - 2 * p) * root / (1 - g), "even": (1 - 2 * p) * root / (1 + g)}


def family(alpha, eta: float, m: int) -> dict:
    values = {"p": phase_flip_prob_m(alpha, eta, m)}
    if eta > 0.0:
        values.update({parity: concurrence_m(alpha, eta, m, parity) for parity in ("odd", "even")})
    return values


def assert_near_mp(got: float, want, where) -> None:
    # 1e-16, or two ulps of the value where that is more: 1e-16 is below
    # one ulp in [0.5, 1), and the few roundings of the family's ratios can
    # add up to one ulp there
    err = float(abs(mpmath.mpf(got) - want))
    assert err <= max(1e-16, 2.0 * math.ulp(float(want))), (where, got, err)


@pytest.mark.parametrize("alpha", [1e-12, 5e-324])
def test_tiny_alpha_takes_the_alpha_zero_value(alpha):
    # where alpha^2 underflows to 0 (5e-324) each value is the alpha = 0 one;
    # at 1e-12 it is the high-precision value, which differs from that one
    # by about 2^{m-1} alpha^2
    for eta in (0.0, 0.3, 0.9, 1.0):
        assert phase_flip_prob(alpha, eta) == phase_flip_prob_m(alpha, eta, 3)
        for m in (1, 2, 3, 8):
            got = family(alpha, eta, m)
            if alpha * alpha == 0.0:
                assert got == family(0.0, eta, m)
            else:
                want = mp_family(alpha, eta, m)
                for key, value in got.items():
                    assert_near_mp(value, want[key], (eta, m, key))


def test_odd_denominator_rounding_to_zero():
    # e^{-4 alpha^2} < 1 but e^{-2 (1 + eta) alpha^2} rounds to 1, so the odd
    # denominator formed by subtraction would be 0 while the root is not
    assert_near_mp(concurrence_m(4.5e-9, 0.01, 2, "odd"), mp_family(4.5e-9, 0.01, 2)["odd"], "")


def test_tiny_alpha_sweep(tmp_path, capsys):
    quantities = ["phase_flip_prob", "phase_flip_prob_m", "concurrence_odd", "concurrence_even"]
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "tiny.csv"
    cfg.write_text(json.dumps({
        "axis": {"name": "alpha", "start": 0.0, "stop": 1e-9, "steps": 2},
        "quantities": quantities,
        "fixed": {"eta": 0.6, "m": 4},
        "out": str(out),
    }))
    assert main(["sweep", "--config", str(cfg)]) == 0
    with open(out, newline="") as fh:
        zero, tiny = list(csv.DictReader(fh))
    assert float(tiny["alpha"]) == 1e-9
    limits = {
        "phase_flip_prob": (1.0 - 0.6) / 2.0,
        "phase_flip_prob_m": (1.0 - 0.6) / 2.0,
        "concurrence_odd": 2.0 * 0.6**1.5 / 1.6,
        "concurrence_even": 0.0,
    }
    m3, m4 = mp_family(1e-9, 0.6, 3), mp_family(1e-9, 0.6, 4)
    wants = {"phase_flip_prob": m3["p"], "phase_flip_prob_m": m4["p"],
             "concurrence_odd": m4["odd"], "concurrence_even": m4["even"]}
    for q in quantities:
        assert float(zero[q]) == limits[q]
        assert_near_mp(float(tiny[q]), wants[q], q)


FAMILY_ALPHAS = np.geomspace(1e-150, 10.0, 120)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_family_matches_mpmath_down_to_tiny_alpha(m):
    # every closed form of the family keeps full precision: no 1 - e^{-y}
    # formed by subtraction anywhere on the grid
    for eta in (0.01, 0.3, 0.9, 0.99):
        got = family(FAMILY_ALPHAS, eta, m)
        for i, alpha in enumerate(FAMILY_ALPHAS.tolist()):
            want = mp_family(alpha, eta, m)
            for key, values in got.items():
                err = float(abs(mpmath.mpf(float(values[i])) - want[key]))
                assert err <= 1e-15, (alpha, eta, key, err)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_family_below_the_smallest_normal_square_takes_the_limit(m):
    # a subnormal alpha^2 has too few digits for the family's ratios
    for alpha in (1.4e-154, 1e-160, 1e-200, 5e-324):
        for eta in (0.01, 0.3, 0.9, 0.99):
            got = family(alpha, eta, m)
            assert abs(got["p"] - (1.0 - eta) / 2.0) <= 1e-15
            assert abs(got["odd"] - 2.0 * eta**1.5 / (1.0 + eta)) <= 1e-15
            assert got["even"] == 0.0


def test_phase_flip_at_alpha_1e9_is_not_rounded_to_a_limit():
    # forming 1 - e^{-y} by subtraction gave 0.5 here
    want = mp_family(1e-9, 0.3, 8)["p"]
    with mpmath.workdps(30):
        assert abs(want - mpmath.mpf("0.35")) < 1e-17
    assert abs(phase_flip_prob_m(1e-9, 0.3, 8) - want) <= 1e-15


@pytest.mark.parametrize("raw,field", [
    ({"axis": {"steps": "x"}}, "axis.steps"),
    ({"axis": {"steps": 2.5}}, "axis.steps"),
    ({"axis": {"steps": True}}, "axis.steps"),
    ({"axis": {"start": "0"}}, "axis.start"),
    ({"axis": {"stop": [4]}}, "axis.stop"),
    ({"epsilon": "small"}, "epsilon"),
    ({"epsilon": None}, "epsilon"),
    ({"quantities": [["concurrence_odd"]]}, "quantities"),
    ({"quantities": [1]}, "quantities"),
    ({"fixed": {"m": 2.5}}, "fixed.m"),
    ({"fixed": {"m": True}}, "fixed.m"),
    ({"fixed": {"eta": False}}, "fixed.eta"),
    ({"fixed": {"alpha": "1"}}, "fixed"),
    ({"fixed": {"theta": None}}, "fixed"),
    ({"out": 5}, "out"),
    ({"figure": 3}, "figure"),
    ({"axis": {"nme": "eta"}}, "axis.nme"),
])
def test_config_type_error_is_usage_error(tmp_path, capsys, raw, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("catdamp sweep: ")
    assert field in err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_config_checks_types_directly():
    with pytest.raises(ConfigError, match="axis.steps: must be an integer"):
        SweepConfig(steps="401")
    with pytest.raises(ConfigError, match="quantities"):
        SweepConfig(quantities="concurrence_odd")


# a flag the command does not declare, or a value it does not offer: no
# figure reads a seed or an epsilon, no sweep quantity a parity
# (concurrence_odd/_even name theirs), and a sweep has one fixed sidedness
UNDECLARED = [
    ["fig", "2", "--seed", "1"],
    ["sweep", "--seed", "1"],
    ["sweep", "--sides", "both"],
    ["sweep", "--parity", "odd"],
    *(["fig", str(fig), "--epsilon", "0.5"] for fig in range(1, 7)),
]


@pytest.mark.parametrize("argv", UNDECLARED,
                         ids=["-".join(arg.lstrip("-") for arg in argv) for argv in UNDECLARED])
def test_flag_the_command_does_not_declare_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err
    assert not out.exists()


# (figure, flag and value, the figures that read the flag); figure 1 reads none
UNREAD_FLAGS = [
    *((fig, ["--parity", "even"], "figures 5 and 6") for fig in (1, 2, 3, 4)),
    (1, ["--steps", "5"], "figures 2, 3, 4, 5 and 6"),
    (1, ["--alpha-max", "2"], "figures 2, 3, 4, 5 and 6"),
    (1, ["--eta", "0.5"], "figures 2, 3, 4, 5 and 6"),
    (2, ["--m", "5"], "figures 4, 5 and 6"),
    (3, ["--m", "5"], "figures 4, 5 and 6"),
    (2, ["--sides", "two"], "figure 3"),
    (4, ["--sides", "two"], "figure 3"),
    (5, ["--sides", "two"], "figure 3"),
    (6, ["--sides", "both"], "figure 3"),
]


@pytest.mark.parametrize("fig,flag,readers", UNREAD_FLAGS,
                         ids=[f"{fig}-{flag[0][2:]}" for fig, flag, _ in UNREAD_FLAGS])
def test_fig_flag_it_does_not_read_is_usage_error(fig, flag, readers, tmp_path, capsys):
    # the flag would leave the figure's bytes as they are without it
    out = tmp_path / f"fig{fig}.csv"
    assert main(["fig", str(fig), *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"catdamp fig: {flag[0]} applies only to {readers}\n"
    assert not out.exists()


@pytest.mark.parametrize("fig", [2, 3, 4, 5, 6])
def test_fig_takes_every_flag_it_reads(fig, tmp_path):
    flags = {"alpha_max": ["--alpha-max", "2"], "steps": ["--steps", "5"],
             "etas": ["--eta", "0.5"], "modes": ["--m", "3"], "sides": ["--sides", "two"],
             "parities": ["--parity", "odd"]}
    argv = [arg for name in figure_reads(fig) for arg in flags[name]]
    out = tmp_path / "fig.csv"
    assert main(["fig", str(fig), *argv, "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert len(rows) == 5 and rows[-1].startswith("2.0,")
    assert all(label.endswith("eta0.5") for label in header.split(",")[1:])


def test_config_fixed_parity_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixed": {"parity": "even"}}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"catdamp sweep: {cfg}: fixed: ")
    assert "parity" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag,values", [("--eta", ("0.5", "0.7")), ("--m", ("2", "3"))],
                         ids=["eta", "m"])
def test_repeated_sweep_flag_is_usage_error(flag, values, tmp_path, capsys):
    # a plain store would keep the last value and drop the first
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", flag, values[0], flag, values[1], "--out", str(out)])
    assert exc.value.code == 2
    assert f"{flag} takes one value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep"], ["fig", "4"]], ids=["sweep", "fig"])
@pytest.mark.parametrize("m", ["1025", "2000"])
def test_m_beyond_1024_is_usage_error(command, m, tmp_path, capsys):
    # 2^{m-1} overflows a double from m = 1025 on; it once escaped as a bare
    # "(34, 'Numerical result out of range')"
    out = tmp_path / "s.csv"
    assert main(command + ["--m", m, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"m must lie in [1, 1024], got {m}" in err
    assert not out.exists()


@pytest.mark.parametrize("axis", ["alpha", "eta", "theta"])
def test_fixed_value_of_the_axis_parameter_is_usage_error(axis, tmp_path, capsys):
    # the axis would replace it at every point
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axis": {"name": axis, "start": 0.1, "stop": 0.9, "steps": 3},
                               "fixed": {axis: 0.5}}))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"catdamp sweep: {cfg}: fixed.{axis} is the axis of the sweep\n"
    assert not out.exists()


def test_eta_flag_on_an_eta_sweep_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"axis": {"name": "eta", "start": 0.1, "stop": 0.9, "steps": 3}}))
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", str(cfg), "--eta", "0.3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "catdamp sweep: --eta applies only to sweeps off the eta axis\n"
    assert not out.exists()
    assert main(["sweep", "--config", str(cfg), "--m", "3", "--out", str(out)]) == 0


def test_parity_still_selects_the_figure_branches(tmp_path, capsys):
    fig5 = tmp_path / "fig5.csv"
    assert main(["fig", "5", "--parity", "odd", "--out", str(fig5)]) == 0
    assert fig5.read_text().splitlines()[0].split(",")[1:] == [
        f"cminus_m{m}_eta0.9" for m in (2, 5, 8)]
    fig6 = tmp_path / "fig6.csv"
    assert main(["fig", "6", "--parity", "even", "--out", str(fig6)]) == 0
    assert fig6.read_text().splitlines()[0].split(",")[1:] == [
        f"cplus_m{m}_eta0.1" for m in (2, 5, 8)]


def test_mmode_figures_take_every_eta(tmp_path):
    both, first = tmp_path / "both.csv", tmp_path / "first.csv"
    assert main(["fig", "5", "--eta", "0.5", "--eta", "0.7", "--out", str(both)]) == 0
    assert main(["fig", "5", "--eta", "0.5", "--out", str(first)]) == 0
    rows = [line.split(",") for line in both.read_text().splitlines()]
    assert rows[0][1:] == [f"{branch}_m{m}_eta{eta}" for eta in (0.5, 0.7)
                           for branch in ("cminus", "cplus") for m in (2, 5, 8)]
    # the first eta's six columns are the single-eta figure
    assert [",".join(row[:7]) for row in rows] == first.read_text().splitlines()
