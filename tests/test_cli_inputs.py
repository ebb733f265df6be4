"""Edge inputs of `catdamp sweep`: amplitudes so small that the closed forms'
denominators round to zero, and config values of the wrong type."""

import csv
import json

import pytest

from catdamp.cli import main
from catdamp.figures import figure_reads
from catdamp.formulas import concurrence_m, phase_flip_prob, phase_flip_prob_m
from catdamp.sweep import ConfigError, SweepConfig


@pytest.mark.parametrize("alpha", [1e-12, 5e-324])
def test_tiny_alpha_takes_the_alpha_zero_value(alpha):
    # e^{-2^m alpha^2} rounds to 1 for every m here, up to m = 8
    for eta in (0.0, 0.3, 0.9, 1.0):
        assert phase_flip_prob(alpha, eta) == phase_flip_prob(0.0, eta)
        for m in (1, 2, 3, 8):
            assert phase_flip_prob_m(alpha, eta, m) == phase_flip_prob_m(0.0, eta, m)
            if eta > 0.0:
                for parity in ("odd", "even"):
                    assert concurrence_m(alpha, eta, m, parity) == concurrence_m(0.0, eta, m, parity)


def test_odd_denominator_rounding_to_zero():
    # e^{-4 alpha^2} < 1 but e^{-2 (1 + eta) alpha^2} rounds to 1, so the
    # odd denominator 1 - e^{-2 (1 + eta) alpha^2} is 0 while the root is not
    assert concurrence_m(4.5e-9, 0.01, 2, "odd") == concurrence_m(0.0, 0.01, 2, "odd")


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
    for q in quantities:
        assert float(tiny[q]) == float(zero[q]) == limits[q]


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
    ({"figure": "3"}, "figure"),
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


def test_sweep_parity_flag_is_usage_error(tmp_path, capsys):
    # no sweep quantity reads a parity: concurrence_odd/_even name theirs
    for flag in ("odd", "even", "both"):
        out = tmp_path / f"{flag}.csv"
        assert main(["sweep", "--parity", flag, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "catdamp sweep: --parity applies only to figures 5 and 6\n")
        assert not out.exists()


# (figure, flag and value, the figures that read the flag); figure 1 reads
# none, and no figure reads --epsilon
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
    *((fig, ["--epsilon", "0.5"], "sweeps") for fig in (1, 2, 3, 4, 5, 6)),
]


@pytest.mark.parametrize("fig,flag,readers", UNREAD_FLAGS,
                         ids=[f"{fig}-{flag[0][2:]}" for fig, flag, _ in UNREAD_FLAGS])
def test_fig_flag_it_does_not_read_is_usage_error(fig, flag, readers, tmp_path, capsys):
    # the flag would leave the figure's bytes as they are without it
    out = tmp_path / f"fig{fig}.csv"
    assert main(["fig", str(fig), *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"catdamp fig: {flag[0]} applies only to {readers}\n"
    # a "figure": N config takes the same path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"figure": fig}))
    assert main(["sweep", "--config", str(cfg), *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"catdamp sweep: {flag[0]} applies only to {readers}\n"
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


def test_parity_still_selects_the_figure_branches(tmp_path, capsys):
    fig5 = tmp_path / "fig5.csv"
    assert main(["fig", "5", "--parity", "odd", "--out", str(fig5)]) == 0
    assert fig5.read_text().splitlines()[0].split(",")[1:] == [
        f"cminus_m{m}_eta0.9" for m in (2, 5, 8)]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"figure": 6}))
    fig6 = tmp_path / "fig6.csv"
    assert main(["sweep", "--config", str(cfg), "--parity", "even", "--out", str(fig6)]) == 0
    assert fig6.read_text().splitlines()[0].split(",")[1:] == [
        f"cplus_m{m}_eta0.1" for m in (2, 5, 8)]
