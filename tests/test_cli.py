import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import catdamp
from catdamp import cli
from catdamp.cli import main
from catdamp.sweep import ConfigError, SweepConfig, config_from_dict, run_sweep, vanishing_point
from catdamp.formulas import phase_flip_prob_m
from catdamp.validation import CheckResult, _bisect, format_table, run_validation


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _vanishing_point_loop(grid, values, epsilon):
    """The per-value loop that `vanishing_point` replaced."""
    seen_above = False
    for x, v in zip(grid, values):
        if v >= epsilon:
            seen_above = True
        elif seen_above:
            return x
    return None


class TestFigCommand:
    def test_fig2_columns_and_limits(self, tmp_path, capsys):
        out = tmp_path / "fig2.csv"
        assert main(["fig", "2", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 401
        assert list(rows[0].keys()) == ["alpha", "pf_eta0.3", "pf_eta0.6", "pf_eta0.9"]
        for eta in (0.3, 0.6, 0.9):
            # alpha = 0 rows hold the analytic limit, the far end saturates
            assert float(rows[0][f"pf_eta{eta:g}"]) == pytest.approx((1 - eta) / 2, abs=1e-12)
            assert float(rows[-1][f"pf_eta{eta:g}"]) == pytest.approx(0.5, abs=1e-3)

    def test_fig5_first_row(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert main(["fig", "5", "--out", str(out)]) == 0
        rows = read_csv(out)
        want = 2 * 0.9**1.5 / 1.9
        for m in (2, 5, 8):
            assert float(rows[0][f"cminus_m{m}_eta0.9"]) == pytest.approx(want, abs=1e-12)
            assert float(rows[0][f"cplus_m{m}_eta0.9"]) == 0.0

    def test_fig1_surface(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["fig", "1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 181 * 101
        assert list(rows[0].keys()) == ["theta", "p", "concurrence"]
        values = [float(r["concurrence"]) for r in rows]
        assert min(values) >= 0.0
        assert max(values) <= 1.0 + 1e-12

    def test_fig3_labeled_columns(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig", "3", "--steps", "21", "--out", str(out)]) == 0
        rows = read_csv(out)
        cols = list(rows[0].keys())
        assert "bound_onesided_eta0.9" in cols
        assert "bound_twosided_eta0.9" in cols
        assert "direct_onesided_eta0.9" in cols
        # the exact damped state is parity-block-diagonal: direct value is 0
        assert all(float(r["direct_onesided_eta0.9"]) == 0.0 for r in rows)
        # bound column decays with alpha and starts near sqrt(eta)
        bound = [float(r["bound_onesided_eta0.9"]) for r in rows]
        assert bound[0] == pytest.approx(math.sqrt(0.9), abs=1e-12)
        assert bound[-1] < bound[1] < bound[0] + 1e-12

    def test_fig3_large_amplitude(self, tmp_path):
        # the first mode carries sqrt(2) alpha: 2 alpha^2 = 800 is past the
        # point where cosh of the overlap cross term overflows
        out = tmp_path / "fig3.csv"
        assert main(["fig", "3", "--alpha-max", "20", "--steps", "5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [float(r["alpha"]) for r in rows] == [0.0, 5.0, 10.0, 15.0, 20.0]
        for row in rows:
            for key, value in row.items():
                assert math.isfinite(float(value)), (key, value)
                if key.startswith("direct_"):
                    assert float(value) == 0.0

    def test_eta_override(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fig", "2", "--eta", "0.5", "--steps", "11", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["alpha", "pf_eta0.5"]

    def test_emitted_ranges(self, tmp_path):
        # probabilities stay in [0, 1/2], concurrences in [0, 1]
        for fig, bound in ((2, 0.5), (4, 0.5), (5, 1.0), (6, 1.0)):
            out = tmp_path / f"fig{fig}.csv"
            assert main(["fig", str(fig), "--steps", "81", "--out", str(out)]) == 0
            for row in read_csv(out):
                for key, value in row.items():
                    if key == "alpha":
                        continue
                    v = float(value)
                    assert -1e-12 <= v <= bound + 1e-12, (fig, key, v)

    def test_invalid_figure_id_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig", "7"])
        assert exc.value.code == 2

    def test_unwritable_path(self, tmp_path, capsys):
        assert main(["fig", "2", "--out", str(tmp_path / "no" / "dir.csv")]) == 2

    @pytest.mark.parametrize("argv", (
        ["fig", "2", "--eta", "5"],
        ["fig", "4", "--eta", "-1"],
        ["fig", "2", "--eta", "nan"],
        ["fig", "2", "--alpha-max", "nan"],
        ["fig", "2", "--alpha-max", "inf"],
        ["sweep", "--epsilon", "nan"],
        ["sweep", "--alpha-max", "inf"],
        ["sweep", "--eta", "nan"],
    ))
    def test_bad_parameter_is_usage_error(self, tmp_path, capsys, argv):
        # each of these once wrote out-of-range, NaN or infinite values
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"catdamp {argv[0]}: ")
        assert not out.exists()


class TestSweepCommand:
    def test_alpha_star_columns_agree(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--m", "5", "--eta", "0.9", "--out", str(out)]) == 0
        rows = read_csv(out)
        star_odd = float(rows[0]["alpha_star_concurrence_odd"])
        star_even = float(rows[0]["alpha_star_concurrence_even"])
        step = float(rows[1]["alpha"]) - float(rows[0]["alpha"])
        assert abs(star_odd - star_even) <= step + 1e-12

    def test_single_point_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "axis": {"name": "alpha", "start": 1.0, "stop": 1.0, "steps": 1},
            "quantities": ["phase_flip_prob"],
            "fixed": {"eta": 0.5},
            "out": str(tmp_path / "one.csv"),
        }))
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "one.csv")
        assert len(rows) == 1
        assert float(rows[0]["phase_flip_prob"]) == pytest.approx(
            0.43354944279148007, abs=1e-12
        )

    def test_theta_sweep_matches_fig1_cross_section(self, tmp_path):
        alpha = 0.6
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "axis": {"name": "theta", "start": 0.0, "stop": 2 * math.pi, "steps": 181},
            "quantities": ["pure_concurrence"],
            "fixed": {"alpha": alpha},
            "out": str(tmp_path / "theta.csv"),
        }))
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "theta.csv")
        p = math.exp(-4 * alpha * alpha)
        for r in rows[::30]:
            theta = float(r["theta"])
            expected = (1 - p * p) / (1 + p * p * math.cos(theta))
            assert float(r["pure_concurrence"]) == pytest.approx(expected, abs=1e-12)

    def test_unknown_quantity_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quantities": ["nope"]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "unknown quantity" in capsys.readouterr().err

    def test_bad_json_reports_position(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "line" in capsys.readouterr().err

    def test_large_amplitude_exact_quantities(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "axis": {"name": "alpha", "start": 19, "stop": 27, "steps": 9},
            "quantities": ["damped_concurrence", "ghz_concurrence", "concurrence_bound"],
            "fixed": {"eta": 0.9},
            "out": str(tmp_path / "large.csv"),
        }))
        assert main(["sweep", "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "large.csv")
        assert len(rows) == 9
        for row in rows:
            for q in ("damped_concurrence", "ghz_concurrence", "concurrence_bound"):
                assert math.isfinite(float(row[q])), (row["alpha"], q)

    def test_out_of_range_fixed_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fixed": {"eta": 1.5}}))
        assert main(["sweep", "--config", str(cfg)]) == 2


class TestSweepEngine:
    def test_vanishing_point_requires_a_drop(self):
        grid = [0.0, 1.0, 2.0, 3.0]
        # starts below threshold: not a drop until it has been above
        assert vanishing_point(grid, [0.0, 0.5, 0.2, 1e-5], 1e-3) == 3.0
        assert vanishing_point(grid, [0.5, 0.4, 0.3, 0.2], 1e-3) is None
        assert vanishing_point(grid, [1e-9] * 4, 1e-3) is None

    @pytest.mark.parametrize("values", [
        [0.0, 0.5, 0.2, 1e-5],          # rises, then drops
        [0.5, 0.4, 0.3, 0.2],           # never drops
        [1e-9] * 4,                     # never above
        [math.nan, 0.5, math.nan, 1.0],  # NaN before and after the peak
        [0.5, 0.5, 0.5, math.nan],      # a NaN is the drop
        [1e-3, math.nextafter(1e-3, 0.0), 1.0],  # at epsilon counts as above
        [0.0],
        [],
    ])
    def test_vanishing_point_equals_the_loop(self, values):
        for grid in (np.linspace(0.0, 3.0, len(values)), [10.0 + i for i in range(len(values))],
                     range(len(values))):
            for series in (values, np.array(values, dtype=float)):
                got = vanishing_point(grid, series, 1e-3)
                want = _vanishing_point_loop(grid, series, 1e-3)
                assert got == want and type(got) is type(want), (grid, values)

    def test_config_validation(self):
        with pytest.raises(ConfigError, match="axis.name"):
            SweepConfig(axis_name="beta")
        with pytest.raises(ConfigError, match="steps"):
            SweepConfig(steps=0)
        with pytest.raises(ConfigError, match="unknown field"):
            config_from_dict({"bogus": 1})

    def test_run_sweep_shapes(self):
        header, table = run_sweep(SweepConfig(steps=5, stop=2.0))
        assert header[0] == "alpha"
        assert len(table) == 5
        assert len(table.columns) == len(header)
        for name, column in zip(header, table.columns):
            if name.startswith("alpha_star_"):
                assert isinstance(column, str)
            else:
                assert column.dtype == np.float64 and column.shape == (5,)

    def test_sweep_output_byte_identical(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"s{tag}.csv"
            assert main(["sweep", "--m", "5", "--steps", "101", "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestValidateCommand:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["validate", "--seed", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["overall"] == "pass"
        assert report["seed"] == 3
        assert all(c["status"] == "pass" for c in report["checks"])
        names = [c["name"] for c in report["checks"]]
        assert "backend_equivalence" in names
        assert "phase_flip_extraction_m" in names
        # the console table carries max_error / tolerance for every check;
        # checks that count violations have tolerance 0 and read 0 when clean
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split()
        assert "margin" in header
        col = header.index("margin") - 1  # "max error" is two words
        for check, line in zip(report["checks"], lines[1:]):
            fields = line.split()
            assert fields[0] == check["name"]
            if check["tolerance"] == 0:
                assert check["max_error"] == 0 and float(fields[col]) == 0.0
            else:
                assert float(fields[col]) == pytest.approx(
                    check["max_error"] / check["tolerance"], rel=1e-3
                )

    def test_zero_tolerance_fails(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["validate", "--seed", "3", "--tolerance", "0", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["overall"] == "fail"

    def test_named_tolerance_override(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "validate", "--seed", "3",
            "--tolerance", "backend_equivalence=0",
            "--out", str(out),
        ])
        assert code == 1
        report = json.loads(out.read_text())
        failing = [c for c in report["checks"] if c["status"] == "fail"]
        assert [c["name"] for c in failing] == ["backend_equivalence"]

    def test_unknown_check_name_is_usage_error(self, tmp_path, capsys):
        assert main(["validate", "--tolerance", "bogus=1"]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # NumPy's own refusal names neither the flag nor the value
        out = tmp_path / "report.json"
        assert main(["validate", "--seed", "-1", "--out", str(out)]) == 2
        assert "catdamp validate: bad seed -1: must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, entry", (
        (["--tolerance", "nan"], "nan"),
        (["--tolerance=-1"], "-1.0"),
        (["--tolerance", "ghz_psd=nan"], "ghz_psd=nan"),
        (["--tolerance=ghz_psd=-1"], "ghz_psd=-1.0"),
        (["--tolerance", "inf"], "inf"),
    ))
    def test_bad_tolerance_is_usage_error(self, tmp_path, capsys, args, entry):
        # a NaN or negative tolerance fails every check it covers, which
        # would read as a validation failure (exit 1)
        out = tmp_path / "report.json"
        assert main(["validate", *args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"bad tolerance override {entry}:" in err
        assert not out.exists()

    @pytest.mark.parametrize("tolerances, global_tolerance", (
        ({}, math.nan), ({}, -1.0), ({"ghz_psd": math.nan}, None), ({"ghz_psd": -1e-9}, None),
    ))
    def test_run_validation_rejects_bad_tolerance(self, tolerances, global_tolerance):
        with pytest.raises(ValueError, match="bad tolerance override"):
            run_validation(0, tolerances, global_tolerance)


class TestTableMargin:
    def test_margin_is_error_over_tolerance(self):
        results = [
            CheckResult("near_bound", 6.96e-9, 1e-8, "", 0.5),
            CheckResult("far_below", 1e-15, 1e-10, "", 0.0),
            CheckResult("zero_tolerance", 2e-16, 0.0, "", 0.0),
            CheckResult("exact", 0.0, 0.0, "", 0.0),
        ]
        lines = format_table(results).splitlines()
        assert lines[0].split() == ["check", "status", "max", "error", "tolerance",
                                    "margin", "time", "[s]"]
        margins = [float(line.split()[4]) for line in lines[1:]]
        assert margins[0] == pytest.approx(0.696, rel=1e-3)
        assert margins[1] == pytest.approx(1e-5, rel=1e-3)
        assert margins[2] == math.inf
        assert margins[3] == 0.0


class TestOverflowIsUsageError:
    @staticmethod
    def overflow(*args, **kwargs):
        raise OverflowError("math range error")

    def test_fig(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "build_figure", self.overflow)
        assert main(["fig", "3", "--out", str(tmp_path / "f.csv")]) == 2
        assert "catdamp fig: math range error" in capsys.readouterr().err
        assert not (tmp_path / "f.csv").exists()

    def test_sweep(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_sweep", self.overflow)
        assert main(["sweep", "--out", str(tmp_path / "s.csv")]) == 2
        assert "catdamp sweep: math range error" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_validate(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_validation", self.overflow)
        assert main(["validate", "--out", str(tmp_path / "r.json")]) == 2
        assert "catdamp validate: math range error" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()


def test_cli_start_leaves_scipy_unimported(tmp_path):
    # catdamp's runtime needs numpy only; a fresh interpreter that imports
    # the CLI, builds its parser and runs `validate` must not load scipy.  As
    # in criterion 10, the child gets the directory of the catdamp under test
    # first on PYTHONPATH.
    package_root = str(Path(catdamp.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, inherited] if inherited else [package_root]))
    code = (
        "import sys\n"
        "import catdamp.cli\n"
        "catdamp.cli.build_parser()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        f"status = catdamp.cli.main(['validate', '--seed', '7', '--out', {str(tmp_path / 'r.json')!r}])\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"


def test_bisection_matches_brentq_on_the_saturation_crossings():
    for m in (2, 5, 8):
        def f(a):
            return phase_flip_prob_m(a, 0.99, m) - 0.49
        got = _bisect(f, 1e-6, 50.0, xtol=1e-10)
        assert abs(got - brentq(f, 1e-6, 50.0, xtol=1e-10)) <= 1e-10
    # p_{f,2} stays below 0.6 on the bracket: no sign change
    with pytest.raises(ValueError, match="different signs"):
        _bisect(lambda a: phase_flip_prob_m(a, 0.99, 2) - 0.6, 1e-6, 50.0, xtol=1e-10)


def test_array_bisection_equals_the_float_calls_bit_for_bit():
    # brackets of different widths, so the elements stop at different steps
    ms, lo, hi = np.array([2, 5, 8]), np.array([1e-6, 1e-6, 1.0]), np.array([50.0, 50.0, 2.0])
    calls = []

    def f(a):
        calls.append(a)
        return phase_flip_prob_m(a, 0.99, ms) - 0.49

    got = _bisect(f, lo, hi, xtol=1e-10)
    want = [_bisect(lambda a: phase_flip_prob_m(a, 0.99, m) - 0.49, l, h, xtol=1e-10)
            for m, l, h in zip(ms.tolist(), lo.tolist(), hi.tolist())]
    assert got.tolist() == want
    # one call per step for all three: the widest bracket's 2 + 39
    assert len(calls) == 41
    with pytest.raises(ValueError, match="different signs"):
        _bisect(lambda a: phase_flip_prob_m(a, 0.99, 2) - np.array([0.49, 0.6]),
                np.full(2, 1e-6), np.full(2, 50.0), xtol=1e-10)
