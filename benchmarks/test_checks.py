"""Tests of the benchmark's output checkers, which must accept what catdamp
writes and reject a perturbed value, a dropped row and a failed report; and
of the traced run's metric names and units against BENCHMARK.json.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import checks
import workloads

SRC = Path(__file__).resolve().parents[1] / "src"
SWEEP_SPEC = {"eta": 0.7, "m": 5, "steps": 2001, "stop": 4.0, "epsilon": 1e-3}
SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, str]:
    """Text of fig 1..6, a validate report and a small sweep, written by the
    catdamp in this checkout's src/."""
    sys.path.insert(0, str(SRC))
    try:
        from catdamp import cli
    finally:
        sys.path.remove(str(SRC))
    out = tmp_path_factory.mktemp("outputs")
    (out / "sweep.json").write_text(json.dumps({
        "axis": {"name": "alpha", "start": 0.0, "stop": SWEEP_SPEC["stop"],
                 "steps": SWEEP_SPEC["steps"]},
        "quantities": list(checks.SWEEP_QUANTITIES),
        "fixed": {"eta": SWEEP_SPEC["eta"], "m": SWEEP_SPEC["m"]},
        "epsilon": SWEEP_SPEC["epsilon"],
    }))
    argvs = {f"fig{f}": ["fig", str(f)] for f in workloads.FIGURES}
    argvs["report"] = ["validate", "--seed", str(SEED)]
    argvs["sweep"] = ["sweep", "--config", str(out / "sweep.json")]
    texts = {}
    for name, argv in argvs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--out", str(out / name)]) == 0
        texts[name] = (out / name).read_text()
    return texts


def check(name: str, text: str) -> dict:
    if name == "report":
        return checks.check_report(text, SEED)
    if name == "sweep":
        return checks.check_sweep(text, SWEEP_SPEC, sample_seed=SEED)
    return checks.check_figure(int(name[3:]), text)


# (output, column whose value is perturbed): a value column of each CSV
CSV_CASES = [("fig1", 2), ("fig2", 1), ("fig3", 1), ("fig3", 4), ("fig4", 6),
             ("fig5", 3), ("fig6", 4), ("sweep", 2), ("sweep", 4)]
OUTPUT_NAMES = [f"fig{f}" for f in workloads.FIGURES] + ["report", "sweep"]


@pytest.mark.parametrize("name", OUTPUT_NAMES)
def test_accepts_program_output(outputs, name):
    check(name, outputs[name])


@pytest.mark.parametrize("name,column", CSV_CASES)
def test_rejects_one_perturbed_value(outputs, name, column):
    lines = outputs[name].split("\n")
    row = len(lines) // 2
    fields = lines[row].split(",")
    value = float(fields[column])
    fields[column] = repr(value * (1.0 + 1e-6) + 1e-6)
    lines[row] = ",".join(fields)
    with pytest.raises(checks.CheckFailure):
        check(name, "\n".join(lines))


@pytest.mark.parametrize("name", sorted({name for name, _ in CSV_CASES}))
def test_rejects_dropped_row(outputs, name):
    lines = outputs[name].split("\n")
    del lines[len(lines) // 2]
    with pytest.raises(checks.CheckFailure):
        check(name, "\n".join(lines))


def test_rejects_failed_report(outputs):
    report = json.loads(outputs["report"])
    report["overall"] = "fail"
    with pytest.raises(checks.CheckFailure):
        check("report", json.dumps(report, indent=2) + "\n")


def test_rejects_check_over_tolerance(outputs):
    report = json.loads(outputs["report"])
    report["checks"][3]["max_error"] = 2.0 * report["checks"][3]["tolerance"] + 1.0
    with pytest.raises(checks.CheckFailure):
        check("report", json.dumps(report, indent=2) + "\n")


def test_rejects_odd_even_vanishing_apart(outputs):
    header, rows = checks.parse_csv(outputs["sweep"])
    even = header.index("alpha_star_concurrence_even")
    later = repr(float(rows[0][even]) + 0.01)
    text = "\n".join([",".join(header)] + [",".join(r[:even] + [later] + r[even + 1:])
                                            for r in rows]) + "\n"
    with pytest.raises(checks.CheckFailure):
        check("sweep", text)


def test_reported_metrics_match_manifest():
    import run

    manifest = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    report = {"trace_passes": [{}], "validation": {},
              "untraced": {"walls": [1.0], "cpus": [1.0]}, "traced_walls": [1.0]}
    metrics = run.trace_metrics(report, dict.fromkeys(run.IMPORT_PACKAGES, 0.1))
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == \
        {name: m["unit"] for name, m in metrics.items()}
    assert [m["name"] for m in manifest["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
