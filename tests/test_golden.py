"""The golden outputs: `fig 1..6` and the default `sweep` as `write_csv`
writes them, and the `validate --seed 7` report, against their sha256
digests.  A change that moves one on purpose updates its row here and
says so in CHANGES.md.

A CSV that moves is named with its header, its row count or the columns
whose digest moved, each column digest being the sha256 of its values as
written, one per line; the report is named with the checks whose
`max_error` moved, old -> new.
"""

import hashlib
import json

import pytest

from catdamp.figures import build_figure, write_csv
from catdamp.sweep import SweepConfig, run_sweep
from catdamp.validation import run_validation, write_report

# name -> (sha256 of the file, the first 12 hex digits of each column's digest)
CSV_DIGESTS = {
    "fig1": ("ee91bf641bb7e2825bb6615c80b06728270cc5e9688f6d0661febda7621378fd",
        ("317be95b21fe", "32adb99ac232", "548d00390334")),
    "fig2": ("93465e910743ba0ad7b25ca4fd63e7dbb4502b723d23cd864ce25b16a5250a44",
        ("004ecb341c59", "5e7de30f6ae9", "ab838e84118f", "0d3b16763a90")),
    "fig3": ("350b29152c8ed4d438c94a7e6a680683eb908c9706d3d153bbcb2f9c72ce2f26",
        ("004ecb341c59", "7cf6b567eb32", "b7fbf3351b1a", "5a959155cb34", "5a959155cb34",
         "0d36d696b63b", "25d3ed5fed56", "5a959155cb34", "5a959155cb34", "db661f15810b",
         "0eb4d11e3e7b", "5a959155cb34", "5a959155cb34")),
    "fig4": ("e22cb979276988731c22f19d74cc6a1baeb16c0ef9c74c5cc257956b241382d5",
        ("004ecb341c59", "4e968c02f554", "d30af2e635f4", "2c1b29e3cc66", "8ad683ef2dce",
         "ad99d7dc01f0", "af2b59ea4d61")),
    "fig5": ("65585bd529da15f5c67b54c556d54af49e625ff3b81fe5ce20730916d42675cc",
        ("004ecb341c59", "f6b638e41c6d", "15cb37e0e89b", "af4137652d8f", "4e60c6f4c43e",
         "8f733c14e2b3", "ce6554a5869d")),
    "fig6": ("2efbc54d62bf5def5364338abee81942aa912af092b2561d5ddd47abdcabc3e5",
        ("004ecb341c59", "dffcb4cea7cc", "06ae841047ad", "6d19687421e2", "8557db8b072d",
         "a587b5b2cd75", "3828cf9c9f19")),
    "sweep": ("cd28ebb4d32eeb9b8b74c41bd3367c38d0d2adfef71f86db0c300a232561b1f7",
        ("004ecb341c59", "15cb37e0e89b", "8f733c14e2b3", "8092c2d32438", "8092c2d32438")),
}
REPORT_DIGEST = "d4fa73f22345c69de7189b78bca5761349651ff09d3635c9450125f0c588bbf0"
REPORT_ERRORS = {
    "beamsplitter_unitarity": 8.881784197001252e-16,
    "loss_composition": 2.482534153247273e-16,
    "trace_preservation": 2.220446049250313e-16,
    "hermiticity_preservation": 0.0,
    "backend_equivalence": 6.9628023409823225e-09,
    "basis_orthonormality": 8.881784197001252e-16,
    "projection_faithfulness": 3.4684476073050936e-15,
    "xstate_wootters_agreement": 9.43689570931383e-16,
    "pure_concurrence_closed_form": 1.7410552166641224e-13,
    "phase_flip_extraction": 1.2212453270876722e-15,
    "phase_flip_extraction_m": 9.04583445372121e-16,
    "phase_flip_gap_positive": 0.0,
    "ghz_diagonal_weight": 2.220446049250313e-16,
    "ghz_psd": 1.1038634653891456e-16,
    "ghz_projection_residual": 3.2951419370874646e-13,
    "ghz_lossless_reduction": 0.0,
    "ghz_closed_form_agreement": 5.760947274779937e-13,
    "ghz_fock_crosscheck": 1.1991194311009355e-09,
    "bound_domination": 0.0,
    "mmode_lossless_maximal": 0.0,
    "mmode_small_alpha_limits": 1.0928831593535975e-06,
    "mmode_vanishing_coincidence": 0.0,
    "mmode_odd_monotone": 0.0,
    "mmode_even_unimodal": 0.0,
    "saturation_crossing_monotonic": 0.0,
    "truncation_adequacy": 5.583311590839912e-13,
    "kraus_completeness": 8.881784197001252e-16,
    "fock_channel_composition": 1.6653345369377348e-16,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_moves(text: str, columns: tuple[str, ...]) -> str:
    """The header, the row count and the columns whose digests moved."""
    lines = text.splitlines()
    header = lines[0].split(",")
    if len(header) != len(columns):
        return f"header is now {header}"
    values = zip(*(line.split(",") for line in lines[1:]))
    moved = [name for name, old, col in zip(header, columns, values)
             if sha256("\n".join(col).encode())[:12] != old]
    return f"{len(lines) - 1} rows; columns moved: {', '.join(moved) or 'none'}"


def build(name: str):
    if name == "sweep":
        return run_sweep(SweepConfig())
    return build_figure(int(name[3:]))


@pytest.mark.parametrize("name", sorted(CSV_DIGESTS))
def test_csv_digest(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    write_csv(str(path), *build(name))
    digest, columns = CSV_DIGESTS[name]
    data = path.read_bytes()
    assert sha256(data) == digest, f"{name}: " + csv_moves(data.decode(), columns)


def test_validate_report_digest(tmp_path):
    path = tmp_path / "report.json"
    write_report(str(path), 7, run_validation(7))
    data = path.read_bytes()
    checks = json.loads(data)["checks"]
    assert [c["name"] for c in checks] == list(REPORT_ERRORS)
    moved = [f"{c['name']} {REPORT_ERRORS[c['name']]!r} -> {c['max_error']!r}"
             for c in checks if c["max_error"] != REPORT_ERRORS[c["name"]]]
    assert sha256(data) == REPORT_DIGEST, "max_error moved: " + "; ".join(moved or ["none"])
