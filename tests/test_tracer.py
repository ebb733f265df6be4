"""The benchmark's tracer wraps catdamp's functions by name: installing it
on the loaded modules and taking it off again must find every name."""

import importlib.util
from pathlib import Path

import numpy as np

import catdamp.cli  # noqa: F401  (loads every catdamp module the tracer wraps)
from catdamp import coherent, fockref, formulas, logical

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("catdamp_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    originals = (formulas.ghz_damped_elements, formulas.ghz_damped_projection,
                 coherent.coherent_overlap, logical.LogicalBasis.overlaps,
                 coherent.apply_loss)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert formulas.ghz_damped_projection is not originals[1]
        formulas.ghz_damped_elements(0.8, 0.5, "two")
        formulas.ghz_damped_projection(np.array([0.5, 0.8]), 0.5, "two")
        counts = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert counts["formulas.ghz_damped_projection_calls"] == 1
    # the route is the generic composition per amplitude: one
    # `LogicalBasis.overlaps` call per distinct amplitude (+-a) of each of
    # the three modes, and overlaps from the array kernel, not the scalar one
    assert counts["logical.overlaps_calls"] == 2 * 3 * 2
    assert counts.get("coherent.coherent_overlap_calls", 0) == 0
    assert counts["coherent.apply_loss_calls"] == 2 * 2
    assert counts["coherent.canonicalize_calls"] == 2 * 2
    assert (formulas.ghz_damped_elements, formulas.ghz_damped_projection,
            coherent.coherent_overlap, logical.LogicalBasis.overlaps,
            coherent.apply_loss) == originals


def test_tracer_counts_dyads():
    # the dyad hooks read len(x.dyads) and, for a pure state, len(x.terms)
    state = formulas.cat_state(formulas.mode_ladder(0.7, 3), -1.0)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        from_state = coherent.apply_loss(state, 1, 0.5)
        damped = coherent.apply_loss(from_state, 2, 0.5)
        doubled = coherent.SuperpositionDensity(np.concatenate([damped.dyads, damped.dyads]))
        merged = coherent.canonicalize(doubled)
        logical.project_to_qubits(merged, [logical.make_basis(0.7)] * 3)
        counts = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert counts["coherent.apply_loss_calls"] == 2
    # the state's 2 terms count as the 2^2 dyads of their density
    assert counts["coherent.apply_loss_dyads"] == 2**2 + 4
    assert counts["coherent.canonicalize_dyads_in"] == 8
    assert counts["coherent.canonicalize_dyads_out"] == 4
    assert counts["logical.project_to_qubits_calls"] == 1
    assert counts["logical.project_to_qubits_dyads"] == 4


def test_tracer_wraps_the_fock_oracle():
    # the Fock wrappers read `dims` off each result for the largest n_max
    originals = (fockref.density_to_fock, fockref.apply_channel)
    n = fockref.required_levels(0.6)
    rho_in = coherent.density_from_pure(formulas.cat_state((0.6, 0.6), -1.0))
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert fockref.apply_channel is not originals[1]
        rho = fockref.density_to_fock(rho_in, n)
        fockref.apply_channel(rho, 1, fockref.damping_kraus(0.5, n))
        fockref.apply_channel(rho, 0, fockref.damping_kraus(0.5, n))
        counts = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert counts["fockref.apply_channel_calls"] == 2
    assert counts["fockref.n_max_max"] == n
    assert counts["fockref.density_to_fock_s"] > 0.0
    assert (fockref.density_to_fock, fockref.apply_channel) == originals
