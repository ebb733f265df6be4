"""Every validation check fails when a route it compares is broken.

`MUTATIONS` maps each name in `validation.CHECKS` to a perturbation of one
function that the check reads, bound where the check looks it up: `(module,
attribute, mutate)`, with `mutate(original)` giving the replacement.  The
check runs with the generator `run_validation` gives it at seed 7, reads
within its tolerance as it is, and exceeds it under its mutation.  Most
mutations are a relative change of 1e-6; the coarser ones say why.

A NaN deviation fails its check too: `_max_deviation` returns it, where
Python's `max` from 0.0 would drop it.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from catdamp import fockref, formulas, validation
from catdamp.cli import main
from catdamp.coherent import SuperpositionDensity, scale
from catdamp.validation import CHECKS, _max_deviation

SEED = 7
EPS = 1e-6


def _times(factor):
    """Scale a function's result by factor."""
    return lambda f: lambda *args: f(*args) * factor


def _eta_times(factor):
    """Scale the transmissivity, the last argument, by factor."""
    return lambda f: lambda *args: f(*args[:-1], args[-1] * factor)


def _density_times(factor):
    """Scale the coefficient of every dyad of a density-valued function."""
    def mutate(f):
        def mutated(*args):
            table = np.array(f(*args).dyads)
            table[:, 0] *= factor
            return SuperpositionDensity(table)
        return mutated
    return mutate


def _fock_kets_times(f):
    def mutated(*args):
        rho = f(*args)
        return fockref.FockDensity(rho.dims, rho.kets * (1.0 + EPS), rho.bras)
    return mutated


def _basis_lam_times(f):
    def mutated(alpha):
        b = f(alpha)
        return dataclasses.replace(b, lam=b.lam * (1.0 + EPS))
    return mutated


def _first_kraus_times(f):
    def mutated(eta, n_max):
        ops = f(eta, n_max)
        return [ops[0] * (1.0 + EPS)] + ops[1:]
    return mutated


MUTATIONS = {
    "beamsplitter_unitarity": (
        validation, "beamsplitter",
        lambda f: lambda s, i, j, eta: scale(f(s, i, j, eta), 1.0 + EPS)),
    "loss_composition": (validation, "apply_loss", _eta_times(1.0 + EPS)),
    "trace_preservation": (validation, "apply_loss", _density_times(1.0 + EPS)),
    # a phase on every dyad: diagonal dyads turn complex
    "hermiticity_preservation": (validation, "apply_loss", _density_times(np.exp(1j * EPS))),
    "backend_equivalence": (fockref, "apply_channel", _fock_kets_times),
    "basis_orthonormality": (validation, "make_basis", _basis_lam_times),
    "projection_faithfulness": (validation, "qubit_coordinates", _times(1.0 + EPS)),
    "xstate_wootters_agreement": (validation, "xstate_concurrence", _times(1.0 + EPS)),
    "pure_concurrence_closed_form": (validation, "concurrence_pure", _times(1.0 + EPS)),
    "phase_flip_extraction": (validation, "phase_flip_prob_m", _times(1.0 + EPS)),
    "phase_flip_extraction_m": (validation, "apply_loss", _eta_times(1.0 + EPS)),
    # p_{f,m} is 1/2 to the last bit at the grid's largest alpha and m
    "phase_flip_gap_positive": (validation, "phase_flip_prob_m", _times(1.0 + EPS)),
    "ghz_diagonal_weight": (validation, "_ghz_damped_matrices", _times(1.0 + EPS)),
    "ghz_psd": (
        validation, "_ghz_damped_matrices",
        lambda f: lambda *args: f(*args) - EPS * np.eye(8)),
    # the residual is second order in the mismatch of the damped amplitudes
    # and the projection bases: both off by 1e-3 relative
    "ghz_projection_residual": (formulas, "apply_loss", _eta_times((1.0 + 1e-3) ** 2)),
    "ghz_lossless_reduction": (validation, "_ghz_damped_matrices", _times(1.0 + EPS)),
    "ghz_closed_form_agreement": (
        validation, "_ghz_elements_closed",
        lambda f: lambda *args: tuple(x * (1.0 + EPS) for x in f(*args))),
    "ghz_fock_crosscheck": (validation, "apply_loss", _eta_times(1.0 + EPS)),
    # the direct value is 0 and the bound is at least 0, so only a direct
    # route that turns nonzero fails this check: the lossless concurrence
    "bound_domination": (
        validation, "damped_concurrence",
        lambda f: lambda alpha, eta, theta, sides: formulas.concurrence_pure(alpha, theta)),
    "mmode_lossless_maximal": (validation, "concurrence_m", _times(1.0 + EPS)),
    # its tolerance, 1e-4, is above a 1e-6 change of values near 0.85
    "mmode_small_alpha_limits": (validation, "concurrence_m", _times(1.0 + 1e-3)),
    # a grid step is 0.01 in alpha: the even branch must vanish later
    "mmode_vanishing_coincidence": (
        validation, "concurrence_m",
        lambda f: lambda alpha, eta, m, parity: f(alpha, eta, m, parity) * (
            2.0 if parity == "even" else 1.0)),
    # the parity swapped
    "mmode_odd_monotone": (
        validation, "concurrence_m",
        lambda f: lambda alpha, eta, m, parity: f(
            alpha, eta, m, "even" if parity == "odd" else "odd")),
    # the loss factor dropped
    "mmode_even_unimodal": (
        validation, "concurrence_m",
        lambda f: lambda alpha, eta, m, parity: f(alpha, 1.0, m, parity)),
    # the mode ladder inverted
    "saturation_crossing_monotonic": (
        validation, "phase_flip_prob_m",
        lambda f: lambda alpha, eta, m: f(alpha, eta, 10 - m)),
    "truncation_adequacy": (fockref, "required_levels", lambda f: lambda alpha: f(alpha) // 2),
    "kraus_completeness": (fockref, "damping_kraus", _first_kraus_times),
    "fock_channel_composition": (fockref, "damping_kraus",
                                 lambda f: lambda eta, n_max: f(eta * (1.0 + EPS), n_max)),
}


def test_every_check_has_a_mutation():
    assert list(MUTATIONS) == [name for name, *_ in CHECKS]


@pytest.mark.parametrize(
    "offset", range(len(CHECKS)), ids=[name for name, *_ in CHECKS]
)
def test_check_fails_under_its_mutation(monkeypatch, offset):
    name, check, tolerance, _ = CHECKS[offset]

    def deviation():
        # the generator run_validation gives this check
        return _max_deviation(check(np.random.default_rng(SEED * 1000 + offset)))

    assert deviation() <= tolerance
    module, attribute, mutate = MUTATIONS[name]
    monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    assert deviation() > tolerance


class TestMaxDeviation:
    @pytest.mark.parametrize("deviations", (
        [math.nan],
        [0.5, math.nan, 0.1],
        [np.array([0.0, 1.0]), np.array([[0.2, math.nan]]), 2.0],
        [np.array([-1.0, math.nan])],
    ))
    def test_nan_anywhere_gives_nan(self, deviations):
        assert math.isnan(_max_deviation(iter(deviations)))

    def test_lone_negative_zero_gives_positive_zero(self):
        for deviations in ([-0.0], [np.array([-0.0])], [np.array([0.0, -0.0])]):
            value = _max_deviation(iter(deviations))
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_nothing_yielded_gives_zero(self):
        assert _max_deviation(iter([])) == 0.0

    def test_largest_signed_value(self):
        assert _max_deviation(iter([np.array([-3.0, 0.25]), -1.0, np.empty(0), 0.5])) == 0.5
        assert _max_deviation(iter([np.array([-3.0]), -1.0])) == 0.0


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_nan_deviation_fails_validate(monkeypatch, tmp_path, capsys):
    # a running max(worst, nan) from worst = 0.0 keeps 0.0, and the check
    # would pass
    monkeypatch.setattr(validation, "state_norm", lambda s: math.nan)
    out = tmp_path / "report.json"
    assert main(["validate", "--seed", "7", "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=_no_constant)
    failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failing == ["beamsplitter_unitarity"]
    # strict JSON has no NaN token: a NaN max_error is written as null
    assert report["checks"][0]["max_error"] is None
    assert report["overall"] == "fail"
    assert "overall: FAIL" in capsys.readouterr().out


def test_nan_in_the_last_fock_block_fails_validate(monkeypatch, tmp_path):
    # a NaN on the last level of the dyad route's kets reaches only the last
    # row of each dense gap, so only the last row block of `gap_blocks`
    def last_level_nan(f):
        def mutated(*args):
            rho = f(*args)
            kets = rho.kets.copy()
            kets[:, -1] = math.nan
            return fockref.FockDensity(rho.dims, kets, rho.bras)
        return mutated

    monkeypatch.setattr(fockref, "density_to_fock", last_level_nan(fockref.density_to_fock))
    out = tmp_path / "report.json"
    assert main(["validate", "--seed", "7", "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=_no_constant)
    failing = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failing] == ["backend_equivalence", "ghz_fock_crosscheck"]
    assert all(c["max_error"] is None for c in failing)
