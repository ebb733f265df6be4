"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed, not tuned.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import numpy as np
from scipy.optimize import brentq

import catdamp
from catdamp.coherent import apply_loss, density_from_pure
from catdamp.formulas import (
    _x_parts,
    cat_state,
    concurrence_m,
    concurrence_pure,
    damped_concurrence_bound,
    damped_state_projection,
    ghz_damped_elements,
    ghz_damped_projection,
    ghz_state,
    mode_ladder,
    phase_flip_prob,
    phase_flip_prob_m,
)
from catdamp import fockref
from catdamp.logical import (
    _x_matrix,
    mixture_weights,
    pure_bipartite_concurrence,
    wootters_concurrence,
    xstate_concurrence,
)

ALPHA_GRID_5 = (0.2, 0.65, 1.1, 1.55, 2.0)
ETA_GRID_5 = (0.1, 0.3, 0.5, 0.7, 0.9)


def three_mode_state(alpha, theta=math.pi):
    """|A> + e^{i theta} |-A>, normalized, with A = (sqrt(2) a, a, a)."""
    return cat_state(mode_ladder(alpha, 3), complex(math.cos(theta), math.sin(theta)))


def damped_components(alpha, eta):
    """The odd and even states at the amplitudes (sqrt(2) a, sqrt(eta) a,
    sqrt(eta) a) that two-sided loss leaves: unflipped and flipped."""
    damped = complex(math.sqrt(eta) * alpha)
    amps = (complex(math.sqrt(2.0) * alpha), damped, damped)
    return cat_state(amps, -1.0), cat_state(amps, 1.0)


class Criterion:
    """Context manager that prints one pass/fail line and enforces the
    stated runtime budget."""

    def __init__(self, number, description, seconds):
        self.number = number
        self.description = description
        self.seconds = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{status}] {self.description} "
              f"({elapsed:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)"
            )
        return False


def test_criterion_01_pure_concurrence_closed_form():
    with Criterion(1, "pure-state concurrence closed form vs exact backend", 5):
        worst = 0.0
        for theta in np.linspace(0.0, 2.0 * math.pi, 181):
            for alpha in np.linspace(0.05, 2.0, 40):
                s = three_mode_state(float(alpha), float(theta))
                got = pure_bipartite_concurrence(s, [0])
                worst = max(worst, abs(got - concurrence_pure(float(alpha), float(theta))))
        assert worst < 1e-10
        for alpha in (0.05, 0.5, 1.0, 2.0):
            assert abs(concurrence_pure(alpha, math.pi) - 1.0) < 1e-12
            assert abs(pure_bipartite_concurrence(three_mode_state(alpha, math.pi), [0]) - 1.0) < 1e-12


def test_criterion_02_phase_flip_extraction():
    with Criterion(2, "phase-flip probability from the loss pipeline", 10):
        worst = 0.0
        for alpha in ALPHA_GRID_5:
            for eta in ETA_GRID_5:
                d = apply_loss(apply_loss(three_mode_state(alpha), 1, eta), 2, eta)
                odd, even = damped_components(alpha, eta)
                weights, residual = mixture_weights(d, [odd, even])
                pf = phase_flip_prob(alpha, eta)
                worst = max(worst, abs(weights[0] - (1 - pf)), abs(weights[1] - pf))
                assert residual < 1e-10
        assert worst < 1e-10


def test_criterion_03_phase_flip_limits():
    with Criterion(3, "phase-flip small- and large-field limits", 1):
        for eta in (0.3, 0.6, 0.9):
            assert abs(phase_flip_prob(1e-4, eta) - phase_flip_prob(0.0, eta)) < 1e-6
            assert phase_flip_prob(0.0, eta) == (1.0 - eta) / 2.0
            assert abs(phase_flip_prob(4.0, eta) - 0.5) < 1e-3


def test_criterion_04_mode_count_identity():
    with Criterion(4, "three-mode identity of the m-mode phase-flip formula", 1):
        # the paper's three-mode expression, in 50-digit arithmetic
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(200):
            alpha = float(rng.uniform(0.05, 4.0))
            eta = float(rng.uniform(0.01, 1.0))
            with mpmath.workdps(50):
                a2, e = mpmath.mpf(alpha) ** 2, mpmath.mpf(eta)
                e8 = mpmath.exp(-8 * a2)
                want = (1 - e8 - mpmath.exp(-4 * (1 - e) * a2)
                        + mpmath.exp(-4 * (1 + e) * a2)) / (2 * (1 - e8))
            for got in (phase_flip_prob_m(alpha, eta, 3), phase_flip_prob(alpha, eta)):
                worst = max(worst, float(abs(got - want)))
        assert worst < 1e-15


def test_criterion_05_xstate_closed_form():
    with Criterion(5, "X-state concurrence equals the spin-flip value", 2):
        rng = np.random.default_rng(987)
        worst = 0.0
        for _ in range(1000):
            diag = rng.uniform(0.05, 1.0, size=4)
            diag /= diag.sum()
            a, b, c, d = (float(v) for v in diag)
            e = float(rng.uniform()) * math.sqrt(b * c) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            f = float(rng.uniform()) * math.sqrt(a * d) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            x = _x_matrix(a, b, c, d, e, f)
            worst = max(worst, abs(xstate_concurrence(x) - wootters_concurrence(x)))
        assert worst < 1e-10


def test_criterion_06_ghz_channel_matrix():
    with Criterion(6, "damped-GHZ matrix: weight, positivity, residual, Fock check", 30):
        for alpha in ALPHA_GRID_5:
            for eta in ETA_GRID_5:
                x = ghz_damped_elements(alpha, eta, "one")
                assert abs(np.trace(x).real - 1.0) < 1e-10
                assert np.linalg.eigvalsh(x).min() > -1e-9
                _, residual = ghz_damped_projection(alpha, eta, "one")
                assert abs(residual) < 1e-10
        lossless = ghz_damped_elements(0.8, 1.0, "one")
        assert abs(lossless[0, 0] - 0.5) < 1e-12
        assert abs(lossless[3, 3] - 0.5) < 1e-12
        assert abs(abs(lossless[0, 3]) - 0.5) < 1e-12
        # two-mode analog against the truncated Fock backend
        for alpha, eta in ((0.5, 0.3), (1.0, 0.7), (1.5, 0.9)):
            g = ghz_state(alpha, modes=2)
            n = fockref.required_levels(alpha)
            via_exact = fockref.density_to_fock(
                apply_loss(density_from_pure(g, check_norm=False), 1, eta), n
            )
            start = fockref.fock_density_from_vector(
                fockref.state_to_fock(g, n), (n + 1, n + 1)
            )
            via_fock = fockref.apply_channel(start, 1, fockref.damping_kraus(eta, n))
            assert float(np.max(np.abs(via_exact.mat - via_fock.mat))) < 1e-8


def test_criterion_07_concurrence_bound():
    with Criterion(7, "damped-GHZ bound dominates the direct damped value", 10):
        for sides in ("one", "two"):
            for alpha in ALPHA_GRID_5:
                for eta in ETA_GRID_5:
                    bound = damped_concurrence_bound(alpha, eta, math.pi, sides)
                    direct = xstate_concurrence(
                        _x_parts(damped_state_projection(alpha, eta, math.pi, sides)[0])
                    )
                    assert bound - direct >= -1e-9


def test_criterion_08_mmode_concurrence():
    with Criterion(8, "m-mode concurrence limits, coincidence, and shape", 5):
        for m in (2, 5, 8):
            for alpha in np.linspace(0.1, 3.0, 30):
                assert abs(concurrence_m(float(alpha), 1.0, m, "odd") - 1.0) < 1e-12
        want = 2 * 0.9**1.5 / 1.9
        for m in (2, 5, 8):
            assert abs(concurrence_m(1e-4, 0.9, m, "odd") - want) < 1e-4
            assert abs(concurrence_m(1e-4, 0.9, m, "even")) < 1e-4
        grid = np.linspace(0.0, 4.0, 401)
        eps = 1e-3
        for m in (2, 5, 8):
            indices = {}
            for parity in ("odd", "even"):
                vals = [concurrence_m(float(a), 0.9, m, parity) for a in grid]
                seen_above = False
                found = None
                for i, v in enumerate(vals):
                    if v >= eps:
                        seen_above = True
                    elif seen_above:
                        found = i
                        break
                indices[parity] = found
            assert (indices["odd"] is None) == (indices["even"] is None)
            if indices["odd"] is not None:
                assert abs(indices["odd"] - indices["even"]) <= 1
        shape_grid = np.linspace(0.5, 4.0, 176)
        for m in (2, 5, 8):
            odd = [concurrence_m(float(a), 0.9, m, "odd") for a in shape_grid]
            assert all(b - a <= 1e-12 for a, b in zip(odd, odd[1:]))
            even = np.array([concurrence_m(float(a), 0.9, m, "even") for a in shape_grid])
            diffs = np.diff(even)
            signs = np.sign(diffs[np.abs(diffs) > 1e-15])
            assert int(np.sum(signs[1:] != signs[:-1])) <= 1
            if len(signs):
                assert signs[-1] <= 0


def test_criterion_09_saturation_order():
    with Criterion(9, "saturation amplitude strictly decreasing in mode count", 1):
        crossings = [
            brentq(lambda a: phase_flip_prob_m(a, 0.99, m) - 0.49, 1e-6, 50.0, xtol=1e-10)
            for m in (2, 5, 8)
        ]
        assert crossings[0] > crossings[1] > crossings[2]


def test_criterion_10_determinism(tmp_path):
    with Criterion(10, "byte-identical validation report and figure files", 60):
        # The child runs in tmp_path, where a relative PYTHONPATH entry such
        # as `src` does not resolve. Put the directory holding the catdamp
        # this process imported first, so the CLI runs the code under test.
        package_root = str(Path(catdamp.__file__).resolve().parent.parent)
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [package_root, inherited] if inherited else [package_root]))

        def run(args):
            proc = subprocess.run(
                [sys.executable, "-m", "catdamp", *args],
                cwd=tmp_path,
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc

        pairs = []
        for tag in ("a", "b"):
            report = tmp_path / f"report_{tag}.json"
            run(["validate", "--seed", "7", "--out", str(report)])
            pairs.append(report.read_bytes())
        assert pairs[0] == pairs[1]
        payload = json.loads(pairs[0])
        assert payload["overall"] == "pass"

        for fig in range(1, 7):
            blobs = []
            for tag in ("a", "b"):
                out = tmp_path / f"fig{fig}_{tag}.csv"
                run(["fig", str(fig), "--out", str(out)])
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], f"figure {fig} output differs between runs"
