import math

import mpmath
import numpy as np
import pytest

from catdamp.cli import main
from catdamp.coherent import (
    apply_loss,
    canonicalize,
    density_from_pure,
    state_inner,
    state_norm,
)
from catdamp.figures import FIG3_ETAS, build_figure
from catdamp.sweep import SweepConfig, run_sweep
from catdamp.formulas import (
    SIDES,
    ChannelParams,
    _LOSSY_MODES,
    _PATTERN_SIGNS,
    _damped_density,
    _ghz_damped_matrices,
    _ghz_elements_closed,
    _x_elements,
    cat_state,
    concurrence_m,
    concurrence_pure,
    damped_concurrence_bound,
    damped_state_elements,
    damped_state_projection,
    ghz_concurrence_limit,
    ghz_damped_elements,
    ghz_damped_projection,
    ghz_state,
    mode_ladder,
    phase_flip_prob,
    phase_flip_prob_m,
)
from catdamp.logical import (
    XStateElements,
    _loss_kraus,
    make_basis,
    project_to_qubits,
    wootters_concurrence,
    xstate_concurrence,
)
from catdamp.logical import mixture_weights, pure_bipartite_concurrence
from catdamp.validation import (
    ALPHA_GRID,
    ETA_GRID,
    _phase_flip_extraction,
    check_phase_flip_extraction,
)


class TestConcurrencePure:
    def test_maximal_at_pi(self):
        for a in (0.05, 0.3, 1.0, 2.0):
            assert concurrence_pure(a, math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        # (alpha = 0.5, theta = 0) -> tanh(1)
        assert concurrence_pure(0.5, 0.0) == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_vacuum_product(self):
        assert concurrence_pure(0.0, 0.0) == 0.0

    def test_vanishing_state_reads_zero(self):
        # the odd state vanishes at alpha = 0; fig 1 and the sweep emit 0
        assert concurrence_pure(0.0, math.pi) == 0.0
        assert concurrence_pure(0.0, 1.0) == 0.0


class TestPhaseFlip:
    def test_frozen_value(self):
        # direct evaluation at alpha=1, eta=0.5, cross-checked against the
        # beamsplitter pipeline in test_logical
        assert phase_flip_prob(1.0, 0.5) == pytest.approx(
            0.43354944279148007, abs=1e-14
        )

    def test_lossless_channel(self):
        for a in (0.2, 1.0, 3.0):
            assert phase_flip_prob(a, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_large_alpha_saturates(self):
        for eta in (0.3, 0.6, 0.9):
            assert phase_flip_prob(4.0, eta) == pytest.approx(0.5, abs=1e-3)

    def test_small_alpha_limit(self):
        for eta in (0.3, 0.6, 0.9):
            assert phase_flip_prob(1e-4, eta) == pytest.approx(
                phase_flip_prob(0.0, eta), abs=1e-6
            )

    def test_alpha_zero_limit(self):
        # the 0/0 point takes its limit (1 - eta)/2, for every mode count
        for eta in (0.0, 0.3, 0.9, 1.0):
            assert phase_flip_prob(0.0, eta) == (1.0 - eta) / 2.0
            for m in (1, 3, 8):
                assert phase_flip_prob_m(0.0, eta, m) == (1.0 - eta) / 2.0

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = phase_flip_prob(rng.uniform(0.01, 5.0), rng.uniform(0.0, 1.0))
            assert 0.0 <= p < 0.5 + 1e-12

    def test_unflipped_weight_identity(self):
        # 1 - p_f = 1/2 + (e^{-4(1-eta)x} - e^{-4(1+eta)x}) / (2(1 - e^{-8x}))
        rng = np.random.default_rng(21)
        for _ in range(100):
            a = float(rng.uniform(0.05, 3.0))
            eta = float(rng.uniform(0.05, 1.0))
            x = a * a
            survive = 0.5 + (
                math.exp(-4 * (1 - eta) * x) - math.exp(-4 * (1 + eta) * x)
            ) / (2 * (1 - math.exp(-8 * x)))
            assert 1.0 - phase_flip_prob(a, eta) == pytest.approx(survive, abs=1e-13)


def phase_flip_m3_mpmath(alpha, eta):
    """The three-mode phase-flip probability as the paper writes it, in
    50-digit arithmetic."""
    with mpmath.workdps(50):
        a2, eta = mpmath.mpf(alpha) ** 2, mpmath.mpf(eta)
        e8 = mpmath.exp(-8 * a2)
        return (1 - e8 - mpmath.exp(-4 * (1 - eta) * a2)
                + mpmath.exp(-4 * (1 + eta) * a2)) / (2 * (1 - e8))


class TestPhaseFlipM:
    def test_matches_three_mode_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = float(rng.uniform(0.05, 4.0))
            eta = float(rng.uniform(0.01, 1.0))
            want = phase_flip_m3_mpmath(a, eta)
            for got in (phase_flip_prob(a, eta), phase_flip_prob_m(a, eta, 3)):
                assert abs(got - want) < 1e-15, (a, eta)

    @pytest.mark.parametrize("call", (
        lambda m: phase_flip_prob_m(0.5, 0.5, m),
        lambda m: concurrence_m(0.5, 0.5, m, "odd"),
        lambda m: mode_ladder(0.5, m),
        lambda m: ChannelParams(m=m),
    ))
    def test_m_above_1024_is_rejected(self, call):
        # 2^{m-1} is a finite double up to m = 1024; 1025 once raised a raw
        # OverflowError
        call(1024)
        for m in (1025, 2000):
            with pytest.raises(ValueError, match=rf"m must lie in \[1, 1024\], got {m}"):
                call(m)

    def test_lossless(self):
        for m in (1, 3, 8):
            assert phase_flip_prob_m(1.0, 1.0, m) == pytest.approx(0.0, abs=1e-15)

    def test_extraction_at_m3_is_the_three_mode_check(self):
        # the three-mode pipeline as phase_flip_extraction wrote it before
        # the check took m: loss on modes 1 and 2, and phase_flip_prob
        pi_phase = complex(math.cos(math.pi), math.sin(math.pi))
        worst = 0.0
        for alpha in ALPHA_GRID:
            state = cat_state((complex(math.sqrt(2.0) * alpha), complex(alpha), complex(alpha)),
                              pi_phase)
            for eta in ETA_GRID:
                d = apply_loss(apply_loss(state, 1, eta), 2, eta)
                damped = complex(math.sqrt(eta) * alpha)
                amps = (complex(math.sqrt(2.0) * alpha), damped, damped)
                weights, residual = mixture_weights(d, [cat_state(amps, -1.0),
                                                        cat_state(amps, 1.0)])
                pf = phase_flip_prob(alpha, eta)
                worst = max(worst, abs(weights[0] - (1.0 - pf)), abs(weights[1] - pf), residual)
        assert _phase_flip_extraction(3, ALPHA_GRID, ETA_GRID) == worst
        assert check_phase_flip_extraction(None) == worst

    def test_more_modes_saturate_sooner(self):
        # at fixed alpha the probability approaches 1/2 faster as m grows
        a = 0.8
        vals = [phase_flip_prob_m(a, 0.99, m) for m in (2, 5, 8)]
        assert vals[0] < vals[1] < vals[2]


class TestMmodeState:
    def test_ladder(self):
        # m counts every mode, and the m modes carry 2^{m-1} a^2 photons
        a = 0.7
        amps = mode_ladder(a, 5)
        assert len(amps) == 5
        assert amps[0] == pytest.approx(2 ** 1.5 * a)
        assert amps[-2] == amps[-1] == pytest.approx(a)
        total = sum(abs(x) ** 2 for x in amps)
        assert total == pytest.approx((2**4) * a * a, abs=1e-12)
        assert mode_ladder(a, 1) == (complex(a),)
        assert mode_ladder(a, 2) == (complex(a), complex(a))

    def test_m3_is_three_mode_state(self):
        a = 0.9
        assert mode_ladder(a, 3) == (complex(math.sqrt(2.0) * a), a, a)
        s1 = cat_state(mode_ladder(a, 3), -1.0)
        s2 = cat_state(mode_ladder(a, 3), complex(math.cos(math.pi), math.sin(math.pi)))
        assert abs(state_inner(s1, s2)) == pytest.approx(1.0, abs=1e-12)

    def test_normalized(self):
        for m in (1, 2, 5, 8):
            for parity in ("even", "odd"):
                s = cat_state(mode_ladder(0.4, m), 1.0 if parity == "even" else -1.0)
                assert state_norm(s) == pytest.approx(1.0, abs=1e-12)

    def test_even_vacuum(self):
        s = cat_state(mode_ladder(0.0, 3), 1.0)
        assert state_norm(s) == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.amps == 0)

    def test_odd_vacuum_rejected(self):
        with pytest.raises(ValueError):
            cat_state(mode_ladder(0.0, 3), -1.0)

    def test_odd_state_maximally_entangled(self):
        for m in (2, 3, 5):
            s = cat_state(mode_ladder(0.6, m), -1.0)
            assert pure_bipartite_concurrence(s, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_even_state_partially_entangled(self):
        # the plus-parity state is separable in the small-field limit
        m = 4
        g = lambda a: math.exp(-(2.0**m) * a * a)
        for a in (0.2, 0.5, 1.0):
            expected = (1 - g(a)) / (1 + g(a))
            got = pure_bipartite_concurrence(cat_state(mode_ladder(a, m), 1.0), [0])
            assert got == pytest.approx(expected, abs=1e-10)


class TestConcurrenceM:
    def test_lossless_odd_is_maximal(self):
        for m in (2, 5, 8):
            for a in (0.1, 0.5, 1.0, 2.0, 3.0):
                assert concurrence_m(a, 1.0, m, "odd") == pytest.approx(1.0, abs=1e-12)

    def test_small_alpha_limits(self):
        eta = 0.9
        want = 2.0 * eta**1.5 / (1.0 + eta)
        for m in (2, 5, 8):
            assert concurrence_m(1e-4, eta, m, "odd") == pytest.approx(want, abs=1e-4)
            assert concurrence_m(1e-4, eta, m, "even") == pytest.approx(0.0, abs=1e-4)
            assert concurrence_m(0.0, eta, m, "odd") == pytest.approx(want, abs=1e-12)
            assert concurrence_m(0.0, eta, m, "even") == 0.0

    def test_range(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            c = concurrence_m(
                rng.uniform(0.01, 4.0),
                rng.uniform(0.05, 1.0),
                int(rng.integers(1, 9)),
                "odd" if rng.uniform() < 0.5 else "even",
            )
            assert -1e-12 <= c <= 1.0 + 1e-12

    def test_odd_monotone_even_unimodal(self):
        alphas = np.linspace(0.5, 4.0, 176)
        for m in (2, 5, 8):
            odd = [concurrence_m(a, 0.9, m, "odd") for a in alphas]
            even = [concurrence_m(a, 0.9, m, "even") for a in alphas]
            assert all(b - a <= 1e-12 for a, b in zip(odd, odd[1:]))
            diffs = np.diff(even)
            signs = np.sign(diffs[np.abs(diffs) > 1e-15])
            assert np.sum(signs[1:] != signs[:-1]) <= 1
            if len(signs):
                assert signs[-1] <= 0  # ends decaying


class TestGhzPipeline:
    def test_state_normalized(self):
        g = ghz_state(0.8)
        assert state_norm(g) == pytest.approx(1.0, abs=1e-12)

    def test_lossless_reduces_to_ghz(self):
        x = ghz_damped_elements(0.9, 1.0, "one")
        assert x.a == pytest.approx(0.5, abs=1e-12)
        assert x.d == pytest.approx(0.5, abs=1e-12)
        assert abs(x.f) == pytest.approx(0.5, abs=1e-12)
        assert abs(x.b) < 1e-12 and abs(x.c) < 1e-12 and abs(x.e) < 1e-12

    def test_one_sided_closed_form(self):
        # pipeline against the analytic element table
        for a in (0.3, 0.8, 1.5):
            for eta in (0.2, 0.6, 0.9):
                x = ghz_damped_elements(a, eta, "one")
                t = math.exp(-2 * (1 - eta) * a * a)
                lam2 = (1 + math.exp(-2 * a * a)) / 2
                mu2 = (1 - math.exp(-2 * a * a)) / 2
                lamp2 = (1 + math.exp(-2 * eta * a * a)) / 2
                mup2 = (1 - math.exp(-2 * eta * a * a)) / 2
                assert x.a == pytest.approx((1 + t) * lamp2 / (4 * lam2), abs=1e-12)
                assert x.b == pytest.approx((1 - t) * mup2 / (4 * lam2), abs=1e-12)
                assert x.c == pytest.approx((1 - t) * lamp2 / (4 * mu2), abs=1e-12)
                assert x.d == pytest.approx((1 + t) * mup2 / (4 * mu2), abs=1e-12)
                lm = math.sqrt(lam2 * mu2)
                lmp = math.sqrt(lamp2 * mup2)
                assert abs(x.e) == pytest.approx((1 - t) * lmp / (4 * lm), abs=1e-12)
                assert abs(x.f) == pytest.approx((1 + t) * lmp / (4 * lm), abs=1e-12)

    def test_one_sided_unit_diagonal_weight(self):
        for a in (0.3, 1.0, 2.0):
            for eta in (0.1, 0.5, 0.9):
                x = ghz_damped_elements(a, eta, "one")
                assert x.a + x.b + x.c + x.d == pytest.approx(1.0, abs=1e-10)
                assert x.min_eigenvalue() > -1e-9

    def test_projection_residual_small(self):
        for sides in ("one", "two"):
            _, res = ghz_damped_projection(0.8, 0.4, sides)
            assert abs(res) < 1e-10

    def test_strong_loss_kills_coherence(self):
        # e, f shrink with the damped-basis weight mu' ~ sqrt(eta) alpha
        levels = [
            max(abs(ghz_damped_elements(1.2, eta, "one").e),
                abs(ghz_damped_elements(1.2, eta, "one").f))
            for eta in (1e-2, 1e-4, 1e-6)
        ]
        assert levels[0] > levels[1] > levels[2]
        assert levels[2] < 2e-3

    def test_concurrence_alpha_limits(self):
        for eta in (0.3, 0.7, 0.95):
            one = xstate_concurrence(ghz_damped_elements(1e-3, eta, "one"))
            assert one == pytest.approx(ghz_concurrence_limit(eta, "one"), abs=1e-4)
            two = xstate_concurrence(ghz_damped_elements(1e-3, eta, "two"))
            assert two == pytest.approx(ghz_concurrence_limit(eta, "two"), abs=1e-4)

    def test_pipeline_matches_stable_closed_forms(self):
        # the dyad pipeline and the expm1-based closed forms are the same
        # algebra; they must agree wherever the pipeline is well conditioned
        for sides in ("one", "two"):
            for a in (0.2, 0.5, 1.0, 2.0):
                for eta in (0.1, 0.5, 0.9):
                    p = _x_elements(ghz_damped_projection(a, eta, sides)[0])
                    c = XStateElements(*_ghz_elements_closed(a, eta, sides))
                    for name in ("a", "b", "c", "d", "e", "f"):
                        assert abs(getattr(p, name) - getattr(c, name)) < 1e-11


class TestDampedStateElements:
    def test_cross_parity_coherences_vanish(self):
        # exact channel output is block diagonal across logical parity
        for sides in ("one", "two"):
            x = damped_state_elements(0.9, 0.5, math.pi, sides)
            assert abs(x.e) < 1e-12
            assert abs(x.f) < 1e-12
            assert xstate_concurrence(x) == 0.0

    def test_projection_residual_small(self):
        for sides in ("one", "two"):
            _, res = damped_state_projection(0.7, 0.45, math.pi, sides)
            assert abs(res) < 1e-10

    def test_diagonal_weights_track_phase_flip(self):
        # even-sector weight of the two-sided output equals p_f
        a, eta = 0.8, 0.35
        mat, _ = damped_state_projection(a, eta, math.pi, "two")
        even_weight = sum(mat[i, i].real for i in (0, 3, 5, 6))
        assert even_weight == pytest.approx(phase_flip_prob(a, eta), abs=1e-10)


def reference_projection(alpha, eta, theta, sides):
    """The generic dyad pipeline that the grid kernel mirrors, with the
    number of dyads left after canonicalize."""
    lossy = (2,) if sides == "one" else (1, 2)
    d = density_from_pure(
        cat_state(mode_ladder(alpha, 3), complex(math.cos(theta), math.sin(theta)))
    )
    for mode in lossy:
        d = apply_loss(d, mode, eta)
    d = canonicalize(d)
    bases = [make_basis(math.sqrt(2.0) * alpha)] + [
        make_basis(alpha * (math.sqrt(eta) if k in lossy else 1.0)) for k in (1, 2)
    ]
    mat, residual = project_to_qubits(d, bases)
    return mat, residual, len(d.dyads)


KERNEL_ALPHAS = np.concatenate([np.geomspace(0.01, 4.0), [19.0, 23.0, 27.0]])


class TestDampedStateGridKernel:
    @pytest.mark.parametrize("sides", ("one", "two"))
    @pytest.mark.parametrize("theta", (math.pi, 1.0, 0.0))
    @pytest.mark.parametrize("eta", (0.05, 0.3, 0.9, 1.0))
    def test_matches_generic_pipeline(self, eta, theta, sides):
        mats, residuals = damped_state_projection(KERNEL_ALPHAS, eta, theta, sides)
        assert mats.shape == (len(KERNEL_ALPHAS), 8, 8)
        assert residuals.shape == (len(KERNEL_ALPHAS),)
        for alpha, mat, residual in zip(KERNEL_ALPHAS, mats, residuals):
            ref_mat, ref_residual, _ = reference_projection(float(alpha), eta, theta, sides)
            assert np.max(np.abs(mat - ref_mat)) < 1e-12, alpha
            assert abs(residual - ref_residual) < 1e-12, alpha

    @pytest.mark.parametrize("sides", ("one", "two"))
    @pytest.mark.parametrize("theta", (math.pi, 1.0, 0.0))
    def test_rows_equal_single_calls(self, theta, sides):
        for eta in (0.05, 0.9):
            mats, residuals = damped_state_projection(KERNEL_ALPHAS, eta, theta, sides)
            for alpha, mat, residual in zip(KERNEL_ALPHAS, mats, residuals):
                one_mat, one_residual = damped_state_projection(float(alpha), eta, theta, sides)
                assert one_mat.shape == (8, 8)
                assert isinstance(one_residual, float)
                assert np.array_equal(one_mat, mat), alpha
                assert one_residual == residual, alpha

    @pytest.mark.parametrize("sides", ("one", "two"))
    def test_eta_and_theta_arrays_equal_single_calls(self, sides):
        # eta and theta broadcast with alpha, a float included
        etas = np.array([0.05, 0.3, 0.9, 1.0])
        thetas = np.array([0.0, 1.0, 2.0, math.pi])
        for alpha, eta, theta in ((0.8, etas, thetas), (KERNEL_ALPHAS[:4], etas, 2.0),
                                  (0.8, 0.3, thetas)):
            mats, residuals = damped_state_projection(alpha, eta, theta, sides)
            points = np.broadcast_arrays(alpha, eta, theta)
            for (a, e, t), mat, residual in zip(zip(*points), mats, residuals):
                one_mat, one_residual = damped_state_projection(float(a), float(e), float(t), sides)
                assert np.array_equal(one_mat, mat) and one_residual == residual, (a, e, t)

    def test_pruned_dyads(self):
        # strong loss at large amplitude damps the cross dyads below
        # PRUNE_TOL, so canonicalize drops them
        for sides in ("one", "two"):
            ref_mat, ref_residual, kept = reference_projection(27.0, 0.05, math.pi, sides)
            assert kept < 4
            mat, residual = damped_state_projection(27.0, 0.05, math.pi, sides)
            assert np.max(np.abs(mat - ref_mat)) < 1e-12
            assert abs(residual - ref_residual) < 1e-12

    @pytest.mark.parametrize(
        "alpha", ([0.5, 0.0, 1.0], [0.5, -0.1], [2.0, math.nan], 0.0, -0.5)
    )
    def test_rejects_nonpositive_alpha(self, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            damped_state_projection(np.asarray(alpha), 0.5)

    @pytest.mark.parametrize("eta", (0.0, -0.1, 1.5))
    def test_rejects_eta_outside_unit_interval(self, eta):
        with pytest.raises(ValueError, match="eta"):
            damped_state_projection(np.array([0.5, 1.0]), eta)

    def test_rejects_bad_sides(self):
        with pytest.raises(ValueError, match="sides"):
            damped_state_projection(np.array([0.5, 1.0]), 0.5, math.pi, "three")

    @pytest.mark.parametrize("alpha, theta", (([1.0, math.inf], math.pi), (1.0, math.nan)))
    def test_rejects_non_finite_amplitudes_and_coefficients(self, alpha, theta):
        with pytest.raises(ValueError, match="non-finite"):
            damped_state_projection(np.asarray(alpha), 0.5, theta)

    def test_fig3_without_positive_alpha(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["fig", "3", "--steps", "1", "--out", str(out)]) == 0
        header, line = out.read_text().splitlines()
        row = dict(zip(header.split(","), map(float, line.split(","))))
        assert row["alpha"] == 0.0
        assert row["bound_onesided_eta0.9"] == pytest.approx(math.sqrt(0.9), abs=1e-12)
        assert row["direct_twosided_eta0.3"] == 0.0

    def test_fig3_direct_columns_equal_per_point(self):
        header, rows = build_figure(3, steps=41)
        for row in rows:
            alpha = row[0]
            for eta in FIG3_ETAS:
                for sides in ("one", "two"):
                    value = row[header.index(f"direct_{sides}sided_eta{eta:g}")]
                    if alpha == 0.0:
                        assert value == 0.0
                    else:
                        assert value == xstate_concurrence(
                            damped_state_elements(alpha, eta, math.pi, sides)
                        )


def kraus_agreement_bound(alpha):
    """How far the dyad route may sit from the Kraus route entrywise: 20
    times its rounding estimate 2^-52 (2 mu)^-6, plus 5e-14 for the
    `PRUNE_TOL` drop.  Both routes' own maxima over geomspace(0.0935, 4, 300)
    x 8 etas x both sides are 18.0 times the estimate and 2.9e-14 from
    alpha 0.5 up."""
    return 20.0 * 2.0**-52 * (2.0 * make_basis(alpha).mu) ** -6.0 + 5e-14


def same_bits(a, b):
    """Equal real and imaginary parts, the signs of zeros included."""
    a, b = a.view(float), b.view(float)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestGhzDyadKernel:
    """`ghz_damped_projection`, the generic dyad composition run per
    amplitude, against the Kraus route `_ghz_damped_matrices`, each grid row
    bit for bit its one-point call."""

    @staticmethod
    def assert_agrees(alphas, eta, sides):
        mats, residuals = ghz_damped_projection(np.array(alphas), eta, sides)
        assert mats.shape == (len(alphas), 8, 8) and residuals.shape == (len(alphas),)
        kraus = _ghz_damped_matrices(np.array(alphas), eta, sides)
        for alpha, mat, residual, want in zip(alphas, mats, residuals, kraus):
            error = np.max(np.abs(mat - want))
            assert error <= kraus_agreement_bound(alpha), (alpha, eta, sides, error)
            one_mat, one_residual = ghz_damped_projection(float(alpha), eta, sides)
            assert one_mat.shape == (8, 8) and isinstance(one_residual, float)
            assert same_bits(one_mat, mat), (alpha, eta, sides)
            assert one_residual == residual, (alpha, eta, sides)

    @pytest.mark.parametrize("sides", SIDES)
    def test_validation_grid(self, sides):
        for eta in sorted(set(ETA_GRID) | {0.1, 0.5, 0.9}):
            self.assert_agrees(ALPHA_GRID, eta, sides)

    @pytest.mark.parametrize("sides", SIDES)
    @pytest.mark.parametrize("eta", (0.01, 0.3, 0.9, 1.0))
    def test_geometric_grid(self, eta, sides):
        self.assert_agrees(np.geomspace(0.1, 4.0, 40), eta, sides)

    @pytest.mark.parametrize("sides", SIDES)
    def test_large_amplitude_branch(self, sides):
        # from |alpha|^2 = 700 on, LogicalBasis.overlaps forms the two halves
        # of cosh and sinh apart; 27 and 40 reach it, 19 does not
        for eta in (0.05, 0.5, 1.0):
            self.assert_agrees([19.0, 27.0, 40.0], eta, sides)
            mats, residuals = ghz_damped_projection(np.array([19.0, 27.0, 40.0]), eta, sides)
            assert np.isfinite(mats).all() and np.isfinite(residuals).all()

    def test_refuses_small_alpha(self):
        # at alpha = 0.01 the expansion is 1.5e-5 off the Kraus route while
        # its residual reads -3.1e-9
        for alpha in (0.01, np.array([0.5, 0.01, 0.02])):
            with pytest.raises(ValueError, match=r"alpha = 0\.01\b"):
                ghz_damped_projection(alpha, 0.3, "two")
        grid = np.geomspace(0.2, 4.0, 40)
        for sides in SIDES:
            for eta in (0.05, 0.3, 0.9, 1.0):
                mats, _ = ghz_damped_projection(grid, eta, sides)
                for alpha, mat in zip(grid, mats):
                    exact = _x_elements(mat)
                    kraus = ghz_damped_elements(float(alpha), eta, sides)
                    for name in ("a", "b", "c", "d", "e", "f"):
                        assert abs(getattr(exact, name) - getattr(kraus, name)) < 1e-12

    def test_rejects_overflowing_amplitude(self):
        # 2 alpha^2 overflows; abs(alpha) ** 2 once raised a raw OverflowError
        for alpha in (1e160, np.array([1.0, 1e160])):
            with pytest.raises(ValueError, match="overflows"):
                ghz_damped_projection(alpha, 0.5, "one")

    @pytest.mark.parametrize("alpha, eta, match", (
        (np.ones((2, 2)), 0.5, "1-D"),
        (0.0, 0.5, "positive"),
        (np.array([0.5, -1.0]), 0.5, "positive"),
        (math.nan, 0.5, "positive"),
        (np.array([0.5, math.inf]), 0.5, "finite"),
        (0.5, 0.0, "eta"),
        (0.5, 1.5, "eta"),
        (0.5, math.nan, "eta"),
        (0.1, 5e-324, "mu = 0"),
    ))
    def test_rejects_bad_parameters(self, alpha, eta, match):
        with pytest.raises(ValueError, match=match):
            ghz_damped_projection(alpha, eta, "two")


def superoperator(kraus):
    """sum_k K_k (x) K_k of a real Kraus set, acting on row-major vec(rho)."""
    return sum(np.kron(k, k) for k in kraus)


def libm_weights2(two_a2):
    """(lam^2, mu^2) at 2|a|^2 = two_a2 from math.exp and math.expm1."""
    return (1.0 + math.exp(-two_a2)) / 2.0, -math.expm1(-two_a2) / 2.0


def kraus_per_element(a, eta):
    """`_loss_kraus` at one amplitude, written out with scalar libm calls."""
    two_a2 = 2.0 * (a * a)
    (lam2_a, mu2_a), (lam2_b, mu2_b), (lam2_c, mu2_c) = (
        libm_weights2(frac * two_a2) for frac in (1.0, eta, 1.0 - eta))
    lam_a, lam_b, lam_c = math.sqrt(lam2_a), math.sqrt(lam2_b), math.sqrt(lam2_c)

    def mu_over_mu_a(frac, mu2):
        return math.sqrt(frac if two_a2 <= 1e-300 else mu2 / mu2_a)

    return np.array([[[lam_b * lam_c / lam_a, 0.0], [0.0, mu_over_mu_a(eta, mu2_b) * lam_c]],
                     [[0.0, lam_b * mu_over_mu_a(1.0 - eta, mu2_c)],
                      [math.sqrt(mu2_b) * math.sqrt(mu2_c) / lam_a, 0.0]]])


def damped_state_per_element(alpha, eta, theta, sides):
    """`damped_state_projection`'s matrix at one point, its logical weights
    from scalar libm calls."""
    amps = np.array([[math.sqrt(2.0) * alpha, alpha, alpha]])
    branch = np.ones(1)
    for a in amps[0].tolist():
        lam2, mu2 = libm_weights2(2.0 * (a * a))
        branch = (branch[:, None] * np.array([math.sqrt(lam2), math.sqrt(mu2)])).ravel()
    psi = branch * (1.0 + complex(math.cos(theta), math.sin(theta)) * _PATTERN_SIGNS)
    psi = psi / math.sqrt(np.sum(psi.real**2 + psi.imag**2))
    return _damped_density(psi[None, :], amps, eta, _LOSSY_MODES[sides])[0]


ONE_EXP_ALPHAS = np.linspace(0.0, 6.0, 1000)


class TestKrausRoute:
    """Loss as the logical-qubit Kraus pair of `_loss_kraus`: the exact route
    behind `ghz_damped_elements` and `damped_state_projection`."""

    @pytest.mark.parametrize("eta", (0.05, 0.37, 0.9))
    def test_weights_are_libm_per_element(self, eta):
        # NumPy's exp and expm1 differ from libm in the last bit on a few
        # arguments in a thousand
        kraus = _loss_kraus(ONE_EXP_ALPHAS, eta)
        for alpha, k in zip(ONE_EXP_ALPHAS.tolist(), kraus):
            assert np.array_equal(k, kraus_per_element(alpha, eta)), alpha

    @pytest.mark.parametrize("theta", (math.pi, 1.0))
    def test_damped_state_weights_are_libm_per_element(self, theta):
        alphas = ONE_EXP_ALPHAS[1:]
        mats, _ = damped_state_projection(alphas, 0.37, theta, "two")
        for alpha, mat in zip(alphas.tolist(), mats):
            assert np.array_equal(mat, damped_state_per_element(alpha, 0.37, theta, "two")), alpha

    @pytest.mark.parametrize("alpha", (0.0, 1e-8, 1.0, 27.0, 200.0))
    def test_completeness(self, alpha):
        for eta in (1e-9, 0.05, 0.3, 0.9, 1.0 - 1e-12, 1.0):
            k0, k1 = _loss_kraus(np.array([alpha]), eta)[0]
            defect = k0.T @ k0 + k1.T @ k1 - np.eye(2)
            assert np.max(np.abs(defect)) <= 1e-15, eta

    def test_limits_at_zero_amplitude(self):
        for eta in (0.05, 0.3, 0.9, 1.0):
            k0, k1 = _loss_kraus(np.array([0.0]), eta)[0]
            assert np.array_equal(k0, np.diag([1.0, math.sqrt(eta)]))
            assert np.array_equal(k1, [[0.0, math.sqrt(1.0 - eta)], [0.0, 0.0]])

    def test_composition(self):
        # loss eta1 from the basis at a to sqrt(eta1) a, then eta2 from there,
        # is loss eta1 * eta2 from a
        alphas = np.array([0.0, 1e-6, 0.05, 0.4, 1.1, 2.5, 27.0])
        for eta1, eta2 in ((0.8, 0.5), (0.9, 0.3), (0.6, 0.6), (0.05, 0.99)):
            first = _loss_kraus(alphas, eta1)
            second = _loss_kraus(math.sqrt(eta1) * alphas, eta2)
            both = _loss_kraus(alphas, eta1 * eta2)
            for g in range(len(alphas)):
                seq = superoperator(second[g]) @ superoperator(first[g])
                assert np.max(np.abs(seq - superoperator(both[g]))) < 1e-15, alphas[g]

    @pytest.mark.parametrize("sides", ("one", "two"))
    @pytest.mark.parametrize("eta", (0.05, 0.3, 0.9, 1.0))
    def test_ghz_matches_dyad_pipeline(self, eta, sides):
        # from alpha = 0.2 up, where the dyad expansion is well conditioned
        for alpha in np.geomspace(0.2, 4.0, 30):
            x = ghz_damped_elements(float(alpha), eta, sides)
            p = _x_elements(ghz_damped_projection(float(alpha), eta, sides)[0])
            for name in ("a", "b", "c", "d", "e", "f"):
                assert abs(getattr(x, name) - getattr(p, name)) < 1e-12, (alpha, name)

    @pytest.mark.parametrize("sides", ("one", "two"))
    def test_ghz_matches_closed_forms_at_small_alpha(self, sides):
        for alpha in np.geomspace(1e-4, 0.19, 40):
            for eta in (0.05, 0.3, 0.5, 0.9, 1.0):
                x = ghz_damped_elements(float(alpha), eta, sides)
                c = XStateElements(*_ghz_elements_closed(float(alpha), eta, sides))
                for name in ("a", "b", "c", "d", "e", "f"):
                    assert abs(getattr(x, name) - getattr(c, name)) <= 1e-15, (alpha, eta)

    @pytest.mark.parametrize("sides", ("one", "two"))
    def test_ghz_concurrence_at_zero_amplitude(self, sides):
        for eta in (0.05, 0.3, 0.6, 0.9, 1.0):
            limit = ghz_concurrence_limit(eta, sides)
            value = xstate_concurrence(ghz_damped_elements(0.0, eta, sides))
            assert abs(value - limit) <= math.ulp(limit), eta
            _, rows = run_sweep(SweepConfig(
                steps=2, stop=1.0, quantities=("ghz_concurrence",),
                fixed=ChannelParams(eta=eta, sides=sides)))
            assert rows[0][1] == value

    @pytest.mark.parametrize("alpha", (19.0, 27.0, 60.0, 200.0))
    def test_finite_at_large_amplitude(self, alpha):
        for sides in ("one", "two"):
            for eta in (0.05, 0.9, 1.0):
                mat, residual = damped_state_projection(alpha, eta, 1.0, sides)
                assert np.isfinite(mat).all() and math.isfinite(residual)
                assert abs(np.trace(mat).real - 1.0) < 1e-14
                x = ghz_damped_elements(alpha, eta, sides)
                assert all(math.isfinite(abs(getattr(x, n))) for n in "abcdef")
                if sides == "one":
                    assert x.a + x.b + x.c + x.d == pytest.approx(1.0, abs=1e-14)

    def test_fig3_direct_columns_are_exact_zeros(self):
        header, rows = build_figure(3)
        direct = [i for i, name in enumerate(header) if name.startswith("direct_")]
        assert len(direct) == 2 * len(FIG3_ETAS)
        assert all(row[i] == 0.0 for row in rows for i in direct)

    def test_removed_methods_and_bad_amplitudes_rejected(self):
        # the Kraus route is the only one; the closed forms are private
        for method in ("exact", "closed"):
            with pytest.raises(TypeError, match="method"):
                ghz_damped_elements(1.0, 0.5, "one", method=method)
        with pytest.raises(ValueError, match="nonnegative"):
            ghz_damped_elements(-0.1, 0.5)
        with pytest.raises(ValueError, match="non-finite"):
            ghz_damped_elements(1e200, 0.5)


class TestBound:
    def test_lossless_maximal(self):
        assert damped_concurrence_bound(0.9, 1.0, math.pi, "one") == pytest.approx(
            1.0, abs=1e-10
        )

    def test_dominates_direct_value(self):
        for sides in ("one", "two"):
            for a in (0.2, 0.5, 1.0, 1.5, 2.0):
                for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
                    bound = damped_concurrence_bound(a, eta, math.pi, sides)
                    direct = xstate_concurrence(
                        damped_state_elements(a, eta, math.pi, sides)
                    )
                    assert bound - direct >= -1e-9

    def test_small_field_weak_channel(self):
        # weak transmissivity leaves a small bound at small fields
        assert damped_concurrence_bound(0.2, 0.05, math.pi, "one") < 0.25


@pytest.mark.parametrize("call", (
    lambda: phase_flip_prob(0.5, 5.0),
    lambda: phase_flip_prob(0.5, math.nan),
    lambda: phase_flip_prob(math.nan, 0.5),
    lambda: phase_flip_prob_m(0.5, -1.0, 3),
    lambda: phase_flip_prob_m(math.inf, 0.5, 3),
    lambda: concurrence_m(math.nan, 0.5, 3, "odd"),
    lambda: concurrence_pure(-0.1, 0.0),
    lambda: concurrence_pure(0.5, math.nan),
    lambda: damped_concurrence_bound(0.0, math.nan),
))
def test_formulas_reject_bad_parameters(call):
    # out-of-range and NaN parameters once gave numbers (pf = -3.1e27 at
    # eta = 5) instead of an error
    with pytest.raises(ValueError):
        call()


def test_channel_params_validation():
    ChannelParams(alpha=1.0, eta=0.5, theta=0.0, m=3, sides="two")
    # parity lives in the quantity names, not in the parameters
    with pytest.raises(TypeError):
        ChannelParams(parity="even")
    with pytest.raises(ValueError):
        ChannelParams(alpha=-1.0)
    with pytest.raises(ValueError):
        ChannelParams(eta=1.5)
    with pytest.raises(ValueError):
        ChannelParams(m=0)
    with pytest.raises(ValueError):
        ChannelParams(sides="three")
    for bad in ({"alpha": math.nan}, {"alpha": math.inf}, {"eta": math.nan},
                {"theta": math.nan}, {"m": math.nan}):
        with pytest.raises(ValueError):
            ChannelParams(**bad)


def test_xstate_matches_wootters_on_ghz_matrix():
    # the damped-GHZ X elements assemble into a genuine two-qubit state; the
    # blocks are exactly rank one there, which limits the general eigensolver
    # inside the Wootters route to ~1e-8
    for a, eta in ((0.5, 0.3), (1.0, 0.7), (1.5, 0.9)):
        x = ghz_damped_elements(a, eta, "one")
        assert xstate_concurrence(x) == pytest.approx(
            wootters_concurrence(x.to_matrix()), abs=1e-7
        )
