import math

import numpy as np
import pytest

from catdamp.coherent import (
    SuperpositionState,
    apply_loss,
    canonicalize,
    coherent_overlap,
    density_from_pure,
    normalize,
)
from catdamp.fockref import (
    FockDensity,
    apply_channel,
    coherent_fock,
    damping_kraus,
    density_to_fock,
    fock_density_from_vector,
    kraus_completeness_defect,
    required_levels,
    state_to_fock,
)
from catdamp.formulas import ghz_state


def cat_state(alpha, sign=1.0, modes=2):
    amps = (complex(alpha),) * modes
    neg = tuple(-a for a in amps)
    return normalize(SuperpositionState.from_terms([(1.0, amps), (sign, neg)]))


class TestCoherentFock:
    def test_vacuum(self):
        v = coherent_fock(0.0, 12)
        assert v[0] == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(v[1:])) == 0.0

    def test_normalized(self):
        for a in (0.5, 1.0 + 0.5j, 2.0, 3.0):
            v = coherent_fock(a, required_levels(a))
            assert np.vdot(v, v).real == pytest.approx(1.0, abs=1e-10)

    def test_opposite_overlap(self):
        a = 1.2
        n = required_levels(a)
        v1 = coherent_fock(a, n)
        v2 = coherent_fock(-a, n)
        assert np.vdot(v1, v2) == pytest.approx(math.exp(-2 * a * a), abs=1e-10)

    def test_matches_exact_overlap(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            n = max(required_levels(a), required_levels(b))
            got = np.vdot(coherent_fock(a, n), coherent_fock(b, n))
            assert got == pytest.approx(coherent_overlap(a, b), abs=1e-10)

    def test_truncation_guard(self):
        with pytest.raises(ValueError):
            coherent_fock(2.0, 5)

    def test_tail_mass(self):
        for a in (0.5, 1.5, 3.0):
            v = coherent_fock(a, required_levels(a))
            assert 1.0 - np.vdot(v, v).real < 1e-12


class TestKraus:
    def test_identity_at_unit_transmissivity(self):
        ops = damping_kraus(1.0, 8)
        assert len(ops) == 1
        assert np.allclose(ops[0], np.eye(9))

    def test_completeness(self):
        for eta in (0.0, 0.1, 0.5, 0.9):
            assert kraus_completeness_defect(damping_kraus(eta, 25)) < 1e-10

    def test_k0_diagonal(self):
        ops = damping_kraus(0.7, 10)
        assert np.allclose(ops[0], np.diag(np.diag(ops[0])))

    def test_coherent_to_damped_coherent(self):
        a, eta = 1.1, 0.55
        n = required_levels(a)
        rho = fock_density_from_vector(coherent_fock(a, n), (n + 1,))
        out = apply_channel(rho, 0, damping_kraus(eta, n))
        target = coherent_fock(math.sqrt(eta) * a, n)
        fidelity = np.vdot(target, out.mat @ target).real
        assert fidelity == pytest.approx(1.0, abs=1e-8)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-8)


class TestApplyChannel:
    def test_identity_kraus(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m /= np.linalg.norm(m)
        rho = FockDensity((6,), m.T, m.T)
        out = apply_channel(rho, 0, [np.eye(6, dtype=complex)])
        assert np.allclose(out.mat, m @ m.conj().T)

    def test_vacuum_fixed_point(self):
        rho = fock_density_from_vector(np.eye(8, dtype=complex)[0], (8,))
        out = apply_channel(rho, 0, damping_kraus(0.3, 7))
        assert out.mat[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_composition_in_eta(self):
        a = 1.0
        n = required_levels(a)
        rho = fock_density_from_vector(
            state_to_fock(cat_state(a, -1.0, modes=1), n), (n + 1,)
        )
        step = apply_channel(
            apply_channel(rho, 0, damping_kraus(0.8, n)), 0, damping_kraus(0.5, n)
        )
        direct = apply_channel(rho, 0, damping_kraus(0.4, n))
        assert np.max(np.abs(step.mat - direct.mat)) < 1e-8

    def test_trace_and_hermiticity(self):
        a = 1.3
        n = required_levels(a)
        rho = fock_density_from_vector(
            state_to_fock(cat_state(a, 1.0, modes=1), n), (n + 1,)
        )
        out = apply_channel(rho, 0, damping_kraus(0.25, n))
        assert np.trace(out.mat).real == pytest.approx(1.0, abs=1e-8)
        assert np.max(np.abs(out.mat - out.mat.conj().T)) < 1e-10


def kron_state_to_fock(s, n_max):
    """The per-term `np.kron` chain that `state_to_fock` replaced."""
    vec = np.zeros((n_max + 1) ** s.mode_count, dtype=complex)
    for coeff, amps in zip(s.coeffs, s.amps):
        comp = np.array([coeff], dtype=complex)
        for a in amps:
            comp = np.kron(comp, coherent_fock(a, n_max))
        vec += comp
    return vec


def kron_density_to_fock(d, n_max):
    """The per-dyad `np.kron` chains and dense `np.outer` sum that
    `density_to_fock` replaced."""
    total = (n_max + 1) ** d.mode_count
    mat = np.zeros((total, total), dtype=complex)
    one = np.array([1.0 + 0j])
    for coeff, kets, bras in zip(d.coeffs, d.kets, d.bras):
        ket = one
        bra = one
        for a in kets:
            ket = np.kron(ket, coherent_fock(a, n_max))
        for a in bras:
            bra = np.kron(bra, coherent_fock(a, n_max))
        mat += coeff * np.outer(ket, bra.conj())
    return mat


def relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestFockDensity:
    def test_pair_shapes_must_match(self):
        kets = np.zeros((2, 9), dtype=complex)
        with pytest.raises(ValueError, match="must both be"):
            FockDensity((3, 3), kets, np.zeros((3, 9), dtype=complex))
        with pytest.raises(ValueError, match="must both be"):
            FockDensity((3, 3), kets, np.zeros((2, 8), dtype=complex))
        with pytest.raises(ValueError, match="must both be"):
            FockDensity((3, 3), kets[0], kets[0])

    def test_zero_dyads_give_the_zero_matrix(self):
        # canonicalize prunes every dyad whose weight is below its tolerance
        d = canonicalize(density_from_pure(cat_state(0.5, -1.0)), tol=10.0)
        assert len(d.dyads) == 0
        rho = apply_channel(density_to_fock(d, 12), 1, damping_kraus(0.5, 12))
        assert rho.kets.shape == (0, 169)
        assert np.array_equal(rho.mat, np.zeros((169, 169)))


class TestCrossBackend:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("eta", [0.1, 0.5, 0.9])
    def test_two_mode_cat_loss(self, alpha, eta):
        s = cat_state(alpha, -1.0, modes=2)
        n = required_levels(alpha)
        damped = apply_loss(s, 1, eta)
        via_exact = density_to_fock(damped, n)
        start = fock_density_from_vector(state_to_fock(s, n), (n + 1, n + 1))
        via_fock = apply_channel(start, 1, damping_kraus(eta, n))
        assert np.max(np.abs(via_exact.mat - via_fock.mat)) < 1e-8
        assert relative_error(via_exact.mat, kron_density_to_fock(damped, n)) < 1e-15
        assert relative_error(start.kets[0], kron_state_to_fock(s, n)) < 1e-15

    @pytest.mark.parametrize("alpha,eta", [(0.5, 0.3), (1.0, 0.7), (1.5, 0.9)])
    def test_two_mode_ghz_pipeline(self, alpha, eta):
        g = ghz_state(alpha, modes=2)
        n = required_levels(alpha)
        damped = apply_loss(density_from_pure(g, check_norm=False), 1, eta)
        via_exact = density_to_fock(damped, n)
        start = fock_density_from_vector(state_to_fock(g, n), (n + 1, n + 1))
        via_fock = apply_channel(start, 1, damping_kraus(eta, n))
        assert np.max(np.abs(via_exact.mat - via_fock.mat)) < 1e-8
        assert relative_error(via_exact.mat, kron_density_to_fock(damped, n)) < 1e-15
        assert relative_error(start.kets[0], kron_state_to_fock(g, n)) < 1e-15

    def test_memory_guard(self):
        s = cat_state(1.0, 1.0, modes=3)
        with pytest.raises(ValueError, match="too large"):
            density_to_fock(density_from_pure(s), 60)
