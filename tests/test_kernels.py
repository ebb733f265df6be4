"""The Fock channel and the batched Gram-spectrum kernel against the routes
they replace or share: a d^2 x d^2 superoperator and a per-side `einsum` for
`apply_channel` on the ket-bra pair representation, and one-operator or
tiled calls for `_gram_spectra` and `_pure_concurrences`."""

import math

import numpy as np
import pytest

from catdamp.coherent import (
    SuperpositionDensity,
    SuperpositionState,
    _gram_spectra,
    density_from_pure,
    density_purity,
    density_spectrum,
    density_trace,
    normalize,
    partial_trace,
)
from catdamp.fockref import (
    FockDensity,
    apply_channel,
    damping_kraus,
    fock_density_from_vector,
    required_levels,
    state_to_fock,
)
from catdamp.formulas import cat_state, concurrence_pure, mode_ladder
from catdamp.logical import _pure_concurrences, pure_bipartite_concurrence
from catdamp.validation import (
    ALPHA_GRID,
    ETA_GRID,
    _max_deviation,
    check_pure_concurrence_closed_form,
)


def superoperator_channel(rho, mode, kraus):
    """sum_k K_k rho K_k^dag through one (d^2, d^2) superoperator built from
    kron(K, conj(K)), applied to the vectorized (ket, bra) pair of the mode."""
    dims = rho.dims
    n = len(dims)
    d = dims[mode]
    super_op = np.zeros((d * d, d * d), dtype=complex)
    for op in kraus:
        super_op += np.kron(op, op.conj())
    tens = np.moveaxis(rho.mat.reshape(*dims, *dims), (mode, n + mode), (0, 1))
    rest = tens.shape[2:]
    flat = super_op @ np.ascontiguousarray(tens).reshape(d * d, -1)
    tens = np.moveaxis(flat.reshape((d, d) + rest), (0, 1), (mode, n + mode))
    total = int(np.prod(dims))
    return np.ascontiguousarray(tens).reshape(total, total)


def einsum_channel(rho, mode, kraus):
    """The operator-major pairs (K ket, K bra) of `apply_channel`, by one
    `einsum` per side, the route its single matrix product replaced."""
    dims, d = rho.dims, rho.dims[mode]
    before, after = int(np.prod(dims[:mode])), int(np.prod(dims[mode + 1:]))
    ops = np.array(kraus, dtype=complex)

    def act(vectors):
        v = vectors.reshape(len(vectors), before, d, after)
        return np.einsum("kij,nbja->knbia", ops, v).reshape(-1, vectors.shape[1])

    return act(rho.kets), act(rho.bras)


def random_density(rng, dims):
    """A random mixed density M M^dag / Tr, given as the pairs kets = bras = M^T."""
    total = int(np.prod(dims))
    m = rng.normal(size=(total, total)) + 1j * rng.normal(size=(total, total))
    m /= np.linalg.norm(m)
    return FockDensity(tuple(dims), m.T, m.T)


class TestBandedChannel:
    @pytest.mark.parametrize("dims", [(7,), (5, 4), (3, 4, 2), (4, 2, 5)])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_matches_superoperator(self, dims, eta):
        rng = np.random.default_rng(len(dims) * 10 + int(10 * eta))
        rho = random_density(rng, dims)
        for mode, d in enumerate(dims):
            kraus = damping_kraus(eta, d - 1)
            got = apply_channel(rho, mode, kraus)
            assert got.dims == rho.dims
            want = superoperator_channel(rho, mode, kraus)
            assert np.max(np.abs(got.mat - want)) < 1e-14

    @pytest.mark.parametrize("dims", [(6,), (3, 5), (2, 3, 4)])
    def test_identity_is_exact(self, dims):
        rho = random_density(np.random.default_rng(3), dims)
        for mode, d in enumerate(dims):
            out = apply_channel(rho, mode, [np.eye(d, dtype=complex)])
            assert np.array_equal(out.mat, rho.mat)

    def test_complex_operators_on_one_superdiagonal(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, (4, 3))
        kraus = []
        for k in (0, 2, 2, 1):
            op = np.zeros((4, 4), dtype=complex)
            entries = rng.normal(size=4 - k) + 1j * rng.normal(size=4 - k)
            op[np.arange(4 - k), np.arange(k, 4)] = entries
            kraus.append(op)
        got = apply_channel(rho, 0, kraus)
        assert np.max(np.abs(got.mat - superoperator_channel(rho, 0, kraus))) < 1e-14

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_dense_operators(self, mode):
        # operators on several diagonals, below the main one too
        rng = np.random.default_rng(13 + mode)
        rho = random_density(rng, (3, 4, 2))
        d = rho.dims[mode]
        kraus = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
        kraus.append(np.eye(d, k=-1))
        got = apply_channel(rho, mode, kraus)
        assert got.kets.shape == (4 * 24, 24)
        assert np.max(np.abs(got.mat - superoperator_channel(rho, mode, kraus))) < 1e-13

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_bit_identical_to_einsum_at_the_check_points(self, alpha):
        # `backend_equivalence`'s pure starts: each entry of a loss channel's
        # output is one product plus exact zeros
        n = required_levels(alpha)
        s = cat_state((complex(alpha), complex(alpha)), -1.0)
        start = fock_density_from_vector(state_to_fock(s, n), (n + 1, n + 1))
        assert start.bras is start.kets
        for eta in ETA_GRID:
            kraus = damping_kraus(eta, n)
            got = apply_channel(start, 1, kraus)
            kets, bras = einsum_channel(start, 1, kraus)
            assert got.bras is got.kets
            assert np.array_equal(got.kets, kets) and np.array_equal(got.bras, bras)

    @pytest.mark.parametrize("mode", [0, 1])
    def test_shared_pairs_equal_an_unshared_copy(self, mode):
        rng = np.random.default_rng(17 + mode)
        kets = random_density(rng, (4, 3)).kets
        shared, unshared = FockDensity((4, 3), kets, kets), FockDensity((4, 3), kets, kets.copy())
        d = (4, 3)[mode]
        kraus = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(3)]
        once, twice = apply_channel(shared, mode, kraus), apply_channel(unshared, mode, kraus)
        assert once.bras is once.kets and twice.bras is not twice.kets
        assert np.array_equal(once.kets, twice.kets) and np.array_equal(once.bras, twice.bras)

    def test_zero_operator_contributes_nothing(self):
        rho = random_density(np.random.default_rng(5), (5,))
        kraus = damping_kraus(0.4, 4)
        with_zero = apply_channel(rho, 0, kraus + [np.zeros((5, 5))])
        assert np.array_equal(with_zero.mat, apply_channel(rho, 0, kraus).mat)

    def test_dimension_mismatch_rejected(self):
        rho = random_density(np.random.default_rng(1), (4, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_channel(rho, 1, damping_kraus(0.5, 3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_channel(rho, 1, damping_kraus(0.5, 2) + [np.eye(4)])
        with pytest.raises(ValueError, match="out of range"):
            apply_channel(rho, 2, damping_kraus(0.5, 2))


def random_operators(rng, g, r, modes):
    amps = (rng.normal(size=(g, r, modes)) + 1j * rng.normal(size=(g, r, modes))) * 0.8
    m = rng.normal(size=(g, r, r)) + 1j * rng.normal(size=(g, r, r))
    return amps, m @ np.conj(np.swapaxes(m, 1, 2))


class TestGramSpectra:
    @pytest.mark.parametrize("r,modes", [(1, 1), (2, 1), (3, 2), (5, 3)])
    def test_rows_bit_identical_to_single_calls(self, r, modes):
        amps, coeffs = random_operators(np.random.default_rng(r * 7 + modes), 9, r, modes)
        batched = _gram_spectra(amps, coeffs)
        assert batched.shape == (9, r)
        for g in range(9):
            assert np.array_equal(batched[g], _gram_spectra(amps[g:g + 1], coeffs[g:g + 1])[0])

    def test_rows_decrease(self):
        amps, coeffs = random_operators(np.random.default_rng(2), 20, 4, 2)
        evals = _gram_spectra(amps, coeffs)
        assert np.all(np.diff(evals, axis=1) <= 0.0)

    def test_repeated_support_vector(self):
        # |a><a| written over a support that lists |a> twice keeps rank one
        amps = np.array([[[0.7 + 0.2j], [0.7 + 0.2j]]])
        coeffs = np.full((1, 2, 2), 0.25, dtype=complex)
        evals = _gram_spectra(amps, coeffs)[0]
        assert evals[0] == pytest.approx(1.0, abs=1e-14)
        assert abs(evals[1]) < 1e-14

    def test_spectrum_matches_trace_and_purity(self):
        # Tr rho and Tr rho^2 from the exact dyad sums, for complex supports
        amps, coeffs = random_operators(np.random.default_rng(8), 6, 4, 2)
        evals = _gram_spectra(amps, coeffs)
        for g in range(6):
            d = SuperpositionDensity(np.column_stack([
                coeffs[g].ravel(), np.repeat(amps[g], 4, axis=0), np.tile(amps[g], (4, 1))]))
            assert np.sum(evals[g]) == pytest.approx(density_trace(d).real, rel=1e-12)
            assert np.sum(evals[g] ** 2) == pytest.approx(density_purity(d), rel=1e-12)

    def test_density_spectrum_is_a_single_row(self):
        s = normalize(SuperpositionState.from_terms(
            [(1.0, (0.9, 0.3j)), (0.5j, (-0.9, 0.4)), (-0.3, (0.2, -1.1))]))
        evals = density_spectrum(partial_trace(density_from_pure(s), [1]))
        assert evals.shape == (3,)
        assert np.sum(evals) == pytest.approx(1.0, abs=1e-12)


def pure_concurrence_grid():
    """The states and closed-form values of `check_pure_concurrence_closed_form`,
    theta-major."""
    thetas = [float(t) for t in np.linspace(0.0, 2.0 * math.pi, 181)]
    alphas = [float(a) for a in np.linspace(0.05, 2.0, 40)]
    points = [(t, a) for t in thetas for a in alphas]
    coeffs = np.array([(1.0, complex(math.cos(t), math.sin(t))) for t, _ in points])
    ladders = np.array([mode_ladder(a, 3) for _, a in points])
    amps = np.stack([ladders, -ladders], axis=1)
    return points, coeffs, amps


class TestPureConcurrences:
    def test_grid_agrees_with_object_route(self):
        points, coeffs, amps = pure_concurrence_grid()
        got = _pure_concurrences(coeffs, amps, [0])
        for (theta, alpha), value in zip(points, got):
            s = cat_state(mode_ladder(alpha, 3), complex(math.cos(theta), math.sin(theta)))
            assert abs(value - pure_bipartite_concurrence(s, [0])) < 1e-12

    def test_check_reads_the_grid_error(self):
        points, coeffs, amps = pure_concurrence_grid()
        got = _pure_concurrences(coeffs, amps, [0])
        want = np.array([concurrence_pure(a, t) for t, a in points])
        assert (_max_deviation(check_pure_concurrence_closed_form(None))
                == float(np.max(np.abs(got - want))))

    def test_rows_bit_identical_to_single_calls(self):
        _, coeffs, amps = pure_concurrence_grid()
        rows = np.arange(0, len(coeffs), 97)
        batched = _pure_concurrences(coeffs[rows], amps[rows], [0])
        for i, row in enumerate(rows):
            single = _pure_concurrences(coeffs[row:row + 1], amps[row:row + 1], [0])
            assert batched[i] == single[0]

    def test_broadcast_equals_the_tiled_call(self):
        # the check's form: coeffs (theta, alpha, 2) against amps (alpha, 2, 3)
        _, coeffs, amps = pure_concurrence_grid()
        shared = _pure_concurrences(coeffs.reshape(181, 40, 2), amps[:40], [0])
        assert shared.shape == (181, 40)
        assert np.array_equal(shared.ravel(), _pure_concurrences(coeffs, amps, [0]))

    def test_normalizes_its_states(self):
        _, coeffs, amps = pure_concurrence_grid()
        scaled = _pure_concurrences(3.0 * coeffs[:40], amps[:40], [0])
        assert np.max(np.abs(scaled - _pure_concurrences(coeffs[:40], amps[:40], [0]))) < 1e-12

    @pytest.mark.parametrize("side_a", [[0], [1], [2]])
    def test_complex_states_agree_with_object_route(self, side_a):
        rng = np.random.default_rng(40 + side_a[0])
        coeffs = rng.normal(size=(12, 2)) + 1j * rng.normal(size=(12, 2))
        amps = rng.normal(size=(12, 2, 3)) + 1j * rng.normal(size=(12, 2, 3))
        got = _pure_concurrences(coeffs, amps, side_a)
        for g in range(12):
            s = normalize(SuperpositionState.from_terms(zip(coeffs[g], amps[g])))
            assert got[g] == pytest.approx(pure_bipartite_concurrence(s, side_a), abs=1e-12)

    def test_rank_above_two_rejected(self):
        pairs = [(1.0, (0.0, 0.0)), (1.0, (1.5, 1.5)), (1.0, (-1.5, -1.5j))]
        s = normalize(SuperpositionState.from_terms(pairs))
        with pytest.raises(ValueError, match="rank > 2"):
            pure_bipartite_concurrence(s, [0])
        coeffs = np.array([[1.0, 1.0, 1.0]])
        amps = np.array([[a for _, a in pairs]], dtype=complex)
        with pytest.raises(ValueError, match="rank > 2"):
            _pure_concurrences(coeffs, amps, [0])

    def test_unnormalized_state_rejected(self):
        s = SuperpositionState.from_terms([(2.0, (0.5, 0.5)), (1.0, (-0.5, -0.5))])
        with pytest.raises(ValueError, match="normalized"):
            pure_bipartite_concurrence(s, [0])
