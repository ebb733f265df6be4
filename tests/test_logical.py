import cmath
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

from catdamp.coherent import (
    SuperpositionState,
    apply_loss,
    canonicalize,
    density_from_pure,
    density_trace,
    normalize,
    state_inner,
    tensor,
)
from catdamp.logical import (
    _x_matrix,
    make_basis,
    mixture_weights,
    project_to_qubits,
    pure_bipartite_concurrence,
    qubit_coordinates,
    wootters_concurrence,
    xstate_concurrence,
)
from catdamp.formulas import cat_state, ghz_state, mode_ladder


def three_mode_state(alpha, theta=math.pi):
    """|A> + e^{i theta} |-A>, normalized, with A = (sqrt(2) a, a, a)."""
    return cat_state(mode_ladder(alpha, 3), complex(math.cos(theta), math.sin(theta)))


def damped_components(alpha, eta):
    """The odd and even states at the amplitudes (sqrt(2) a, sqrt(eta) a,
    sqrt(eta) a) that two-sided loss leaves: unflipped and flipped."""
    damped = complex(math.sqrt(eta) * alpha)
    amps = (complex(math.sqrt(2.0) * alpha), damped, damped)
    return cat_state(amps, -1.0), cat_state(amps, 1.0)


def sqrtm_concurrence(rho):
    """Independent oracle: concurrence through the principal matrix square
    roots, C = max(0, 2 max_i nu_i - sum_i nu_i) with nu the singular values
    of sqrt(rho) (Y x Y) rho* (Y x Y) sqrt(rho)."""
    y = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(y, y)
    flipped = yy @ rho.conj() @ yy
    root = scipy.linalg.sqrtm(rho)
    rmat = scipy.linalg.sqrtm(root @ flipped @ root)
    nu = np.sort(np.linalg.eigvalsh((rmat + rmat.conj().T) / 2).real)[::-1]
    return max(0.0, nu[0] - nu[1] - nu[2] - nu[3])


def random_x_matrix(rng):
    diag = rng.uniform(0.05, 1.0, size=4)
    diag /= diag.sum()
    a, b, c, d = diag
    e = rng.uniform() * math.sqrt(b * c) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    f = rng.uniform() * math.sqrt(a * d) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    return _x_matrix(a, b, c, d, e, f)


def random_density(rng):
    """A random full-rank 4x4 density matrix, G G^dag / tr."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TestBasis:
    def test_alpha_zero(self):
        b = make_basis(0.0)
        assert b.lam == pytest.approx(1.0, abs=1e-14)
        assert b.mu == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(ValueError):
            b.v_state()

    def test_large_alpha_limit(self):
        b = make_basis(4.0)
        assert b.lam == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert b.mu == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_alpha_one_constants(self):
        b = make_basis(1.0)
        assert b.lam == pytest.approx(0.7534372181000261, abs=1e-12)
        assert b.mu == pytest.approx(0.6575198539828996, abs=1e-12)
        assert b.lam**2 + b.mu**2 == pytest.approx(1.0, abs=1e-12)

    def test_orthonormality(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            alpha = rng.uniform(0.05, 3.0)
            b = make_basis(alpha)
            u, v = b.u_state(), b.v_state()
            assert state_inner(u, u).real == pytest.approx(1.0, abs=1e-12)
            assert state_inner(v, v).real == pytest.approx(1.0, abs=1e-12)
            assert abs(state_inner(u, v)) < 1e-12


def mp_overlaps(alpha, beta):
    """(<u|beta>, <v|beta>) from the definitions of |u>, |v>, in 40-digit mpmath."""
    with mpmath.workdps(40):
        a, b = mpmath.mpc(alpha), mpmath.mpc(beta)

        def coh(x, y):
            return mpmath.exp(-abs(x) ** 2 / 2 - abs(y) ** 2 / 2 + mpmath.conj(x) * y)

        lam = mpmath.sqrt((1 + mpmath.exp(-2 * abs(a) ** 2)) / 2)
        mu = mpmath.sqrt(-mpmath.expm1(-2 * abs(a) ** 2) / 2)
        return (
            complex((coh(a, b) + coh(-a, b)) / (2 * lam)),
            complex((coh(a, b) - coh(-a, b)) / (2 * mu)),
        )


class TestLargeAmplitudeOverlaps:
    def test_equal_amplitudes_past_cosh_overflow(self):
        u, v = make_basis(27).overlaps(27)
        assert u == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert v == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    @pytest.mark.parametrize(
        "alpha, beta",
        [
            (27.0, 27.0),
            (27.0, -27.0),
            (27.0, 26.5),
            (40.0, 30.0 + 5.0j),
            (18.0, 39.0),
            # |cross.real| below 700, but the envelope e^{-746} underflows
            (27.3, 27.3 * complex(math.cos(0.36), math.sin(0.36))),
            # the two sides of |cross.real| = 700
            (26.0, 699.9 / 26.0),
            (26.0, 700.1 / 26.0),
        ],
    )
    def test_matches_mpmath(self, alpha, beta):
        got = make_basis(alpha).overlaps(beta)
        want = mp_overlaps(alpha, beta)
        for g, w in zip(got, want):
            assert math.isfinite(g.real) and math.isfinite(g.imag)
            assert abs(g - w) <= 1e-12 * abs(w) + 1e-300

    def test_small_amplitudes_keep_cosh_form(self):
        # below the switch the values are those of env * cosh / env * sinh
        rng = np.random.default_rng(5)
        for _ in range(50):
            alpha = complex(*rng.uniform(-3, 3, size=2))
            beta = complex(*rng.uniform(-3, 3, size=2))
            b = make_basis(alpha)
            cross = b.alpha.conjugate() * beta
            env = cmath.exp(-0.5 * abs(b.alpha) ** 2 - 0.5 * abs(beta) ** 2)
            assert b.overlaps(beta) == (env * cmath.cosh(cross) / b.lam,
                                        env * cmath.sinh(cross) / b.mu)


def kron_projection(d, bases):
    """Reference: the per-dyad chain of np.kron products that the broadcast
    kernel replaced, kept to pin the kernel bit for bit."""
    m = d.mode_count
    mat = np.zeros((2**m, 2**m), dtype=complex)
    one = np.array([1.0 + 0j])
    for coeff, ket, bra in zip(d.coeffs, d.kets, d.bras):
        ket_vec = one
        bra_vec = one
        for k in range(m):
            ket_vec = np.kron(ket_vec, np.array(bases[k].overlaps(ket[k])))
            bra_vec = np.kron(bra_vec, np.array(bases[k].overlaps(bra[k])))
        mat += coeff * np.outer(ket_vec, bra_vec.conj())
    residual = density_trace(d).real - np.trace(mat).real
    return mat, float(residual)


def kron_coordinates(s, bases):
    one = np.array([1.0 + 0j])
    vec = np.zeros(2**s.mode_count, dtype=complex)
    for coeff, amps in zip(s.coeffs, s.amps):
        comp = one
        for k in range(s.mode_count):
            comp = np.kron(comp, np.array(bases[k].overlaps(amps[k])))
        vec = vec + coeff * comp
    return vec


def random_state(rng, m, terms=3):
    pairs = [
        (complex(*rng.normal(size=2)), tuple(complex(*rng.uniform(-2, 2, size=2)) for _ in range(m)))
        for _ in range(terms)
    ]
    return SuperpositionState.from_terms(pairs)


def random_bases(rng, m):
    return [make_basis(complex(*rng.uniform(0.2, 2.0, size=2))) for _ in range(m)]


def assert_projection_pinned(d, bases):
    mat, residual = project_to_qubits(d, bases)
    ref_mat, ref_residual = kron_projection(d, bases)
    assert np.array_equal(mat, ref_mat)
    assert residual == ref_residual


class TestProjectionKernelPinned:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_random_states(self, m):
        rng = np.random.default_rng(1000 + m)
        for _ in range(5):
            s = random_state(rng, m)
            bases = random_bases(rng, m)
            assert_projection_pinned(density_from_pure(s, check_norm=False), bases)
            assert np.array_equal(qubit_coordinates(s, bases), kron_coordinates(s, bases))

    def test_damped_three_mode_state(self):
        # the 4-dyad state behind damped_state_projection (two-sided loss)
        a, eta = 0.8, 0.6
        s = three_mode_state(a)
        d = canonicalize(apply_loss(apply_loss(density_from_pure(s), 1, eta), 2, eta))
        assert len(d.dyads) == 4
        root = math.sqrt(eta)
        bases = [make_basis(math.sqrt(2) * a), make_basis(root * a), make_basis(root * a)]
        assert_projection_pinned(d, bases)
        undamped = [make_basis(math.sqrt(2) * a), make_basis(a), make_basis(a)]
        assert np.array_equal(qubit_coordinates(s, undamped), kron_coordinates(s, undamped))

    def test_canonicalized_ghz_density(self):
        a, eta = 0.9, 0.7
        g = ghz_state(a, 3)
        d = canonicalize(density_from_pure(g, check_norm=False))
        assert len(d.dyads) == 64
        bases = [make_basis(a)] * 3
        assert_projection_pinned(d, bases)
        damped = canonicalize(apply_loss(d, 2, eta))
        assert_projection_pinned(
            damped, [make_basis(a), make_basis(a), make_basis(math.sqrt(eta) * a)]
        )
        assert np.array_equal(qubit_coordinates(g, bases), kron_coordinates(g, bases))

    def test_zero_dyads(self):
        # canonicalize prunes every dyad whose weight is below its tolerance
        d = canonicalize(density_from_pure(three_mode_state(0.7)), tol=10.0)
        assert len(d.dyads) == 0
        bases = [make_basis(0.7)] * 3
        mat, residual = project_to_qubits(d, bases)
        assert np.array_equal(mat, np.zeros((8, 8), dtype=complex))
        assert residual == 0.0
        assert_projection_pinned(d, bases)
        empty = SuperpositionState(np.zeros((0, 3)))
        assert np.array_equal(qubit_coordinates(empty, bases[:2]), np.zeros(4, dtype=complex))

    def test_mu_zero_basis_rejected(self):
        d = density_from_pure(three_mode_state(0.7))
        bases = [make_basis(0.7), make_basis(0.0), make_basis(0.7)]
        with pytest.raises(ValueError, match="mu = 0"):
            project_to_qubits(d, bases)
        with pytest.raises(ValueError, match="mu = 0"):
            qubit_coordinates(three_mode_state(0.7), bases)

    def test_basis_count_mismatch_rejected(self):
        s = three_mode_state(0.7)
        bases = [make_basis(0.7)] * 2
        with pytest.raises(ValueError, match="need 3 bases, got 2"):
            project_to_qubits(density_from_pure(s), bases)
        with pytest.raises(ValueError, match="basis count mismatch"):
            qubit_coordinates(s, bases)


class TestProjection:
    def test_state_in_span_has_zero_residual(self):
        a = 0.9
        s = three_mode_state(a)
        bases = [make_basis(math.sqrt(2) * a), make_basis(a), make_basis(a)]
        mat, residual = project_to_qubits(density_from_pure(s), bases)
        assert abs(residual) < 1e-12
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
        # pure state: matrix is rank one
        evals = np.sort(np.linalg.eigvalsh(mat))[::-1]
        assert evals[0] == pytest.approx(1.0, abs=1e-10)
        assert abs(evals[1]) < 1e-10

    def test_damped_state_stays_in_damped_span(self):
        a, eta = 0.7, 0.4
        d = apply_loss(apply_loss(density_from_pure(three_mode_state(a)), 1, eta), 2, eta)
        root = math.sqrt(eta)
        bases = [make_basis(math.sqrt(2) * a), make_basis(root * a), make_basis(root * a)]
        _, residual = project_to_qubits(d, bases)
        assert abs(residual) < 1e-10

    def test_undamped_bases_leave_residual(self):
        a, eta = 0.7, 0.4
        d = apply_loss(apply_loss(density_from_pure(three_mode_state(a)), 1, eta), 2, eta)
        bases = [make_basis(math.sqrt(2) * a), make_basis(a), make_basis(a)]
        _, residual = project_to_qubits(d, bases)
        assert residual > 1e-3

    def test_faithful_inner_products(self):
        # states inside the logical span: qubit coordinates preserve overlaps
        from catdamp.coherent import add, scale

        rng = np.random.default_rng(23)
        alpha = 1.1
        basis = make_basis(alpha)
        u, v = basis.u_state(), basis.v_state()
        bases = [basis, basis]
        prods = [tensor(u, u), tensor(u, v), tensor(v, u), tensor(v, v)]

        def build(coeffs):
            out = scale(prods[0], coeffs[0])
            for w, p in zip(coeffs[1:], prods[1:]):
                out = add(out, scale(p, w))
            return out

        for _ in range(5):
            c1 = rng.normal(size=4) + 1j * rng.normal(size=4)
            c2 = rng.normal(size=4) + 1j * rng.normal(size=4)
            s1, s2 = build(c1), build(c2)
            exact = state_inner(s1, s2)
            v1 = qubit_coordinates(s1, bases)
            v2 = qubit_coordinates(s2, bases)
            assert exact == pytest.approx(np.vdot(v1, v2), abs=1e-10)


class TestWootters:
    def test_spin_flip_is_sigma_y_squared(self):
        from catdamp.logical import _SPIN_FLIP

        y = np.array([[0, -1j], [1j, 0]])
        assert np.array_equal(_SPIN_FLIP, np.kron(y, y))

    def test_bell_state(self):
        bell = np.zeros((4, 4), dtype=complex)
        bell[0, 0] = bell[3, 3] = bell[0, 3] = bell[3, 0] = 0.5
        assert wootters_concurrence(bell) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert wootters_concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    def test_werner_state(self):
        singlet = np.zeros((4, 4), dtype=complex)
        singlet[1, 1] = singlet[2, 2] = 0.5
        singlet[1, 2] = singlet[2, 1] = -0.5
        rho = 0.5 * singlet + 0.5 * np.eye(4) / 4
        # frozen from the sqrtm oracle below; analytic value is 1/4
        assert sqrtm_concurrence(rho) == pytest.approx(0.25, abs=1e-10)
        assert wootters_concurrence(rho) == pytest.approx(0.25, abs=1e-12)

    def test_pure_states_match_spin_flip_overlap(self):
        # a rank-1 rho has three zero eigenvalues, whose square roots cost
        # ~1e-8 in a route through the spectrum of rho rho~
        from catdamp.logical import _SPIN_FLIP

        rng = np.random.default_rng(21)
        worst = 0.0
        for _ in range(500):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            want = abs(psi @ _SPIN_FLIP @ psi)
            worst = max(worst, abs(wootters_concurrence(np.outer(psi, psi.conj())) - want))
        assert worst < 1e-14

    def test_rejects_unphysical(self):
        bad = np.diag([1.0, 0.5, -0.5, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            wootters_concurrence(bad)
        # a bad row of a stack fails the whole call
        stack = np.stack([np.eye(4) / 4, bad, np.eye(4) / 4])
        with pytest.raises(ValueError, match="positive semidefinite"):
            wootters_concurrence(stack)
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            wootters_concurrence(np.stack([np.eye(4) / 4, skew]))
        with pytest.raises(ValueError, match="4x4"):
            wootters_concurrence(np.eye(3))

    def test_stack_equals_one_matrix_calls(self):
        # random full-rank densities, the X states of `validate` and pure states
        rng = np.random.default_rng(5)
        psis = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
        psis /= np.linalg.norm(psis, axis=1)[:, None]
        stack = np.concatenate([
            [random_density(rng) for _ in range(200)],
            [random_x_matrix(rng) for _ in range(200)],
            psis[:, :, None] * psis[:, None, :].conj(),
        ])
        got = wootters_concurrence(stack)
        assert got.shape == (420,)
        assert np.array_equal(got, [wootters_concurrence(rho) for rho in stack])
        assert isinstance(wootters_concurrence(stack[0]), float)
        # any leading shape, and an empty stack
        assert np.array_equal(wootters_concurrence(stack.reshape(20, 21, 4, 4)),
                              got.reshape(20, 21))
        assert wootters_concurrence(stack[:0]).shape == (0,)


class TestXStateConcurrence:
    def test_diagonal_state(self):
        x = _x_matrix(0.25, 0.25, 0.25, 0.25, 0.0, 0.0)
        assert xstate_concurrence(x) == 0.0

    def test_maximally_entangled(self):
        x = _x_matrix(0.5, 0.0, 0.0, 0.5, 0.0, 0.5)
        assert xstate_concurrence(x) == pytest.approx(1.0, abs=1e-14)

    def test_reads_only_the_x_entries(self):
        # entries off the X are not read, nor the lower triangle's conjugates
        x = _x_matrix(0.5, 0.0, 0.0, 0.5, 0.0, 0.5)
        noise = np.full((4, 4), 0.3 + 0.2j)
        noise[[0, 1, 2, 3, 1, 0], [0, 1, 2, 3, 2, 3]] = 0.0
        assert xstate_concurrence(x + noise) == xstate_concurrence(x)

    def test_matches_wootters_on_random_x_states(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(1000):
            x = random_x_matrix(rng)
            got = xstate_concurrence(x)
            ref = wootters_concurrence(x)
            worst = max(worst, abs(got - ref))
        assert worst < 1e-10

    def test_stack_equals_one_matrix_calls(self):
        # complex coherences: |e| and |f| are libm's hypot per element, as
        # Python's abs takes them; NumPy's array abs differs from it in the
        # last bit on about a third of these
        rng = np.random.default_rng(78)
        stack = np.array([random_x_matrix(rng) for _ in range(1000)])
        assert np.iscomplex(stack[:, 1, 2]).all() and np.iscomplex(stack[:, 0, 3]).all()
        got = xstate_concurrence(stack)
        assert got.shape == (1000,)
        assert np.array_equal(got, [xstate_concurrence(x) for x in stack])
        scalar = []
        for x in stack.tolist():
            a, b, c, d = (x[i][i].real for i in range(4))
            inner = abs(x[1][2]) - math.sqrt(max(a * d, 0.0))
            outer = abs(x[0][3]) - math.sqrt(max(b * c, 0.0))
            scalar.append(2.0 * max(0.0, inner, outer))
        assert np.array_equal(got, scalar)
        assert isinstance(xstate_concurrence(stack[0]), float)
        assert np.array_equal(xstate_concurrence(stack.reshape(10, 100, 4, 4)),
                              got.reshape(10, 100))

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="negative"):
            xstate_concurrence(_x_matrix(-0.1, 0.4, 0.4, 0.3, 0.0, 0.0))
        with pytest.raises(ValueError, match="exceeds 1"):
            xstate_concurrence(_x_matrix(0.5, 0.5, 0.5, 0.5, 0.0, 0.0))
        with pytest.raises(ValueError, match="4x4"):
            xstate_concurrence(np.eye(2))
        # the tolerances: -1e-12 and 1 + 1e-10 still pass
        assert xstate_concurrence(_x_matrix(-1e-12, 0.5, 0.5, 0.0, 0.0, 0.0)) == 0.0
        assert xstate_concurrence(_x_matrix(0.25, 0.25, 0.25, 0.25 + 1e-10, 0.0, 0.0)) == 0.0

    @pytest.mark.parametrize("entry", [(0, 0), (2, 2), (1, 2), (0, 3)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_raises(self, entry, bad):
        # a NaN here once gave 0.3 or 0.0, and wootters_concurrence 0.3 for
        # one in the upper triangle, which eigh does not read
        x = _x_matrix(0.4, 0.1, 0.1, 0.4, 0.05, 0.25)
        x[entry] = bad
        for concurrence in (xstate_concurrence, wootters_concurrence):
            with pytest.raises(ValueError, match="finite"):
                concurrence(x)
        with pytest.raises(ValueError, match="finite"):
            xstate_concurrence(np.array([_x_matrix(0.25, 0.25, 0.25, 0.25, 0.0, 0.0), x]))

    def test_invariants_enforced_on_each_row_of_a_stack(self):
        good = _x_matrix(0.25, 0.25, 0.25, 0.25, 0.0, 0.1)
        for bad, match in ((_x_matrix(0.5, 0.5, -0.1, 0.1, 0.0, 0.0), "negative"),
                           (_x_matrix(0.5, 0.5, 0.5, 0.5, 0.0, 0.0), "exceeds 1")):
            for row in range(3):
                stack = np.array([good] * 3)
                stack[row] = bad
                with pytest.raises(ValueError, match=match):
                    xstate_concurrence(stack)
                with pytest.raises(ValueError, match=match):
                    xstate_concurrence(stack.reshape(3, 1, 4, 4))


class TestPureBipartiteConcurrence:
    def test_product_state(self):
        s = SuperpositionState.from_terms([(1.0, (0.6, 1.0, -0.3))])
        assert pure_bipartite_concurrence(s, [0]) == pytest.approx(0.0, abs=1e-12)

    def test_odd_state_maximal(self):
        for a in (0.1, 0.5, 1.0, 2.0):
            s = three_mode_state(a, math.pi)
            assert pure_bipartite_concurrence(s, [0]) == pytest.approx(1.0, abs=1e-12)

    def test_general_phase_closed_form(self):
        for a in (0.3, 0.8, 1.4):
            for theta in (0.0, 0.7, math.pi / 2, 2.5, math.pi):
                s = three_mode_state(a, theta)
                e8 = math.exp(-8 * a * a)
                expected = (1 - e8) / (1 + e8 * math.cos(theta))
                got = pure_bipartite_concurrence(s, [0])
                assert got == pytest.approx(expected, abs=1e-10)

    def test_rank_condition(self):
        # a three-branch superposition makes the mode-0 reduction rank 3
        s = normalize(
            SuperpositionState.from_terms(
                [(1.0, (1.0, 1.0)), (1.0, (-1.0, -1.0)), (1.0, (2.5, 0.3))]
            )
        )
        with pytest.raises(ValueError, match="rank"):
            pure_bipartite_concurrence(s, [0])


class TestMixtureWeights:
    def test_single_component_pure(self):
        s = three_mode_state(0.9)
        w, res = mixture_weights(density_from_pure(s), [s])
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert res < 1e-12

    def test_loss_pipeline_weights(self):
        a, eta = 1.0, 0.5
        d = apply_loss(apply_loss(density_from_pure(three_mode_state(a)), 1, eta), 2, eta)
        odd, even = damped_components(a, eta)
        w, res = mixture_weights(d, [odd, even])
        # frozen: direct evaluation of the closed form at alpha=1, eta=0.5
        assert w[1] == pytest.approx(0.43354944279148007, abs=1e-10)
        assert w[0] == pytest.approx(1 - 0.43354944279148007, abs=1e-10)
        assert res < 1e-10

    def test_equal_mixture_recovered(self):
        from catdamp.coherent import SuperpositionDensity

        a = 0.8
        odd, even = damped_components(a, 1.0)
        rows = np.concatenate([density_from_pure(odd).dyads, density_from_pure(even).dyads])
        rows[:, 0] *= 0.5
        half = SuperpositionDensity(rows)
        w, res = mixture_weights(half, [odd, even])
        assert w[0] == pytest.approx(0.5, abs=1e-10)
        assert w[1] == pytest.approx(0.5, abs=1e-10)
        assert res < 1e-10

    def test_maximally_mixed_on_logical_span(self):
        # I/8 over the full logical span splits evenly over the two dyads but
        # keeps most of its weight outside them
        from catdamp.coherent import SuperpositionDensity

        a = 0.8
        odd, even = damped_components(a, 1.0)
        bases = [make_basis(math.sqrt(2) * a), make_basis(a), make_basis(a)]
        dyads = []
        for r in range(8):
            bits = [(r >> (2 - k)) & 1 for k in range(3)]
            parts = [
                bases[k].v_state() if bit else bases[k].u_state()
                for k, bit in enumerate(bits)
            ]
            chi = tensor(tensor(parts[0], parts[1]), parts[2])
            rows = np.array(density_from_pure(chi).dyads)
            rows[:, 0] /= 8.0
            dyads.append(rows)
        mixed = SuperpositionDensity(np.concatenate(dyads))
        w, res = mixture_weights(mixed, [odd, even])
        assert w[0] == pytest.approx(0.5, abs=1e-10)
        assert w[1] == pytest.approx(0.5, abs=1e-10)
        # || I/8 - (P_odd + P_even)/2 ||_F = sqrt(3/8)
        assert res == pytest.approx(math.sqrt(3.0 / 8.0), abs=1e-9)

    def test_degenerate_components_rejected(self):
        s = three_mode_state(0.9)
        with pytest.raises(ValueError, match="ill-conditioned"):
            mixture_weights(density_from_pure(s), [s, s])
