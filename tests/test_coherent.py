import cmath
import math

import numpy as np
import pytest

from catdamp.coherent import (
    SuperpositionDensity,
    SuperpositionState,
    apply_loss,
    beamsplitter,
    canonicalize,
    coherent_overlap,
    density_from_pure,
    density_purity,
    density_trace,
    is_hermitian,
    normalize,
    partial_trace,
    state_inner,
    state_norm,
    tensor,
)
from catdamp.formulas import cat_state, mode_ladder


def fock_series_overlap(a, b, n_terms=60):
    """Independent oracle: <a|b> summed from the number-basis expansions."""
    total = 0j
    log_pref = -0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2
    term = 1 + 0j  # (a* b)^n / n!
    for n in range(n_terms):
        total += term
        term = term * (complex(a).conjugate() * complex(b)) / (n + 1)
    return cmath.exp(log_pref) * total


def random_state(rng, modes=2, terms=4, amp_scale=1.2):
    pairs = []
    for _ in range(terms):
        c = complex(rng.normal(), rng.normal())
        amps = tuple(complex(rng.normal(), rng.normal()) * amp_scale for _ in range(modes))
        pairs.append((c, amps))
    return SuperpositionState.from_terms(pairs)


class TestCoherentOverlap:
    def test_identity(self):
        for a in (0.3, 1.5 + 0.5j, -2.0):
            assert coherent_overlap(a, a) == pytest.approx(1.0, abs=1e-14)

    def test_opposite_amplitudes(self):
        for a in (0.5, 1.0, 2.0):
            assert coherent_overlap(a, -a) == pytest.approx(
                math.exp(-2 * abs(a) ** 2), abs=1e-14
            )

    def test_against_fock_series(self):
        # frozen case: <1|2i> = exp(-2.5 + 2i)
        got = coherent_overlap(1, 2j)
        assert got == pytest.approx(cmath.exp(-2.5 + 2j), abs=1e-12)
        assert got == pytest.approx(fock_series_overlap(1, 2j), abs=1e-12)
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            assert coherent_overlap(a, b) == pytest.approx(
                fock_series_overlap(a, b), abs=1e-12
            )

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            assert coherent_overlap(a, b) == pytest.approx(
                coherent_overlap(b, a).conjugate(), abs=1e-14
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SuperpositionState.from_terms([(1.0, (complex(math.nan, 0),))])


class TestStateInner:
    def test_single_term_unit(self):
        s = SuperpositionState.from_terms([(1.0, (0.7, 0.7))])
        assert state_inner(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_three_mode_cross_overlap(self):
        a = 0.9
        s1 = SuperpositionState.from_terms([(1.0, (math.sqrt(2) * a, a, a))])
        s2 = SuperpositionState.from_terms([(1.0, (-math.sqrt(2) * a, -a, -a))])
        assert state_inner(s1, s2) == pytest.approx(math.exp(-8 * a * a), abs=1e-14)

    def test_normalization_constant(self):
        # the odd three-mode state has norm^2 = 2 (1 - e^{-8 a^2})
        a = 0.6
        A = math.sqrt(2) * a
        raw = SuperpositionState.from_terms([(1.0, (A, a, a)), (-1.0, (-A, -a, -a))])
        assert state_inner(raw, raw).real == pytest.approx(
            2 * (1 - math.exp(-8 * a * a)), abs=1e-14
        )
        assert state_inner(normalize(raw), normalize(raw)).real == pytest.approx(
            1.0, abs=1e-12
        )

    def test_mode_mismatch(self):
        s1 = SuperpositionState.from_terms([(1.0, (0.5,))])
        s2 = SuperpositionState.from_terms([(1.0, (0.5, 0.5))])
        with pytest.raises(ValueError):
            state_inner(s1, s2)


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(5)
        s = normalize(random_state(rng))
        s2 = normalize(s)
        assert np.max(np.abs(s.coeffs - s2.coeffs)) < 1e-12

    def test_even_cat_constant(self):
        a = 0.8
        raw = SuperpositionState.from_terms([(1.0, (a,)), (1.0, (-a,))])
        n = normalize(raw)
        expected = 1 / math.sqrt(2 * (1 + math.exp(-2 * a * a)))
        assert n.coeffs[0] == pytest.approx(expected, abs=1e-14)

    def test_zero_norm_rejected(self):
        # the odd superposition at alpha = 0 vanishes identically
        raw = SuperpositionState.from_terms([(1.0, (0j, 0j)), (-1.0, (0j, 0j))])
        with pytest.raises(ValueError, match="norm"):
            normalize(raw)


class TestBeamsplitter:
    def test_coherent_with_vacuum(self):
        a, eta = 1.3, 0.7
        s = SuperpositionState.from_terms([(1.0, (a, 0.0))])
        out = beamsplitter(s, 0, 1, eta)
        assert out.amps[0, 0] == pytest.approx(math.sqrt(eta) * a, abs=1e-14)
        assert out.amps[0, 1] == pytest.approx(-math.sqrt(1 - eta) * a, abs=1e-14)
        assert out.coeffs[0] == pytest.approx(1.0, abs=1e-14)

    def test_eta_one_identity(self):
        rng = np.random.default_rng(7)
        s = random_state(rng)
        out = beamsplitter(s, 0, 1, 1.0)
        assert np.max(np.abs(s.amps - out.amps)) < 1e-14

    def test_eta_zero_swaps(self):
        s = SuperpositionState.from_terms([(1.0, (0.4, 1.1))])
        out = beamsplitter(s, 0, 1, 0.0)
        assert out.amps[0, 0] == pytest.approx(1.1, abs=1e-14)
        assert out.amps[0, 1] == pytest.approx(-0.4, abs=1e-14)

    def test_unitarity_random_states(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            s = random_state(rng, modes=3, terms=10)
            eta = rng.uniform()
            out = beamsplitter(s, 0, 2, eta)
            assert state_norm(out) == pytest.approx(state_norm(s), abs=1e-12)

    def test_invalid_arguments(self):
        s = SuperpositionState.from_terms([(1.0, (0.5, 0.5))])
        with pytest.raises(ValueError):
            beamsplitter(s, 0, 0, 0.5)
        with pytest.raises(ValueError):
            beamsplitter(s, 0, 1, 1.5)
        with pytest.raises(ValueError):
            beamsplitter(s, 0, 5, 0.5)


class TestDensity:
    def test_single_term_pure(self):
        s = SuperpositionState.from_terms([(1.0, (0.5, -0.5))])
        d = density_from_pure(s)
        assert len(d.dyads) == 1
        assert d.coeffs[0] == pytest.approx(1.0, abs=1e-14)
        assert density_trace(d).real == pytest.approx(1.0, abs=1e-12)

    def test_two_term_dyad_structure(self):
        a = 0.7
        s = normalize(
            SuperpositionState.from_terms([(1.0, (a,)), (1.0, (-a,))])
        )
        d = density_from_pure(s)
        assert len(d.dyads) == 4
        assert is_hermitian(d)
        assert density_trace(d).real == pytest.approx(1.0, abs=1e-10)

    def test_empty_state(self):
        empty = SuperpositionState(np.zeros((0, 2)))
        one = SuperpositionState.from_terms([(1.0, (0.5,))])
        assert tensor(empty, one).terms.shape == (0, 3)
        assert tensor(one, empty).terms.shape == (0, 3)
        d = density_from_pure(empty, check_norm=False)
        assert d.dyads.shape == (0, 3) and density_trace(d) == 0

    def test_requires_normalized_input(self):
        s = SuperpositionState.from_terms([(2.0, (0.5,))])
        with pytest.raises(ValueError):
            density_from_pure(s)


class TestPartialTrace:
    def test_product_state_factor_removed(self):
        d = SuperpositionDensity([(1.0, 0.3, 0.8, 0.3, 0.8)])
        out = partial_trace(d, [1])
        assert out.mode_count == 1
        assert out.coeffs[0] == pytest.approx(1.0, abs=1e-14)

    def test_cross_dyad_weighted_by_overlap(self):
        b = 0.9
        d = SuperpositionDensity([(1.0, 0.3, b, 0.3, -b)])
        out = partial_trace(d, [1])
        # <(-b)|b> = e^{-2 b^2}
        assert out.coeffs[0] == pytest.approx(
            math.exp(-2 * b * b), abs=1e-14
        )

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        s = normalize(random_state(rng, modes=3, terms=3))
        d = density_from_pure(s)
        out = partial_trace(d, [0, 2])
        assert density_trace(out).real == pytest.approx(
            density_trace(d).real, abs=1e-10
        )

    def test_rejects_tracing_everything(self):
        s = normalize(SuperpositionState.from_terms([(1.0, (0.5, 0.5))]))
        with pytest.raises(ValueError):
            partial_trace(density_from_pure(s), [0, 1])


class TestApplyLoss:
    def test_coherent_dyad_scaled(self):
        s = SuperpositionState.from_terms([(1.0, (1.2,))])
        out = apply_loss(s, 0, 0.6)
        assert len(out.dyads) == 1
        assert out.kets[0, 0] == pytest.approx(math.sqrt(0.6) * 1.2, abs=1e-14)
        assert out.coeffs[0] == pytest.approx(1.0, abs=1e-14)

    def test_eta_one_identity(self):
        rng = np.random.default_rng(17)
        d = density_from_pure(normalize(random_state(rng)))
        out = apply_loss(d, 0, 1.0)
        assert np.max(np.abs(d.dyads - out.dyads)) < 1e-14

    def test_trace_preserved(self):
        rng = np.random.default_rng(19)
        d = density_from_pure(normalize(random_state(rng, modes=2, terms=4)))
        out = apply_loss(d, 1, 0.35)
        assert density_trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert is_hermitian(out)

    def test_composition_in_transmissivity(self):
        rng = np.random.default_rng(23)
        d = density_from_pure(normalize(random_state(rng, modes=2, terms=3)))
        two_step = canonicalize(apply_loss(apply_loss(d, 0, 0.8), 0, 0.5))
        one_step = canonicalize(apply_loss(d, 0, 0.4))
        assert len(two_step.dyads) == len(one_step.dyads)
        assert np.max(np.abs(two_step.dyads - one_step.dyads)) < 1e-10

    def test_environment_convention_unobservable(self):
        # routing the mode through either beamsplitter port flips the sign of
        # the reflected amplitude; the traced channel output must not change
        a, eta = 1.1, 0.45
        s = normalize(
            SuperpositionState.from_terms([(1.0, (a, a)), (-1.0, (-a, -a))])
        )
        via_channel = canonicalize(apply_loss(s, 1, eta))
        ext = tensor(s, SuperpositionState.from_terms([(1.0, (0j,))]))
        flipped = beamsplitter(ext, 2, 1, eta)  # env on the sign-flipped port
        alt = canonicalize(partial_trace(density_from_pure(flipped), [2]))
        assert len(via_channel.dyads) == len(alt.dyads)

        def sig(row):
            return tuple((round(z.real, 10), round(z.imag, 10)) for z in row[1:])

        ref = {sig(row): row[0] for row in via_channel.dyads.tolist()}
        for row in alt.dyads.tolist():
            assert abs(ref[sig(row)] - row[0]) < 1e-12


class TestCanonicalize:
    def test_merges_duplicates(self):
        d = SuperpositionDensity([(0.25, 0.5, 0.5), (0.5, 0.5, 0.5)])
        out = canonicalize(d)
        assert len(out.dyads) == 1
        assert out.coeffs[0] == pytest.approx(0.75, abs=1e-14)

    def test_drops_zero_weight(self):
        d = SuperpositionDensity([(0.0, 0.5, 0.5), (1.0, 0.7, 0.7)])
        out = canonicalize(d)
        assert len(out.dyads) == 1

    def test_idempotent(self):
        rng = np.random.default_rng(29)
        d = density_from_pure(normalize(random_state(rng, modes=2, terms=4)))
        once = canonicalize(d)
        twice = canonicalize(once)
        assert np.array_equal(once.dyads, twice.dyads)

    def test_tiny_amplitudes_stay_apart(self):
        # the merge keys are the exact amplitudes: at alpha = 1e-13 the
        # damped even three-mode state keeps its 4 dyads, where a 1e-12
        # rounding grid folded them into 1
        state = cat_state(mode_ladder(1e-13, 3), 1.0)
        d = canonicalize(apply_loss(apply_loss(state, 1, 0.3), 2, 0.3))
        assert len(d.dyads) == 4

    def test_signed_zeros_merge(self):
        d = SuperpositionDensity([(0.25, complex(-0.0, 0.5), complex(0.3, -0.0)),
                                  (0.5, complex(0.0, 0.5), complex(0.3, 0.0))])
        out = canonicalize(d)
        assert len(out.dyads) == 1
        assert out.coeffs[0] == 0.75
        assert is_hermitian(SuperpositionDensity([(1.0, -0.0, 0.0)]))


def test_purity_of_pure_state_is_one():
    rng = np.random.default_rng(31)
    d = density_from_pure(normalize(random_state(rng, modes=2, terms=3)))
    assert density_purity(d) == pytest.approx(1.0, abs=1e-10)


# The per-dyad scalar loops that the table operations replaced, with cmath
# overlaps and exact merge keys, to hold the array expressions to.  The array
# kernel forms each exponent from the difference of the amplitudes and
# multiplies in NumPy's complex arithmetic, so results differ in the last
# bits: the bound 1e-13 is about 450 ulps of the O(1) values compared.


def scalar_overlap(a, b):
    return cmath.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + a.conjugate() * b)


def scalar_product_overlap(amps_a, amps_b):
    out = 1 + 0j
    for x, y in zip(amps_a, amps_b):
        out *= scalar_overlap(x, y)
    return out


def scalar_state_inner(s1, s2):
    return sum(c1.conjugate() * c2 * scalar_product_overlap(a1, a2)
               for c1, *a1 in s1.terms.tolist() for c2, *a2 in s2.terms.tolist())


def split(d):
    """(coeff, ket, bra) of each dyad of d, as Python complex numbers."""
    m = d.mode_count
    return [(row[0], row[1:1 + m], row[1 + m:]) for row in d.dyads.tolist()]


def scalar_density_trace(d):
    return sum(c * scalar_product_overlap(bra, ket) for c, ket, bra in split(d))


def scalar_partial_trace(d, traced):
    keep = [k for k in range(d.mode_count) if k not in traced]
    rows = []
    for c, ket, bra in split(d):
        for k in traced:
            c *= scalar_overlap(bra[k], ket[k])
        rows.append([c] + [ket[k] for k in keep] + [bra[k] for k in keep])
    return np.array(rows)


def scalar_apply_loss(d, mode, eta):
    ct, st = math.sqrt(eta), math.sqrt(1.0 - eta)
    rows = []
    for c, ket, bra in split(d):
        c *= scalar_overlap(-st * bra[mode], -st * ket[mode])
        ket[mode], bra[mode] = ct * ket[mode], ct * bra[mode]
        rows.append([c] + ket + bra)
    return np.array(rows)


def scalar_canonicalize(d, tol):
    merged = {}
    for c, ket, bra in split(d):
        key = tuple(ket + bra)
        merged[key] = merged.get(key, 0j) + c
    return np.array([[c, *key] for key, c in merged.items() if abs(c) >= tol])


def random_density(rng, modes, terms):
    """|s><s| of a random state whose last term repeats its first term's
    amplitudes, so that canonicalize has dyads to merge."""
    s = random_state(rng, modes=modes, terms=terms)
    rows = np.array(s.terms)
    rows[-1, 1:] = rows[0, 1:]
    return density_from_pure(SuperpositionState(rows), check_norm=False)


class TestTableOperationsMatchScalarLoops:
    @pytest.mark.parametrize("seed", range(4))
    def test_state_inner(self, seed):
        rng = np.random.default_rng(200 + seed)
        s1, s2 = random_state(rng, modes=3, terms=5), random_state(rng, modes=3, terms=4)
        want = scalar_state_inner(s1, s2)
        assert abs(state_inner(s1, s2) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("seed", range(4))
    def test_density_operations(self, seed):
        rng = np.random.default_rng(300 + seed)
        d = random_density(rng, modes=3, terms=4)
        want = scalar_density_trace(d)
        assert abs(density_trace(d) - want) <= 1e-13 * max(1.0, abs(want))
        for traced in ([0], [1, 2]):
            got = partial_trace(d, traced).dyads
            assert np.max(np.abs(got - scalar_partial_trace(d, traced))) <= 1e-13
        eta = float(rng.uniform())
        for mode in range(3):
            got = apply_loss(d, mode, eta).dyads
            assert np.max(np.abs(got - scalar_apply_loss(d, mode, eta))) <= 1e-13

    @pytest.mark.parametrize("seed", range(4))
    def test_canonicalize(self, seed):
        rng = np.random.default_rng(400 + seed)
        d = random_density(rng, modes=2, terms=4)
        for tol in (0.0, 1e-14, 0.5):
            got = canonicalize(d, tol).dyads
            want = scalar_canonicalize(d, tol)
            # the same additions in the same order: equal to the bit
            assert got.shape == want.shape and np.array_equal(got, want)
        assert len(canonicalize(d, 0.0).dyads) == 9

    def test_apply_loss_on_a_state(self):
        s = normalize(random_state(np.random.default_rng(5), modes=2, terms=3))
        got = apply_loss(s, 1, 0.4).dyads
        assert np.max(np.abs(got - scalar_apply_loss(density_from_pure(s), 1, 0.4))) <= 1e-13
