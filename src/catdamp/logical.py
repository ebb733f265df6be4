"""Logical-qubit view of coherent superpositions and entanglement measures.

Each mode carries a two-dimensional logical span {|alpha>, |-alpha>}.  The
orthonormal basis for that span is

    |u> = (|alpha> + |-alpha>) / (2 lambda),   lambda = sqrt((1 + e^{-2|a|^2})/2)
    |v> = (|alpha> - |-alpha>) / (2 mu),       mu     = sqrt((1 - e^{-2|a|^2})/2)

Projecting a density onto products of these bases gives an ordinary qubit
density matrix plus a residual reporting any weight outside the span.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coherent import (
    SuperpositionDensity,
    SuperpositionState,
    _gram,
    _gram_spectra,
    _groups,
    density_from_pure,
    density_trace,
    density_spectrum,
    partial_trace,
    state_inner,
)


# eigenvalue slack of the PSD and rank-2 tests; Gram condition limit of `mixture_weights`
PSD_TOL = 1e-9
RANK_TOL = 1e-9
COND_LIMIT = 1e12

# largest temporary of `project_to_qubits`, in complex entries: 64 KiB, below
# glibc's 128 KiB mmap threshold, above which every call page-faults in fresh
# memory (on a 2-core Linux host, NumPy 2.4: a six-mode projection of 4 dyads
# took 280 us in one block and 150 us in blocks)
_BLOCK_ENTRIES = 4096


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal qubit basis for the span of |alpha> and |-alpha>."""

    alpha: complex
    lam: float
    mu: float

    def u_state(self) -> SuperpositionState:
        c = 1.0 / (2.0 * self.lam)
        return SuperpositionState.from_terms([(c, (self.alpha,)), (c, (-self.alpha,))])

    def v_state(self) -> SuperpositionState:
        if self.mu == 0.0:
            raise ValueError(f"|v> is undefined at alpha = {self.alpha!r} (mu = 0)")
        c = 1.0 / (2.0 * self.mu)
        return SuperpositionState.from_terms([(c, (self.alpha,)), (-c, (-self.alpha,))])

    def overlaps(self, beta: complex) -> tuple[complex, complex]:
        """(<u|beta>, <v|beta>) for a coherent amplitude beta.

        Computed through cosh/sinh of the cross term, which stays accurate
        where the naive difference of two overlaps would cancel (small
        amplitudes).  Once cosh(cross) would overflow, or the Gaussian
        envelope would underflow, the two halves (1/2) e^{log_env +- cross}
        are formed separately; each exponent is at most 0 there.
        """
        if self.mu == 0.0:
            raise ValueError(f"|v> is undefined at alpha = {self.alpha!r} (mu = 0)")
        beta = complex(beta)
        cross = self.alpha.conjugate() * beta
        log_env = -0.5 * abs(self.alpha) ** 2 - 0.5 * abs(beta) ** 2
        if abs(cross.real) < 700.0 and log_env > -700.0:
            env = cmath.exp(log_env)
            return env * cmath.cosh(cross) / self.lam, env * cmath.sinh(cross) / self.mu
        plus = 0.5 * cmath.exp(log_env + cross)
        minus = 0.5 * cmath.exp(log_env - cross)
        return (plus + minus) / self.lam, (plus - minus) / self.mu


def _libm(fn, x):
    """fn, a one-argument function of a float, at x, or at each element of
    an array x."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def _weights2(two_a2):
    """(lam^2, mu^2) of the logical basis at 2|a|^2 = two_a2, a float or an
    array: (1 + e^{-two_a2}) / 2 and -expm1(-two_a2) / 2, each exponential
    one libm call per element.  expm1 keeps full relative precision in mu^2
    for small amplitudes.  Every writer of lam and mu goes through here."""
    return (1.0 + _libm(math.exp, -two_a2)) / 2.0, -_libm(math.expm1, -two_a2) / 2.0


def make_basis(alpha: complex) -> LogicalBasis:
    lam2, mu2 = _weights2(2.0 * abs(alpha) ** 2)
    return LogicalBasis(complex(alpha), math.sqrt(lam2), math.sqrt(mu2))


def _loss_kraus(amp: np.ndarray, eta: float | np.ndarray) -> np.ndarray:
    """Photon loss on one mode as an exact logical-qubit channel.

    For basis amplitudes amp (G,) and eta a float or a (G,) array, returns
    the Kraus pair as a (G, 2, 2, 2) array [g, k, out, in], from the basis
    at a to the basis at b = sqrt(eta) a.  With c = sqrt(1 - eta) a, the
    environment's amplitude,

        K0 = diag(lam_b lam_c / lam_a, mu_b lam_c / mu_a)
        K1 = [[0, lam_b mu_c / mu_a], [mu_b mu_c / lam_a, 0]]

    for the environment ending in its |u> or |v>.  K1 swaps u and v: it is
    the phase flip.  The weights come from `_weights2`, one call each at
    2 a^2, eta 2 a^2 and (1 - eta) 2 a^2, the values of 2|.|^2 at a, b and
    c; each mu^2 comes from expm1, so the mu ratios keep full relative
    precision.  At a = 0 (2 a^2 <= 1e-300) they take their limits,
    K0 = diag(1, sqrt(eta)) and K1 = sqrt(1 - eta) |u><v|.  No factor
    exceeds 1, so nothing overflows.
    """
    two_a2 = 2.0 * np.asarray(amp, dtype=float) ** 2
    lam2_a, mu2_a = _weights2(two_a2)
    lam2_b, mu2_b = _weights2(eta * two_a2)
    lam2_c, mu2_c = _weights2((1.0 - eta) * two_a2)
    lam_a, lam_b, lam_c = np.sqrt(lam2_a), np.sqrt(lam2_b), np.sqrt(lam2_c)

    def mu_over_mu_a(frac, mu2) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = mu2 / mu2_a
        return np.sqrt(np.where(two_a2 <= 1e-300, frac, ratio))

    kraus = np.zeros(two_a2.shape + (2, 2, 2))
    kraus[:, 0, 0, 0] = lam_b * lam_c / lam_a
    kraus[:, 0, 1, 1] = mu_over_mu_a(eta, mu2_b) * lam_c
    kraus[:, 1, 0, 1] = lam_b * mu_over_mu_a(1.0 - eta, mu2_c)
    kraus[:, 1, 1, 0] = np.sqrt(mu2_b) * np.sqrt(mu2_c) / lam_a
    return kraus


def _product_vectors(amps: np.ndarray, bases: Sequence[LogicalBasis]) -> np.ndarray:
    """Coordinates <row|a_0, ..., a_{m-1}> of N coherent products, the rows
    of amps (N, m), in the product logical basis, one row each: an (N, 2^m)
    array.

    Each distinct amplitude of a mode gets one `LogicalBasis.overlaps` call,
    and every row is grown one mode at a time by broadcasting, so row i
    equals the chain of 1-D Kronecker products of its (<u|a_k>, <v|a_k>)
    pairs element for element, with the same products in the same order.
    """
    n = len(amps)
    vec = np.ones((n, 1), dtype=complex)
    for column, basis in zip(amps.T.tolist(), bases):
        number = {a: i for i, a in enumerate(dict.fromkeys(column))}
        pairs = np.array([basis.overlaps(a) for a in number], dtype=complex).reshape(-1, 2)
        pair = pairs[np.fromiter(map(number.__getitem__, column), np.intp, n)]
        vec = (vec[:, :, None] * pair[:, None, :]).reshape(n, 2 * vec.shape[1])
    return vec


def project_to_qubits(
    d: SuperpositionDensity, bases: Sequence[LogicalBasis]
) -> tuple[np.ndarray, float]:
    """Project a density onto per-mode logical bases.

    Returns the 2^m x 2^m matrix <row|rho|col> over products of |u>, |v>
    (mode 0 is the most significant bit, u = 0, v = 1) and the residual
    weight outside the logical span, trace(rho) - trace(matrix).  A density
    with no dyads projects to the zero matrix.

    The result is reproducible to the bit: the product vectors are formed
    once per distinct ket or bra, from the scalar `LogicalBasis.overlaps`;
    each dyad's term is c (ket bra^dagger), and for each block of matrix
    rows the terms are added to zero one dyad at a time, in dyad order, by
    one reduction over the dyad axis.  A ufunc evaluation of the overlaps,
    or one matrix product over all dyads, reorders the floating point
    operations and changes the last bits of the results.
    """
    m = d.mode_count
    if len(bases) != m:
        raise ValueError(f"need {m} bases, got {len(bases)}")
    n = len(d.dyads)
    rows = np.concatenate([d.kets, d.bras])
    first, group = _groups(rows)
    vecs = _product_vectors(rows[first], bases)[group]
    kets, bras = vecs[:n], vecs[n:].conj()
    mat = np.empty((2**m, 2**m), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // (max(n, 1) * 2**m))
    for row in range(0, 2**m, step):
        terms = d.coeffs[:, None, None] * (kets[:, row:row + step, None] * bras[:, None, :])
        mat[row:row + step] = np.add.reduce(terms, axis=0, initial=0j)
    residual = density_trace(d).real - np.trace(mat).real
    return mat, float(residual)


def qubit_coordinates(
    s: SuperpositionState, bases: Sequence[LogicalBasis]
) -> np.ndarray:
    """Coordinate vector <row|s> of a pure state in the product logical basis.

    Reproducible to the bit for the same reasons as `project_to_qubits`:
    scalar overlaps, and the terms added one at a time in term order.
    """
    if len(bases) != s.mode_count:
        raise ValueError("basis count mismatch")
    vec = np.zeros(2**s.mode_count, dtype=complex)
    for coeff, comp in zip(s.coeffs, _product_vectors(s.amps, bases)):
        vec = vec + coeff * comp
    return vec


# sigma_y (x) sigma_y
_SPIN_FLIP = np.array(
    [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex
)


def _two_qubit(rho) -> np.ndarray:
    """rho as a complex (..., 4, 4) array: one two-qubit matrix or a stack."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 density matrix or a (..., 4, 4) stack")
    return rho


def _one_or_stack(values):
    """A float for one matrix, the (...,) array for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def wootters_concurrence(rho: np.ndarray):
    """Two-qubit mixed-state concurrence (Wootters 1998): with rho = V V^dag
    from one eigendecomposition, max(0, s1 - s2 - s3 - s4) over the singular
    values of tau = V^T (sigma_y x sigma_y) V.  These are the square roots of
    the eigenvalues of rho rho~, found without taking a square root of a
    rounded zero.

    rho is a 4x4 matrix, which gives a float, or a (..., 4, 4) stack, which
    gives the (...,) array; `eigh` and `svd` run once on the stack, and row g
    equals the one-matrix call at rho[g] bit for bit.  A non-finite entry
    raises ValueError: `eigh` reads only the lower triangle.
    """
    rho = _two_qubit(rho)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix must be finite")
    if np.any(np.abs(rho - np.swapaxes(rho, -1, -2).conj()) > 1e-8):
        raise ValueError("density matrix must be Hermitian")
    evals, vecs = np.linalg.eigh(rho)
    # eigh sorts the eigenvalues in ascending order
    if np.any(evals[..., 0] < -PSD_TOL):
        raise ValueError("density matrix must be positive semidefinite")
    v = vecs * np.sqrt(np.maximum(evals, 0.0))[..., None, :]
    s = np.linalg.svd(np.swapaxes(v, -1, -2) @ _SPIN_FLIP @ v, compute_uv=False)
    return _one_or_stack(np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3]))


def xstate_concurrence(rho: np.ndarray):
    """Closed-form concurrence of an X-structured two-qubit state,
    2 max(0, |e| - sqrt(a d), |f| - sqrt(b c)), with (a, b, c, d) the
    diagonal of rho, e = rho[1, 2] and f = rho[0, 3]; no other entry is read.

    rho is a 4x4 matrix or a (..., 4, 4) stack, as for `wootters_concurrence`;
    |e| and |f| are libm's hypot per element, as Python's abs takes them.  A
    non-finite entry among the six read, a diagonal entry below -1e-12, or a
    diagonal weight above 1 + 1e-10, in any matrix raises ValueError.
    """
    rho = _two_qubit(rho)
    a, b, c, d = (rho[..., i, i].real for i in range(4))
    if not np.isfinite(rho[..., [0, 1, 2, 3, 1, 0], [0, 1, 2, 3, 2, 3]]).all():
        raise ValueError("X-state entries must be finite")
    if any(np.any(x < -1e-12) for x in (a, b, c, d)):
        raise ValueError("diagonal element is negative beyond tolerance")
    if np.any(a + b + c + d > 1.0 + 1e-10):
        raise ValueError("diagonal weight exceeds 1")
    e_abs, f_abs = _libm(abs, rho[..., 1, 2]), _libm(abs, rho[..., 0, 3])
    return _one_or_stack(_x_concurrence(a, b, c, d, e_abs, f_abs))


def _x_matrix(a, b, c, d, e, f) -> np.ndarray:
    """The (..., 4, 4) X matrix with diagonal (a, b, c, d), e at (1, 2), f at
    (0, 3) and their conjugates below; the six are floats or arrays."""
    e, f = np.asarray(e, dtype=complex), np.asarray(f, dtype=complex)
    shape = np.broadcast_shapes(*(np.shape(v) for v in (a, b, c, d, e, f)))
    x = np.zeros(shape + (4, 4), dtype=complex)
    for i, diag in enumerate((a, b, c, d)):
        x[..., i, i] = diag
    x[..., 1, 2], x[..., 2, 1] = e, e.conj()
    x[..., 0, 3], x[..., 3, 0] = f, f.conj()
    return x


def _max(first, *rest):
    """max(first, *rest) element by element: a later value replaces the
    running one only where it is greater, as in max, so a NaN first value
    stays."""
    for x in rest:
        first = np.where(x > first, x, first)
    return first


def _x_concurrence(a, b, c, d, e_abs, f_abs):
    """`xstate_concurrence` from a, b, c, d, |e| and |f|, floats or arrays
    that broadcast."""
    inner = e_abs - np.sqrt(_max(a * d, 0.0))
    outer = f_abs - np.sqrt(_max(b * c, 0.0))
    return 2.0 * _max(0.0, inner, outer)


def _spectra_concurrences(evals: np.ndarray) -> np.ndarray:
    """sqrt(2 (1 - Tr rho_A^2)) from reduced spectra (..., r), each row
    decreasing; raises ValueError if a row has rank > 2."""
    third = evals[..., 2:3]
    if np.any(third > RANK_TOL):
        raise ValueError(f"reduced state has rank > 2 (third eigenvalue {np.max(third):.3e})")
    purity = np.sum(np.clip(evals, 0.0, None) ** 2, axis=-1)
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - purity)))


def pure_bipartite_concurrence(
    s: SuperpositionState, side_a_modes: Sequence[int]
) -> float:
    """Concurrence of a normalized pure state across the given bipartition,
    sqrt(2 (1 - Tr rho_A^2)), valid when side A reduces to (at most) a qubit.

    Traces the dyad expansion of |s><s| down to side A and takes its spectrum
    with `density_spectrum`, one operator through the batched Gram kernel;
    `_pure_concurrences` is the array route for many states at once.
    """
    side_a = sorted(set(side_a_modes))
    if not side_a or len(side_a) >= s.mode_count:
        raise ValueError("side A must be a nonempty proper subset of the modes")
    n2 = state_inner(s, s).real
    if abs(n2 - 1.0) > 1e-8:
        raise ValueError("state must be normalized")
    complement = [k for k in range(s.mode_count) if k not in side_a]
    rho_a = partial_trace(density_from_pure(s), complement)
    return float(_spectra_concurrences(density_spectrum(rho_a)[None, :])[0])


def _pure_concurrences(
    coeffs: np.ndarray, amps: np.ndarray, side_a: Sequence[int]
) -> np.ndarray:
    """`pure_bipartite_concurrence` of the states sum_t coeffs[..., t]
    |amps[..., t, :]> at once, each normalized here: coeffs (..., T) and amps
    (..., T, M) broadcast over their leading axes, as do the results.

    Side A's reduced operator is sum_tu c_t conj(c_u) <b_u|b_t> |a_t><a_u|,
    with a and b a term's amplitudes on side A and on the rest; its spectra
    come from one `_gram_spectra` call, each Gram matrix formed once.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    amps = np.asarray(amps, dtype=complex)
    side_a = sorted(set(side_a))
    rest = [k for k in range(amps.shape[-1]) if k not in side_a]
    n2 = np.einsum("...t,...tu,...u->...", coeffs.conj(), _gram(amps), coeffs).real
    c = coeffs / np.sqrt(n2)[..., None]
    reduced = (c[..., :, None] * c.conj()[..., None, :]
               * np.swapaxes(_gram(amps[..., rest]), -1, -2))
    return _spectra_concurrences(_gram_spectra(amps[..., side_a], reduced))


def mixture_weights(
    d: SuperpositionDensity,
    components: Sequence[SuperpositionState],
) -> tuple[list[float], float]:
    """Decompose a density over pure components in the logical-qubit picture.

    Solves the least-squares problem  min_w || D - sum_k w_k P_k ||_F  with the
    physical constraint sum_k w_k = trace(D), where D and the P_k are the
    qubit-basis projections of `d` and of the component dyads.  Returns the
    weights and the remaining Frobenius distance.
    """
    if not components:
        raise ValueError("need at least one component")
    for comp in components:
        if comp.mode_count != d.mode_count:
            raise ValueError("component mode count mismatch")
    ref = components[0].amps[0]
    if np.any(np.abs(ref) < 1e-12):
        raise ValueError("component amplitudes must be nonzero in every mode")
    bases = [make_basis(a) for a in ref.tolist()]
    dmat, _ = project_to_qubits(d, bases)
    projectors = [
        project_to_qubits(density_from_pure(c), bases)[0] for c in components
    ]
    k = len(projectors)
    gram = np.empty((k, k))
    target = np.empty(k)
    # Tr(A B) as the sum of A * B^T: no matrix product is formed
    for i in range(k):
        target[i] = np.sum(projectors[i] * dmat.T).real
        for j in range(k):
            gram[i, j] = np.sum(projectors[i] * projectors[j].T).real
    if np.linalg.cond(gram) > COND_LIMIT:
        raise ValueError("component set is ill-conditioned (near-degenerate dyads)")
    # KKT system for the trace-constrained least squares
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * gram
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * target, [np.trace(dmat).real]])
    weights = np.linalg.solve(kkt, rhs)[:k]
    recon = sum(w * p for w, p in zip(weights, projectors))
    residual = float(np.linalg.norm(dmat - recon))
    return [float(w) for w in weights], residual
