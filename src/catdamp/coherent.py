"""Exact algebra of finite superpositions of multimode coherent states.

A pure state of m modes is a term table: a complex (T, 1 + m) array whose
row t, (c_t, a_t0, ..., a_t(m-1)), is the term c_t |a_t0, ..., a_t(m-1)>.
A density is a dyad table: a complex (N, 1 + 2m) array whose row n,
(c_n, ket_n, bra_n), is the dyad c_n |ket_n><bra_n|.  Because a beamsplitter
maps a product of coherent states to another product of coherent states, and
tracing a mode of a coherent dyad only multiplies its weight by an overlap,
every operation here is closed on these tables and exact up to floating
point.  The tables are read-only, and each is checked once, when its state or
density is made: its shape, and that every entry is finite.

Each operation is an array expression over `_log_overlaps`, the per-mode
overlap kernel that `coherent_overlap` also calls; `_gram`, the Gram kernel
of the batched spectra, takes one exp per pair of products.  Rows whose
amplitudes are equal are found by their exact bytes, with -0.0 read as 0.0.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

# |coeff| below this is dropped when canonicalizing (keeps dyad counts bounded
# through long pipelines without touching 1e-10-level results)
PRUNE_TOL = 1e-14

# largest mismatch between a dyad and its conjugate partner in `is_hermitian`
HERMITIAN_TOL = 1e-10


def _log_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log <a|b> = -|a - b|^2 / 2 + i Im(a* b) of coherent amplitudes a and
    b, complex arrays that broadcast, element by element.  The real part is
    formed from the difference, so it is never positive and is exactly 0 at
    a = b."""
    diff = a - b
    out = -0.5 * (diff * diff.conj())
    out.imag = a.real * b.imag - a.imag * b.real
    return out


def _product_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Overlaps of coherent products, one amplitude per mode along the last
    axis of a and b: the product of the per-mode overlaps, mode by mode."""
    return np.multiply.reduce(np.exp(_log_overlaps(a, b)), axis=-1)


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two coherent states, exp(-|a|^2/2 - |b|^2/2 + a* b)."""
    pair = np.array([[a], [b]], dtype=complex)
    return complex(np.exp(_log_overlaps(pair[0], pair[1]))[0])


def _table(rows, per_mode: int) -> np.ndarray:
    """rows as a read-only complex (R, 1 + per_mode * m) table, m >= 1."""
    table = np.array(rows, dtype=complex)
    width = table.shape[1] - 1 if table.ndim == 2 else -1
    if width < per_mode or width % per_mode:
        raise ValueError(f"expected a (rows, 1 + {per_mode} m) table, m >= 1; "
                         f"got shape {table.shape}")
    if not np.logical_and.reduce(np.isfinite(table), axis=None):
        raise ValueError("non-finite amplitude or coefficient")
    table.flags.writeable = False
    return table


class SuperpositionState:
    """Finite superposition sum_t c_t |a_t0, ..., a_t(m-1)> of m-mode
    coherent products, held as the read-only term table `terms`, a complex
    (T, 1 + m) array whose row t is (c_t, a_t0, ..., a_t(m-1)); `coeffs`
    and `amps` are views of its first column and the rest.  `from_terms`
    builds it from (coefficient, amplitudes) pairs."""

    def __init__(self, terms):
        self.terms = _table(terms, 1)
        self.mode_count = self.terms.shape[1] - 1
        self.coeffs, self.amps = self.terms[:, 0], self.terms[:, 1:]

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[complex, Sequence[complex]]]) -> "SuperpositionState":
        rows = [(c, *amps) for c, amps in pairs]
        if not rows:
            raise ValueError("state needs at least one term")
        return cls(rows)


class SuperpositionDensity:
    """Density operator sum_n c_n |ket_n><bra_n| over m-mode coherent
    products, held as the read-only dyad table `dyads`, a complex
    (N, 1 + 2m) array whose row n is (c_n, ket_n, bra_n); `coeffs`, `kets`
    and `bras` are views of its first column and its next m and last m."""

    def __init__(self, dyads):
        self.dyads = _table(dyads, 2)
        m = self.mode_count = (self.dyads.shape[1] - 1) // 2
        self.coeffs, self.kets, self.bras = (
            self.dyads[:, 0], self.dyads[:, 1:1 + m], self.dyads[:, 1 + m:])


def state_inner(s1: SuperpositionState, s2: SuperpositionState) -> complex:
    """<s1|s2>, the bilinear extension of the coherent overlap over term lists."""
    if s1.mode_count != s2.mode_count:
        raise ValueError(f"mode count mismatch: {s1.mode_count} != {s2.mode_count}")
    gram = _product_overlaps(s1.amps[:, None, :], s2.amps[None, :, :])
    return complex(np.add.reduce(s1.coeffs.conj()[:, None] * gram * s2.coeffs, axis=None))


def state_norm(s: SuperpositionState) -> float:
    return math.sqrt(max(state_inner(s, s).real, 0.0))


def normalize(s: SuperpositionState) -> SuperpositionState:
    """Rescale coefficients to unit norm.  Fails on (numerically) vanishing states."""
    n2 = state_inner(s, s).real
    if n2 <= 1e-30:
        raise ValueError("cannot normalize a state with (near-)zero norm")
    return scale(s, 1.0 / math.sqrt(n2))


def scale(s: SuperpositionState, factor: complex) -> SuperpositionState:
    terms = np.array(s.terms)
    terms[:, 0] *= factor
    return SuperpositionState(terms)


def add(s1: SuperpositionState, s2: SuperpositionState) -> SuperpositionState:
    if s1.mode_count != s2.mode_count:
        raise ValueError("mode count mismatch")
    return SuperpositionState(np.concatenate([s1.terms, s2.terms]))


def tensor(s1: SuperpositionState, s2: SuperpositionState) -> SuperpositionState:
    """Tensor product; modes of s2 are appended after those of s1, and term
    (i, j) is row i * len(s2.terms) + j."""
    (n1, w1), n2 = s1.terms.shape, len(s2.terms)
    width = w1 + s2.mode_count
    terms = np.empty((n1, n2, width), dtype=complex)
    terms[:, :, :w1] = s1.terms[:, None, :]
    terms[:, :, 0] *= s2.coeffs
    terms[:, :, w1:] = s2.amps
    return SuperpositionState(terms.reshape(n1 * n2, width))


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")


def _check_mode(idx: int, mode_count: int) -> None:
    if not 0 <= idx < mode_count:
        raise ValueError(f"mode index {idx} out of range for {mode_count} modes")


def beamsplitter(
    s: SuperpositionState, mode_i: int, mode_j: int, eta: float
) -> SuperpositionState:
    """Couple two modes with transmissivity eta.

    Each term's amplitude pair (a_i, a_j) maps to
    (sqrt(eta) a_i + sqrt(1-eta) a_j, sqrt(eta) a_j - sqrt(1-eta) a_i), an
    orthogonal rotation of the amplitude vector, so all overlaps (hence the
    norm) are preserved exactly.  The sign on the reflected port is a fixed
    convention; it is unobservable once the second port is traced out.
    """
    _check_eta(eta)
    _check_mode(mode_i, s.mode_count)
    _check_mode(mode_j, s.mode_count)
    if mode_i == mode_j:
        raise ValueError("beamsplitter needs two distinct modes")
    ct, st = math.sqrt(eta), math.sqrt(1.0 - eta)
    terms = np.array(s.terms)
    ai, aj = s.terms[:, 1 + mode_i], s.terms[:, 1 + mode_j]
    terms[:, 1 + mode_i], terms[:, 1 + mode_j] = ct * ai + st * aj, ct * aj - st * ai
    return SuperpositionState(terms)


def density_from_pure(s: SuperpositionState, check_norm: bool = True) -> SuperpositionDensity:
    """|s><s| expanded into dyads, (k, l) at row k * T + l.  Expects a
    normalized state.

    `check_norm=False` skips the norm recomputation; use it for states that
    are normalized by construction but whose coherent expansion carries large
    balanced coefficients (recomputing the norm would cancel catastrophically).
    """
    if check_norm:
        n2 = state_inner(s, s).real
        if abs(n2 - 1.0) > 1e-8:
            raise ValueError(f"state must be normalized (norm^2 = {n2})")
    t, w = s.terms.shape
    dyads = np.empty((t, t, 2 * w - 1), dtype=complex)
    dyads[:, :, :w] = s.terms[:, None, :]
    dyads[:, :, 0] *= s.coeffs.conj()
    dyads[:, :, w:] = s.amps
    return SuperpositionDensity(dyads.reshape(t * t, 2 * w - 1))


def density_trace(d: SuperpositionDensity) -> complex:
    return complex(np.add.reduce(d.coeffs * _product_overlaps(d.bras, d.kets)))


def partial_trace(d: SuperpositionDensity, traced_modes: Iterable[int]) -> SuperpositionDensity:
    """Trace out the given modes.

    Each dyad picks up the factor prod_k <bra_k|ket_k> over the traced modes
    and loses those amplitude slots; the total trace is unchanged.
    """
    traced = sorted(set(traced_modes))
    for k in traced:
        _check_mode(k, d.mode_count)
    if len(traced) >= d.mode_count:
        raise ValueError("cannot trace out every mode; use density_trace instead")
    if not traced:
        return d
    keep = [k for k in range(d.mode_count) if k not in traced]
    coeffs = d.coeffs * _product_overlaps(d.bras[:, traced], d.kets[:, traced])
    return SuperpositionDensity(
        np.concatenate([coeffs[:, None], d.kets[:, keep], d.bras[:, keep]], axis=1))


def apply_loss(
    x: SuperpositionState | SuperpositionDensity, mode: int, eta: float
) -> SuperpositionDensity:
    """Photon-loss channel on one mode: couple to a vacuum environment mode
    with transmissivity eta through a beamsplitter, then trace it out.

    Amplitudes in the lossy mode shrink to sqrt(eta) times their value and
    each dyad picks up the environment overlap <st bra|st ket>, st =
    sqrt(1 - eta), of that mode's amplitudes.
    """
    _check_eta(eta)
    if isinstance(x, SuperpositionState):
        x = density_from_pure(x)
    _check_mode(mode, x.mode_count)
    table = np.array(x.dyads)
    ket, bra = table[:, 1 + mode], table[:, 1 + x.mode_count + mode]
    st = math.sqrt(1.0 - eta)
    table[:, 0] *= np.exp(_log_overlaps(st * bra, st * ket))
    ket *= math.sqrt(eta)
    bra *= math.sqrt(eta)
    return SuperpositionDensity(table)


def _groups(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, group) for the rows of a complex (R, k) array: the index of
    the first row of each distinct row, in row order, and the number of each
    row's distinct row in that order.  Rows are equal when their bytes are."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    number: dict[bytes, int] = {}
    group = np.array([number.setdefault(key, len(number)) for key in keys], dtype=np.intp)
    # group g first appears where the running maximum of the numbers reaches g
    return np.searchsorted(np.maximum.accumulate(group), np.arange(len(number))), group


def canonicalize(d: SuperpositionDensity, tol: float = PRUNE_TOL) -> SuperpositionDensity:
    """Merge dyads whose ket and bra amplitudes are equal (-0.0 reads as
    0.0), summing their weights in dyad order, and drop |coeff| < tol.  The
    merged dyad sits where its first member did and keeps its amplitudes."""
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    first, group = _groups(d.dyads[:, 1:] + 0.0)
    coeffs = np.zeros(len(first), dtype=complex)
    np.add.at(coeffs, group, d.coeffs)
    keep = np.abs(coeffs) >= tol
    table = d.dyads[first[keep]]
    table[:, 0] = coeffs[keep]
    return SuperpositionDensity(table)


def is_hermitian(d: SuperpositionDensity) -> bool:
    """True if every dyad has a conjugate partner of matching weight."""
    c = canonicalize(d, tol=0.0)
    n = len(c.dyads)
    swapped = np.concatenate([c.bras, c.kets], axis=1)
    _, group = _groups(np.concatenate([c.dyads[:, 1:], swapped]) + 0.0)
    owner = np.full(2 * n, -1)
    owner[group[:n]] = np.arange(n)
    partner = owner[group[n:]]
    partner_coeffs = np.where(partner >= 0, c.coeffs[partner], 0.0)
    return bool(np.all(np.abs(partner_coeffs - c.coeffs.conj()) <= HERMITIAN_TOL))


def _gram(amps: np.ndarray) -> np.ndarray:
    """Overlaps <a_i|a_j> of coherent products given as amps (..., r, M), one
    amplitude per mode along the last axis: an (..., r, r) array."""
    half_norm = -0.5 * np.sum(np.abs(amps) ** 2, axis=-1)
    cross = np.sum(amps.conj()[..., :, None, :] * amps[..., None, :, :], axis=-1)
    return np.exp(half_norm[..., :, None] + half_norm[..., None, :] + cross)


def _gram_spectra(amps: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Spectra of G operators sum_ij coeffs[g, i, j] |a_gi><a_gj| at once.

    amps (G, r, M) holds r coherent products of M modes per operator and
    coeffs (G, r, r) their weights.  The eigenvalues are those of
    S C S with S = Gram^{1/2}, which shares its nonzero spectrum with the
    operator whatever the overlaps of the support, and are returned as a
    (G, r) array, each row decreasing.  Every step is a stacked `eigh`,
    `eigvalsh` or matmul, so row g does the same floating-point operations
    as a G = 1 call on operator g alone.
    """
    w, v = np.linalg.eigh(_gram(np.asarray(amps, dtype=complex)))
    half = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ np.conj(np.swapaxes(v, 1, 2))
    h = half @ np.asarray(coeffs, dtype=complex) @ half
    evals = np.linalg.eigvalsh(0.5 * (h + np.conj(np.swapaxes(h, 1, 2))))
    return evals[:, ::-1]


def density_spectrum(d: SuperpositionDensity) -> np.ndarray:
    """Eigenvalues of the operator on the span of its coherent support vectors,
    sorted in decreasing order.

    Collects the distinct ket and bra amplitude rows as the support, in the
    order ket 0, bra 0, ket 1, ..., and hands them to `_gram_spectra` as one
    operator.  Working through the Gram matrix of the (non-orthogonal)
    support keeps the result exact up to floating point regardless of
    amplitude overlap.
    """
    if not len(d.dyads):
        return np.zeros(0)
    support = np.stack([d.kets, d.bras], axis=1).reshape(-1, d.mode_count)
    first, index = _groups(support + 0.0)
    r = len(first)
    coeffs = np.zeros(r * r, dtype=complex)
    np.add.at(coeffs, index[0::2] * r + index[1::2], d.coeffs)
    return _gram_spectra(support[first][None], coeffs.reshape(1, r, r))[0]


def density_purity(d: SuperpositionDensity) -> float:
    """Tr(rho^2) from the exact double sum over dyads."""
    overlaps = _product_overlaps(d.bras[:, None, :], d.kets[None, :, :])
    c = d.coeffs
    return float(np.sum(c[:, None] * c[None, :] * overlaps * overlaps.T).real)
