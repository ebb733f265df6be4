"""Exact algebra of finite superpositions of multimode coherent states.

A multimode pure state is stored as a weighted list of products of coherent
states; a density operator as a weighted list of coherent ket-bra dyads.
Because a beamsplitter maps a product of coherent states to another product
of coherent states, and tracing a mode of a coherent dyad only multiplies its
weight by an overlap, every operation here is closed on these representations
and exact up to floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# |coeff| below this is dropped when canonicalizing (keeps dyad counts bounded
# through long pipelines without touching 1e-10-level results)
PRUNE_TOL = 1e-14

# absolute tolerance when deciding two amplitudes are the same dyad signature
AMP_MERGE_TOL = 1e-12

_KEY_SCALE = 1.0 / AMP_MERGE_TOL


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two coherent states, exp(-|a|^2/2 - |b|^2/2 + a* b)."""
    a = complex(a)
    b = complex(b)
    return cmath.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + a.conjugate() * b)


def product_overlap(amps_a: Sequence[complex], amps_b: Sequence[complex]) -> complex:
    """Overlap of two products of coherent states, one amplitude per mode."""
    out = 1 + 0j
    for x, y in zip(amps_a, amps_b):
        out *= coherent_overlap(x, y)
    return out


def _check_finite(values: Iterable[complex]) -> None:
    for z in values:
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"non-finite amplitude or coefficient: {z!r}")


@dataclass(frozen=True)
class CoherentTerm:
    """One weighted product ket c * |a_0, a_1, ..., a_{m-1}>."""

    coeff: complex
    amps: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "amps", tuple(complex(a) for a in self.amps))
        _check_finite((self.coeff, *self.amps))


@dataclass(frozen=True)
class SuperpositionState:
    """Finite superposition of multimode coherent product states."""

    mode_count: int
    terms: tuple[CoherentTerm, ...]

    def __post_init__(self):
        if self.mode_count <= 0:
            raise ValueError("mode_count must be positive")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if len(t.amps) != self.mode_count:
                raise ValueError(
                    f"term has {len(t.amps)} amplitudes, state has {self.mode_count} modes"
                )

    @classmethod
    def from_terms(cls, pairs: Iterable[tuple[complex, Sequence[complex]]]) -> "SuperpositionState":
        terms = tuple(CoherentTerm(c, tuple(a)) for c, a in pairs)
        if not terms:
            raise ValueError("state needs at least one term")
        return cls(len(terms[0].amps), terms)


@dataclass(frozen=True)
class Dyad:
    """One weighted ket-bra c * |ket><bra| of coherent products."""

    coeff: complex
    ket: tuple[complex, ...]
    bra: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "ket", tuple(complex(a) for a in self.ket))
        object.__setattr__(self, "bra", tuple(complex(a) for a in self.bra))
        _check_finite((self.coeff, *self.ket, *self.bra))


@dataclass(frozen=True)
class SuperpositionDensity:
    """Density operator as a finite weighted list of coherent dyads."""

    mode_count: int
    dyads: tuple[Dyad, ...]

    def __post_init__(self):
        if self.mode_count <= 0:
            raise ValueError("mode_count must be positive")
        object.__setattr__(self, "dyads", tuple(self.dyads))
        for d in self.dyads:
            if len(d.ket) != self.mode_count or len(d.bra) != self.mode_count:
                raise ValueError("dyad mode count mismatch")


def state_inner(s1: SuperpositionState, s2: SuperpositionState) -> complex:
    """<s1|s2>, the bilinear extension of the coherent overlap over term lists."""
    if s1.mode_count != s2.mode_count:
        raise ValueError(f"mode count mismatch: {s1.mode_count} != {s2.mode_count}")
    out = 0j
    for t1 in s1.terms:
        for t2 in s2.terms:
            out += t1.coeff.conjugate() * t2.coeff * product_overlap(t1.amps, t2.amps)
    return out


def state_norm(s: SuperpositionState) -> float:
    return math.sqrt(max(state_inner(s, s).real, 0.0))


def normalize(s: SuperpositionState) -> SuperpositionState:
    """Rescale coefficients to unit norm.  Fails on (numerically) vanishing states."""
    n2 = state_inner(s, s).real
    if n2 <= 1e-30:
        raise ValueError("cannot normalize a state with (near-)zero norm")
    inv = 1.0 / math.sqrt(n2)
    return SuperpositionState(
        s.mode_count, tuple(CoherentTerm(t.coeff * inv, t.amps) for t in s.terms)
    )


def scale(s: SuperpositionState, factor: complex) -> SuperpositionState:
    return SuperpositionState(
        s.mode_count, tuple(CoherentTerm(t.coeff * factor, t.amps) for t in s.terms)
    )


def add(s1: SuperpositionState, s2: SuperpositionState) -> SuperpositionState:
    if s1.mode_count != s2.mode_count:
        raise ValueError("mode count mismatch")
    return SuperpositionState(s1.mode_count, s1.terms + s2.terms)


def tensor(s1: SuperpositionState, s2: SuperpositionState) -> SuperpositionState:
    """Tensor product; modes of s2 are appended after those of s1."""
    terms = tuple(
        CoherentTerm(t1.coeff * t2.coeff, t1.amps + t2.amps)
        for t1 in s1.terms
        for t2 in s2.terms
    )
    return SuperpositionState(s1.mode_count + s2.mode_count, terms)


def _bs_pair(ai: complex, aj: complex, eta: float) -> tuple[complex, complex]:
    ct = math.sqrt(eta)
    st = math.sqrt(1.0 - eta)
    return ct * ai + st * aj, ct * aj - st * ai


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
    terms = []
    for t in s.terms:
        amps = list(t.amps)
        amps[mode_i], amps[mode_j] = _bs_pair(amps[mode_i], amps[mode_j], eta)
        terms.append(CoherentTerm(t.coeff, tuple(amps)))
    return SuperpositionState(s.mode_count, tuple(terms))


def attach_vacuum(s: SuperpositionState, count: int = 1) -> SuperpositionState:
    """Append `count` modes in the vacuum state (amplitude 0)."""
    if count <= 0:
        raise ValueError("count must be positive")
    pad = (0j,) * count
    terms = tuple(CoherentTerm(t.coeff, t.amps + pad) for t in s.terms)
    return SuperpositionState(s.mode_count + count, terms)


def density_from_pure(s: SuperpositionState, check_norm: bool = True) -> SuperpositionDensity:
    """|s><s| expanded into dyads.  Expects a normalized state.

    `check_norm=False` skips the norm recomputation; use it for states that
    are normalized by construction but whose coherent expansion carries large
    balanced coefficients (recomputing the norm would cancel catastrophically).
    """
    if check_norm:
        n2 = state_inner(s, s).real
        if abs(n2 - 1.0) > 1e-8:
            raise ValueError(f"state must be normalized (norm^2 = {n2})")
    dyads = tuple(
        Dyad(tk.coeff * tl.coeff.conjugate(), tk.amps, tl.amps)
        for tk in s.terms
        for tl in s.terms
    )
    return SuperpositionDensity(s.mode_count, dyads)


def density_trace(d: SuperpositionDensity) -> complex:
    out = 0j
    for dy in d.dyads:
        out += dy.coeff * product_overlap(dy.bra, dy.ket)
    return out


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
    dyads = []
    for dy in d.dyads:
        c = dy.coeff
        for k in traced:
            c *= coherent_overlap(dy.bra[k], dy.ket[k])
        dyads.append(
            Dyad(c, tuple(dy.ket[k] for k in keep), tuple(dy.bra[k] for k in keep))
        )
    return SuperpositionDensity(len(keep), tuple(dyads))


def apply_loss(
    x: SuperpositionState | SuperpositionDensity, mode: int, eta: float
) -> SuperpositionDensity:
    """Photon-loss channel on one mode: couple to a vacuum environment mode
    with transmissivity eta through a beamsplitter, then trace it out.

    Amplitudes in the lossy mode shrink to sqrt(eta) times their value and
    off-diagonal dyads pick up the environment-overlap damping factor.
    """
    _check_eta(eta)
    if isinstance(x, SuperpositionState):
        x = density_from_pure(x)
    _check_mode(mode, x.mode_count)
    env = x.mode_count  # the appended environment slot
    dyads = []
    for dy in x.dyads:
        ket = list(dy.ket) + [0j]
        bra = list(dy.bra) + [0j]
        ket[mode], ket[env] = _bs_pair(ket[mode], ket[env], eta)
        bra[mode], bra[env] = _bs_pair(bra[mode], bra[env], eta)
        c = dy.coeff * coherent_overlap(bra[env], ket[env])
        dyads.append(Dyad(c, tuple(ket[:-1]), tuple(bra[:-1])))
    return SuperpositionDensity(x.mode_count, tuple(dyads))


def _amp_key(amps: tuple[complex, ...]) -> tuple:
    return tuple(
        (int(round(a.real * _KEY_SCALE)), int(round(a.imag * _KEY_SCALE))) for a in amps
    )


def canonicalize(d: SuperpositionDensity, tol: float = PRUNE_TOL) -> SuperpositionDensity:
    """Merge dyads with equal amplitude signatures and drop |coeff| < tol."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    merged: dict[tuple, Dyad] = {}
    order: list[tuple] = []
    for dy in d.dyads:
        key = (_amp_key(dy.ket), _amp_key(dy.bra))
        if key in merged:
            prev = merged[key]
            merged[key] = Dyad(prev.coeff + dy.coeff, prev.ket, prev.bra)
        else:
            merged[key] = dy
            order.append(key)
    dyads = tuple(merged[k] for k in order if abs(merged[k].coeff) >= tol)
    return SuperpositionDensity(d.mode_count, dyads)


def is_hermitian(d: SuperpositionDensity, tol: float = 1e-10) -> bool:
    """True if every dyad has a conjugate partner of matching weight."""
    c = canonicalize(d, tol=0.0)
    table = {(_amp_key(dy.ket), _amp_key(dy.bra)): dy.coeff for dy in c.dyads}
    for (kk, kb), coeff in table.items():
        partner = table.get((kb, kk))
        if partner is None:
            if abs(coeff) > tol:
                return False
        elif abs(partner - coeff.conjugate()) > tol:
            return False
    return True


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

    Collects the distinct ket and bra amplitude tuples as the support and
    hands them to `_gram_spectra` as one operator.  Working through the Gram
    matrix of the (non-orthogonal) support keeps the result exact up to
    floating point regardless of amplitude overlap.
    """
    index: dict[tuple, int] = {}
    vectors: list[tuple[complex, ...]] = []
    for dy in d.dyads:
        for amps in (dy.ket, dy.bra):
            key = _amp_key(amps)
            if key not in index:
                index[key] = len(vectors)
                vectors.append(amps)
    r = len(vectors)
    if r == 0:
        return np.zeros(0)
    coeffs = np.zeros((1, r, r), dtype=complex)
    for dy in d.dyads:
        coeffs[0, index[_amp_key(dy.ket)], index[_amp_key(dy.bra)]] += dy.coeff
    return _gram_spectra(np.array([vectors], dtype=complex), coeffs)[0]


def density_purity(d: SuperpositionDensity) -> float:
    """Tr(rho^2) from the exact double sum over dyads."""
    out = 0j
    for di in d.dyads:
        for dj in d.dyads:
            out += (
                di.coeff
                * dj.coeff
                * product_overlap(di.bra, dj.ket)
                * product_overlap(dj.bra, di.ket)
            )
    return out.real
