"""Truncated Fock-space reference backend.

Everything here recomputes channel dynamics with dense number-basis matrices
and Kraus operators.  It exists purely to cross-check the exact
coherent-superposition backend and is never on the primary computation path.

A channel on one mode of d levels takes Kraus operators that each lie on one
superdiagonal, as photon loss and the identity do.  `apply_channel` then acts
band by band on the mode's (ket, bra) index pair: O(d^3 R) work for a density
whose other modes span R (ket, bra) entries, against O(d^4 R) for a d^2 x d^2
superoperator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .coherent import SuperpositionDensity, SuperpositionState

# dense product-space matrices above this many entries are refused
MAX_MATRIX_ENTRIES = 10_000_000


def required_levels(alpha: complex) -> int:
    """Truncation level at which a coherent state's tail mass is below 1e-12
    for |alpha| <= 3 (and far below for smaller amplitudes)."""
    a = abs(alpha)
    return math.ceil(a * a + 6.0 * a + 10.0)


def coherent_fock(alpha: complex, n_max: int) -> np.ndarray:
    """Number-basis coefficients e^{-|a|^2/2} a^n / sqrt(n!), n = 0..n_max."""
    if n_max < required_levels(alpha):
        raise ValueError(
            f"n_max = {n_max} too small for |alpha| = {abs(alpha):.3f} "
            f"(need >= {required_levels(alpha)})"
        )
    coeffs = np.empty(n_max + 1, dtype=complex)
    coeffs[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, n_max + 1):
        coeffs[n] = coeffs[n - 1] * alpha / math.sqrt(n)
    return coeffs


def damping_kraus(eta: float, n_max: int) -> list[np.ndarray]:
    """Kraus operators of the photon-loss channel on a truncated mode.

    K_k maps |n> -> sqrt(C(n, k) eta^{n-k} (1-eta)^k) |n-k>; the completeness
    sum is the binomial theorem, so it holds exactly at every level of the
    truncated space.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    dim = n_max + 1
    if eta == 1.0:
        return [np.eye(dim, dtype=complex)]
    ops = []
    for k in range(dim):
        op = np.zeros((dim, dim), dtype=complex)
        for n in range(k, dim):
            op[n - k, n] = math.sqrt(math.comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        ops.append(op)
    return ops


@dataclass(frozen=True)
class FockDensity:
    """Dense density matrix over a product of truncated Fock spaces."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        total = int(np.prod(self.dims))
        if self.mat.shape != (total, total):
            raise ValueError(f"matrix shape {self.mat.shape} != ({total}, {total})")
        if total * total > MAX_MATRIX_ENTRIES:
            raise ValueError("product space too large for the dense reference backend")


def fock_density_from_vector(vec: np.ndarray, dims: Sequence[int]) -> FockDensity:
    return FockDensity(tuple(dims), np.outer(vec, vec.conj()))


def state_to_fock(s: SuperpositionState, n_max: int) -> np.ndarray:
    """Product-space vector of a coherent superposition at truncation n_max."""
    dim = n_max + 1
    vec = np.zeros(dim**s.mode_count, dtype=complex)
    for t in s.terms:
        comp = np.array([t.coeff], dtype=complex)
        for a in t.amps:
            comp = np.kron(comp, coherent_fock(a, n_max))
        vec += comp
    return vec


def density_to_fock(d: SuperpositionDensity, n_max: int) -> FockDensity:
    """Product-space matrix of a coherent-dyad density at truncation n_max."""
    dim = n_max + 1
    dims = (dim,) * d.mode_count
    total = dim**d.mode_count
    if total * total > MAX_MATRIX_ENTRIES:
        raise ValueError("product space too large for the dense reference backend")
    mat = np.zeros((total, total), dtype=complex)
    one = np.array([1.0 + 0j])
    for dy in d.dyads:
        ket = one
        bra = one
        for a in dy.ket:
            ket = np.kron(ket, coherent_fock(a, n_max))
        for a in dy.bra:
            bra = np.kron(bra, coherent_fock(a, n_max))
        mat += dy.coeff * np.outer(ket, bra.conj())
    return FockDensity(dims, mat)


def _superdiagonals(kraus: Iterable[np.ndarray], d: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets k (n_ops,) and entries c (n_ops, d) of Kraus operators that each
    lie on one superdiagonal: op[n - k, n] = c[op, n], with c = 0 for n < k.
    All-zero operators are dropped; any other operator raises ValueError."""
    offsets, entries = [], []
    for i, op in enumerate(kraus):
        op = np.asarray(op)
        if op.shape != (d, d):
            raise ValueError("Kraus operator dimension mismatch")
        rows, cols = np.nonzero(op)
        if rows.size == 0:
            continue
        k = cols[0] - rows[0]
        if k < 0 or np.any(cols - rows != k):
            raise ValueError(f"Kraus operator {i} does not lie on one superdiagonal")
        c = np.zeros(d, dtype=complex)
        c[k:] = np.diagonal(op, k)
        offsets.append(k)
        entries.append(c)
    return np.array(offsets, dtype=int), np.array(entries, dtype=complex).reshape(-1, d)


def apply_channel(rho: FockDensity, mode: int, kraus: Iterable[np.ndarray]) -> FockDensity:
    """sum_k K_k rho K_k^dag with the operators acting on a single mode.

    Each operator must lie on one superdiagonal k (the identity and every
    `damping_kraus` operator do), with entries c(n) = K[n - k, n]; any other
    operator raises ValueError.  Then

        rho'[i, j] = sum_k c(i + k) conj(c(j + k)) rho[i + k, j + k]

    over the mode's (ket, bra) pair, so each band j - i = delta maps onto
    itself through one upper-triangular L x L matrix, L = d - |delta|.  The
    2d - 1 bands are 2d - 1 small products (L x L)(L x R), R the size of the
    rest of the (ket, bra) space: O(d^3 R) work, written into one output
    matrix, with no d^2 x d^2 superoperator and no transposed copy of rho.
    """
    dims = rho.dims
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range")
    d = dims[mode]
    k, c = _superdiagonals(kraus, d)
    by_offset = (k == np.arange(d)[:, None]).astype(float)  # (d, n_ops)
    before, after = int(np.prod(dims[:mode])), int(np.prod(dims[mode + 1:]))
    src = rho.mat.reshape(before, d, after, before, d, after)
    out = np.empty(rho.mat.shape, dtype=complex)
    dst = out.reshape(src.shape)
    for delta in range(1 - d, d):
        size = d - abs(delta)
        p = np.arange(size)
        ket, bra = p + max(0, -delta), p + max(0, delta)
        # weight[k, q]: the offset-k operators' c(ket_q) conj(c(bra_q))
        weight = by_offset @ (c[:, ket] * c[:, bra].conj())
        shift = p - p[:, None]
        band_map = np.where(shift >= 0, weight[np.maximum(shift, 0), p], 0.0)
        band = src[:, ket, :, :, bra, :]  # (size, before, after, before, after)
        dst[:, ket, :, :, bra, :] = (band_map @ band.reshape(size, -1)).reshape(band.shape)
    return FockDensity(dims, out)


def partial_trace_fock(rho: FockDensity, traced_modes: Iterable[int]) -> FockDensity:
    """Trace out the given modes of a product-space density."""
    traced = sorted(set(traced_modes))
    n = len(rho.dims)
    for k in traced:
        if not 0 <= k < n:
            raise ValueError(f"mode {k} out of range")
    if len(traced) >= n:
        raise ValueError("cannot trace out every mode")
    tens = rho.mat.reshape(*rho.dims, *rho.dims)
    for k in reversed(traced):
        tens = np.trace(tens, axis1=k, axis2=k + tens.ndim // 2)
    keep = tuple(d for i, d in enumerate(rho.dims) if i not in traced)
    total = int(np.prod(keep))
    return FockDensity(keep, tens.reshape(total, total))


def kraus_completeness_defect(kraus: Sequence[np.ndarray]) -> float:
    """Max deviation of sum_k K_k^dag K_k from the identity."""
    dim = kraus[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for op in kraus:
        acc += op.conj().T @ op
    return float(np.max(np.abs(acc - np.eye(dim))))
