"""Truncated Fock-space reference backend.

Everything here recomputes channel dynamics with number-basis vectors and
Kraus operators.  It exists purely to cross-check the exact
coherent-superposition backend and is never on the primary computation path.

A density is stored as N ket-bra vector pairs, rho = sum_n |ket_n><bra_n|:
the coherent backend's dyad list written in Fock space.  A channel maps each
pair (k, b) to the pairs (K k, K b), one per Kraus operator K, so no d^2 x d^2
superoperator and no dense matrix is formed.  Checks compare two densities
with `gap_blocks`, a few rows of the dense matrices at a time;
`FockDensity.mat` is the dense view, for small cases and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .coherent import SuperpositionDensity, SuperpositionState

# dense matrices, and ket or bra arrays, above this many entries are refused
MAX_MATRIX_ENTRIES = 10_000_000
# entries of each row block `gap_blocks` forms: 89 rows at 729 levels
BLOCK_ENTRIES = 1 << 16


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
    """Density sum_n |kets[n]><bras[n]| over a product of truncated Fock
    spaces; kets and bras are (N, prod(dims)) arrays."""

    dims: tuple[int, ...]
    kets: np.ndarray
    bras: np.ndarray

    def __post_init__(self):
        total = int(np.prod(self.dims))
        if self.kets.shape != self.bras.shape or self.kets.shape[1:] != (total,):
            raise ValueError(f"kets and bras must both be (N, {total}) arrays")
        if self.kets.size > MAX_MATRIX_ENTRIES:
            raise ValueError(f"{len(self.kets)} ket-bra pairs of {total} levels are too large")

    @property
    def mat(self) -> np.ndarray:
        """The dense (prod(dims), prod(dims)) matrix; one of more than
        `MAX_MATRIX_ENTRIES` entries raises ValueError."""
        total = self.kets.shape[1]
        if total * total > MAX_MATRIX_ENTRIES:
            raise ValueError(f"a dense matrix of {total} levels is too large")
        return self.kets.T @ self.bras.conj()


def gap_blocks(a: FockDensity, b: FockDensity) -> Iterator[np.ndarray]:
    """|a.mat - b.mat| one block of `BLOCK_ENTRIES // levels` rows at a
    time (the last one shorter), in row order, so no dense matrix is formed.
    On OpenBLAS 0.3.31 every block entry of the pairs `validate` compares
    equals the dense one bit for bit; fixed blocks of 1 to 48 rows missed by
    the last bit on some of them, as the BLAS takes other small-M kernels."""
    total = a.kets.shape[1]
    rows = max(1, BLOCK_ENTRIES // total)
    a_kets, b_kets, a_bras, b_bras = a.kets.T, b.kets.T, a.bras.conj(), b.bras.conj()
    for start in range(0, total, rows):
        block = slice(start, start + rows)
        yield np.abs(a_kets[block] @ a_bras - b_kets[block] @ b_bras)


def _product_vectors(coeffs, amps: np.ndarray, n_max: int) -> np.ndarray:
    """Rows coeffs[i] * kron_k coherent_fock(amps[i, k], n_max) of an (N, m)
    amplitude table, shape (N, (n_max + 1)^m)."""
    dim = n_max + 1
    fock = {a: coherent_fock(a, n_max) for a in set(amps.ravel().tolist())}
    out = np.array(coeffs, dtype=complex).reshape(-1, 1)
    for column in amps.T:
        factor = np.array([fock[a] for a in column.tolist()], dtype=complex).reshape(-1, dim)
        out = (out[:, :, None] * factor[:, None, :]).reshape(-1, out.shape[1] * dim)
    return out


def fock_density_from_vector(vec: np.ndarray, dims: Sequence[int]) -> FockDensity:
    return FockDensity(tuple(dims), vec[None, :], vec[None, :])


def state_to_fock(s: SuperpositionState, n_max: int) -> np.ndarray:
    """Product-space vector of a coherent superposition at truncation n_max."""
    return _product_vectors(s.coeffs, s.amps, n_max).sum(axis=0)


def density_to_fock(d: SuperpositionDensity, n_max: int) -> FockDensity:
    """Ket-bra pairs of a coherent-dyad density at truncation n_max, with the
    dyad coefficients on the kets."""
    kets = _product_vectors(d.coeffs, d.kets, n_max)
    bras = _product_vectors(np.ones(len(d.dyads)), d.bras, n_max)
    return FockDensity((n_max + 1,) * d.mode_count, kets, bras)


def apply_channel(rho: FockDensity, mode: int, kraus: Iterable[np.ndarray]) -> FockDensity:
    """sum_k K_k rho K_k^dag with the operators acting on a single mode: each
    pair (ket, bra) becomes the pairs (K_k ket, K_k bra), operator-major."""
    dims = rho.dims
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range")
    d = dims[mode]
    ops = [np.asarray(op) for op in kraus]
    if any(op.shape != (d, d) for op in ops):
        raise ValueError("Kraus operator dimension mismatch")
    ops = np.array(ops, dtype=complex).reshape(-1, d, d)
    # the output pairs are refused before they are formed, as construction would
    pairs, total = len(ops) * len(rho.kets), rho.kets.shape[1]
    if pairs * total > MAX_MATRIX_ENTRIES:
        raise ValueError(f"{pairs} ket-bra pairs of {total} levels are too large")
    before, after = int(np.prod(dims[:mode])), int(np.prod(dims[mode + 1:]))

    def act(vectors):
        v = vectors.reshape(len(vectors), before, d, after)
        return np.einsum("kij,nbja->knbia", ops, v).reshape(-1, vectors.shape[1])

    return FockDensity(dims, act(rho.kets), act(rho.bras))


def kraus_completeness_defect(kraus: Sequence[np.ndarray]) -> float:
    """Max deviation of sum_k K_k^dag K_k from the identity."""
    dim = kraus[0].shape[0]
    acc = np.zeros((dim, dim), dtype=complex)
    for op in kraus:
        acc += op.conj().T @ op
    return float(np.max(np.abs(acc - np.eye(dim))))
