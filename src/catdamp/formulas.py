"""Closed-form results for entangled coherent states under photon loss,
together with the exact-pipeline constructions that back them.

Conventions used throughout:

* the three-mode entangled state carries the amplitude ladder
  (sqrt(2) a, a, a); its generalization to m modes carries
  (2^{(m-2)/2} a, ..., 2^{1/2} a, a, a), 2^{m-1} |a|^2 photons in all.  m
  counts every mode, in `mode_ladder` and in the m-mode formulas alike;
* "odd" parity is the minus superposition (relative phase pi, maximally
  entangled), "even" the plus superposition (relative phase 0);
* the loss channel acts on every mode except mode 0 unless stated otherwise;
  `sides="one"` damps only the last mode, `sides="two"` the last two.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

from .coherent import (
    SuperpositionState,
    add,
    apply_loss,
    canonicalize,
    density_from_pure,
    normalize,
    scale,
    tensor,
)
from .logical import (
    _libm,
    _loss_kraus,
    _weights2,
    _x_concurrence,
    _x_matrix,
    make_basis,
    project_to_qubits,
    xstate_concurrence,
)

import numpy as np

PARITIES = ("even", "odd")
SIDES = ("one", "two")


def _reject(ok, value, message: str) -> None:
    """Raise ValueError(message.format(v)) unless ok holds everywhere; ok
    and value broadcast, and v is the value at the first element where ok
    fails."""
    ok = np.asarray(ok)
    if not ok.all():
        raise ValueError(message.format(np.broadcast_to(value, ok.shape)[~ok][0].item()))


def _check_alpha(alpha: float | np.ndarray, positive: bool = False) -> None:
    """alpha is finite and nonnegative, and positive where the formula has
    no alpha = 0 value."""
    if positive:
        _reject(alpha > 0.0, alpha, "alpha must be positive")
    _reject((0.0 <= alpha) & (alpha < math.inf), alpha,
            "alpha must be finite and nonnegative, got {!r}")


def _check_eta(eta: float | np.ndarray, positive: bool = False) -> None:
    """eta lies in [0, 1], or in (0, 1] where the damped bases need a
    nonzero amplitude."""
    if positive:
        _reject((0.0 < eta) & (eta <= 1.0), eta, "eta must lie in (0, 1], got {!r}")
    else:
        _reject((0.0 <= eta) & (eta <= 1.0), eta, "eta must lie in [0, 1], got {!r}")


def _check_theta(theta: float | np.ndarray) -> None:
    _reject((-math.inf < theta) & (theta < math.inf), theta, "theta must be finite, got {!r}")


def _check_m(m: int | np.ndarray, arrays: bool = False) -> None:
    """m is an integer, not a bool, and 1 <= m <= 1024: the m-mode family
    forms 2^{m-1}, a finite double up to m = 1024.  Where the formula takes
    arrays, m may be an integer array of such values."""
    if arrays and isinstance(m, np.ndarray) and m.dtype.kind in "iu":
        _reject((1 <= m) & (m <= 1024), m, "m must lie in [1, 1024], got {!r}")
        return
    if isinstance(m, bool) or not isinstance(m, Integral):
        raise ValueError(f"m must be an integer, got {m!r}")
    if not 1 <= m <= 1024:
        raise ValueError(f"m must lie in [1, 1024], got {m!r}")


def _check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of a transmission scenario."""

    alpha: float = 1.0
    eta: float = 1.0
    theta: float = math.pi
    m: int = 3
    sides: str = "one"

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_eta(self.eta)
        _check_theta(self.theta)
        _check_m(self.m)
        _check_choice("sides", self.sides, SIDES)


# The closed forms below run one NumPy path: alpha and eta (and theta) are
# floats or arrays that broadcast, and element i of an array call equals the
# float call at element i bit for bit, since every exp, expm1, cos and power
# runs through `_libm`, one libm call per element (NumPy's own exp and cos
# differ from libm on a few percent of arguments); each limit is a mask.


def _elementwise(fn):
    """A closed form that runs with NumPy's floating-point warnings off
    (alpha^2 overflows to inf, 0 * inf gives nan) and returns a float when
    no argument is an array, else the broadcast shape of its array
    arguments, also where the value does not depend on one of them."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        shapes = [v.shape for v in (*args, *kwargs.values()) if isinstance(v, np.ndarray)]
        with np.errstate(all="ignore"):
            out = fn(*args, **kwargs)
            if not shapes:
                return float(out)
            return np.broadcast_to(out, np.broadcast_shapes(*shapes)).copy()

    return call


def _limit_where(at_limit, limit, num, den):
    """num / den, and `limit` where `at_limit` holds; den may be 0 there."""
    return np.where(at_limit, limit, num / np.where(at_limit, 1.0, den))


@_elementwise
def concurrence_pure(alpha: float | np.ndarray, theta: float | np.ndarray):
    """Concurrence of the pure three-mode state across the 0|12 split,
    (1 - e^{-8 a^2}) / (1 + e^{-8 a^2} cos(theta)).

    At alpha = 0 the state is the vacuum, a product state, or vanishes
    (cos(theta) = -1); the value there is 0.  For alpha > 0 it lies in
    [0, 1] and equals 1 at theta = pi.  A point where cos(theta) = -1 and
    1 - e^{-8 a^2} rounds to 0 raises ValueError naming its alpha.

    alpha and theta are floats, or arrays that broadcast, whose values are the
    float calls' bit for bit (exp and cos one libm call per element).
    """
    _check_alpha(alpha)
    _check_theta(theta)
    e8 = _libm(math.exp, -8.0 * alpha * alpha)
    den = 1.0 + e8 * _libm(math.cos, theta)
    zero = alpha == 0.0
    _reject((den != 0.0) | zero, alpha, "1 - e^(-8 alpha^2) rounds to 0 at alpha = {!r}")
    return _limit_where(zero, 0.0, 1.0 - e8, den)


def _family_terms(alpha, eta, m):
    """(y, s, s_eta, t) of the m-mode family: y = 2^{m-1} alpha^2, s = 1 -
    e^{-2y} and s_eta = 1 - e^{-2 eta y} through expm1, t = e^{-(1-eta) y}.
    A subnormal alpha^2, too short of digits for s_eta / s, counts as 0."""
    x = alpha * alpha
    y = 2.0 ** (m - 1) * np.where(x < 2.0**-1022, 0.0, x)
    # an exponent is 0 where eta or 1 - eta is, also at y = inf (0.0 * inf)
    s_eta = -_libm(math.expm1, np.where(eta == 0.0, 0.0, -2.0 * eta * y))
    t = _libm(math.exp, np.where(eta == 1.0, 0.0, -(1.0 - eta) * y))
    return y, -_libm(math.expm1, -2.0 * y), s_eta, t


def phase_flip_prob(alpha: float | np.ndarray, eta: float | np.ndarray):
    """Probability that two-sided loss on the three-mode state acts as a
    logical phase flip, `phase_flip_prob_m` at m = 3:
    (1 - e^{-8a^2} - e^{-4(1-eta)a^2} + e^{-4(1+eta)a^2}) / (2 (1 - e^{-8a^2}))."""
    return phase_flip_prob_m(alpha, eta, 3)


@_elementwise
def phase_flip_prob_m(alpha: float | np.ndarray, eta: float | np.ndarray,
                      m: int | np.ndarray):
    """Phase-flip probability for the m-mode travelling state,

        p_{f,m} = (1 - e^{-2^m a^2} - e^{-2^{m-1}(1-eta) a^2}
                   + e^{-2^{m-1}(1+eta) a^2}) / (2 (1 - e^{-2^m a^2})),

    evaluated as (s - t s_eta) / (2 s) with the terms of `_family_terms`; at
    alpha = 0, and where alpha^2 is subnormal, it is the limit (1 - eta)/2.

    This is the flip weight of the odd state only.  The even state's is
    (1 + e^{-2y} - t (1 + e^{-2 eta y})) / (2 (1 + e^{-2y})), y = 2^{m-1} a^2:
    at m = 2, alpha 0.05, eta 0.1 it is 6.2e-6 where this gives 0.450 (the
    dyad backend's `mixture_weights` agree with it within 1.2e-16).

    alpha and eta are floats, and m an integer, or arrays that broadcast
    (m's of integers), whose values are the float calls' bit for bit (exp
    and expm1 one libm call per element).
    """
    _check_alpha(alpha)
    _check_eta(eta)
    _check_m(m, arrays=True)
    _, s, s_eta, t = _family_terms(alpha, eta, m)
    return _limit_where(s == 0.0, (1.0 - eta) / 2.0, s - t * s_eta, 2.0 * s)


@_elementwise
def concurrence_m(alpha: float | np.ndarray, eta: float | np.ndarray, m: int, parity: str):
    """The paper's phase-flip expression for the concurrence of the m-mode
    state after loss on all travelling modes,

        C_pm = (1 - 2 p_{f,m}) / (1 pm e^{-2^{m-1}(1+eta) a^2})
               * sqrt(1 - e^{-2^m a^2}) * sqrt(1 - e^{-2^m eta a^2})

    with "+" for even parity and "-" for odd, evaluated as t s_eta
    sqrt(s_eta / s) / (1 pm e^{-(1+eta) y}) with `_family_terms` and expm1.
    Both parities take the odd state's flip weight `phase_flip_prob_m`; the
    even state's own is different (see there).
    At alpha = 0, and where alpha^2 is subnormal, it is the limit: 0 for
    even parity, and 2 eta^{3/2} / (1 + eta) for odd, which is not the exact
    concurrence's limit sqrt(eta).  alpha and eta arrays as for
    `phase_flip_prob_m`; m is one integer.
    """
    _check_choice("parity", parity, PARITIES)
    _check_m(m)
    _check_eta(eta, positive=True)
    _check_alpha(alpha)
    y, s, s_eta, t = _family_terms(alpha, eta, m)
    d = _libm(math.expm1, -(1.0 + eta) * y)
    den = -d if parity == "odd" else 2.0 + d
    limit = 0.0 if parity == "even" else 2.0 * _libm(lambda e: e**1.5, eta) / (1.0 + eta)
    ratio = _limit_where(s == 0.0, eta, s_eta, s)
    return _limit_where(s == 0.0, limit, t * s_eta * np.sqrt(ratio), den)


def mode_ladder(alpha: float, m: int) -> tuple[complex, ...]:
    """Amplitude ladder (2^{(m-2)/2} a, ..., 2^{1/2} a, a, a) of m modes,
    2^{m-1} |a|^2 photons in all; m = 3 gives (sqrt(2) a, a, a), m = 1 (a,)."""
    _check_m(m)
    return tuple([complex(2.0 ** ((m - 2 - k) / 2.0) * alpha) for k in range(m - 1)]
                 + [complex(alpha)])


def cat_state(amps: Sequence[complex], coeff: complex) -> SuperpositionState:
    """Normalized |A> + coeff |-A> for the amplitude tuple A.  coeff = -1 is
    the odd state and +1 the even one; the three-mode state with relative
    phase theta is `cat_state(mode_ladder(a, 3), complex(cos theta, sin theta))`.
    A state that vanishes, such as the odd one at A = 0, raises ValueError."""
    neg = tuple(-a for a in amps)
    return normalize(SuperpositionState.from_terms([(1.0, amps), (coeff, neg)]))


def ghz_state(alpha: float, modes: int = 3) -> SuperpositionState:
    """Logical GHZ state (|u...u> + |v...v>)/sqrt(2) over `modes` modes, all
    at amplitude alpha, expanded into coherent terms."""
    if modes < 2:
        raise ValueError("need at least two modes")
    basis = make_basis(alpha)
    u = basis.u_state()
    v = basis.v_state()
    all_u = u
    all_v = v
    for _ in range(modes - 1):
        all_u = tensor(all_u, u)
        all_v = tensor(all_v, v)
    return scale(add(all_u, all_v), 1.0 / math.sqrt(2.0))


# the lossy modes of the three-mode states for each sidedness
_LOSSY_MODES = {"one": (2,), "two": (1, 2)}


# The GHZ dyad route refuses an alpha whose rounding estimate
# 16 * 2^-52 * (2 mu)^-6 exceeds this: its coherent expansion carries
# coefficients of order (2 mu)^-3, so its 8x8 matrix cancels terms of order
# (2 mu)^-6 to entries of order 1.
GHZ_ROUNDING_LIMIT = 1e-10

# (-1)^(number of v's) at each entry of the three-mode product logical
# basis: the sign that |-A>, which flips every mu_k, gives that entry
_PATTERN_SIGNS = (-1.0) ** ((np.arange(8)[:, None] >> np.arange(3)) & 1).sum(axis=1)


def ghz_damped_projection(
    alpha: float | np.ndarray, eta: float, sides: str = "one"
) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact 8x8 qubit matrix of the three-mode logical GHZ state after loss
    on one or two modes, projected in the damped logical bases, plus the
    projection residual, trace minus matrix trace.  This is the dyad route,
    the reference that validation holds `ghz_damped_elements` to.

    A float `alpha` gives `(8x8 matrix, residual)`; a 1-D array of G
    amplitudes gives `((G, 8, 8) matrices, (G,) residuals)`, row i equal to
    the call at `alpha[i]` bit for bit.  Each amplitude runs the generic
    composition: `ghz_state` expands (|uuu> + |vvv>)/sqrt(2) into 16
    coherent terms, `density_from_pure` into their 256 dyads, which
    `canonicalize` merges into the 64 sign-pattern pairs; `apply_loss` damps
    each lossy mode, `canonicalize` drops the weights below `PRUNE_TOL`, and
    `project_to_qubits` projects in the bases at a and sqrt(eta) a.

    The expansion's weights grow as (2 mu)^-3, so the matrix cancels terms
    of order (2 mu)^-6: an alpha whose estimate 16 * 2^-52 * (2 mu)^-6
    exceeds `GHZ_ROUNDING_LIMIT` raises ValueError naming it (alpha below
    about 0.09), as do an alpha that is not positive and finite or whose
    2 alpha^2 overflows.
    """
    _check_choice("sides", sides, SIDES)
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1:
        raise ValueError("alpha must be a float or a 1-D array")
    grid = np.atleast_1d(alphas)
    _check_alpha(grid, positive=True)
    _check_eta(eta, positive=True)
    with np.errstate(over="ignore", divide="ignore"):
        _reject(np.isfinite(2.0 * grid * grid), grid, "2 alpha^2 overflows at alpha = {!r}")
        mu = np.array([make_basis(a).mu for a in grid.tolist()])
        _reject(16.0 * 2.0**-52 * (2.0 * mu) ** -6.0 <= GHZ_ROUNDING_LIMIT, grid,
                "the GHZ dyad expansion loses more than GHZ_ROUNDING_LIMIT to rounding "
                "at alpha = {!r}")
    lossy = _LOSSY_MODES[sides]
    mats, residuals = [], []
    for a in grid.tolist():
        d = canonicalize(density_from_pure(ghz_state(a, 3), check_norm=False))
        for mode in lossy:
            d = apply_loss(d, mode, eta)
        bases = [make_basis(a * math.sqrt(eta) if k in lossy else a) for k in range(3)]
        mat, residual = project_to_qubits(canonicalize(d), bases)
        mats.append(mat)
        residuals.append(residual)
    if alphas.ndim == 0:
        return mats[0], residuals[0]
    return np.array(mats), np.array(residuals)


def _ghz_elements_closed(alpha, eta, sides: str):
    """Stable closed forms of the damped-GHZ X elements (a, b, c, d, e, f),
    e and f real: alpha and eta are floats, or arrays that broadcast, with
    each exp and expm1 one libm call per element.

    With t = e^{-2(1-eta) a^2}, lam^2 = (1 + e^{-2 a^2}) / 2 and
    mu^2 = -expm1(-2 a^2) / 2 at amplitude a, lam'^2 and mu'^2 the same at
    sqrt(eta) a, the one-sided elements are
        a = (1+t) lam'^2 / (4 lam^2),   b = (1-t) mu'^2  / (4 lam^2),
        c = (1-t) lam'^2 / (4 mu^2),    d = (1+t) mu'^2  / (4 mu^2),
        e = (1-t) lam' mu' / (4 lam mu), f = (1+t) lam' mu' / (4 lam mu),
    and the two-sided ones follow from squaring the per-mode factors:
        a = (1+t)^2 lam'^4 / (8 lam^4), b = (1-t^2) lam'^2 mu'^2 / (8 lam^4),
        c = (1-t^2) lam'^2 mu'^2 / (8 mu^4), d = (1+t)^2 mu'^4 / (8 mu^4),
        e = (1-t^2) lam'^2 mu'^2 / (8 lam^2 mu^2),
        f = (1+t)^2 lam'^2 mu'^2 / (8 lam^2 mu^2).
    """
    a2 = alpha * alpha
    # the loss exponent is -0.0 at eta = 1, also where a2 = inf makes it -0.0 * inf
    lost = np.where(eta == 1.0, -0.0, -2.0 * (1.0 - eta) * a2)
    one_minus_t = -_libm(math.expm1, lost)
    one_plus_t = 1.0 + _libm(math.exp, lost)
    lam2, mu2 = _weights2(2.0 * a2)
    lamp2, mup2 = _weights2(2.0 * eta * a2)
    if sides == "one":
        cross = np.sqrt(lamp2 * mup2)
        cross0 = np.sqrt(lam2 * mu2)
        return (one_plus_t * lamp2 / (4.0 * lam2), one_minus_t * mup2 / (4.0 * lam2),
                one_minus_t * lamp2 / (4.0 * mu2), one_plus_t * mup2 / (4.0 * mu2),
                one_minus_t * cross / (4.0 * cross0), one_plus_t * cross / (4.0 * cross0))
    lam4, mu4, plus2 = lam2 * lam2, mu2 * mu2, one_plus_t * one_plus_t
    mixed = one_minus_t * one_plus_t * lamp2 * mup2
    return (plus2 * (lamp2 * lamp2) / (8.0 * lam4), mixed / (8.0 * lam4),
            mixed / (8.0 * mu4), plus2 * (mup2 * mup2) / (8.0 * mu4),
            mixed / (8.0 * lam2 * mu2), plus2 * lamp2 * mup2 / (8.0 * lam2 * mu2))


def _x_parts(mat: np.ndarray) -> np.ndarray:
    """The (..., 4, 4) X matrix (`logical._x_matrix`) of an 8x8 three-mode
    qubit matrix or a (..., 8, 8) stack: its diagonal at |uuu>, |uuv>,
    |vvu>, |vvv> and its coherences <uuv|rho|vvu> and <uuu|rho|vvv>.
    Projection float noise may leave tiny negatives on exact zeros of the
    diagonal; those above -1e-9 read as 0."""
    diag = (mat[..., i, i].real for i in (0, 1, 6, 7))
    return _x_matrix(*(np.where((-1e-9 < x) & (x < 0.0), 0.0, x) for x in diag),
                     mat[..., 1, 6], mat[..., 0, 7])


def _damped_density(
    psi: np.ndarray, amps: np.ndarray, eta: float | np.ndarray, lossy: tuple[int, ...]
) -> np.ndarray:
    """(G, 2^m, 2^m) matrices of pure states psi (G, 2^m) after loss.

    psi is in the product logical basis at amplitudes amps (G, m), mode 0
    the most significant bit, and eta is a float or a (G,) array.  Each
    lossy mode applies the pair of `_loss_kraus` along its qubit axis of a
    (G, B, 2, ..., 2) stack of branch vectors, doubling B; the result is
    sum_b psi_b psi_b^dagger.  Each K has at most one nonzero per row, and
    the branches are summed in order, so row g does not depend on the other
    rows.
    """
    g, m = amps.shape
    stack = psi.reshape((g, 1) + (2,) * m)
    axes = "pqrstuvw"[:m]
    for mode in lossy:
        ins = axes[:mode] + "i" + axes[mode + 1:]
        outs = axes[:mode] + "o" + axes[mode + 1:]
        stack = np.einsum(f"gkoi,gb{ins}->gkb{outs}", _loss_kraus(amps[:, mode], eta), stack)
        stack = stack.reshape((g, 2 * stack.shape[2]) + (2,) * m)
    mat = np.zeros((g, 2**m, 2**m), dtype=complex)
    for branch in np.moveaxis(stack.reshape(g, stack.shape[1], 2**m), 1, 0):
        mat += branch[:, :, None] * branch[:, None, :].conj()
    return mat


def _ghz_damped_matrices(alpha: np.ndarray, eta, sides: str) -> np.ndarray:
    """(G, 8, 8) matrices of the logical GHZ state (|uuu> + |vvv>)/sqrt(2)
    after loss, in the damped logical bases, at a 1-D array alpha and an eta
    that broadcasts with it, through `_damped_density`."""
    _check_choice("sides", sides, SIDES)
    grid, etas = np.broadcast_arrays(alpha, np.asarray(eta, dtype=float))
    _check_alpha(grid)
    _check_eta(etas, positive=True)
    with np.errstate(over="ignore"):
        _reject(2.0 * grid * grid < math.inf, grid, "non-finite amplitude at alpha = {!r}")
    psi = np.zeros((len(grid), 8), dtype=complex)
    psi[:, 0] = psi[:, 7] = 1.0
    # the 1/sqrt(2) normalisation enters as one exact factor 1/2
    return 0.5 * _damped_density(psi, np.stack([grid] * 3, axis=-1), etas, _LOSSY_MODES[sides])


def ghz_damped_elements(alpha, eta, sides: str = "one") -> np.ndarray:
    """The 4x4 X matrix (`_x_parts`) of the damped logical GHZ state: the
    Kraus pair of `logical._loss_kraus` applied to (|uuu> + |vvv>)/sqrt(2)
    at any alpha >= 0; at alpha = 0 its X concurrence is
    `ghz_concurrence_limit` to one ulp.  Floats give one matrix, and 1-D
    arrays that broadcast a (G, 4, 4) stack, row g equal to the float call
    at element g bit for bit.  `validate` holds it to the stable closed
    forms of `_ghz_elements_closed`.
    """
    x = _x_parts(_ghz_damped_matrices(np.atleast_1d(np.asarray(alpha, dtype=float)), eta, sides))
    return x if np.ndim(alpha) or np.ndim(eta) else x[0]


def ghz_concurrence(alpha, eta, sides: str = "one"):
    """`xstate_concurrence(ghz_damped_elements(alpha, eta, sides))`: a
    float, or an array for 1-D arrays."""
    return xstate_concurrence(ghz_damped_elements(alpha, eta, sides))


def damped_state_projection(
    alpha: float | np.ndarray, eta: float | np.ndarray, theta: float | np.ndarray = math.pi,
    sides: str = "two",
) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact 8x8 qubit matrix of the three-mode entangled state after loss,
    in the damped logical bases, plus a residual.

    Floats give `(8x8 matrix, residual)`; 1-D arrays of G values that
    broadcast give `((G, 8, 8) matrices, (G,) residuals)`, row i equal to
    the float call at element i bit for bit.  The state
    |A> + e^{i theta} |-A>, A = (sqrt(2) a, a, a), is the normalised sum of
    its branch products of (lam_k, +-mu_k) in the product logical basis;
    loss is the Kraus pair of `logical._loss_kraus`.  Loss keeps the state
    in the logical spans, so the residual, 1 - trace, is rounding only.  The
    generic dyad pipeline agrees to about 1e-15, and to 2.3e-13 at
    alpha = 0.01 (odd parity), where it cancels on coefficients of order
    1/alpha^2.

    Fig 3's `direct_*` columns read X positions (0,7) and (1,6) of this
    matrix.  Those take qubits 0 and 1 as one block against qubit 2, so they
    do not describe mode 0 against the rest.  K0 keeps a qubit's parity and
    K1 flips it, so the output is block diagonal across total parity: its
    coherences there are float noise (~1e-17 on the fig 3 grid), and the X
    concurrence is 0.
    """
    _check_choice("sides", sides, SIDES)
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (alpha, eta, theta)))
    if args[0].ndim > 1:
        raise ValueError("alpha, eta and theta must be floats or 1-D arrays")
    grid, etas, thetas = (np.atleast_1d(v) for v in args)
    if not (grid > 0).all():
        raise ValueError("alpha must be positive")
    _check_eta(etas, positive=True)
    amps = np.stack([math.sqrt(2.0) * grid, grid, grid], axis=-1)
    with np.errstate(over="ignore"):
        two_a2 = 2.0 * amps**2
    if not (np.isfinite(two_a2).all() and np.isfinite(thetas).all()):
        raise ValueError("non-finite amplitude or coefficient")
    g = len(grid)
    lam, mu = (np.sqrt(w) for w in _weights2(two_a2))
    # |A> = (x)_k (lam_k |u> + mu_k |v>), grown mode by mode; |-A> flips the
    # sign of every mu_k, so of the entries with an odd number of v's
    branch = np.ones((g, 1))
    for k in range(3):
        pair = np.stack([lam[:, k], mu[:, k]], axis=-1)
        branch = (branch[:, :, None] * pair[:, None, :]).reshape(g, 2 * branch.shape[1])
    phase = np.empty(g, dtype=complex)
    phase.real, phase.imag = _libm(math.cos, thetas), _libm(math.sin, thetas)
    psi = branch * (1.0 + phase[:, None] * _PATTERN_SIGNS)
    n2 = np.sum(psi.real**2 + psi.imag**2, axis=1)
    if (n2 <= 1e-30).any():
        raise ValueError("cannot normalize a state with (near-)zero norm")
    mat = _damped_density(psi / np.sqrt(n2)[:, None], amps, etas, _LOSSY_MODES[sides])
    residual = 1.0 - np.trace(mat, axis1=1, axis2=2).real
    if args[0].ndim == 0:
        return mat[0], float(residual[0])
    return mat, residual


def damped_concurrence(alpha, eta, theta=math.pi, sides: str = "two"):
    """Fig 3's `direct_*` value, the `xstate_concurrence` of the X matrix
    (`_x_parts`) of `damped_state_projection`, through one call of each over
    the points with alpha != 0: floats give a float, and arrays that
    broadcast to one dimension an array.  At alpha = 0 the state is the
    vacuum, or vanishes (cos(theta) = -1); the value there is 0, its limit.

    It is not the 0|12 concurrence (see `damped_state_projection`): on fig
    3's grid it is 0 up to float noise, where the exact 0|12 concurrence
    peaks between 0.55 (eta 0.3, two-sided) and 0.97 (eta 0.9, one-sided).
    The column keeps these values until the benchmark's fig 3 check can
    hold it to real ones."""
    _check_choice("sides", sides, SIDES)
    _check_eta(eta, positive=True)
    alphas, etas, thetas = np.broadcast_arrays(alpha, eta, theta)
    out = np.zeros(alphas.shape)
    nonzero = alphas != 0.0
    if nonzero.any():
        mats, _ = damped_state_projection(alphas[nonzero], etas[nonzero], thetas[nonzero], sides)
        out[nonzero] = xstate_concurrence(_x_parts(mats))
    return out if out.ndim else float(out)


@_elementwise
def damped_concurrence_bound(
    alpha: float | np.ndarray, eta: float | np.ndarray, theta: float | np.ndarray = math.pi,
    sides: str = "one",
):
    """The damped-GHZ X concurrence, from the stable closed forms, times
    the lossless pure-state concurrence: fig 3's `bound_*` columns.  Despite
    its name it is not an upper bound on the exact 0|12 concurrence of the
    damped three-mode state: on alpha in [0.01, 3] and eta in [0.1, 0.99] at
    theta = pi, exact minus this product lies in [3e-16, 0.43] one-sided and
    in [-0.125, 0.25] two-sided.  The check `bound_domination` holds it
    against fig 3's `direct_*` value, which is 0.  At alpha = 0 the value is
    `ghz_concurrence_limit` at cos(theta) = -1 and 0 elsewhere; where
    alpha^2 overflows, 1 at eta = 1 and 0 elsewhere.  The arguments are
    floats or arrays, as for the closed forms above.
    """
    _check_choice("sides", sides, SIDES)
    _check_alpha(alpha)
    _check_eta(eta, positive=True)
    pure = concurrence_pure(alpha, theta)
    # where the pure factor is 0 (alpha below about 2.6e-9, where the GHZ
    # elements may divide by a mu^2 or mu^4 that underflowed to 0) so is the
    # product, but for the limit at alpha = 0
    zero = pure == 0.0
    limit = np.where(_libm(math.cos, theta) == -1.0, ghz_concurrence_limit(eta, sides), 0.0)
    a, b, c, d, e, f = _ghz_elements_closed(np.where(zero, 1.0, alpha), eta, sides)
    return np.where(zero, limit, _x_concurrence(a, b, c, d, abs(e), abs(f)) * pure)


@_elementwise
def ghz_concurrence_limit(eta: float | np.ndarray, sides: str = "one"):
    """alpha -> 0 limit of the damped-GHZ X concurrence: sqrt(eta) for
    one-sided loss, eta for two-sided; eta is a float or an array."""
    _check_choice("sides", sides, SIDES)
    _check_eta(eta, positive=True)
    return np.sqrt(eta) if sides == "one" else eta
