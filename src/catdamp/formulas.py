"""Closed-form results for entangled coherent states under photon loss,
together with the exact-pipeline constructions that back them.

Conventions used throughout:

* the three-mode entangled state carries the amplitude ladder
  (sqrt(2) a, a, a); its generalization to m+1 modes carries
  (2^{(m-1)/2} a, ..., 2^{1/2} a, a, a), so the total mean photon number of
  the m+1-mode family is 2^m |a|^2;
* "odd" parity is the minus superposition (relative phase pi, maximally
  entangled), "even" the plus superposition (relative phase 0);
* the loss channel acts on every mode except mode 0 unless stated otherwise;
  `sides="one"` damps only the last mode, `sides="two"` the last two.

In the m-mode phase-flip probability and concurrence formulas the label m
counts the *total* number of modes of the travelling state, so m = 3 is the
three-mode ladder above.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .coherent import (
    SuperpositionDensity,
    SuperpositionState,
    apply_loss,
    canonicalize,
    density_from_pure,
    normalize,
    scale,
    add,
    tensor,
)
from .logical import (
    LogicalBasis,
    XStateElements,
    _loss_kraus,
    make_basis,
    project_to_qubits,
    xstate_concurrence,
)

import numpy as np

PARITIES = ("even", "odd")
SIDES = ("one", "two")


def _reject(ok, value, message: str) -> None:
    """Raise ValueError(message.format(v)) unless ok holds; ok and value are
    floats and bools, or arrays that broadcast, and v is the value at the
    first element where ok fails."""
    if isinstance(ok, np.ndarray):
        if not ok.all():
            raise ValueError(message.format(np.broadcast_to(value, ok.shape)[~ok][0].item()))
    elif not ok:
        raise ValueError(message.format(value))


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


def _check_m(m: int) -> None:
    if not m >= 1:
        raise ValueError(f"m must be at least 1, got {m!r}")


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


# The closed forms below take floats or NumPy arrays that broadcast for
# alpha and eta (and theta).  A float call returns a float and calls no NumPy
# function; an array call returns an array of the broadcast shape whose
# element i equals the float call at element i bit for bit.  One body serves
# both: +, -, *, / and sqrt are correctly rounded, so NumPy's equal the float
# path's in the same operation order; every exp, cos and power runs through
# `_libm`, one libm call per element, because NumPy's own exp and cos differ
# from libm on a few percent of arguments; and each limit is a mask.


def _elementwise(fn):
    """A closed form whose array call runs with NumPy's floating-point
    warnings off (alpha^2 overflows to inf, 0 * inf gives nan, as on the
    float path) and returns the broadcast shape of its array arguments, also
    where the value does not depend on one of them."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        values = (*args, *kwargs.values()) if kwargs else args
        for value in values:
            if isinstance(value, np.ndarray):
                break
        else:
            return fn(*args, **kwargs)
        shape = np.broadcast_shapes(*(v.shape for v in values if isinstance(v, np.ndarray)))
        with np.errstate(all="ignore"):
            return np.broadcast_to(fn(*args, **kwargs), shape).copy()

    return call


def _libm(fn, x):
    """fn, a one-argument function of a float, at x, or at each element of
    an array x."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return fn(x)


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _limit_where(at_limit, limit, num, den=1.0):
    """num / den, and `limit` where `at_limit` holds; den may be 0 there."""
    if isinstance(at_limit, np.ndarray):
        return np.where(at_limit, limit, num / np.where(at_limit, 1.0, den))
    return limit if at_limit else num / den


@_elementwise
def concurrence_pure(alpha: float | np.ndarray, theta: float | np.ndarray):
    """Concurrence of the pure three-mode state across the 0|12 split,
    (1 - e^{-8 a^2}) / (1 + e^{-8 a^2} cos(theta)).

    At alpha = 0 the state is the vacuum, a product state, or vanishes
    (cos(theta) = -1); the value there is 0.  For alpha > 0 it lies in
    [0, 1] and equals 1 at theta = pi.  A point where cos(theta) = -1 and
    1 - e^{-8 a^2} rounds to 0 raises ValueError naming its alpha.

    alpha and theta are floats, or NumPy arrays that broadcast: a float call
    returns a float, and an array call the float calls' values bit for bit,
    each exp and cos one libm call per element.
    """
    _check_alpha(alpha)
    _check_theta(theta)
    e8 = _libm(math.exp, -8.0 * alpha * alpha)
    den = 1.0 + e8 * _libm(math.cos, theta)
    zero = alpha == 0.0
    _reject((den != 0.0) | zero, alpha, "1 - e^(-8 alpha^2) rounds to 0 at alpha = {!r}")
    return _limit_where(zero, 0.0, 1.0 - e8, den)


@_elementwise
def phase_flip_prob(alpha: float | np.ndarray, eta: float | np.ndarray):
    """Probability that two-sided loss on the three-mode state acts as a
    logical phase flip:

        p_f = (1 - e^{-8a^2} - e^{-4(1-eta)a^2} + e^{-4(1+eta)a^2})
              / (2 (1 - e^{-8a^2}))

    Vanishes at eta = 1, approaches 1/2 for large alpha.  At alpha = 0 the
    expression is 0/0 and the value is its limit, (1 - eta)/2, as it is
    wherever 1 - e^{-8a^2} rounds to 0 (alpha below about 2.6e-9).

    alpha and eta are floats, or NumPy arrays that broadcast: a float call
    returns a float, and an array call the float calls' values bit for bit,
    each exp one libm call per element.
    """
    _check_alpha(alpha)
    _check_eta(eta)
    x = alpha * alpha
    em8 = _libm(math.exp, -8.0 * x)
    # the loss exponent is 0 at eta = 1, also where x = inf makes it -0.0 * inf
    lost = _limit_where(eta == 1.0, 0.0, -4.0 * (1.0 - eta) * x)
    num = 1.0 - em8 - _libm(math.exp, lost) + _libm(math.exp, -4.0 * (1.0 + eta) * x)
    return _limit_where(em8 == 1.0, (1.0 - eta) / 2.0, num, 2.0 * (1.0 - em8))


@_elementwise
def phase_flip_prob_m(alpha: float | np.ndarray, eta: float | np.ndarray, m: int):
    """Phase-flip probability for the m-mode travelling state,

        p_{f,m} = (1 - e^{-2^m a^2} - e^{-2^{m-1}(1-eta) a^2}
                   + e^{-2^{m-1}(1+eta) a^2}) / (2 (1 - e^{-2^m a^2}))

    For m = 3 this reduces to `phase_flip_prob` exactly (2^3 = 8, 2^2 = 4).
    At alpha = 0, and wherever 1 - e^{-2^m a^2} rounds to 0, the value is the
    limit (1 - eta)/2 for every m.

    alpha and eta are floats, or NumPy arrays that broadcast: a float call
    returns a float, and an array call the float calls' values bit for bit,
    each exp one libm call per element.
    """
    _check_alpha(alpha)
    _check_eta(eta)
    _check_m(m)
    x = alpha * alpha
    em = _libm(math.exp, -(2.0**m) * x)
    # the loss exponent is 0 at eta = 1, also where x = inf makes it -0.0 * inf
    lost = _limit_where(eta == 1.0, 0.0, -(2.0 ** (m - 1)) * (1.0 - eta) * x)
    num = 1.0 - em - _libm(math.exp, lost) + _libm(math.exp, -(2.0 ** (m - 1)) * (1.0 + eta) * x)
    return _limit_where(em == 1.0, (1.0 - eta) / 2.0, num, 2.0 * (1.0 - em))


@_elementwise
def concurrence_m(
    alpha: float | np.ndarray, eta: float | np.ndarray, m: int, parity: str
):
    """Concurrence of the m-mode state after loss on all travelling modes,

        C_pm = (1 - 2 p_{f,m}) / (1 pm e^{-2^{m-1}(1+eta) a^2})
               * sqrt(1 - e^{-2^m a^2}) * sqrt(1 - e^{-2^m eta a^2})

    with "+" for even parity and "-" for odd.  The alpha = 0 endpoints are
    the analytic limits: 0 for even parity and 2 eta^{3/2} / (1 + eta) for
    odd (both independent of m).  They are also the values wherever
    1 - e^{-2^m a^2} or the odd denominator rounds to 0.

    alpha and eta are floats, or NumPy arrays that broadcast: a float call
    returns a float, and an array call the float calls' values bit for bit,
    each exp and eta^{3/2} one libm call per element.
    """
    _check_choice("parity", parity, PARITIES)
    _check_m(m)
    _check_eta(eta, positive=True)
    _check_alpha(alpha)
    x = alpha * alpha
    g = _libm(math.exp, -(2.0 ** (m - 1)) * (1.0 + eta) * x)
    em = _libm(math.exp, -(2.0**m) * x)
    den = (1.0 - g) if parity == "odd" else (1.0 + g)
    p = phase_flip_prob_m(alpha, eta, m)
    root = _sqrt(1.0 - em) * _sqrt(1.0 - _libm(math.exp, -(2.0**m) * eta * x))
    limit = 0.0 if parity == "even" else 2.0 * _libm(lambda e: e**1.5, eta) / (1.0 + eta)
    return _limit_where((em == 1.0) | (den == 0.0), limit, (1.0 - 2.0 * p) * root, den)


def mode_ladder(alpha: float, m: int) -> tuple[complex, ...]:
    """Amplitude ladder (2^{(m-1)/2} a, ..., 2^{1/2} a, a, a) of m+1 modes;
    m = 2 is the three-mode state's (sqrt(2) a, a, a)."""
    _check_m(m)
    amps = [complex(2.0 ** ((m - 1 - k) / 2.0) * alpha) for k in range(m - 1)]
    amps += [complex(alpha), complex(alpha)]
    return tuple(amps)


def cat_state(amps: Sequence[complex], coeff: complex) -> SuperpositionState:
    """Normalized |A> + coeff |-A> for the amplitude tuple A.  coeff = -1 is
    the odd state and +1 the even one; the three-mode state with relative
    phase theta is `cat_state(mode_ladder(a, 2), complex(cos theta, sin theta))`.
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
    return add(scale(all_u, 1.0 / math.sqrt(2.0)), scale(all_v, 1.0 / math.sqrt(2.0)))


def _damped_modes(mode_count: int, sides: str) -> tuple[int, ...]:
    return (mode_count - 1,) if sides == "one" else (mode_count - 2, mode_count - 1)


def _damped_bases(alpha: float, eta: float, mode_count: int, sides: str) -> list[LogicalBasis]:
    lossy = set(_damped_modes(mode_count, sides))
    return [make_basis(alpha * (math.sqrt(eta) if k in lossy else 1.0))
            for k in range(mode_count)]


def ghz_damped_projection(
    alpha: float, eta: float, sides: str = "one"
) -> tuple[np.ndarray, float]:
    """Exact 8x8 qubit matrix of the three-mode logical GHZ state after loss
    on one or two modes, projected in the damped logical bases, plus the
    projection residual.  This is the dyad route (`apply_loss` on the
    coherent expansion, then `project_to_qubits`), the reference that
    validation holds `ghz_damped_elements` to."""
    _check_choice("sides", sides, SIDES)
    _check_alpha(alpha, positive=True)
    _check_eta(eta, positive=True)
    # the GHZ expansion is normalized by construction; rechecking its norm
    # through the coherent representation cancels catastrophically at small
    # amplitudes, so skip it
    d: SuperpositionDensity = density_from_pure(ghz_state(alpha, 3), check_norm=False)
    d = canonicalize(d)
    for mode in _damped_modes(3, sides):
        d = apply_loss(d, mode, eta)
    d = canonicalize(d)
    bases = _damped_bases(alpha, eta, 3, sides)
    return project_to_qubits(d, bases)


def _basis_weights_sq(alpha: float, eta: float) -> tuple[float, float, float, float]:
    """(lam^2, mu^2, lam'^2, mu'^2) at amplitude alpha and sqrt(eta) alpha,
    with mu^2 through expm1 for full relative precision."""
    a2 = alpha * alpha
    lam2 = (1.0 + math.exp(-2.0 * a2)) / 2.0
    mu2 = -math.expm1(-2.0 * a2) / 2.0
    lamp2 = (1.0 + math.exp(-2.0 * eta * a2)) / 2.0
    mup2 = -math.expm1(-2.0 * eta * a2) / 2.0
    return lam2, mu2, lamp2, mup2


def _ghz_elements_closed(alpha: float, eta: float, sides: str) -> XStateElements:
    """Stable closed forms of the damped-GHZ X elements.

    With t = e^{-2(1-eta) a^2} the one-sided elements are
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
    t = math.exp(-2.0 * (1.0 - eta) * a2)
    one_minus_t = -math.expm1(-2.0 * (1.0 - eta) * a2)
    one_plus_t = 1.0 + t
    lam2, mu2, lamp2, mup2 = _basis_weights_sq(alpha, eta)
    cross = math.sqrt(lamp2 * mup2)
    cross0 = math.sqrt(lam2 * mu2)
    if sides == "one":
        return XStateElements(
            a=one_plus_t * lamp2 / (4.0 * lam2),
            b=one_minus_t * mup2 / (4.0 * lam2),
            c=one_minus_t * lamp2 / (4.0 * mu2),
            d=one_plus_t * mup2 / (4.0 * mu2),
            e=complex(one_minus_t * cross / (4.0 * cross0)),
            f=complex(one_plus_t * cross / (4.0 * cross0)),
        )
    one_minus_t2 = one_minus_t * one_plus_t
    return XStateElements(
        a=one_plus_t**2 * lamp2**2 / (8.0 * lam2**2),
        b=one_minus_t2 * lamp2 * mup2 / (8.0 * lam2**2),
        c=one_minus_t2 * lamp2 * mup2 / (8.0 * mu2**2),
        d=one_plus_t**2 * mup2**2 / (8.0 * mu2**2),
        e=complex(one_minus_t2 * lamp2 * mup2 / (8.0 * lam2 * mu2)),
        f=complex(one_plus_t**2 * lamp2 * mup2 / (8.0 * lam2 * mu2)),
    )


def _clamp_diag(x: float, tol: float = 1e-9) -> float:
    # projection float noise may leave tiny negatives on exact zeros
    if -tol < x < 0.0:
        return 0.0
    return x


def _x_elements(mat: np.ndarray) -> XStateElements:
    """X-structure elements of an 8x8 three-mode qubit matrix: diagonals at
    |uuu>, |uuv>, |vvu>, |vvv> and coherences <uuv|rho|vvu>, <uuu|rho|vvv>."""
    return XStateElements(
        a=_clamp_diag(mat[0, 0].real),
        b=_clamp_diag(mat[1, 1].real),
        c=_clamp_diag(mat[6, 6].real),
        d=_clamp_diag(mat[7, 7].real),
        e=mat[1, 6],
        f=mat[0, 7],
    )


def _damped_density(
    psi: np.ndarray, amps: np.ndarray, eta: float, lossy: tuple[int, ...]
) -> np.ndarray:
    """(G, 2^m, 2^m) matrices of pure states psi (G, 2^m) after loss.

    psi is in the product logical basis at amplitudes amps (G, m), mode 0
    the most significant bit.  Each lossy mode applies the pair of
    `_loss_kraus` along its qubit axis of a (G, B, 2, ..., 2) stack of
    branch vectors, doubling B; the result is sum_b psi_b psi_b^dagger.
    Each K has at most one nonzero per row, and the branches are summed in
    order, so row g does not depend on the other rows.
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


def ghz_damped_elements(
    alpha: float, eta: float, sides: str = "one", method: str = "exact"
) -> XStateElements:
    """X-structure elements of the damped logical GHZ matrix: diagonals at
    |uuu>, |uuv>, |vvu>, |vvv> and coherences <uuv|rho|vvu>, <uuu|rho|vvv>.

    `method="exact"` applies the Kraus pair of `logical._loss_kraus` to
    (|uuu> + |vvv>)/sqrt(2) at any alpha >= 0; at alpha = 0 its X
    concurrence is `ghz_concurrence_limit` to one ulp.  `method="closed"`
    evaluates the stable closed forms (alpha > 0).
    """
    _check_choice("sides", sides, SIDES)
    if method not in ("exact", "closed"):
        raise ValueError(f"unknown method {method!r}")
    _check_alpha(alpha, positive=method == "closed")
    _check_eta(eta, positive=True)
    if not math.isfinite(2.0 * alpha * alpha):
        raise ValueError("non-finite amplitude")
    if method == "closed":
        return _ghz_elements_closed(alpha, eta, sides)
    amps = np.full((1, 3), float(alpha))
    psi = np.zeros((1, 8), dtype=complex)
    psi[0, 0] = psi[0, 7] = 1.0
    # the 1/sqrt(2) normalisation enters as one exact factor 1/2
    mat = 0.5 * _damped_density(psi, amps, eta, _damped_modes(3, sides))[0]
    return _x_elements(mat)


def damped_state_projection(
    alpha: float | np.ndarray, eta: float, theta: float = math.pi, sides: str = "two"
) -> tuple[np.ndarray, float | np.ndarray]:
    """Exact 8x8 qubit matrix of the three-mode entangled state after loss,
    in the damped logical bases, plus a residual.

    A float `alpha` gives `(8x8 matrix, residual)`; a 1-D array of G
    amplitudes gives `((G, 8, 8) matrices, (G,) residuals)`, row i equal to
    the call at `alpha[i]` bit for bit.  The state |A> + e^{i theta} |-A>,
    A = (sqrt(2) a, a, a), is the normalised sum of its branch products of
    (lam_k, +-mu_k) in the product logical basis; loss is the Kraus pair of
    `logical._loss_kraus`.  Loss keeps the state in the logical spans, so
    the residual, 1 - trace, is rounding only.  The generic dyad pipeline
    agrees to about 1e-15, and to 2.3e-13 at alpha = 0.01 (odd parity),
    where it cancels on coefficients of order 1/alpha^2.

    Fig 3's `direct_*` columns come from this route.  K0 keeps a qubit's
    parity and K1 flips it, so the output is block diagonal across total
    parity: its X coherences e, f are float noise (~1e-17 on the fig 3
    grid), far below sqrt(ad) and sqrt(bc), and the X concurrence is 0.
    """
    _check_choice("sides", sides, SIDES)
    alphas = np.asarray(alpha, dtype=float)
    if alphas.ndim > 1:
        raise ValueError("alpha must be a float or a 1-D array")
    grid = np.atleast_1d(alphas)
    if not (grid > 0).all():
        raise ValueError("alpha must be positive")
    _check_eta(eta, positive=True)
    amps = np.stack([math.sqrt(2.0) * grid, grid, grid], axis=-1)
    with np.errstate(over="ignore"):
        two_a2 = 2.0 * amps**2
    if not (np.isfinite(two_a2).all() and math.isfinite(theta)):
        raise ValueError("non-finite amplitude or coefficient")
    g = len(grid)
    lam = np.sqrt((1.0 + np.exp(-two_a2)) / 2.0)
    mu = np.sqrt(-np.expm1(-two_a2) / 2.0)
    # |A> = (x)_k (lam_k |u> + mu_k |v>), grown mode by mode; |-A> flips the
    # sign of every mu_k, so of the entries with an odd number of v's
    branch = np.ones((g, 1))
    for k in range(3):
        pair = np.stack([lam[:, k], mu[:, k]], axis=-1)
        branch = (branch[:, :, None] * pair[:, None, :]).reshape(g, 2 * branch.shape[1])
    parity = np.array([(-1.0) ** bin(i).count("1") for i in range(8)])
    psi = branch * (1.0 + complex(math.cos(theta), math.sin(theta)) * parity)
    n2 = np.sum(psi.real**2 + psi.imag**2, axis=1)
    if (n2 <= 1e-30).any():
        raise ValueError("cannot normalize a state with (near-)zero norm")
    mat = _damped_density(psi / np.sqrt(n2)[:, None], amps, eta, _damped_modes(3, sides))
    residual = 1.0 - np.trace(mat, axis1=1, axis2=2).real
    if alphas.ndim == 0:
        return mat[0], float(residual[0])
    return mat, residual


def damped_state_elements(
    alpha: float, eta: float, theta: float = math.pi, sides: str = "two"
) -> XStateElements:
    """X-structure elements of the damped three-mode state, read off the same
    matrix positions as for the damped GHZ."""
    return _x_elements(damped_state_projection(alpha, eta, theta, sides)[0])


def damped_concurrence(
    alphas: Sequence[float], eta: float, theta: float = math.pi, sides: str = "two"
) -> list[float]:
    """X concurrence of the damped three-mode state at each alpha, equal to
    `xstate_concurrence(damped_state_elements(alpha, ...))` bit for bit,
    through one `damped_state_projection` call over the nonzero alphas.  At
    alpha = 0 the state is the vacuum, or vanishes (cos(theta) = -1); the
    value there is 0, its limit."""
    _check_choice("sides", sides, SIDES)
    _check_eta(eta, positive=True)
    out = [0.0] * len(alphas)
    nonzero = [i for i, a in enumerate(alphas) if a != 0.0]
    if nonzero:
        mats, _ = damped_state_projection(
            np.array([alphas[i] for i in nonzero]), eta, theta, sides
        )
        for i, mat in zip(nonzero, mats):
            out[i] = xstate_concurrence(_x_elements(mat))
    return out


def damped_concurrence_bound(
    alpha: float, eta: float, theta: float = math.pi, sides: str = "one"
) -> float:
    """Upper bound on the surviving concurrence of the damped three-mode
    state: the damped-GHZ X concurrence, from the stable closed forms, times
    the lossless pure-state concurrence at the same parameters.  At
    alpha = 0 each factor takes its alpha -> 0 limit: `ghz_concurrence_limit`,
    and 1 at cos(theta) = -1, 0 elsewhere."""
    if alpha == 0.0:
        _check_theta(theta)
        return ghz_concurrence_limit(eta, sides) * (1.0 if math.cos(theta) == -1.0 else 0.0)
    factor = xstate_concurrence(ghz_damped_elements(alpha, eta, sides, method="closed"))
    return factor * concurrence_pure(alpha, theta)


def ghz_concurrence_limit(eta: float, sides: str = "one") -> float:
    """alpha -> 0 limit of the damped-GHZ X concurrence: sqrt(eta) for
    one-sided loss, eta for two-sided."""
    _check_choice("sides", sides, SIDES)
    _check_eta(eta, positive=True)
    return math.sqrt(eta) if sides == "one" else eta
