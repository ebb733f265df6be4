"""Named consistency checks across both backends, with a machine-readable
report.

Every check yields its deviations, floats or arrays whose largest value is
the check's error (a one-sided check yields signed values, at most 0 when it
is clean), and `run_validation` holds their maximum to a fixed tolerance; the
random checks draw from a generator seeded from the run seed, so a given
seed always produces the same report.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import fockref
from .coherent import (
    SuperpositionState,
    apply_loss,
    beamsplitter,
    canonicalize,
    density_from_pure,
    density_trace,
    is_hermitian,
    normalize,
    partial_trace,
    state_inner,
    state_norm,
    tensor,
)
from .formulas import (
    _ghz_damped_matrices,
    _ghz_elements_closed,
    _x_parts,
    cat_state,
    concurrence_m,
    concurrence_pure,
    damped_concurrence,
    damped_concurrence_bound,
    ghz_damped_projection,
    ghz_state,
    mode_ladder,
    phase_flip_prob_m,
)
from .logical import (
    _pure_concurrences,
    _x_matrix,
    make_basis,
    mixture_weights,
    qubit_coordinates,
    wootters_concurrence,
    xstate_concurrence,
)
from .sweep import vanishing_point

ALPHA_GRID = (0.2, 0.65, 1.1, 1.55, 2.0)
ETA_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)
# every (alpha, eta) pair of the two grids, as two flat arrays
PAIR_ALPHAS, PAIR_ETAS = (g.ravel() for g in np.meshgrid(ALPHA_GRID, ETA_GRID))


def _random_state(rng, modes, terms, amp_scale=1.2) -> SuperpositionState:
    pairs = []
    for _ in range(terms):
        coeff = complex(rng.normal(), rng.normal())
        amps = tuple(
            complex(rng.normal(), rng.normal()) * amp_scale for _ in range(modes)
        )
        pairs.append((coeff, amps))
    return SuperpositionState.from_terms(pairs)


# ---------------------------------------------------------------- exact algebra


def check_beamsplitter_unitarity(rng):
    for _ in range(20):
        s = _random_state(rng, modes=3, terms=10)
        eta = float(rng.uniform())
        i, j = rng.choice(3, size=2, replace=False)
        yield abs(state_norm(beamsplitter(s, int(i), int(j), eta)) - state_norm(s))


def check_loss_composition(rng):
    for _ in range(10):
        d = density_from_pure(normalize(_random_state(rng, modes=2, terms=3)))
        e1, e2 = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.1, 1.0))
        two = canonicalize(apply_loss(apply_loss(d, 0, e1), 0, e2))
        one = canonicalize(apply_loss(d, 0, e1 * e2))
        yield np.abs(two.dyads - one.dyads)


def check_trace_preservation(rng):
    for _ in range(10):
        d = density_from_pure(normalize(_random_state(rng, modes=3, terms=3)))
        yield abs(density_trace(apply_loss(d, 1, float(rng.uniform()))).real - 1.0)
        yield abs(density_trace(partial_trace(d, [2])).real - 1.0)


def check_hermiticity_preservation(rng):
    # 1 for each result that is not Hermitian
    for _ in range(5):
        d = density_from_pure(normalize(_random_state(rng, modes=2, terms=3)))
        out = apply_loss(apply_loss(d, 0, 0.7), 1, 0.4)
        yield float(not is_hermitian(canonicalize(out)))
        yield float(not is_hermitian(canonicalize(partial_trace(out, [0]))))


def _fock_loss_gaps(s: SuperpositionState, alpha: float, etas):
    """Entrywise gaps, in row blocks, between loss eta on mode 1 of the
    two-mode state s by the dyad backend and by the Fock oracle, truncated
    for alpha, for each eta in turn."""
    n = fockref.required_levels(alpha)
    rho = density_from_pure(s, check_norm=False)
    start = fockref.fock_density_from_vector(fockref.state_to_fock(s, n), (n + 1, n + 1))
    for eta in etas:
        via_exact = fockref.density_to_fock(apply_loss(rho, 1, eta), n)
        via_fock = fockref.apply_channel(start, 1, fockref.damping_kraus(eta, n))
        yield from fockref.gap_blocks(via_exact, via_fock)


def check_backend_equivalence(rng):
    for alpha in ALPHA_GRID:
        yield from _fock_loss_gaps(cat_state((complex(alpha), complex(alpha)), -1.0),
                                   alpha, ETA_GRID)


# ------------------------------------------------------------------- logical


def check_basis_orthonormality(rng):
    for _ in range(40):
        alpha = float(rng.uniform(0.05, 3.0))
        b = make_basis(alpha)
        u, v = b.u_state(), b.v_state()
        yield abs(state_inner(u, u).real - 1.0)
        yield abs(state_inner(v, v).real - 1.0)
        yield abs(state_inner(u, v))
        yield abs(b.lam**2 + b.mu**2 - 1.0)


def check_projection_faithfulness(rng):
    from .coherent import add, scale

    basis = make_basis(1.1)
    u, v = basis.u_state(), basis.v_state()
    prods = [tensor(u, u), tensor(u, v), tensor(v, u), tensor(v, v)]
    bases = [basis, basis]
    for _ in range(10):
        c1 = rng.normal(size=4) + 1j * rng.normal(size=4)
        c2 = rng.normal(size=4) + 1j * rng.normal(size=4)

        def build(coeffs):
            out = scale(prods[0], complex(coeffs[0]))
            for w, p in zip(coeffs[1:], prods[1:]):
                out = add(out, scale(p, complex(w)))
            return out

        s1, s2 = build(c1), build(c2)
        exact = state_inner(s1, s2)
        via_qubits = np.vdot(qubit_coordinates(s1, bases), qubit_coordinates(s2, bases))
        yield abs(exact - via_qubits)


def check_xstate_wootters_agreement(rng):
    elements = []
    for _ in range(1000):
        diag = rng.uniform(0.05, 1.0, size=4)
        diag /= diag.sum()
        a, b, c, d = (float(x) for x in diag)
        e = float(rng.uniform()) * math.sqrt(b * c) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        f = float(rng.uniform()) * math.sqrt(a * d) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        elements.append((a, b, c, d, e, f))
    x = _x_matrix(*np.array(elements).T)
    yield np.abs(xstate_concurrence(x) - wootters_concurrence(x))


def check_pure_concurrence_closed_form(rng):
    # the states cat_state(mode_ladder(alpha, 3), e^{i theta}), theta-major,
    # as one array call
    thetas = [float(t) for t in np.linspace(0.0, 2.0 * math.pi, 181)]
    alphas = [float(a) for a in np.linspace(0.05, 2.0, 40)]
    ladders = np.array([mode_ladder(a, 3) for a in alphas])
    amps = np.tile(np.stack([ladders, -ladders], axis=1), (len(thetas), 1, 1))
    coeffs = [(1.0, complex(math.cos(t), math.sin(t))) for t in thetas for _ in alphas]
    got = _pure_concurrences(np.array(coeffs), amps, [0])
    yield np.abs(got - concurrence_pure(np.array(alphas), np.array(thetas)[:, None]).ravel())


def _phase_flip_extraction(m: int, alphas, etas):
    # loss eta on modes 1..m-1 of the odd m-mode state leaves the damped odd
    # state at weight 1 - p_{f,m} and the damped even one at weight p_{f,m}
    # e^{i pi} as cos + i sin (imaginary part 1.2e-16), not -1: the
    # report's bytes depend on it
    pi_phase = complex(math.cos(math.pi), math.sin(math.pi))
    for alpha in alphas:
        ladder = mode_ladder(alpha, m)
        state = cat_state(ladder, pi_phase)
        pfs = phase_flip_prob_m(alpha, np.array(etas), m).tolist()
        for eta, pf in zip(etas, pfs):
            d = functools.reduce(lambda d, mode: apply_loss(d, mode, eta), range(1, m), state)
            # the unflipped and flipped components, at the damped amplitudes
            amps = ladder[:1] + tuple(complex(math.sqrt(eta) * a.real) for a in ladder[1:])
            odd, even = cat_state(amps, -1.0), cat_state(amps, 1.0)
            weights, residual = mixture_weights(d, [odd, even])
            yield abs(weights[0] - (1.0 - pf))
            yield abs(weights[1] - pf)
            yield residual


def check_phase_flip_extraction(rng):
    return _phase_flip_extraction(3, ALPHA_GRID, ETA_GRID)


def check_phase_flip_extraction_m(rng):
    for m in (4, 6):
        yield from _phase_flip_extraction(m, (0.2, 1.1, 2.0), (0.1, 0.5, 0.9))


# ------------------------------------------------------------------ formulas


def check_phase_flip_gap_positive(rng):
    # 1 - 2 p_{f,m} > 0 for finite alpha: report any nonpositive gap
    alphas = np.linspace(0.05, 4.0, 80)[:, None]
    for m in (1, 2, 5, 8):
        yield 2.0 * phase_flip_prob_m(alphas, np.array(ETA_GRID), m) - 1.0


def check_ghz_diagonal_weight(rng):
    x = _x_parts(_ghz_damped_matrices(PAIR_ALPHAS, PAIR_ETAS, "one")).real
    yield np.abs(x[:, 0, 0] + x[:, 1, 1] + x[:, 2, 2] + x[:, 3, 3] - 1.0)


def check_ghz_psd(rng):
    # report any negative eigenvalue
    for sides in ("one", "two"):
        yield -np.linalg.eigvalsh(_x_parts(_ghz_damped_matrices(PAIR_ALPHAS, PAIR_ETAS, sides)))


def check_ghz_projection_residual(rng):
    for eta in ETA_GRID:
        for sides in ("one", "two"):
            yield np.abs(ghz_damped_projection(np.array(ALPHA_GRID), eta, sides)[1])


def check_ghz_lossless_reduction(rng):
    x = _x_parts(_ghz_damped_matrices(np.array([0.3, 0.8, 1.5]), 1.0, "one"))
    yield np.abs(x - _x_matrix(0.5, 0.0, 0.0, 0.5, 0.0, 0.5))


def check_ghz_closed_form_agreement(rng):
    # the Kraus route and the dyad route against the closed forms
    alphas = np.array(ALPHA_GRID)
    for eta in (0.1, 0.5, 0.9):
        for sides in ("one", "two"):
            closed = _x_matrix(*_ghz_elements_closed(alphas, eta, sides))
            yield np.abs(_x_parts(_ghz_damped_matrices(alphas, eta, sides)) - closed)
            yield np.abs(_x_parts(ghz_damped_projection(alphas, eta, sides)[0]) - closed)


def check_ghz_fock_crosscheck(rng):
    for alpha, eta in ((0.5, 0.3), (1.0, 0.7), (1.5, 0.9)):
        yield from _fock_loss_gaps(ghz_state(alpha, modes=2), alpha, (eta,))


def check_bound_domination(rng):
    # report any direct value above the bound
    for sides in ("one", "two"):
        yield (damped_concurrence(PAIR_ALPHAS, PAIR_ETAS, math.pi, sides)
               - damped_concurrence_bound(PAIR_ALPHAS, PAIR_ETAS, math.pi, sides))


def check_mmode_lossless_maximal(rng):
    for m in (2, 5, 8):
        yield np.abs(concurrence_m(np.linspace(0.1, 3.0, 30), 1.0, m, "odd") - 1.0)


def check_mmode_small_alpha_limits(rng):
    # the limits of the paper's phase-flip expression: its odd one,
    # 2 eta^{3/2} / (1 + eta), is not the exact concurrence's, sqrt(eta)
    eta = 0.9
    target = 2.0 * eta**1.5 / (1.0 + eta)
    for m in (2, 5, 8):
        yield abs(concurrence_m(1e-4, eta, m, "odd") - target)
        yield abs(concurrence_m(1e-4, eta, m, "even"))


def check_mmode_vanishing_coincidence(rng):
    # epsilon-vanishing indices of the odd and even branches, one grid step
    # max; the grid's length if only one of them vanishes
    grid = np.linspace(0.0, 4.0, 401)
    for m in (2, 5, 8):
        odd, even = (vanishing_point(range(len(grid)), concurrence_m(grid, 0.9, m, parity), 1e-3)
                     for parity in ("odd", "even"))
        if (odd is None) != (even is None):
            yield float(len(grid))
        elif odd is not None:
            yield float(abs(odd - even))


def check_mmode_odd_monotone(rng):
    # report any rise
    grid = np.linspace(0.5, 4.0, 176)
    for m in (2, 5, 8):
        yield np.diff(concurrence_m(grid, 0.9, m, "odd"))


def check_mmode_even_unimodal(rng):
    # report sign changes beyond the one peak, and a rise at the end
    grid = np.linspace(0.5, 4.0, 176)
    for m in (2, 5, 8):
        diffs = np.diff(concurrence_m(grid, 0.9, m, "even"))
        signs = np.sign(diffs[np.abs(diffs) > 1e-15])
        yield float(np.sum(signs[1:] != signs[:-1]) - 1)
        yield float(len(signs) > 0 and signs[-1] > 0)


def _bisect(f, lo, hi, xtol: float):
    """A root of f in [lo, hi], to within xtol, by bisection.  Raises
    ValueError unless f(lo) and f(hi) differ in sign, as brentq does.

    lo and hi may be arrays of brackets, and f then maps an array of points
    to an array of values: one call per step for all of them.  Each bracket
    stops by its own test, so each root equals the float call's bit for bit;
    a float bracket gives a float root."""
    lo, hi = (np.array(x, dtype=float) for x in (lo, hi))
    f_lo = f(lo)
    if np.any(f_lo * f(hi) > 0.0):
        raise ValueError("f(lo) and f(hi) must have different signs")
    live = hi - lo > xtol
    while np.any(live):
        mid = 0.5 * (lo + hi)
        up = (f(mid) > 0.0) == (f_lo > 0.0)
        lo, hi = np.where(live & up, mid, lo), np.where(live & ~up, mid, hi)
        live = hi - lo > xtol
    root = 0.5 * (lo + hi)
    return float(root) if root.ndim == 0 else root


def check_saturation_crossing_monotonic(rng):
    # alpha at which p_{f,m} reaches 0.49 at eta = 0.99 strictly decreases
    # in m: report any rise
    ms = np.array([2, 5, 8])
    yield np.diff(_bisect(lambda a: phase_flip_prob_m(a, 0.99, ms) - 0.49,
                          np.full(3, 1e-6), np.full(3, 50.0), xtol=1e-10))


# ------------------------------------------------------------------- fockref


def check_truncation_adequacy(rng):
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        vec = fockref.coherent_fock(alpha, fockref.required_levels(alpha))
        yield abs(1.0 - float(np.vdot(vec, vec).real))


def check_kraus_completeness(rng):
    for eta in (0.0, 0.1, 0.5, 0.9, 1.0):
        yield fockref.kraus_completeness_defect(fockref.damping_kraus(eta, 30))


def check_fock_channel_composition(rng):
    alpha = 1.0
    n = fockref.required_levels(alpha)
    s = cat_state((complex(alpha),), -1.0)
    rho = fockref.fock_density_from_vector(fockref.state_to_fock(s, n), (n + 1,))
    for e1, e2 in ((0.8, 0.5), (0.9, 0.3), (0.6, 0.6)):
        seq = fockref.apply_channel(fockref.apply_channel(rho, 0, fockref.damping_kraus(e1, n)),
                                    0, fockref.damping_kraus(e2, n))
        direct = fockref.apply_channel(rho, 0, fockref.damping_kraus(e1 * e2, n))
        yield from fockref.gap_blocks(seq, direct)


# -------------------------------------------------------------------- runner

CHECKS = (
    ("beamsplitter_unitarity", check_beamsplitter_unitarity, 1e-12,
     "20 random 10-term 3-mode states, random transmissivity"),
    ("loss_composition", check_loss_composition, 1e-10,
     "10 random 2-mode densities, random transmissivity pairs"),
    ("trace_preservation", check_trace_preservation, 1e-10,
     "loss and partial trace on 10 random 3-mode densities"),
    ("hermiticity_preservation", check_hermiticity_preservation, 1e-10,
     "channel and trace pipelines on 5 random densities"),
    ("backend_equivalence", check_backend_equivalence, 1e-8,
     "2-mode odd cat, alpha {0.2..2} x eta {0.1..0.9}, entrywise Fock matrix"),
    ("basis_orthonormality", check_basis_orthonormality, 1e-12,
     "40 random amplitudes in [0.05, 3]"),
    ("projection_faithfulness", check_projection_faithfulness, 1e-10,
     "10 random 2-mode states inside the logical span"),
    ("xstate_wootters_agreement", check_xstate_wootters_agreement, 1e-10,
     "1000 random positive-semidefinite X states"),
    ("pure_concurrence_closed_form", check_pure_concurrence_closed_form, 1e-10,
     "theta [0, 2pi] x 181, alpha [0.05, 2] x 40"),
    ("phase_flip_extraction", check_phase_flip_extraction, 1e-10,
     "two-sided loss pipeline, alpha {0.2..2} x eta {0.1..0.9}"),
    ("phase_flip_extraction_m", check_phase_flip_extraction_m, 1e-10,
     "loss on modes 1..m-1, m {4, 6}, alpha {0.2, 1.1, 2} x eta {0.1, 0.5, 0.9}"),
    ("phase_flip_gap_positive", check_phase_flip_gap_positive, 0.0,
     "m {1,2,5,8}, alpha [0.05, 4] x 80, eta {0.1..0.9}"),
    ("ghz_diagonal_weight", check_ghz_diagonal_weight, 1e-10,
     "one-sided pipeline, alpha {0.2..2} x eta {0.1..0.9}"),
    ("ghz_psd", check_ghz_psd, 1e-9,
     "both sidednesses, alpha {0.2..2} x eta {0.1..0.9}"),
    ("ghz_projection_residual", check_ghz_projection_residual, 1e-10,
     "both sidednesses, alpha {0.2..2} x eta {0.1..0.9}"),
    ("ghz_lossless_reduction", check_ghz_lossless_reduction, 1e-12,
     "eta = 1 at alpha {0.3, 0.8, 1.5}"),
    ("ghz_closed_form_agreement", check_ghz_closed_form_agreement, 1e-11,
     "Kraus route and dyad pipeline vs stable closed forms, "
     "alpha {0.2..2} x eta {0.1, 0.5, 0.9}"),
    ("ghz_fock_crosscheck", check_ghz_fock_crosscheck, 1e-8,
     "2-mode logical GHZ, 3 parameter points, entrywise Fock matrix"),
    ("bound_domination", check_bound_domination, 1e-9,
     "both sidednesses, alpha {0.2..2} x eta {0.1..0.9}"),
    ("mmode_lossless_maximal", check_mmode_lossless_maximal, 1e-12,
     "m {2,5,8}, alpha [0.1, 3] x 30, eta = 1"),
    ("mmode_small_alpha_limits", check_mmode_small_alpha_limits, 1e-4,
     "alpha = 1e-4 against the analytic limits, eta = 0.9"),
    ("mmode_vanishing_coincidence", check_mmode_vanishing_coincidence, 1.0,
     "epsilon = 1e-3 on alpha [0, 4] x 401, eta = 0.9, m {2,5,8}"),
    ("mmode_odd_monotone", check_mmode_odd_monotone, 1e-12,
     "alpha [0.5, 4] x 176, eta = 0.9, m {2,5,8}"),
    ("mmode_even_unimodal", check_mmode_even_unimodal, 0.0,
     "alpha [0.5, 4] x 176, eta = 0.9, m {2,5,8}"),
    ("saturation_crossing_monotonic", check_saturation_crossing_monotonic, 0.0,
     "p_{f,m} = 0.49 crossings at eta = 0.99, m {2,5,8}"),
    ("truncation_adequacy", check_truncation_adequacy, 1e-12,
     "coherent tail mass up to alpha = 3"),
    ("kraus_completeness", check_kraus_completeness, 1e-10,
     "30-level Kraus sets, eta {0, 0.1, 0.5, 0.9, 1}"),
    ("fock_channel_composition", check_fock_channel_composition, 1e-8,
     "sequential vs combined transmissivity on a 1-mode odd cat"),
)


def _max_deviation(deviations) -> float:
    """The largest of a check's deviations, each a float or an array: +0.0
    when none is positive, and NaN as soon as one is NaN, so that the check
    fails (Python's max would drop it)."""
    largest = 0.0
    for d in deviations:
        d = float(np.max(d, initial=0.0))
        if math.isnan(d):
            return d
        largest = max(largest, d)
    return largest


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float
    grid: str
    wall_time: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def run_validation(seed: int = 0, tolerances: dict[str, float] | None = None,
                   global_tolerance: float | None = None) -> list[CheckResult]:
    """Run every check; overrides replace the default tolerances.  An
    override must be finite and nonnegative: a NaN or negative one would
    fail every check it covers, an infinite one would pass them all."""
    tolerances = tolerances or {}
    unknown = set(tolerances) - {name for name, *_ in CHECKS}
    if unknown:
        raise ValueError(f"unknown check name(s) in tolerance override: {sorted(unknown)}")
    overrides = {f"{name}={tol!r}": tol for name, tol in tolerances.items()}
    if global_tolerance is not None:
        overrides[repr(global_tolerance)] = global_tolerance
    for entry, tol in overrides.items():
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"bad tolerance override {entry}: must be finite and nonnegative")
    results = []
    for offset, (name, fn, default_tol, grid) in enumerate(CHECKS):
        tol = tolerances.get(name, global_tolerance if global_tolerance is not None
                             else default_tol)
        rng = np.random.default_rng(seed * 1000 + offset)
        started = time.perf_counter()
        max_error = _max_deviation(fn(rng))
        elapsed = time.perf_counter() - started
        results.append(CheckResult(name, max_error, float(tol), grid, elapsed))
    return results


def report_dict(seed: int, results: list[CheckResult]) -> dict:
    """JSON-ready report; excludes wall times so identical seeds give
    byte-identical documents.  A non-finite max_error is None (JSON null)."""
    return {
        "seed": seed,
        "overall": "pass" if all(r.passed for r in results) else "fail",
        "checks": [
            {
                "name": r.name,
                "status": "pass" if r.passed else "fail",
                "max_error": r.max_error if math.isfinite(r.max_error) else None,
                "tolerance": r.tolerance,
                "grid": r.grid,
            }
            for r in results
        ],
    }


def _margin(r: CheckResult) -> float:
    """max_error / tolerance; 1 is the edge of passing."""
    if r.tolerance > 0:
        return r.max_error / r.tolerance
    return 0.0 if r.max_error == 0 else math.inf


def format_table(results: list[CheckResult]) -> str:
    name_width = max(len(r.name) for r in results)
    lines = [
        f"{'check':<{name_width}}  {'status':<6}  {'max error':>12}  {'tolerance':>12}  "
        f"{'margin':>9}  {'time [s]':>8}"
    ]
    for r in results:
        lines.append(
            f"{r.name:<{name_width}}  {'pass' if r.passed else 'FAIL':<6}  "
            f"{r.max_error:>12.3e}  {r.tolerance:>12.3e}  {_margin(r):>9.3e}  {r.wall_time:>8.2f}"
        )
    return "\n".join(lines)


def write_report(path: str, seed: int, results: list[CheckResult]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report_dict(seed, results), fh, indent=2, allow_nan=False)
        fh.write("\n")
