"""Output checkers for the catdamp benchmark.

Every checker takes the text a `catdamp` command wrote and either returns a
dict of observations (largest error seen and where) or raises
`CheckFailure`.  The reference values are computed here, apart from the
program: closed forms are written out below and evaluated with mpmath at 50
significant digits, or with numpy through `expm1`, which keeps full relative
precision where the program forms `1 - e^{-x}` by subtraction.  Nothing here
imports catdamp.
"""

from __future__ import annotations

import json
import math
import random

import mpmath
import numpy as np

DPS = 50

# Figure grids at the CLI defaults.
ALPHA_MAX = 4.0
ALPHA_ROWS = 401
THETA_ROWS = 181
P_ROWS = 101
FIG2_ETAS = (0.3, 0.6, 0.9)
FIG3_ETAS = (0.3, 0.6, 0.9)
FIG4_ETAS = (0.99, 0.1)
FIG5_ETA = 0.9
FIG6_ETA = 0.1
MODES = (2, 5, 8)

# Tolerances, each with its reason.
#
# Values are compared in absolute error against
#     tolerance(alpha, c) = TOL_FLOOR + LOSS_FACTOR * u / (c alpha^2),
# u = 2^-53 the unit roundoff.  The floor covers the few ulps that any
# float64 evaluation of these O(1) ratios commits; the largest error seen
# away from alpha = 0 is 9e-15.  The second term is what forming 1 - e^{-y}
# by subtraction costs at y = c alpha^2: an absolute error of ~u in e^{-y},
# hence ~u/y after dividing by 1 - e^{-y}.  The program evaluates the
# phase-flip and m-mode closed forms this way (c = 2^{m-1}; 4 for the
# three-mode phase flip), a known precision loss that reaches ~1e-8 at the
# sweep grid's first point alpha = 4e-5; the largest error seen is 0.4 u/y,
# so LOSS_FACTOR = 4 keeps a tenfold margin.  Quantities the program
# evaluates in stable form (fig 1, the fig 3 bound through expm1, the pure
# concurrence) get the floor alone.  Every check reports its largest error.
UNIT_ROUNDOFF = 2.0**-53
TOL_FLOOR = 1e-13
LOSS_FACTOR = 4.0
# Grid coordinates are linspace points: a few ulps of the grid's end.
GRID_TOL = 1e-14
# Odd and even concurrences differ by the factor (1 + g)/(1 - g), g =
# e^{-2^{m-1}(1+eta)a^2}, and g < 1e-6 wherever either falls below epsilon
# on the benchmark's (eta, m) set, so their epsilon crossings lie far less
# than one grid step apart: the grid points where they vanish agree, or
# differ by one step when a grid value falls between the two crossings.
ALPHA_STAR_STEPS = 1
SWEEP_SAMPLE_ROWS = 200


def tolerance(alpha, c: float = math.inf):
    """Absolute tolerance at alpha (a float or an array) for a value whose
    evaluation subtracts e^{-c alpha^2} from 1; c = inf for none."""
    alpha = np.asarray(alpha, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        loss = np.where(alpha > 0.0, LOSS_FACTOR * UNIT_ROUNDOFF / (c * alpha * alpha), 0.0)
    return TOL_FLOOR + loss


class CheckFailure(Exception):
    """An output does not match its reference or breaks a required property."""


def _fail_unless(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    _fail_unless(text.endswith("\n"), "CSV does not end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for i, row in enumerate(rows):
        _fail_unless(len(row) == len(header),
                     f"row {i} has {len(row)} fields, header has {len(header)}")
    return header, rows


def _column(rows: list[list[str]], j: int) -> np.ndarray:
    try:
        return np.array([float(r[j]) for r in rows])
    except ValueError as exc:
        raise CheckFailure(f"column {j}: {exc}")


class _Worst:
    """Largest absolute error seen, where it was seen, and the largest
    error-to-tolerance ratio."""

    def __init__(self):
        self.error, self.where, self.ratio = 0.0, "", 0.0

    def add(self, got: float, want, tol: float, where: str) -> None:
        err = float(abs(mpmath.mpf(got) - want))
        tol = float(tol)
        if not err <= tol:
            raise CheckFailure(f"{where}: got {float(got)!r}, reference "
                               f"{mpmath.nstr(want, 17)}, error {err:.3e} > tolerance {tol:.3e}")
        if err > self.error:
            self.error, self.where = err, where
        self.ratio = max(self.ratio, err / tol)

    def result(self, **extra) -> dict:
        return {"max_error": self.error, "at": self.where,
                "largest_error_over_tolerance": self.ratio, **extra}


# ------------------------------------------------------------- closed forms
# With x = a^2, c = 2^{m-1}:
#   p_{f,m} = (1 - e^{-2cx} - e^{-c(1-eta)x} + e^{-c(1+eta)x}) / (2 (1 - e^{-2cx}))
#   C_odd/even = (1 - 2 p_{f,m}) sqrt(1 - e^{-2cx}) sqrt(1 - e^{-2c eta x})
#                / (1 -/+ e^{-c(1+eta)x})
# with the alpha = 0 limits (1-eta)/2, 2 eta^{3/2}/(1+eta) (odd) and 0 (even).
# The three-mode phase flip is m = 3.  All arguments are the exact doubles
# read from the CSV.


def mp_phase_flip(alpha: float, eta: float, m: int):
    with mpmath.workdps(DPS):
        eta = mpmath.mpf(eta)
        if alpha == 0.0:
            return (1 - eta) / 2
        x = mpmath.mpf(alpha) ** 2
        c = mpmath.mpf(2) ** (m - 1)
        e2 = mpmath.exp(-2 * c * x)
        num = 1 - e2 - mpmath.exp(-c * (1 - eta) * x) + mpmath.exp(-c * (1 + eta) * x)
        return num / (2 * (1 - e2))


def mp_concurrence(alpha: float, eta: float, m: int, parity: str):
    with mpmath.workdps(DPS):
        eta = mpmath.mpf(eta)
        if alpha == 0.0:
            return 2 * eta ** mpmath.mpf(1.5) / (1 + eta) if parity == "odd" else mpmath.mpf(0)
        x = mpmath.mpf(alpha) ** 2
        c = mpmath.mpf(2) ** (m - 1)
        g = mpmath.exp(-c * (1 + eta) * x)
        root = (mpmath.sqrt(1 - mpmath.exp(-2 * c * x))
                * mpmath.sqrt(1 - mpmath.exp(-2 * c * eta * x)))
        den = 1 - g if parity == "odd" else 1 + g
        return (1 - 2 * mp_phase_flip(alpha, eta, m)) * root / den


def mp_pure_concurrence(alpha: float, theta: float):
    """(1 - e^{-8a^2}) / (1 + e^{-8a^2} cos theta); 0 where it is 0/0."""
    with mpmath.workdps(DPS):
        e8 = mpmath.exp(-8 * mpmath.mpf(alpha) ** 2)
        num = 1 - e8
        return mpmath.mpf(0) if num == 0 else num / (1 + e8 * mpmath.cos(mpmath.mpf(theta)))


def np_phase_flip(alpha: np.ndarray, eta: float, m: int) -> np.ndarray:
    """p_{f,m} with the numerator written as
    (1 - e^{-2cx}) + e^{-c(1-eta)x} (e^{-2c eta x} - 1) and both brackets
    through expm1, which keeps full relative precision for every alpha > 0."""
    c = 2.0 ** (m - 1)
    x = alpha * alpha
    with np.errstate(invalid="ignore", divide="ignore"):
        one_m_e2 = -np.expm1(-2.0 * c * x)
        num = one_m_e2 + np.exp(-c * (1.0 - eta) * x) * np.expm1(-2.0 * c * eta * x)
        out = num / (2.0 * one_m_e2)
    return np.where(alpha == 0.0, (1.0 - eta) / 2.0, out)


def np_concurrence(alpha: np.ndarray, eta: float, m: int, parity: str) -> np.ndarray:
    c = 2.0 ** (m - 1)
    x = alpha * alpha
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(-np.expm1(-2.0 * c * x)) * np.sqrt(-np.expm1(-2.0 * c * eta * x))
        g = np.exp(-c * (1.0 + eta) * x)
        den = -np.expm1(-c * (1.0 + eta) * x) if parity == "odd" else 1.0 + g
        out = (1.0 - 2.0 * np_phase_flip(alpha, eta, m)) * root / den
    limit = 2.0 * eta**1.5 / (1.0 + eta) if parity == "odd" else 0.0
    return np.where(alpha == 0.0, limit, out)


def mp_ghz_bound(alpha: float, eta: float, sides: str):
    """Damped-GHZ X concurrence 2 max(0, |e| - sqrt(ad), |f| - sqrt(bc)) from
    the element closed forms; with t = e^{-2(1-eta)a^2} and the logical
    weights lam^2, mu^2 = (1 +/- e^{-2a^2})/2 (primed: at sqrt(eta) a),
    one-sided:  a = (1+t) lam'^2/(4 lam^2), b = (1-t) mu'^2/(4 lam^2),
                c = (1-t) lam'^2/(4 mu^2),  d = (1+t) mu'^2/(4 mu^2),
                e = (1-t) lam'mu'/(4 lam mu), f = (1+t) lam'mu'/(4 lam mu);
    two-sided:  a = (1+t)^2 lam'^4/(8 lam^4), b = (1-t^2) lam'^2 mu'^2/(8 lam^4),
                c = (1-t^2) lam'^2 mu'^2/(8 mu^4), d = (1+t)^2 mu'^4/(8 mu^4),
                e = (1-t^2) lam'^2 mu'^2/(8 lam^2 mu^2),
                f = (1+t)^2 lam'^2 mu'^2/(8 lam^2 mu^2).
    At alpha = 0 the limit is sqrt(eta) one-sided and eta two-sided."""
    with mpmath.workdps(DPS):
        eta = mpmath.mpf(eta)
        if alpha == 0.0:
            return mpmath.sqrt(eta) if sides == "one" else eta
        x = mpmath.mpf(alpha) ** 2
        t = mpmath.exp(-2 * (1 - eta) * x)
        lam2, mu2 = (1 + mpmath.exp(-2 * x)) / 2, (1 - mpmath.exp(-2 * x)) / 2
        lp2, mp2 = (1 + mpmath.exp(-2 * eta * x)) / 2, (1 - mpmath.exp(-2 * eta * x)) / 2
        if sides == "one":
            a, b = (1 + t) * lp2 / (4 * lam2), (1 - t) * mp2 / (4 * lam2)
            c, d = (1 - t) * lp2 / (4 * mu2), (1 + t) * mp2 / (4 * mu2)
            cross = mpmath.sqrt(lp2 * mp2 / (lam2 * mu2)) / 4
            e, f = (1 - t) * cross, (1 + t) * cross
        else:
            a, b = (1 + t) ** 2 * lp2**2 / (8 * lam2**2), (1 - t * t) * lp2 * mp2 / (8 * lam2**2)
            c, d = (1 - t * t) * lp2 * mp2 / (8 * mu2**2), (1 + t) ** 2 * mp2**2 / (8 * mu2**2)
            e = (1 - t * t) * lp2 * mp2 / (8 * lam2 * mu2)
            f = (1 + t) ** 2 * lp2 * mp2 / (8 * lam2 * mu2)
        return 2 * max(mpmath.mpf(0), e - mpmath.sqrt(a * d), f - mpmath.sqrt(b * c))


# ------------------------------------------------------------------ figures


def _tag(eta: float) -> str:
    return format(eta, "g")


def figure_header(fig: int) -> list[str]:
    if fig == 1:
        return ["theta", "p", "concurrence"]
    if fig == 2:
        return ["alpha"] + [f"pf_eta{_tag(e)}" for e in FIG2_ETAS]
    if fig == 3:
        header = ["alpha"]
        for e in FIG3_ETAS:
            header += [f"bound_{s}sided_eta{_tag(e)}" for s in ("one", "two")]
            header += [f"direct_{s}sided_eta{_tag(e)}" for s in ("one", "two")]
        return header
    if fig == 4:
        return ["alpha"] + [f"pfm_m{m}_eta{_tag(e)}" for e in FIG4_ETAS for m in MODES]
    eta = FIG5_ETA if fig == 5 else FIG6_ETA
    return ["alpha"] + [f"{label}_m{m}_eta{_tag(eta)}"
                        for label in ("cminus", "cplus") for m in MODES]


def _check_grid(values: np.ndarray, stop: float, name: str) -> None:
    want = stop * np.arange(len(values)) / (len(values) - 1)
    worst = float(np.max(np.abs(values - want)))
    _fail_unless(worst <= GRID_TOL, f"{name} grid off by {worst:.3e}")


def _check_fig1(rows) -> dict:
    theta, p = _column(rows, 0), _column(rows, 1)
    _check_grid(theta[::P_ROWS], 2.0 * math.pi, "theta")
    _check_grid(p[:P_ROWS], 1.0, "p")
    _fail_unless(np.array_equal(p, np.tile(p[:P_ROWS], THETA_ROWS)), "p grid does not repeat")
    _fail_unless(np.array_equal(theta, np.repeat(theta[::P_ROWS], P_ROWS)),
                 "theta grid is not constant within its block")
    worst = _Worst()
    with mpmath.workdps(DPS):
        for i, row in enumerate(rows):
            t, q, got = mpmath.mpf(float(row[0])), mpmath.mpf(float(row[1])), float(row[2])
            num, den = 1 - q * q, 1 + q * q * mpmath.cos(t)
            want = mpmath.mpf(0) if num == 0 else num / den
            worst.add(got, want, TOL_FLOOR, f"row {i}")
    return worst.result()


def _check_fig3(header, rows, alpha) -> dict:
    worst = _Worst()
    for j, name in enumerate(header[1:], start=1):
        values = _column(rows, j)
        if name.startswith("direct_"):
            # the exact channel output is block diagonal across parity, so its
            # X-position coherences, hence these concurrences, are exactly 0
            _fail_unless(all(r[j] == "0.0" for r in rows), f"{name} is not identically 0")
            continue
        sides = "one" if "_onesided_" in name else "two"
        eta = float(name.rpartition("_eta")[2])
        _fail_unless(bool(np.all((values >= 0.0) & (values <= 1.0))), f"{name} leaves [0, 1]")
        limit = math.sqrt(eta) if sides == "one" else eta
        _fail_unless(abs(values[0] - limit) <= 1e-15,
                     f"{name} at alpha = 0 is {values[0]!r}, limit {limit!r}")
        for i, a in enumerate(alpha):
            worst.add(values[i], mp_ghz_bound(float(a), eta, sides), TOL_FLOOR,
                      f"{name} row {i}")
    return worst.result()


def check_figure(fig: int, text: str) -> dict:
    """Check one `catdamp fig N` CSV at default arguments."""
    header, rows = parse_csv(text)
    want_header = figure_header(fig)
    _fail_unless(header == want_header, f"fig {fig} header {header} != {want_header}")
    want_rows = THETA_ROWS * P_ROWS if fig == 1 else ALPHA_ROWS
    _fail_unless(len(rows) == want_rows, f"fig {fig} has {len(rows)} rows, expected {want_rows}")
    if fig == 1:
        return _check_fig1(rows)
    alpha = _column(rows, 0)
    _check_grid(alpha, ALPHA_MAX, "alpha")
    if fig == 3:
        return _check_fig3(header, rows, alpha)
    worst = _Worst()
    for j, name in enumerate(header[1:], start=1):
        values = _column(rows, j)
        eta = float(name.rpartition("_eta")[2])
        m = 3 if fig == 2 else int(name.split("_m")[1].split("_")[0])
        for i, a in enumerate(alpha):
            a = float(a)
            if fig in (2, 4):
                want = mp_phase_flip(a, eta, m)
            else:
                want = mp_concurrence(a, eta, m, "odd" if name.startswith("cminus") else "even")
            worst.add(values[i], want, tolerance(a, 2.0 ** (m - 1)), f"{name} row {i}")
    return worst.result()


# ---------------------------------------------------------------- validate

VALIDATE_CHECKS = 28


def check_report(text: str, seed: int) -> dict:
    """Check a `catdamp validate --seed S` JSON report."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"report is not JSON: {exc}")
    _fail_unless(isinstance(report, dict), "report is not an object")
    _fail_unless(report.get("seed") == seed, f"report seed {report.get('seed')!r} != {seed}")
    _fail_unless(report.get("overall") == "pass", f"overall is {report.get('overall')!r}")
    checks = report.get("checks")
    _fail_unless(isinstance(checks, list) and len(checks) == VALIDATE_CHECKS,
                 f"expected {VALIDATE_CHECKS} checks")
    names = [c.get("name") for c in checks]
    _fail_unless(len(set(names)) == len(names), "duplicate check names")
    margin, closest = 0.0, ""
    for c in checks:
        err, tol = c.get("max_error"), c.get("tolerance")
        _fail_unless(isinstance(err, (int, float)) and isinstance(tol, (int, float)),
                     f"{c.get('name')}: max_error or tolerance is not a number")
        _fail_unless(c.get("status") == "pass" and err <= tol,
                     f"{c['name']}: max_error {err} > tolerance {tol} or status "
                     f"{c.get('status')!r}")
        if tol > 0 and err / tol >= margin:
            margin, closest = err / tol, c["name"]
    return {"checks": len(checks), "largest_error_over_tolerance": margin, "at": closest}


# ------------------------------------------------------------------- sweep

SWEEP_QUANTITIES = ("phase_flip_prob", "phase_flip_prob_m", "concurrence_odd",
                    "concurrence_even", "pure_concurrence")


def _vanishing_point(alpha: np.ndarray, values: np.ndarray, epsilon: float):
    above = values >= epsilon
    if not above.any():
        return None
    first = int(np.argmax(above))
    below = np.nonzero(~above[first:])[0]
    return None if below.size == 0 else float(alpha[first + below[0]])


def check_sweep(text: str, spec: dict, sample_seed: int) -> dict:
    """Check a `catdamp sweep` CSV of SWEEP_QUANTITIES over an alpha axis
    [0, spec["stop"]] with spec["steps"] points, at spec["eta"], spec["m"],
    theta = pi and threshold spec["epsilon"]."""
    header, rows = parse_csv(text)
    want_header = (["alpha"] + list(SWEEP_QUANTITIES)
                   + [f"alpha_star_{q}" for q in SWEEP_QUANTITIES])
    _fail_unless(header == want_header, f"sweep header {header} != {want_header}")
    steps, eta, m, eps = spec["steps"], spec["eta"], spec["m"], spec["epsilon"]
    _fail_unless(len(rows) == steps, f"sweep has {len(rows)} rows, expected {steps}")
    alpha = _column(rows, 0)
    _check_grid(alpha, spec["stop"], "alpha")
    cols = {q: _column(rows, j) for j, q in enumerate(SWEEP_QUANTITIES, start=1)}

    for q in ("phase_flip_prob", "phase_flip_prob_m"):
        _fail_unless(bool(np.all((cols[q] >= 0.0) & (cols[q] <= 0.5))), f"{q} leaves [0, 1/2]")

    # (1 - e) / (1 + e cos theta) with the denominator as (1 - e) + e (1 + cos theta)
    e8 = np.exp(-8.0 * alpha * alpha)
    one_m_e8 = -np.expm1(-8.0 * alpha * alpha)
    with np.errstate(invalid="ignore"):
        pure = np.where(alpha == 0.0, 0.0,
                        one_m_e8 / (one_m_e8 + e8 * (1.0 + math.cos(math.pi))))
    reference = {
        "phase_flip_prob": (np_phase_flip(alpha, eta, 3), 4.0),
        "phase_flip_prob_m": (np_phase_flip(alpha, eta, m), 2.0 ** (m - 1)),
        "concurrence_odd": (np_concurrence(alpha, eta, m, "odd"), 2.0 ** (m - 1)),
        "concurrence_even": (np_concurrence(alpha, eta, m, "even"), 2.0 ** (m - 1)),
        "pure_concurrence": (pure, math.inf),
    }
    row_error, row_at = 0.0, ""
    for q in SWEEP_QUANTITIES:
        want, c = reference[q]
        err = np.abs(cols[q] - want)
        bad = np.nonzero(~(err <= tolerance(alpha, c)))[0]
        if bad.size:
            i = int(bad[0])
            raise CheckFailure(f"{q} at alpha={float(alpha[i])!r}: error {err[i]:.3e} > "
                               f"tolerance {float(tolerance(alpha[i], c)):.3e}")
        i = int(np.argmax(err))
        if err[i] > row_error:
            row_error, row_at = float(err[i]), f"{q} alpha={float(alpha[i])!r}"

    # the first nonzero point always joins the sample: it is where forming
    # 1 - e^{-x} by subtraction costs the most digits
    sample = sorted({0, 1, steps - 1} | set(random.Random(sample_seed).sample(
        range(steps), min(SWEEP_SAMPLE_ROWS, steps))))
    worst = _Worst()
    for i in sample:
        a = float(alpha[i])
        refs = {
            "phase_flip_prob": (mp_phase_flip(a, eta, 3), 4.0),
            "phase_flip_prob_m": (mp_phase_flip(a, eta, m), 2.0 ** (m - 1)),
            "concurrence_odd": (mp_concurrence(a, eta, m, "odd"), 2.0 ** (m - 1)),
            "concurrence_even": (mp_concurrence(a, eta, m, "even"), 2.0 ** (m - 1)),
            "pure_concurrence": (mp_pure_concurrence(a, math.pi), math.inf),
        }
        for q, (want, c) in refs.items():
            worst.add(float(cols[q][i]), want, tolerance(a, c), f"{q} alpha={a!r}")

    stars = {}
    for j, q in enumerate(SWEEP_QUANTITIES, start=1 + len(SWEEP_QUANTITIES)):
        column = {r[j] for r in rows}
        _fail_unless(len(column) == 1, f"alpha_star_{q} is not constant")
        value = column.pop()
        star = None if value == "none" else float(value)
        _fail_unless(star == _vanishing_point(alpha, cols[q], eps),
                     f"alpha_star_{q} = {value} is not where {q} first drops below {eps}")
        stars[q] = star
    odd, even = stars["concurrence_odd"], stars["concurrence_even"]
    _fail_unless((odd is None) == (even is None), f"alpha_star odd {odd} vs even {even}")
    gap = 0.0 if odd is None else abs(odd - even)
    tol = ALPHA_STAR_STEPS * spec["stop"] / (steps - 1) + GRID_TOL
    _fail_unless(gap <= tol, f"odd and even vanish {gap:.3e} apart in alpha (> {tol:.1e})")
    return worst.result(all_rows_max_error=row_error, all_rows_at=row_at,
                        alpha_star_odd=odd, alpha_star_even=even, alpha_star_gap=gap)
