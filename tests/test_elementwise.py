"""The closed forms' float-or-array contract, the CSV writer against the
per-value reference writer, and every quantity of `run_sweep` on every axis
against per-point float calls."""

import math
import sys
import warnings

import numpy as np
import pytest

from catdamp.figures import write_csv
from catdamp.formulas import (
    ChannelParams,
    concurrence_m,
    concurrence_pure,
    damped_concurrence_bound,
    damped_state_elements,
    ghz_concurrence_limit,
    ghz_damped_elements,
    phase_flip_prob,
    phase_flip_prob_m,
)
from catdamp.logical import xstate_concurrence
from catdamp import sweep
from catdamp.sweep import SweepConfig, run_sweep

# alpha = 0, the points where 1 - e^{-2^m a^2} rounds to 0 (1e-9) and where
# the odd denominator does (4.5e-9 at eta = 0.01, m = 2), ordinary values,
# and amplitudes where every exponential underflows to 0
ALPHAS = np.array([0.0, 1e-9, 4.5e-9, 1e-4, 0.3, 1.0, 2.5, 4.0, 27.0, 60.0])
ETAS = np.array([0.01, 0.1, 0.5, 0.9, 0.99, 1.0])
THETAS = np.array([0.0, 0.5, math.pi / 2, 2.0, math.pi, 4.0, 2.0 * math.pi])
# amplitudes whose square overflows to inf
HUGE_ALPHAS = np.array([1e155, 1e200])


def _closed_forms():
    """(name, f(alpha, eta, theta)) for every closed form and its m and parity
    variants; eta > 0 throughout, as the concurrences need."""
    yield "concurrence_pure", lambda a, e, t: concurrence_pure(a, t)
    yield "phase_flip_prob", lambda a, e, t: phase_flip_prob(a, e)
    for m in (1, 2, 3, 5, 8):
        yield f"phase_flip_prob_m{m}", lambda a, e, t, m=m: phase_flip_prob_m(a, e, m)
        for parity in ("odd", "even"):
            yield (f"concurrence_{parity}_m{m}",
                   lambda a, e, t, m=m, parity=parity: concurrence_m(a, e, m, parity))
    for sides in ("one", "two"):
        yield (f"damped_concurrence_bound_{sides}",
               lambda a, e, t, sides=sides: damped_concurrence_bound(a, e, t, sides))


CLOSED_FORMS = list(_closed_forms())


def _per_element(f, alpha, eta, theta):
    """The float calls at each element of the broadcast arguments."""
    a, e, t = np.broadcast_arrays(alpha, eta, theta)
    return np.array([f(float(x), float(y), float(z))
                     for x, y, z in zip(a.ravel(), e.ravel(), t.ravel())]).reshape(a.shape)


@pytest.mark.parametrize("name,f", CLOSED_FORMS, ids=[n for n, _ in CLOSED_FORMS])
def test_array_call_equals_float_calls_bit_for_bit(name, f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # each argument as the array, the others fixed floats; theta = pi
        # stays off alpha = 1e-9, where concurrence_pure raises
        cases = [(ALPHAS, 0.5, 1.0), (0.3, ETAS, 1.0), (1.0, 0.01, THETAS),
                 (4.5e-9, ETAS, 0.0), (1e-9, 0.3, THETAS[:4])]
        # arrays that broadcast against each other
        cases.append((ALPHAS[:, None], ETAS[None, :], 2.0))
        cases.append((ALPHAS[:, None, None], ETAS[None, :, None], THETAS[None, None, :4]))
        # alpha^2 = inf, at eta = 1 among others
        cases += [(1e200, ETAS, 1.0), (HUGE_ALPHAS[:, None], ETAS[None, :], 2.0)]
        for alpha, eta, theta in cases:
            got = f(alpha, eta, theta)
            want = _per_element(f, alpha, eta, theta)
            # a form that does not take the array argument returns a float
            assert got.dtype == np.float64 if isinstance(got, np.ndarray) else type(got) is float
            assert np.array_equal(np.broadcast_to(got, want.shape), want), (name, alpha, eta, theta)


@pytest.mark.parametrize("name,f", CLOSED_FORMS, ids=[n for n, _ in CLOSED_FORMS])
def test_float_in_gives_float_out(name, f):
    for alpha in (0.0, 1e-9, 0.7, 60.0):
        assert type(f(alpha, 0.5, 1.0)) is float
    assert type(f(0.7, 1, 1.0)) is float


def _numpy_calls(call) -> list[str]:
    """Names of the NumPy functions, Python or C, that call() runs."""
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("numpy"):
            seen.append(frame.f_code.co_name)
        elif event == "c_call":
            owner = getattr(arg, "__module__", None) or type(arg.__self__).__module__
            if owner.startswith("numpy"):
                seen.append(arg.__name__)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("name,f", CLOSED_FORMS, ids=[n for n, _ in CLOSED_FORMS])
def test_float_path_calls_no_numpy_function(name, f):
    for alpha in (0.0, 1e-9, 4.5e-9, 0.7):
        assert _numpy_calls(lambda: f(alpha, 0.01, 2.0)) == []
    # the probe does see the array path
    assert _numpy_calls(lambda: f(np.array([0.7]), 0.5, 2.0))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_lossless_limits_where_alpha_squared_overflows(m):
    # at eta = 1 the (1 - eta) exponent is 0, not -0.0 * inf = nan
    for alpha in (1e200, HUGE_ALPHAS):
        for got, want in ((phase_flip_prob(alpha, 1.0), 0.0),
                          (phase_flip_prob_m(alpha, 1.0, m), 0.0),
                          (concurrence_m(alpha, 1.0, m, "odd"), 1.0),
                          (concurrence_m(alpha, 1.0, m, "even"), 1.0)):
            assert np.array_equal(got, np.full(np.shape(alpha), want))


@pytest.mark.parametrize("sides", ["one", "two"])
def test_bound_limits(sides):
    # alpha = 0: the GHZ limit times 1 at cos(theta) = -1, 0 elsewhere; where
    # alpha^2 overflows, 1 at eta = 1 and 0 below
    assert damped_concurrence_bound(0.0, 0.3, math.pi, sides) == ghz_concurrence_limit(0.3, sides)
    assert damped_concurrence_bound(0.0, 0.3, 1.0, sides) == 0.0
    for alpha in (1e200, HUGE_ALPHAS):
        got = damped_concurrence_bound(alpha, np.array([[0.5], [1.0]]), 2.0, sides)
        assert np.array_equal(got, np.broadcast_to([[0.0], [1.0]], got.shape))
    # below alpha ~ 2.6e-9 the pure factor is 0, where mu^2 or mu^4 of the
    # GHZ elements may underflow to 0; at cos(theta) = -1 it raises
    for alpha in (1e-100, 1e-170, np.array([0.0, 1e-100, 1e-170])):
        assert not np.any(damped_concurrence_bound(alpha, 0.5, 1.0, sides))
        with pytest.raises(ValueError, match="rounds to 0 at alpha = 1e-"):
            damped_concurrence_bound(alpha, 0.5, math.pi, sides)


def test_value_independent_of_an_array_argument_takes_its_shape():
    # at alpha = 0 concurrence_pure is 0 whatever theta is
    got = concurrence_pure(0.0, THETAS)
    assert got.shape == THETAS.shape and not got.any()
    got = concurrence_m(0.0, ETAS, 3, "even")
    assert got.shape == ETAS.shape and not got.any()
    assert concurrence_pure(np.array(0.7), 1.0).shape == ()


@pytest.mark.parametrize("bad,message", [
    (-0.5, "alpha must be finite and nonnegative, got -0.5"),
    (math.nan, "alpha must be finite and nonnegative, got nan"),
    (math.inf, "alpha must be finite and nonnegative, got inf"),
])
def test_bad_alpha_element_is_named(bad, message):
    alphas = np.array([0.1, 0.2, bad, 0.4])
    for call in (
        lambda: concurrence_pure(alphas, 1.0),
        lambda: phase_flip_prob(alphas, 0.5),
        lambda: phase_flip_prob_m(alphas, 0.5, 4),
        lambda: concurrence_m(alphas, 0.5, 4, "odd"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan, math.inf])
def test_bad_eta_element_is_named(bad):
    etas = np.array([[0.3], [bad]])
    for call in (
        lambda: phase_flip_prob(0.5, etas),
        lambda: phase_flip_prob_m(np.array([0.5, 1.0]), etas, 2),
        lambda: concurrence_m(0.5, etas, 2, "even"),
    ):
        with pytest.raises(ValueError, match=f"got {bad!r}$"):
            call()
    # the concurrences need eta > 0
    with pytest.raises(ValueError, match=r"eta must lie in \(0, 1\], got 0.0"):
        concurrence_m(0.5, np.array([0.5, 0.0]), 2, "odd")


def test_bad_theta_element_is_named():
    with pytest.raises(ValueError, match="theta must be finite, got nan"):
        concurrence_pure(0.5, np.array([0.0, math.nan]))


def test_vanishing_pure_denominator_raises_with_its_alpha():
    # 1 - e^{-8 a^2} rounds to 0 at alpha = 1e-9; at theta = pi the state
    # vanishes there, while alpha = 0 takes the limit 0
    with pytest.raises(ValueError, match="rounds to 0 at alpha = 1e-09"):
        concurrence_pure(1e-9, math.pi)
    with pytest.raises(ValueError, match="rounds to 0 at alpha = 1e-09"):
        concurrence_pure(np.array([0.0, 0.5, 1e-9]), math.pi)
    with pytest.raises(ValueError, match="rounds to 0 at alpha = 1e-09"):
        concurrence_pure(1e-9, np.array([0.0, math.pi]))
    assert np.array_equal(concurrence_pure(np.array([0.0, 0.5]), math.pi),
                          [0.0, concurrence_pure(0.5, math.pi)])


def test_no_numpy_warning_escapes():
    # alpha^2 overflows to inf and (1 - eta) alpha^2 is 0 * inf at eta = 1:
    # the float path gives inf and nan quietly, and so must the array path
    alphas = np.array([0.0, 1.0, 1e160, 1e300])
    etas = np.array([[0.5], [1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, f in CLOSED_FORMS:
            want = _per_element(f, alphas, etas, math.pi / 3)
            got = np.broadcast_to(f(alphas, etas, math.pi / 3), want.shape)
            assert np.array_equal(got, want, equal_nan=True), name


# ---------------------------------------------------------------- write_csv


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return repr(float(value))


def _reference_write_csv(path, header, rows) -> None:
    """The per-value writer that `write_csv` replaced."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def test_write_csv_matches_the_reference_writer(tmp_path):
    header = ["a", "b", "c", "d", "e"]
    rows = [
        [0.1, np.float64(0.1), 3, "none", -0.0],
        [1e-05, np.float64(1e-05), 0, "0.25", 1e16],
        [np.float64(-0.0), 1e16, np.float64(1e16), True, np.int64(7)],
        [math.pi, 2.0 / 3.0, -1, np.float64(5e-324), 1.7976931348623157e308],
        [],
    ]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), header, rows)
    _reference_write_csv(str(want), header, rows)
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_matches_the_reference_on_a_sweep(tmp_path):
    header, rows = run_sweep(SweepConfig(stop=1.5, steps=61, epsilon=0.5))
    assert any(isinstance(v, str) for v in rows[0])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), header, rows)
    _reference_write_csv(str(want), header, rows)
    assert got.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------- run_sweep


def _bound(a, e, t, p):
    """fig 3's bound as the product of the public one-point calls."""
    if a == 0.0:
        return ghz_concurrence_limit(e, p.sides) * (1.0 if math.cos(t) == -1.0 else 0.0)
    ghz = xstate_concurrence(ghz_damped_elements(a, e, p.sides, method="closed"))
    return ghz * concurrence_pure(a, t)


PER_POINT = {
    "pure_concurrence": lambda a, e, t, p: concurrence_pure(a, t),
    "phase_flip_prob": lambda a, e, t, p: phase_flip_prob(a, e),
    "phase_flip_prob_m": lambda a, e, t, p: phase_flip_prob_m(a, e, p.m),
    "concurrence_odd": lambda a, e, t, p: concurrence_m(a, e, p.m, "odd"),
    "concurrence_even": lambda a, e, t, p: concurrence_m(a, e, p.m, "even"),
    "ghz_concurrence": lambda a, e, t, p: xstate_concurrence(ghz_damped_elements(a, e, p.sides)),
    "damped_concurrence": lambda a, e, t, p: (
        0.0 if a == 0.0 else xstate_concurrence(damped_state_elements(a, e, t, p.sides))),
    "concurrence_bound": _bound,
}


@pytest.mark.parametrize("axis,start,stop", [
    ("alpha", 0.0, 3.0), ("eta", 0.05, 1.0), ("theta", 0.0, 2.0 * math.pi)
])
@pytest.mark.parametrize("block", [sweep.BLOCK, 5])
def test_run_sweep_closed_forms_equal_per_point_calls(monkeypatch, block, axis, start, stop):
    # every quantity, the exact ones too; 37 points in one block, or in
    # seven blocks of 5 and one of 2
    monkeypatch.setattr(sweep, "BLOCK", block)
    for sides in ("one", "two"):
        fixed = ChannelParams(alpha=0.8, eta=0.6, theta=2.0, m=4, sides=sides)
        config = SweepConfig(axis_name=axis, start=start, stop=stop, steps=37,
                             quantities=tuple(PER_POINT), fixed=fixed)
        header, rows = run_sweep(config)
        assert header[:1 + len(PER_POINT)] == [axis, *PER_POINT]
        assert len(rows) == 37
        for row in rows:
            point = {"alpha": fixed.alpha, "eta": fixed.eta, "theta": fixed.theta}
            point[axis] = row[0]
            for q, value in zip(PER_POINT, row[1:]):
                # plain floats, as build_figure promises, equal to the float call
                assert type(value) is float
                want = PER_POINT[q](point["alpha"], point["eta"], point["theta"], fixed)
                assert value == want, (sides, q, row[0])
        if axis == "eta":
            # at eta = 1 the X coherences are float noise, not an exact 0
            direct = 1 + list(PER_POINT).index("damped_concurrence")
            assert rows[-1][0] == 1.0 and rows[-1][direct] > 0.0


def test_identity_m3_draws_match_the_interleaved_scalar_draws():
    # check_phase_flip_identity_m3 draws its pairs as one (10 000, 2) array;
    # its report bytes rest on this equality with the scalar draw order
    for seed in (0, 7010, 42010):
        scalar = np.random.default_rng(seed)
        pairs = [(scalar.uniform(0.05, 4.0), scalar.uniform(0.01, 1.0)) for _ in range(10_000)]
        batched = np.random.default_rng(seed)
        drawn = batched.uniform((0.05, 0.01), (4.0, 1.0), size=(10_000, 2))
        assert np.array_equal(drawn, np.array(pairs))
        assert scalar.random() == batched.random()
