"""The closed forms' float-or-array contract, the CSV writer against the
per-value reference writer, and every quantity of `run_sweep` on every axis
against per-point float calls."""

import math
import warnings

import numpy as np
import pytest

from catdamp.figures import write_csv
from catdamp.formulas import (
    ChannelParams,
    _ghz_elements_closed,
    _x_parts,
    concurrence_m,
    concurrence_pure,
    damped_concurrence_bound,
    damped_state_projection,
    ghz_concurrence_limit,
    ghz_damped_elements,
    mode_ladder,
    phase_flip_prob,
    phase_flip_prob_m,
)
from catdamp.logical import _x_matrix, xstate_concurrence
from catdamp import sweep
from catdamp.sweep import SweepConfig, Table, run_sweep

# alpha = 0, the points where 1 - e^{-2^m a^2} formed by subtraction would
# round to 0 (1e-9) and where the odd denominator would (4.5e-9 at
# eta = 0.01, m = 2), ordinary values, and amplitudes where every
# exponential underflows to 0
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
        yield (f"ghz_concurrence_limit_{sides}",
               lambda a, e, t, sides=sides: ghz_concurrence_limit(e, sides))


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


def test_m_array_equals_float_calls_bit_for_bit():
    ms = np.array([1, 2, 3, 5, 8, 1024])
    got = phase_flip_prob_m(ALPHAS[:, None], 0.7, ms)
    want = [[phase_flip_prob_m(float(a), 0.7, m) for m in ms.tolist()] for a in ALPHAS]
    assert np.array_equal(got, np.array(want))


@pytest.mark.parametrize("ms,message", [
    (np.array([2, 1025]), r"^m must lie in \[1, 1024\], got 1025$"),
    (np.array([[3], [0]]), r"^m must lie in \[1, 1024\], got 0$"),
    (np.array([2.0, 3.0]), "^m must be an integer"),
    (np.array([True, False]), "^m must be an integer"),
])
def test_bad_m_element_is_named(ms, message):
    with pytest.raises(ValueError, match=message):
        phase_flip_prob_m(0.5, 0.5, ms)


def test_one_m_where_the_formula_takes_no_arrays():
    for call in (lambda: concurrence_m(0.5, 0.5, np.array([2, 3]), "odd"),
                 lambda: mode_ladder(0.5, np.array([2, 3])),
                 lambda: ChannelParams(m=np.array([2, 3]))):
        with pytest.raises(ValueError, match="^m must be an integer"):
            call()


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
    # inf and nan arise quietly, in float and array calls alike
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


def _rows(table) -> list[list]:
    """The table's rows, each str column repeated on every row."""
    return [[c if isinstance(c, str) else c[i] for c in table.columns]
            for i in range(len(table))]


def _assert_matches_reference(tmp_path, header, table) -> None:
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(str(got), header, table)
    _reference_write_csv(str(want), header, _rows(table))
    assert got.read_bytes() == want.read_bytes()


def test_write_csv_matches_the_reference_writer(tmp_path):
    header = ["a", "b", "c", "d", "e", "f"]
    table = Table((
        np.array([0.1, 1e-05, -0.0, math.pi, 2.0 / 3.0]),
        np.array([1e16, 5e-324, 1.7976931348623157e308, -1.0, 7.0]),
        "none",
        np.array([math.inf, -math.inf, math.nan, 0.0, -1e-300]),
        "0.25",
        np.array([3.0, 0.0, 1e22, 1e-7, 123456789.0]),
    ))
    assert len(table) == 5
    _assert_matches_reference(tmp_path, header, table)


def test_write_csv_matches_the_reference_on_a_sweep(tmp_path):
    header, table = run_sweep(SweepConfig(stop=1.5, steps=61, epsilon=0.5))
    assert any(isinstance(c, str) and c != "none" for c in table.columns)
    _assert_matches_reference(tmp_path, header, table)


@pytest.mark.parametrize("steps", [1, sweep.BLOCK - 1, sweep.BLOCK, sweep.BLOCK + 1])
def test_write_csv_at_the_block_edges(tmp_path, steps):
    # the writer formats blocks of BLOCK rows; one point, and one row short
    # of, at and past one block
    header, table = run_sweep(SweepConfig(stop=3.0, steps=steps))
    assert len(table) == steps
    assert all(len(c) == steps for c in table.columns if not isinstance(c, str))
    _assert_matches_reference(tmp_path, header, table)
    assert len((tmp_path / "got.csv").read_text().splitlines()) == steps + 1


def test_write_csv_with_a_none_star_column(tmp_path):
    # neither concurrence drops below epsilon on [0, 0.5]
    header, table = run_sweep(SweepConfig(stop=0.5, steps=51, epsilon=1e-3))
    assert header[-2:] == ["alpha_star_concurrence_odd", "alpha_star_concurrence_even"]
    assert table.columns[-2:] == ("none", "none")
    _assert_matches_reference(tmp_path, header, table)


# ---------------------------------------------------------------- run_sweep


def _bound(a, e, t, p):
    """fig 3's bound as the product of one-point calls: the X concurrence
    of the GHZ closed forms and `concurrence_pure`."""
    if a == 0.0:
        return ghz_concurrence_limit(e, p.sides) * (1.0 if math.cos(t) == -1.0 else 0.0)
    ghz = xstate_concurrence(_x_matrix(*_ghz_elements_closed(a, e, p.sides)))
    return ghz * concurrence_pure(a, t)


PER_POINT = {
    "pure_concurrence": lambda a, e, t, p: concurrence_pure(a, t),
    "phase_flip_prob": lambda a, e, t, p: phase_flip_prob(a, e),
    "phase_flip_prob_m": lambda a, e, t, p: phase_flip_prob_m(a, e, p.m),
    "concurrence_odd": lambda a, e, t, p: concurrence_m(a, e, p.m, "odd"),
    "concurrence_even": lambda a, e, t, p: concurrence_m(a, e, p.m, "even"),
    "ghz_concurrence": lambda a, e, t, p: xstate_concurrence(ghz_damped_elements(a, e, p.sides)),
    "damped_concurrence": lambda a, e, t, p: 0.0 if a == 0.0 else xstate_concurrence(
        _x_parts(damped_state_projection(a, e, t, p.sides)[0])),
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
        header, table = run_sweep(config)
        assert header[:1 + len(PER_POINT)] == [axis, *PER_POINT]
        assert len(table) == 37
        grid = table.columns[0].tolist()
        for q, column in zip(PER_POINT, table.columns[1:]):
            # a float64 array, each entry equal to the float call
            assert column.dtype == np.float64 and column.shape == (37,)
            for x, value in zip(grid, column.tolist()):
                point = {"alpha": fixed.alpha, "eta": fixed.eta, "theta": fixed.theta}
                point[axis] = x
                want = PER_POINT[q](point["alpha"], point["eta"], point["theta"], fixed)
                assert value == want, (sides, q, x)
        if axis == "eta":
            # at eta = 1 the X coherences are float noise, not an exact 0
            direct = 1 + list(PER_POINT).index("damped_concurrence")
            assert grid[-1] == 1.0 and table.columns[direct][-1] > 0.0

