import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq
from scipy.special import k0, k1

from conftest import CACHE_DIR, scipy_splines
from netforge.interaction import (QUAD_EXTENT, QUAD_N, S_CLOSED, S_MAX,
                                  S_MIN, InteractionTable, _Cubic, _gtsv,
                                  _interaction_kernel, _not_a_knot,
                                  build_table, f, fprime, table_cache_path)

# frozen reference values for the cubic nonlinearity
U0_AT_ZERO = 2.206200864681313
TAIL_A = 2.817656184411731
TAIL_CONSTANT = 1.256237638340054
C_STAR = 0.1709270735284792


def test_ground_state_height(table):
    assert table.beta == pytest.approx(U0_AT_ZERO, abs=1e-11)
    assert table.u0_at(0.0) == pytest.approx(U0_AT_ZERO, abs=1e-9)


def test_profile_monotone_positive(table):
    assert np.all(table.u0 > 0)
    assert np.all(np.diff(table.u0) < 0)
    assert np.all(table.du0[1:] < 0)


def test_ode_residual_on_grid(table):
    # 6th-order finite differences on the stored samples (stride 4 ~ 0.02)
    r, u = table.r, table.u0
    h = r[1] - r[0]
    st = 4
    i = np.arange(3 * st, len(r) - 3 * st, st)
    d2 = (2 * u[i - 3 * st] - 27 * u[i - 2 * st] + 270 * u[i - st]
          - 490 * u[i] + 270 * u[i + st] - 27 * u[i + 2 * st]
          + 2 * u[i + 3 * st]) / (180 * (st * h) ** 2)
    d1 = (-u[i - 3 * st] + 9 * u[i - 2 * st] - 45 * u[i - st]
          + 45 * u[i + st] - 9 * u[i + 2 * st] + u[i + 3 * st]) / (60 * st * h)
    res = np.abs(d2 + d1 / r[i] - u[i] + u[i] ** 3)
    sel = (r[i] >= 1.5) & (r[i] <= 11.5)
    assert res[sel].max() < 1e-9
    # looser everywhere away from the axis and the tail switch
    sel2 = (r[i] >= 0.5) & (r[i] <= 11.5)
    assert res[sel2].max() < 1e-8


def test_du0_consistent_with_u0(table):
    # keep clear of the small spline wiggle around the tail switch
    r = np.linspace(0.5, 20.0, 391) + 0.013
    r = r[np.abs(r - 12.0) > 0.2]
    h = 1e-5
    fd = (table.u0_at(r + h) - table.u0_at(r - h)) / (2 * h)
    assert np.max(np.abs(fd - table.du0_at(r))) < 2e-8


def test_bessel_tail(table):
    assert table.A == pytest.approx(TAIL_A, rel=1e-8)
    r = np.linspace(13.0, 30.0, 35)
    ratio = table.u0_at(r) / (table.A * k0(r))
    assert np.max(np.abs(ratio - 1.0)) < 1e-8


def _profile_where(table, r, spline, tail):
    """Reference: both branches evaluated, then picked by np.where."""
    r = np.asarray(r, dtype=float)
    return np.where(r <= table.r[-1], spline(np.minimum(r, table.r[-1])),
                    tail(np.maximum(r, 1.0)))


@pytest.mark.parametrize("r", [
    np.linspace(0.0, 50.0, 1001),                  # inside, up to r[-1]
    np.linspace(30.0, 70.0, 999).reshape(37, 27),  # straddling r[-1]
    np.array([49.9, np.nan, 50.0, 50.0 + 1e-12]),
    np.linspace(50.5, 90.0, 77),                   # beyond r[-1]
    np.array([]),
], ids=["inside", "straddling", "edge-nan", "beyond", "empty"])
def test_profile_matches_both_branch_formula(table, r):
    assert table.r[-1] == 50.0
    u = table.u0_at(r)
    du = table.du0_at(r)
    ref = scipy_splines(table)
    ref_u = _profile_where(table, r, ref.u, lambda x: table.A * k0(x))
    ref_du = _profile_where(table, r, ref.du, lambda x: -table.A * k1(x))
    assert u.shape == du.shape == r.shape
    assert np.array_equal(u, ref_u, equal_nan=True)
    assert np.array_equal(du, ref_du, equal_nan=True)


@pytest.mark.parametrize("r", [0.0, 7.5, 50.0, 62.0])
def test_profile_of_scalar_is_float(table, r):
    ref = scipy_splines(table)
    for got, spline, tail in (
            (table.u0_at(r), ref.u, lambda x: table.A * k0(x)),
            (table.du0_at(r), ref.du, lambda x: -table.A * k1(x))):
        assert type(got) is float
        assert got == float(_profile_where(table, r, spline, tail))


# knot indices of the profile grid r = i * DR, i = 0..10000
KNOTS = st.lists(st.integers(0, 10000), max_size=20)


@settings(max_examples=80, deadline=None)
@given(radii=st.lists(st.floats(0.0, 50.0), max_size=40), knots=KNOTS)
def test_profile_on_grid_is_scipys_spline(table, radii, knots):
    # the interval comes from r / DR, not a search: knots and the floats
    # on either side of them are where a rounded quotient would pick the
    # wrong one
    rk = table.r[knots]
    r = np.concatenate([radii, rk, np.nextafter(rk, -1.0),
                        np.nextafter(rk, np.inf), [0.0, table.r[-1]]])
    r = r[(r >= 0.0) & (r <= table.r[-1])]
    ref = scipy_splines(table)
    assert np.array_equal(table.u0_at(r), ref.u(r))
    assert np.array_equal(table.du0_at(r), ref.du(r))


def test_profile_on_every_knot_is_scipys_spline(table):
    rk = table.r
    r = np.concatenate([rk, np.nextafter(rk[1:], -1.0),
                        np.nextafter(rk[:-1], np.inf)])
    ref = scipy_splines(table)
    assert np.array_equal(table.u0_at(r), ref.u(r))
    assert np.array_equal(table.du0_at(r), ref.du(r))


def _knots(n):
    """n strictly increasing knots with gaps in [1e-3, 10], from anywhere
    in [-100, 100]."""
    return st.tuples(st.floats(-100.0, 100.0),
                     st.lists(st.floats(1e-3, 10.0), min_size=n - 1,
                              max_size=n - 1)).map(
        lambda t: t[0] + np.concatenate([[0.0], np.cumsum(t[1])]))


def _around(x, extra):
    """Query points: `extra`, the knots x and the floats on either side of
    them, points beyond both ends, and NaN."""
    return np.concatenate([extra, x, np.nextafter(x, -np.inf),
                           np.nextafter(x, np.inf),
                           [x[0] - 7.5, x[-1] + 7.5, np.nan]])


def _same(got, ref):
    return got.shape == ref.shape and np.array_equal(got, ref,
                                                     equal_nan=True)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(4, 40))
def test_not_a_knot_is_scipys_cubic_spline(data, n):
    x = data.draw(_knots(n))
    y = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n,
                                    max_size=n)))
    got, ref = _Cubic(x, y), CubicSpline(x, y)
    assert np.array_equal(_not_a_knot(x, y), ref.c)
    assert np.array_equal(got.c, ref.c)
    xq = _around(x, data.draw(st.lists(st.floats(x[0] - 20.0, x[-1] + 20.0),
                                       max_size=30)))
    value, slope = got.value_and_slope(xq)
    assert _same(got(xq), ref(xq))
    assert _same(value, ref(xq))
    assert _same(slope, ref.derivative()(xq))


def _knots_and_values():
    return st.integers(4, 40).flatmap(_knots).flatmap(
        lambda x: st.tuples(st.just(x), st.lists(
            st.floats(-1e3, 1e3), min_size=x.size,
            max_size=x.size).map(np.array)))


@settings(max_examples=100, deadline=None)
@given(xy=_knots_and_values())
# [0, 1, 2, 5] with values [0, 0, 0, 1] swaps rows at the second step,
# where a solve without pivoting rounds differently
@example(xy=(np.array([0.0, 1.0, 2.0, 5.0]), np.array([0.0, 0.0, 0.0, 1.0])))
# the two-column fits of these differ from scipy's where the squares of
# the end gaps are taken with pow in place of x * x
@example(xy=(np.array([0.0, 1.0, 3.0, float.fromhex("0x1.1e552efb0c00cp+3")]),
             np.array([0.0, 0.0, 1.0, 0.0])))
@example(xy=(np.array([0.0, 5.0, 15.0, 25.0, 35.0, 45.0, 54.72837880376988,
                       58.50783448002932, 64.06285428029335]),
             np.eye(9)[7]))
def test_not_a_knot_pivots_as_scipy(xy):
    x, y = xy
    assert np.array_equal(_not_a_knot(x, y), CubicSpline(x, y).c)
    # two columns at once, as the table fits u0 and u0'
    yy = np.column_stack((y, y[::-1]))
    assert np.array_equal(_not_a_knot(x, yy), CubicSpline(x, yy).c)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1),
       ties=st.booleans())
def test_tridiagonal_solve_is_solve_banded(n, seed, ties):
    # random bands pivot at about half the steps; integer bands tie
    rng = np.random.default_rng(seed)
    ab = (rng.integers(-3, 4, (3, n)).astype(float) if ties
          else rng.normal(size=(3, n)))
    b = rng.normal(size=(n, 2))
    try:
        want = solve_banded((1, 1), ab, b)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            _gtsv(ab[2, :-1], ab[1], ab[0, 1:], b)
        return
    assert np.array_equal(_gtsv(ab[2, :-1], ab[1], ab[0, 1:], b), want)


def test_table_splines_are_scipys(table):
    ref = scipy_splines(table)
    # the profile splines keep one row (c3, c2, c1, c0) per interval
    u_rows, du_rows = table._profile_c
    assert np.array_equal(u_rows, ref.u.c[::-1].T)
    assert np.array_equal(du_rows, ref.du.c[::-1].T)
    for got, want in ((table._ls, ref.ls), (table._ls_inv, ref.inv)):
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.c, want.c)


@settings(max_examples=60, deadline=None)
@given(lengths=st.lists(st.floats(-20.0, 150.0), max_size=40),
       levels=st.lists(st.floats(-130.0, 10.0), max_size=40))
def test_upsilon_and_its_inverse_are_scipys(table, lengths, levels):
    ref = scipy_splines(table)
    s = _around(table.s, lengths)
    ls, lsd = ref.ls(s), ref.ls.derivative()(s)
    assert _same(table._ls(s), ls)
    assert _same(table.upsilon(s), np.exp(ls))
    assert _same(table.upsilon_prime(s), np.exp(ls) * lsd)
    y = _around(table._ls_inv.x, levels)
    assert _same(table._ls_inv(y), ref.inv(y))
    # scalars as scipy returns them: numpy floats for Upsilon and Upsilon'
    for t in (S_MIN, 10.0, S_MAX, 150.0):
        assert type(table.upsilon(t)) is np.float64
        assert table.upsilon(t) == np.exp(ref.ls(t))
        assert table.upsilon_prime(t) == \
            np.exp(ref.ls(t)) * ref.ls.derivative()(t)


@pytest.mark.parametrize("name", ["u0", "s"])
def test_load_rejects_a_corrupted_table(table, tmp_path, name):
    # a NaN in the profile, or lengths that stop increasing
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as d:
        arrays = dict(d)
    bad = arrays[name].copy()
    if name == "u0":
        bad[100] = np.nan
    else:
        bad[[10, 11]] = bad[[11, 10]]
    np.savez(path, **{**arrays, name: bad})
    with pytest.raises(ValueError, match="spline knots"):
        InteractionTable.load(path)


def _scipy_modules_after(code, env, cwd=None):
    """The scipy modules loaded once `code` has run in a fresh
    interpreter (the last line it prints)."""
    code += ("\nimport sys\nprint(' '.join(m for m in sorted(sys.modules) "
             "if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()[-1].split()


def test_cli_import_and_warm_load_skip_the_heavy_scipy_modules(cache_env):
    # the CLI's set-up, in a fresh interpreter on the warm table cache
    assert os.path.exists(table_cache_path(CACHE_DIR))
    assert _scipy_modules_after("import netforge.cli, netforge.interaction"
                                " as i\ni.load_or_build()", cache_env) == []


def test_configure_and_assemble_import_no_scipy(cache_env, tmp_path):
    # windows at ell 10 stay within R_MAX, so no Bessel tail is needed
    code = ("from netforge import cli\n"
            "assert cli.main(['configure', '--catalog', 'example_5_1', "
            "'--k', '7', '--kappa', '64', '--ell', '10', '--out', "
            "'cloud.csv']) == 0\n"
            "assert cli.main(['assemble', 'cloud.csv', '--ell', '10', "
            "'--windows', 'anchors', '--out', 'fields.json']) == 0")
    assert _scipy_modules_after(code, cache_env, tmp_path) == []
    assert (tmp_path / "fields.json").exists()


def test_table_needs_the_uniform_grid(table):
    with pytest.raises(ValueError, match="i \\* DR"):
        InteractionTable(table.beta, table.r * (1 + 1e-15),
                         table.u0, table.du0, table.A, table.s,
                         table.ln_ups)


def test_tail_constant_and_variation(table):
    assert table.tail_constant() == pytest.approx(TAIL_CONSTANT, abs=1e-9)
    sel = table.r >= table.r[-1] * 0.75
    tv = (np.log(table.u0[sel]) + table.r[sel]
          + 0.5 * np.log(table.r[sel]))
    assert tv.max() - tv.min() < 1e-3


def test_tail_log_slope(table):
    h = 0.05
    slope = (math.log(table.u0_at(15.0 + h))
             - math.log(table.u0_at(15.0 - h))) / (2 * h)
    assert abs(slope - (-1.0 - 1.0 / 30.0)) < 1e-3


def test_c_star(table):
    assert table.c_star() == pytest.approx(C_STAR, rel=1e-9)


def test_upsilon_positive_decreasing(table):
    s = np.arange(2.0, 110.0, 0.5)
    v = table.upsilon(s)
    assert np.all(v > 0)
    assert np.all(np.diff(v) < 0)


def upsilon_direct(table, s, e=(1.0, 0.0), n=QUAD_N, extent=QUAD_EXTENT):
    """Direct quadrature of -integral u0(|z - s e|) G(z) dz, for isotropy
    and grid-refinement checks."""
    X, Y, GW = _interaction_kernel(table, e, n, extent)
    shifted = table.u0_at(np.hypot(X - s * e[0], Y - s * e[1]))
    return -float(np.sum(shifted * GW))


def test_upsilon_isotropy(table):
    v0 = upsilon_direct(table, 10.0, (1.0, 0.0))
    v1 = upsilon_direct(table, 10.0, (0.0, 1.0))
    assert abs(v1 - v0) < 1e-8 * v0
    d = math.sqrt(0.5)
    v2 = upsilon_direct(table, 10.0, (d, d))
    assert abs(v2 - v0) < 1e-5 * v0


def test_upsilon_spline_matches_direct(table):
    for s in (7.25, 10.0, 14.75):
        direct = upsilon_direct(table, s)
        assert float(table.upsilon(s)) == pytest.approx(direct, rel=1e-5)


@pytest.mark.parametrize("s", [2.0, 10.0, 24.5, 25.0, 25.5, 40.0, 70.0,
                               110.0])
def test_table_matches_full_grid_quadrature(table, s):
    # the support-limited quadrature below S_CLOSED and the closed form
    # from S_CLOSED on reproduce the quadrature over the whole grid
    i = int(np.flatnonzero(table.s == s)[0])
    assert abs(table.ln_ups[i] - math.log(upsilon_direct(table, s))) <= 1e-11


def test_closed_form_beyond_threshold(table):
    far = table.s >= S_CLOSED
    assert far.sum() == 171
    offset = table.ln_ups[far] - np.log(k1(table.s[far]))
    assert np.ptp(offset) <= 1e-13


def test_quadrature_richardson(table):
    vals = [upsilon_direct(table, 10.0, n=n) for n in (91, 181, 361)]
    ratio = (vals[1] - vals[0]) / (vals[2] - vals[1])
    assert abs(ratio) >= 3.5


def test_alpha_ell_inverse_property(table):
    for a, ell in ((2.0, 10.0), (0.5, 12.0), (-1.5, 9.0), (1.0, 10.0)):
        al = table.alpha_ell(a, ell)
        lhs = float(table.upsilon(ell * (1.0 - al)))
        assert lhs == pytest.approx(abs(a) * float(table.upsilon(ell)),
                                    rel=1e-12)
    assert table.alpha_ell(1.0, 10.0) == 0.0
    with pytest.raises(ValueError):
        table.alpha_ell(1e30, 10.0)


def test_dalpha_da_matches_fd(table):
    a, ell = 1.3, 10.0
    fd = (table.alpha_ell(a + 1e-6, ell)
          - table.alpha_ell(a - 1e-6, ell)) / 2e-6
    assert table.dalpha_da(a, ell) == pytest.approx(fd, rel=1e-6)


def _alpha_brentq(table, a, ell):
    """Reference alpha_ell: a scalar root of ln Upsilon(t) = ln|a| +
    ln Upsilon(ell) bracketed over the whole table."""
    target = math.log(abs(a)) + math.log(float(table.upsilon(ell)))
    t = brentq(lambda x: math.log(float(table.upsilon(x))) - target,
               table.s[0], table.s[-1], xtol=1e-13, rtol=8.9e-16)
    return 1.0 - t / ell


# root lengths t kept a hair inside the table, so |a| rounds into range
LENGTHS = st.floats(S_MIN + 1e-6, S_MAX - 1e-6)


@settings(max_examples=60, deadline=None)
@given(ell=st.floats(S_MIN, S_MAX),
       roots=st.lists(st.tuples(LENGTHS, st.sampled_from((-1.0, 1.0))),
                      min_size=1, max_size=12))
def test_alpha_ell_array_matches_brentq(table, ell, roots):
    a = np.array([sign * float(table.upsilon(t) / table.upsilon(ell))
                  for t, sign in roots])
    got = table.alpha_ell(a, ell)
    assert isinstance(got, np.ndarray) and got.shape == a.shape
    ref = np.array([_alpha_brentq(table, ak, ell) for ak in a])
    assert np.max(np.abs(got - ref)) < 1e-13
    assert table.alpha_ell(a.reshape(-1, 1), ell).shape == (len(a), 1)
    scalar = table.alpha_ell(float(a[0]), ell)
    assert isinstance(scalar, float) and scalar == got[0]
    assert table.alpha_ell(1.0, ell) == 0.0
    assert table.alpha_ell(-1.0, ell) == 0.0


def test_alpha_ell_of_unit_weight_is_exactly_zero(table):
    # ell may be an array too; 20k lengths catch a root off by one ulp, and
    # the table's ends catch a range test against the stored knot values
    ells = np.append(np.random.default_rng(1).uniform(S_MIN, S_MAX, 20000),
                     [S_MIN, S_MAX])
    assert np.all(table.alpha_ell(np.ones_like(ells), ells) == 0.0)
    assert np.all(table.alpha_ell(-np.ones_like(ells), ells) == 0.0)


@pytest.mark.parametrize("bad", [np.nan, 1e30, 1e-60, 0.0])
def test_alpha_ell_rejects_any_bad_element(table, bad):
    with pytest.raises(ValueError):
        table.alpha_ell(np.array([1.0, bad, 0.5]), 10.0)
    with pytest.raises(ValueError):
        table.alpha_ell(bad, 10.0)


def test_dalpha_da_array_matches_scalar(table):
    a = np.array([[0.4, -1.3], [2.0, 1.0]])
    got = table.dalpha_da(a, 10.0)
    assert got.shape == a.shape
    for idx in np.ndindex(a.shape):
        assert got[idx] == table.dalpha_da(float(a[idx]), 10.0)
    assert isinstance(table.dalpha_da(1.3, 10.0), float)


def test_save_load_roundtrip(table, tmp_path):
    path = tmp_path / "table.npz"
    table.save(path)
    back = InteractionTable.load(path)
    assert back.beta == table.beta
    assert np.array_equal(back.u0, table.u0)
    assert np.array_equal(back.ln_ups, table.ln_ups)


def test_cold_build_equals_committed_table():
    # the table checked in under .cache/ is exactly what a build computes
    committed = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        ".cache", os.path.basename(table_cache_path(".")))
    built = build_table()
    with np.load(committed) as d:
        for name in ("r", "u0", "du0", "s", "ln_ups"):
            assert np.array_equal(getattr(built, name), d[name]), name
        assert built.beta == d["beta"]
        assert built.A == d["A"]


def test_cache_path_is_deterministic(tmp_path):
    p1 = table_cache_path(str(tmp_path))
    p2 = table_cache_path(str(tmp_path))
    assert p1 == p2
    assert os.path.basename(p1) == \
        "interaction_p3_c0_q5_0f238fa687b1.npz"


def test_nonlinearity_fprime():
    u = np.linspace(-2.0, 2.0, 17)
    h = 1e-6
    fd = (f(u + h) - f(u - h)) / (2 * h)
    assert np.max(np.abs(fd - fprime(u))) < 1e-6
    assert np.allclose(f(u), u ** 3, rtol=1e-15, atol=0.0)


def test_load_rejects_another_nonlinearity(table, tmp_path):
    path = tmp_path / "table.npz"
    table.save(path)
    with np.load(path) as d:
        assert (float(d["p"]), float(d["c"]), float(d["q"])) == \
            (3.0, 0.0, 5.0)
        arrays = dict(d)
    np.savez(path, **{**arrays, "c": 0.2})
    with pytest.raises(ValueError, match="cubic"):
        InteractionTable.load(path)
