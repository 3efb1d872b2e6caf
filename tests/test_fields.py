import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import k0, k1

from conftest import scipy_splines
from netforge import cli, fields
from netforge.assembly import (Configuration, diagnostic_chain_cloud,
                               generate_cloud, solve_master)
from netforge.builders import example_5_1, n_c_assembly
from netforge.fields import (DELTA_DEFAULT, REACH, FieldWindow,
                             _window_points,
                             cutoff_profile, delta_limit,
                             predicted_force, project_force, residual,
                             residual_norms)
from netforge.interaction import f


def two_point_config(ell, signs=(1, 1)):
    return Configuration([0j, complex(ell, 0)], signs, ["a", "b"], ell)


def force_at(config, z, table):
    """project_force on the assembled window (half width ell/4 + 2) at z."""
    window = FieldWindow(z, config.ell / 4.0 + 2.0)
    return project_force(config, residual(config, window, table), table)


def test_window_geometry():
    w = FieldWindow(1 + 2j, 1.5, 0.1)
    x, y = w.axes()
    assert len(x) == 31
    assert x[0] == pytest.approx(-0.5)
    assert y[-1] == pytest.approx(3.5)
    X, Y = w.mesh()
    assert X.shape == (31, 31)
    with pytest.raises(ValueError):
        FieldWindow(0j, 1.0, 0.2)


def test_cutoff_profile():
    assert cutoff_profile(-2.0) == 1.0
    assert cutoff_profile(2.0) == 0.0
    assert cutoff_profile(0.0) == pytest.approx(0.5)
    s = np.linspace(-1.5, 1.5, 61)
    v = cutoff_profile(s)
    assert np.all(np.diff(v) <= 0)


def test_single_point_residual_is_zero(table):
    cfg = Configuration([0j], [1], ["a"], 10.0)
    w = residual(cfg, FieldWindow(0j, 3.0), table)
    assert np.max(np.abs(w.E)) == 0.0


@settings(max_examples=40, deadline=None)
@given(points=st.lists(st.tuples(st.floats(-15.0, 15.0),
                                 st.floats(-15.0, 15.0),
                                 st.sampled_from([1, -1])),
                       min_size=1, max_size=6),
       on_point=st.booleans(), delta=st.floats(-1.0, 0.0))
def test_negating_every_sign_negates_the_field(table, points, on_point,
                                               delta):
    zs = [complex(x, y) for x, y, _ in points]
    signs = [s for _, _, s in points]
    # on a point, its bump takes the window's template
    window = FieldWindow(zs[0] if on_point else 0.5 + 0.25j, 4.5,
                         delta=delta)
    labels = [f"p{i}" for i in range(len(zs))]
    field = residual(Configuration(zs, signs, labels, 10.0), window, table)
    flipped = residual(Configuration(zs, [-s for s in signs], labels, 10.0),
                       window, table)
    assert np.array_equal(flipped.u, -field.u)
    assert np.array_equal(flipped.E, -field.E)
    assert np.array_equal(flipped.weight, field.weight)


def test_superposition_field(table):
    cfg = two_point_config(8.0)
    w = residual(cfg, FieldWindow(0j, 2.0), table)
    # center value is u0(0) plus the neighbor tail
    center = w.u[w.u.shape[0] // 2, w.u.shape[1] // 2]
    expect = table.u0_at(0.0) + table.u0_at(8.0)
    assert center == pytest.approx(expect, rel=1e-12)


def test_residual_decay_with_distance(table):
    sups = []
    for ell in (8.0, 10.0, 12.0):
        cfg = two_point_config(ell)
        w = residual(cfg, FieldWindow(0j, 3.0, 0.05), table)
        sups.append(float(np.max(np.abs(w.E))))
    assert sups[0] > sups[1] > sups[2]
    scaled = [s * math.exp(ell) * math.sqrt(ell)
              for s, ell in zip(sups, (8.0, 10.0, 12.0))]
    assert max(scaled) / min(scaled) < 1.25


def test_residual_norms_weighting(table):
    cfg = two_point_config(10.0)
    sup, weighted = residual_norms(residual(cfg, FieldWindow(0j, 3.0),
                                            table))
    assert 0 < sup
    assert weighted > sup  # the weight is below 1 near the point


def test_projection_matches_upsilon(table):
    for ell in (8.0, 10.0, 12.0):
        cfg = two_point_config(ell)
        g = force_at(cfg, 0j, table)
        ups = float(table.upsilon(ell))
        assert abs(g) == pytest.approx(ups, rel=0.01)
        # attraction: the force at the left bump points right
        assert g.real > 0
        assert abs(g.imag) < 1e-8 * ups


def test_projection_sign_for_opposite_bumps(table):
    cfg = two_point_config(10.0, signs=(1, -1))
    g = force_at(cfg, 0j, table)
    # opposite signs repel
    assert g.real < 0
    assert abs(abs(g) - float(table.upsilon(10.0))) < 0.01 * abs(g)


def test_projection_window_too_small(table):
    cfg = two_point_config(10.0)
    small = residual(cfg, FieldWindow(0j, 2.0), table)
    with pytest.raises(ValueError):
        project_force(cfg, small, table)


def test_midchain_projection_small(table):
    cfg = diagnostic_chain_cloud(table, 10.0, 3)
    mid = cfg.points[3].z  # j = 3 = m
    g = force_at(cfg, mid, table)
    assert abs(g) < 0.05 * float(table.upsilon(10.0))


def test_predicted_force(table):
    cfg = diagnostic_chain_cloud(table, 10.0, 3)
    # interior point: both neighbors pull, cancel
    assert abs(predicted_force(cfg, 3, table)) < 1e-18
    # end anchor: one neighbor at spacing ell (a=1, so lambda=0)
    end = predicted_force(cfg, 0, table)
    assert end == pytest.approx(float(table.upsilon(10.0)) + 0j, rel=1e-9)


@pytest.fixture(scope="module")
def nc_cloud(table):
    res = solve_master(n_c_assembly(), 64.0, 10.0, table)
    return generate_cloud(res, table)


def _window_points_loop(config, window):
    """Reference: the linear scan over every point."""
    reach = window.half_width + config.ell + REACH
    return [(pt.z, pt.sign) for pt in config.points
            if abs(pt.z - window.center) <= reach]


def _window_points_cutoff30(config, window):
    """Reference: the earlier rule, every point within half_width + 30."""
    return [(pt.z, pt.sign) for pt in config.points
            if abs(pt.z - window.center) <= window.half_width + 30.0]


def _predicted_force_loop(config, z_index, table, band=0.5):
    """Reference: the loop over every point."""
    pts = config.points
    z = pts[z_index].z
    eta = pts[z_index].sign
    ell = config.ell
    out = 0j
    for k, pt in enumerate(pts):
        if k == z_index:
            continue
        d = abs(pt.z - z)
        if abs(d - ell) <= band:
            out += eta * pt.sign * float(table.upsilon(d)) * (pt.z - z) / d
    return out


def test_window_points_match_linear_scan(table, nc_cloud):
    zs = [pt.z for pt in nc_cloud.points]
    hw = nc_cloud.ell / 4.0 + 2.0
    reach = hw + nc_cloud.ell + REACH
    lo = complex(min(z.real for z in zs), min(z.imag for z in zs))
    centers = (zs[::37]                                       # on points
               + [(a + b) / 2 for a, b in zip(zs[::41], zs[1::41])]
               + [zs[5] + reach, zs[9] - 1j * reach]
               + [lo - 50 - 50j, lo - reach + 1j])            # off the cloud
    total = 0
    for c in centers:
        window = FieldWindow(c, hw)
        got = _window_points(nc_cloud, window)
        assert got == _window_points_loop(nc_cloud, window)
        total += len(got)
    assert total > len(centers)          # the windows are not all empty
    assert _window_points(nc_cloud, FieldWindow(lo - 50 - 50j, hw)) == []


def test_scans_keep_points_on_reach_edge(table):
    # each |z| is exactly the reach, but its squared distance rounds
    # above the reach squared: an index that compares squares keeps z
    # only by the slack on its radius
    z = complex(13.54070868521458, 32.274590753441856)
    assert abs(z) == 10.0 + 10.0 + REACH
    cfg = Configuration([0j, z], [1, -1], ["a", "b"], 10.0)
    assert _window_points(cfg, FieldWindow(0j, 10.0)) == [(0j, 1), (z, -1)]
    z = complex(0.720732799534178, 10.475234805562863)   # ell + band
    cfg = Configuration([0j, z], [1, 1], ["a", "b"], 10.0)
    pred = predicted_force(cfg, 0, table)
    assert pred != 0 and pred == _predicted_force_loop(cfg, 0, table)


def test_scans_skip_non_finite_points(table):
    zs = [0j, complex("nan"), 10 + 0j, complex("inf")]
    cfg = Configuration(zs, [1] * len(zs),
                        [f"p{i}" for i in range(len(zs))], 10.0)
    for i, z in enumerate(zs):
        window = FieldWindow(z, 4.5)
        assert _window_points(cfg, window) == \
            _window_points_loop(cfg, window)
        assert predicted_force(cfg, i, table) == \
            _predicted_force_loop(cfg, i, table)


def test_predicted_force_matches_loop_exactly(table, nc_cloud):
    chain = diagnostic_chain_cloud(table, 10.0, 3)
    for i in range(len(chain.points)):
        assert predicted_force(chain, i, table) == \
            _predicted_force_loop(chain, i, table)
    anchors = [i for i, pt in enumerate(nc_cloud.points)
               if pt.provenance.startswith("anchor:")]
    for i in anchors + list(range(0, len(nc_cloud.points), 29)):
        assert predicted_force(nc_cloud, i, table) == \
            _predicted_force_loop(nc_cloud, i, table)


@pytest.fixture(scope="module")
def ex51_cloud(table):
    return generate_cloud(solve_master(example_5_1(7), 64.0, 10.0, table),
                          table)


def _profile_loop(table, r, spline, tail):
    """Reference profile: scipy's spline, the tail picked by np.where."""
    rmax = table.r[-1]
    return np.where(r <= rmax, spline(np.minimum(r, rmax)),
                    tail(np.maximum(r, 1.0)))


def _residual_loop(config, window, table, z, rho, delta):
    """Reference: the residual, its norm weight and the projection at z,
    each in its own pass over meshgrid arrays, as (u, E, sup, weighted,
    raw projection)."""
    X, Y = window.mesh()
    pts = _window_points_loop(config, window)
    u = np.zeros_like(X)
    lin = np.zeros_like(X)
    for zb, s in pts:
        u0 = _profile_loop(table, np.hypot(X - zb.real, Y - zb.imag),
                           scipy_splines(table).u, lambda x: table.A * k0(x))
        u += s * u0
        lin += s * f(u0)
    E = f(u) - lin
    w = np.zeros_like(X)
    for zb, _ in pts:
        r2 = 1.0 + (X - zb.real) ** 2 + (Y - zb.imag) ** 2
        w += np.exp(delta * np.sqrt(r2))
    dx = X - z.real
    dy = Y - z.imag
    r = np.hypot(dx, dy)
    t = r - rho
    chi = np.where(t <= -1.0, 1.0,
                   np.where(t >= 1.0, 0.0, (1.0 - np.sin(np.pi * t / 2)) / 2))
    du = _profile_loop(table, r, scipy_splines(table).du,
                       lambda x: -table.A * k1(x))
    nz = r > 0
    gx = np.zeros_like(r)
    gy = np.zeros_like(r)
    gx[nz] = du[nz] * dx[nz] / r[nz]
    gy[nz] = du[nz] * dy[nz] / r[nz]
    h = window.spacing
    ex = float(np.trapezoid(np.trapezoid(E * chi * gx, dx=h), dx=h))
    ey = float(np.trapezoid(np.trapezoid(E * chi * gy, dx=h), dx=h))
    return (u, E, float(np.max(np.abs(E))), float(np.max(np.abs(E) / w)),
            complex(ex, ey))


def _reference_scale(table, rho):
    """Reference calibration: projection_scale's two-bump window, on the
    reference loop."""
    s = max(8.0, 2.0 * rho + 4.0)
    cal = Configuration([0j, complex(s, 0.0)], [1, 1], ["l", "r"], s)
    raw = _residual_loop(cal, FieldWindow(0j, rho + 2.0), table, 0j, rho,
                         DELTA_DEFAULT)[4]
    return raw.real / float(table.upsilon(s))


def _assert_window_matches_loop(cfg, c, table, delta):
    """The window on c, projected at c, matches the reference loop within
    the drift of placing the bumps by their offsets from c: 1e-10
    Upsilon(ell) + 1e-15 on the projection, 1e-10 sup + 8 eps f(beta) on
    E and its sup (that floor over the smallest weight on the weighted
    norm), and the gate on the projection decides alike."""
    rho = cfg.ell / 4.0
    window = FieldWindow(c, rho + 2.0, delta=delta)
    field = residual(cfg, window, table)
    g = project_force(cfg, field, table)
    sup, weighted = residual_norms(field)
    _, E, ref_sup, ref_weighted, ref_raw = _residual_loop(
        cfg, window, table, c, rho, delta)
    ref_g = ref_raw / _reference_scale(table, rho)
    ups = float(table.upsilon(cfg.ell))
    floor = 8.0 * np.finfo(float).eps * float(f(table.beta))
    assert abs(g - ref_g) <= 1e-10 * ups + 1e-15
    assert np.max(np.abs(field.E - E)) <= 1e-10 * ref_sup + floor
    assert abs(sup - ref_sup) <= 1e-10 * ref_sup + floor
    assert abs(weighted - ref_weighted) <= \
        1e-10 * ref_weighted + floor / field.weight.min()
    threshold = 0.05 * ups
    assert (abs(g) <= threshold) == (abs(ref_g) <= threshold)


def _spread_windows(cfg):
    """Indices of a few anchors and of points spread over the cloud."""
    anchors = [i for i, pt in enumerate(cfg.points)
               if pt.provenance.startswith("anchor:")]
    return anchors[:6] + list(range(1, len(cfg.points), 211))


@pytest.mark.parametrize("delta", [DELTA_DEFAULT, -0.3])
def test_one_pass_window_matches_loop(table, ex51_cloud, nc_cloud, delta):
    # windows on anchors and on spread points, where the centre bump comes
    # from the template, and windows off them, where every bump is placed
    # by its offset. At -0.3 the centre bump's template is not the one
    # the calibration window made.
    for cfg in (ex51_cloud, nc_cloud):
        for i in _spread_windows(cfg):
            z = cfg.points[i].z
            for c in (z, z + 0.37 - 0.21j):
                _assert_window_matches_loop(cfg, c, table, delta)


@pytest.mark.parametrize("ell", [10.0, 30.0, 50.0])
def test_large_cloud_windows_match_loop(table, ell):
    # ex51 k 7 at kappa 1024: anchors and the gated mid-chain points. From
    # ell ~ 35 on, E near a bump is rounding noise, so the absolute floor
    # of the projection bound is what holds there.
    cfg = generate_cloud(solve_master(example_5_1(7), 1024.0, ell, table),
                         table)
    anchors = [i for i, prov in enumerate(cfg.provenance)
               if prov.startswith("anchor:")]
    for i in anchors[:3] + cli._midchain_indices(cfg)[:4]:
        _assert_window_matches_loop(cfg, cfg.positions[i].item(), table,
                                    DELTA_DEFAULT)


@settings(max_examples=30, deadline=None)
@given(ell=st.floats(3.0, 20.0),
       centre=st.complex_numbers(max_magnitude=500.0),
       others=st.lists(st.tuples(st.floats(1.0, 2.0), st.floats(0.0, 6.3),
                                 st.sampled_from([1, -1])),
                       min_size=1, max_size=5),
       sign=st.sampled_from([1, -1]))
def test_random_cloud_window_matches_loop(table, ell, centre, others, sign):
    # 2-6 bumps, the window on one of them, the others between ell and
    # 2 ell from it
    zs = [centre] + [centre + d * ell * cmath.exp(1j * t)
                     for d, t, _ in others]
    signs = [sign] + [s for _, _, s in others]
    cfg = Configuration(zs, signs, [f"p{i}" for i in range(len(zs))], ell)
    _assert_window_matches_loop(cfg, centre, table, DELTA_DEFAULT)


@pytest.mark.parametrize("ell", [60.0, 110.0])
def test_window_mixing_grid_and_tail_matches_loop(table, ell):
    # a bump 0.4 ell from the window centre spans r = 50, the profile
    # grid's end: one u0_at call evaluates the spline and the Bessel tail
    cfg = diagnostic_chain_cloud(table, ell, 2)
    hw = ell / 4.0 + 2.0
    mixed = 0
    for c in [pt.z for pt in cfg.points] + [0.6 * ell + 0j, 1.4 * ell + 1j]:
        window = FieldWindow(c, hw)
        X, Y = window.mesh()
        for zb, _ in _window_points(cfg, window):
            r = np.hypot(X - zb.real, Y - zb.imag)
            mixed += r.min() <= table.r[-1] < r.max()
        _assert_window_matches_loop(cfg, c, table, DELTA_DEFAULT)
    assert mixed >= 2


def test_projection_only_at_window_centre(table):
    # the projection is about the window's centre; a non-finite centre
    # gives NaN
    cfg = two_point_config(10.0)
    g = force_at(cfg, complex("nan"), table)
    assert math.isnan(g.real) and math.isnan(g.imag)


def test_reach_drift_from_cutoff_30(table, ex51_cloud, nc_cloud,
                                    monkeypatch):
    # the reach half_width + ell + REACH drops bumps that the earlier
    # half_width + 30 summed; the diagnostics move by at most these bounds
    def diagnostics(cfg, i):
        z = cfg.positions[i].item()
        field = residual(cfg, FieldWindow(z, cfg.ell / 4.0 + 2.0), table)
        return (project_force(cfg, field, table),) + residual_norms(field)

    for cfg in (ex51_cloud, nc_cloud):
        ups = float(table.upsilon(cfg.ell))
        rows = _spread_windows(cfg)
        now = [diagnostics(cfg, i) for i in rows]
        with monkeypatch.context() as m:
            m.setattr(fields, "_window_points", _window_points_cutoff30)
            before = [diagnostics(cfg, i) for i in rows]
        dropped = 0
        for i, (g, sup, weighted), (g0, sup0, weighted0) in zip(rows, now,
                                                                before):
            window = FieldWindow(cfg.positions[i].item(), cfg.ell / 4.0 + 2.0)
            dropped += (len(_window_points_cutoff30(cfg, window))
                        - len(_window_points(cfg, window)))
            assert abs(g - g0) <= 1e-8 * ups
            assert sup == pytest.approx(sup0, rel=1e-8, abs=0.0)
            assert weighted == pytest.approx(weighted0, rel=1e-5, abs=0.0)
        assert dropped > 0


def test_reach_holds_chain_neighbours_at_large_ell(table, monkeypatch):
    # at ell 50 a window of half width ell/4 + 2 = 14.5 reached 44.5 under
    # the earlier rule, so the mid-chain window held its own bump only and
    # its residual was exactly 0; the reach 79.5 holds both neighbours
    cfg = diagnostic_chain_cloud(table, 50.0, 3)
    mid = cfg.positions[3].item()
    window = FieldWindow(mid, 14.5)
    assert [z for z, _ in _window_points(cfg, window)] == \
        [mid - 50.0, mid, mid + 50.0]
    sup, weighted = residual_norms(residual(cfg, window, table))
    assert sup > 0 and weighted > 0
    with monkeypatch.context() as m:
        m.setattr(fields, "_window_points", _window_points_cutoff30)
        assert residual_norms(residual(cfg, window, table)) == (0.0, 0.0)


@pytest.mark.parametrize("ell", [2.0, 10.0, 110.0])
def test_delta_limit_keeps_the_weight_normal(table, ell):
    # at |delta| = delta_limit, with a bump on the window's reach, the
    # weight's exponent stays within [-700, 700] on every sample; the
    # default delta is within the limit
    hw = ell / 4.0 + 2.0
    limit = delta_limit(hw, ell)
    assert abs(DELTA_DEFAULT) < limit
    d = (math.sqrt(2.0) + 1.0) * hw + ell + REACH
    far = complex(d - math.sqrt(2.0) * hw, 0.0)
    cfg = Configuration([0j, far], [1, 1], ["a", "b"], ell)
    for delta in (limit, -limit):
        field = residual(cfg, FieldWindow(0j, hw, delta=delta), table)
        assert len(_window_points(cfg, field.window)) == 2
        w = field.weight
        assert np.all(np.isfinite(w)) and w.min() >= np.finfo(float).tiny
        assert -700.0 <= math.log(w.min()) <= math.log(w.max()) <= 700.0


def test_window_delta_sets_the_norm_weight(table, nc_cloud):
    # the norms divide by the weight at the window's own delta; delta
    # changes the weight, not the residual
    z = nc_cloud.points[0].z
    field = residual(nc_cloud, FieldWindow(z, 4.5, delta=-0.3), table)
    sup, weighted = residual_norms(field)
    assert weighted == float(np.max(np.abs(field.E) / field.weight))
    default = residual(nc_cloud, FieldWindow(z, 4.5), table)
    assert np.array_equal(default.E, field.E)
    assert residual_norms(default)[0] == sup
    assert residual_norms(default)[1] != weighted


def test_field_is_a_value(table):
    # a window and its field are fixed once made
    cfg = two_point_config(10.0)
    field = residual(cfg, FieldWindow(0j, 4.5), table)
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.window.delta = -0.3
    with pytest.raises(dataclasses.FrozenInstanceError):
        field.E = None
    for a in (field.u, field.E, field.weight):
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
