import math

import numpy as np
import pytest
from scipy.special import k0, k1

from netforge.assembly import (Configuration, diagnostic_chain_cloud,
                               generate_cloud, solve_master)
from netforge.builders import example_5_1, n_c_assembly
from netforge.fields import (CUTOFF, DELTA_DEFAULT, FieldWindow,
                             _raw_projection, _window_points, cutoff_profile,
                             load_field, pohozaev_defect, predicted_force,
                             project_force, refine, residual, residual_norms,
                             save_field)


def two_point_config(ell, signs=(1, 1)):
    return Configuration([0j, complex(ell, 0)], signs, ["a", "b"], ell)


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
    w = FieldWindow(0j, 3.0)
    sup, weighted = residual_norms(cfg, w, table)
    assert 0 < sup
    assert weighted > sup  # the weight is below 1 near the point


def test_projection_matches_upsilon(table):
    for ell in (8.0, 10.0, 12.0):
        cfg = two_point_config(ell)
        g = project_force(cfg, 0j, table)
        ups = float(table.upsilon(ell))
        assert abs(g) == pytest.approx(ups, rel=0.01)
        # attraction: the force at the left bump points right
        assert g.real > 0
        assert abs(g.imag) < 1e-8 * ups


def test_projection_sign_for_opposite_bumps(table):
    cfg = two_point_config(10.0, signs=(1, -1))
    g = project_force(cfg, 0j, table)
    # opposite signs repel
    assert g.real < 0
    assert abs(abs(g) - float(table.upsilon(10.0))) < 0.01 * abs(g)


def test_projection_window_too_small(table):
    cfg = two_point_config(10.0)
    with pytest.raises(ValueError):
        project_force(cfg, 0j, table, window=FieldWindow(0j, 2.0))


def test_midchain_projection_small(table):
    cfg = diagnostic_chain_cloud(table, 10.0, 3)
    mid = cfg.points[3].z  # j = 3 = m
    g = project_force(cfg, mid, table)
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
    reach = window.half_width + CUTOFF
    return [(pt.z, pt.sign) for pt in config.points
            if abs(pt.z - window.center) <= reach]


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
    lo = complex(min(z.real for z in zs), min(z.imag for z in zs))
    centers = (zs[::37]                                       # on points
               + [(a + b) / 2 for a, b in zip(zs[::41], zs[1::41])]
               + [zs[5] + hw + CUTOFF, zs[9] - 1j * (hw + CUTOFF)]
               + [lo - 50 - 50j, lo - (hw + CUTOFF) + 1j])   # off the cloud
    total = 0
    for c in centers:
        window = FieldWindow(c, hw)
        got = _window_points(nc_cloud, window)
        assert got == _window_points_loop(nc_cloud, window)
        total += len(got)
    assert total > len(centers)          # the windows are not all empty
    assert _window_points(nc_cloud, FieldWindow(lo - 50 - 50j, hw)) == []


def test_scans_keep_points_on_reach_edge(table):
    # each |z| is exactly the reach, but the KD-tree's squared distance
    # rounds above its square: only the slack on the radius keeps z
    z = complex(16.010506077224743, 36.65601853926787)   # 10 + CUTOFF
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
    f = table.nl.f
    pts = _window_points_loop(config, window)
    u = np.zeros_like(X)
    lin = np.zeros_like(X)
    for zb, s in pts:
        u0 = _profile_loop(table, np.hypot(X - zb.real, Y - zb.imag),
                           table._u_spline, lambda x: table.A * k0(x))
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
    du = _profile_loop(table, r, table._du_spline, lambda x: -table.A * k1(x))
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


@pytest.mark.parametrize("delta", [DELTA_DEFAULT, -0.3])
def test_one_pass_window_matches_loop(table, ex51_cloud, nc_cloud, delta):
    # windows on anchors and on spread points; each also projects at a
    # point off its center, where no bump's distances can be reused.
    # The windows take the default delta, so -0.3 makes residual_norms
    # redo the pass at its own delta.
    for cfg in (ex51_cloud, nc_cloud):
        rho = cfg.ell / 4.0
        anchors = [i for i, pt in enumerate(cfg.points)
                   if pt.provenance.startswith("anchor:")]
        for i in anchors[:6] + list(range(1, len(cfg.points), 211)):
            z = cfg.points[i].z
            for at in (z, z + 0.37 - 0.21j):
                window = FieldWindow(z, rho + 2.0)
                g = _raw_projection(cfg, at, window, table, rho)
                sup, weighted = residual_norms(cfg, window, table, delta)
                u, E, ref_sup, ref_weighted, ref_g = _residual_loop(
                    cfg, window, table, at, rho, delta)
                assert np.array_equal(window.u, u)
                assert np.array_equal(window.E, E)
                assert (sup, weighted) == (ref_sup, ref_weighted)
                assert g == ref_g


def test_window_delta_sets_the_norm_weight(table, nc_cloud):
    # a window made at delta does not redo its pass for norms at delta,
    # and its weight is the one the norms divide by
    z = nc_cloud.points[0].z
    window = FieldWindow(z, 4.5, delta=-0.3)
    project_force(nc_cloud, z, table, window)
    E, weight = window.E, window.weight
    sup, weighted = residual_norms(nc_cloud, window, table, -0.3)
    assert window.E is E and window.weight is weight
    assert weighted == float(np.max(np.abs(E) / weight))
    assert residual_norms(nc_cloud, window, table)[1] != weighted
    assert window.delta == DELTA_DEFAULT and window.weight is not weight


def test_pohozaev_defect(table):
    # radially symmetric single bump: every Killing pairing vanishes
    cfg = Configuration([0j], [1], ["a"], 10.0)
    w = residual(cfg, FieldWindow(0j, 12.0, 0.1), table)
    fvals = table.nl.f(w.u)
    for xi in ("dx", "dy", "rot"):
        val = pohozaev_defect(w, w.u, fvals, xi, decay_tol=1e-4)
        assert abs(val) < 1e-10
    with pytest.raises(ValueError):
        pohozaev_defect(w, w.u, fvals, "scale")
    with pytest.raises(ValueError):
        pohozaev_defect(w, w.u, fvals, "dx", decay_tol=1e-30)


def test_refine_single_bump(table):
    cfg = Configuration([0j], [1], ["a"], 10.0)
    out = refine(cfg, table, 12.0, spacing=0.1)
    assert out.converged
    assert out.residual < 1e-10
    # the superposed start is the discrete solution up to truncation
    assert out.drift < 0.05


def test_field_roundtrip(tmp_path, table):
    cfg = two_point_config(10.0)
    w = residual(cfg, FieldWindow(0j, 1.0), table)
    path = tmp_path / "field.csv"
    save_field(w, w.E, path)
    x, y, vals = load_field(path)
    assert vals.shape == w.E.shape
    assert np.array_equal(vals, w.E)
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n")
        load_field(bad)
