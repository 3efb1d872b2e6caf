import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from conftest import fd_jacobian
from netforge import cli
from netforge.assembly import (GEOM_TOL, RAY_J_MAX, Assembly, CloudIndex,
                               Configuration, SubNetwork, _balance_defects,
                               _check_balance, _check_ray_separation,
                               _master_system, _null_space, _rays,
                               coordinate_quantization,
                               diagnostic_chain_cloud, generate_cloud,
                               layout, load_assembly, load_cloud,
                               neighbor_graph, save_assembly, save_cloud,
                               singleton_at, solve_master, verify_assembly)
from netforge.builders import example_5_1, example_5_2, n_c_assembly
from netforge.catalog import polygon_center
from netforge.network import Network, NetworkError, edge_key, forces
from netforge.solvers import SolverError, damped_newton


def test_verify_catalog_assemblies():
    for asm in (example_5_1(7), example_5_2(4), example_5_2(5),
                n_c_assembly()):
        report = verify_assembly(asm)
        assert report.ok, report.failing()
        for p, signs in report.eta.items():
            assert set(signs.values()) <= {1, -1}


def test_verify_rejects_shifted_barycenter():
    asm = example_5_1(5)
    sub = asm.subs["c"]
    shifted = Network({v: z + 0.2 for v, z in sub.net.vertices.items()},
                      dict(sub.net.weights))
    asm.subs["c"] = SubNetwork(shifted, dict(sub.anchors))
    report = verify_assembly(asm)
    assert not report.ok
    assert "i_barycenter" in report.failing()


def test_verify_rejects_a_ray_across_its_sub():
    # swapped anchors send the ray toward v0 out of z3, across the heptagon
    asm = example_5_1(7)
    anchors = asm.subs["c"].anchors
    anchors["v0"], anchors["v3"] = anchors["v3"], anchors["v0"]
    report = verify_assembly(asm)
    assert "ii_embedded_rays" in report.failing()
    assert report.details["ii_embedded_rays"] == \
        "conflicting pieces in sub at 'c'"


def _centred_heptagon():
    """example_5_1(7) with a centre 'o' in the heptagon at 'c' on seven
    equal spokes, balanced by lighter sides (no sub of example_5_1(7) has
    a vertex off its anchors)."""
    asm = example_5_1(7)
    sub = asm.subs["c"]
    spoke = 0.5
    side = 1.0 - spoke / (2.0 * math.sin(math.pi / 7))
    weights = {e: side for e in sub.net.weights}
    weights.update({edge_key("o", r): spoke for r in sub.net.ids})
    asm.subs["c"] = SubNetwork(Network({**sub.net.vertices, "o": 0j},
                                       weights), dict(sub.anchors))
    return asm


def _heavy_centre_spoke():
    """_centred_heptagon with its spoke to z2 half again as heavy."""
    asm = _centred_heptagon()
    asm.subs["c"].net.weights[edge_key("o", "z2")] *= 1.5
    return asm


def _heavy_master_spoke():
    """example_5_1(7) with the master weight of c-v3 half again as heavy."""
    asm = example_5_1(7)
    asm.master.weights[edge_key("c", "v3")] *= 1.5
    return asm


def test_verify_names_the_vertex_out_of_interior_balance():
    # the spokes of the centred heptagon are not unit, so v_min_distance
    # fails
    asm = _centred_heptagon()
    assert verify_assembly(asm).failing() == ["v_min_distance"]
    asm.subs["c"].net.weights[edge_key("o", "z2")] *= 1.5
    report = verify_assembly(asm)
    assert "iii_interior_balance" in report.failing()
    assert report.details["iii_interior_balance"] == \
        "max defect 2.50e-01 at ('c', 'o')"


def test_verify_names_the_vertex_out_of_anchor_balance():
    # a master weight pulls on the anchoring vertex at both of its ends
    report = verify_assembly(_heavy_master_spoke())
    assert report.failing() == ["iv_anchor_balance"]
    msg = report.details["iv_anchor_balance"]
    assert msg.startswith("max defect 4.34e-01 at ")
    assert msg.endswith(("at ('c', 'z3')", "at ('v3', 'o')"))


def _balance_defects_loop(asm):
    """Reference: the balance defect of every sub vertex as conditions
    (iii) and (iv) took it before the layout, sub by sub from each sub's
    forces plus a dict of the master pulls at its anchors. Returns
    {(p, r): (defect, anchored)}."""
    master = asm.master
    out = {}
    for p, sub in asm.subs.items():
        F = forces(sub.net)
        pull = {}                       # anchoring vertex -> master pulls
        for q, r in sub.anchors.items():
            d = master.vertices[q] - master.vertices[p]
            w = master.weights[edge_key(p, q)]
            pull[r] = pull.get(r, 0j) + w * d / abs(d)
        for r in sub.net.ids:
            out[(p, r)] = (abs(F[r] + pull.get(r, 0j)), r in pull)
    return out


@pytest.mark.parametrize("build", [
    *[lambda k=k: example_5_1(k) for k in (7, 8, 9)],
    lambda: example_5_2(4),
    *[lambda s=s: n_c_assembly(perturbation=0.02, seed=s) for s in (1, 2, 3)],
    _heavy_centre_spoke, _heavy_master_spoke],
    ids=["ex51-k7", "ex51-k8", "ex51-k9", "ex52-k4", "nc-seed1", "nc-seed2",
         "nc-seed3", "heavy-centre-spoke", "heavy-master-spoke"])
def test_balance_check_matches_per_sub_loop(build):
    asm = build()
    lay = layout(asm)
    ref = _balance_defects_loop(asm)
    got = _balance_defects(asm, lay)
    assert sorted(ref) == sorted(lay.keys)
    assert np.allclose(got, [ref[key][0] for key in lay.keys], rtol=0.0,
                       atol=1e-12)
    for anchored in (False, True):
        worst = max([d for d, a in ref.values() if a == anchored],
                    default=0.0)
        ok, msg = _check_balance(asm, lay, anchored)
        assert ok == (worst <= 1e-9)
        assert msg.startswith("max defect ") == (worst > 0)


def test_coordinate_quantization_example(table):
    asm = example_5_1(7)
    mm, mu = coordinate_quantization(asm, 64.0, 10.0, table)
    counts = {mm[e] for e in mm}
    assert counts == {48, 54}
    for (p, q), m in mm.items():
        expect = 54 if "c" in (p, q) else 48
        assert m == expect
    assert mu == pytest.approx(1.7285, abs=1e-3)


def _reference_quantization(asm, kappa, ell, table, mu_max=2.5):
    """coordinate_quantization as a scalar loop over mu and the edges."""
    master = asm.master
    rows = []
    for ek in master.edges:
        p, q = ek
        d = master.vertices[q] - master.vertices[p]
        r = abs(d)
        u = d / r
        rp = asm.subs[p].net.vertices[asm.subs[p].anchors[q]]
        rq = asm.subs[q].net.vertices[asm.subs[q].anchors[p]]
        allowance = ((rq - rp) * u.conjugate()).real
        alpha = table.alpha_ell(master.weights[ek], ell)
        rows.append((ek, r, allowance, 1.0 - alpha))
    best = None
    for mu in np.linspace(1.0, mu_max, 3001):
        defect = 0.0
        mm = {}
        for ek, r, allowance, one_m_alpha in rows:
            g = mu * kappa * r + allowance
            m = max(1, round(g / (2.0 * one_m_alpha)))
            mm[ek] = m
            defect = max(defect, abs(2 * m * one_m_alpha - g))
        if best is None or defect < best[0] - 1e-12:
            best = (defect, mu, mm)
    return best[2], best[1]


@pytest.mark.parametrize("k, kappa", [(k, kappa) for k in (7, 8, 9, None)
                                      for kappa in (48.0, 64.0)])
def test_coordinate_quantization_matches_loop(table, k, kappa):
    # k None: the perturbed n_c assembly
    asm = (n_c_assembly(perturbation=0.01, seed=2) if k is None
           else example_5_1(k))
    mm, mu = coordinate_quantization(asm, kappa, 10.0, table)
    ref_mm, ref_mu = _reference_quantization(asm, kappa, 10.0, table)
    assert mm == ref_mm and mu == ref_mu
    assert all(type(m) is int for m in mm.values())


def test_coordinate_quantization_keeps_first_clear_improvement(table):
    # One unit edge at weight 1 (alpha = 0, no anchor allowance): the
    # defect 2 - mu*kappa falls by ~1.5e-13 per mu step, so a new best is
    # taken only every 7th step and the scan stops short of the last mu,
    # where a plain argmin would land.
    master = Network({"p": 0j, "q": 1 + 0j}, {("p", "q"): 1.0})
    asm = Assembly(master, {p: singleton_at(master, p) for p in "pq"})
    mm, mu = coordinate_quantization(asm, 3e-10, 10.0, table)
    assert (mm, mu) == _reference_quantization(asm, 3e-10, 10.0, table)
    assert mm == {("p", "q"): 1} and mu < 2.5


def test_solve_master_nc(table):
    asm = n_c_assembly()
    res = solve_master(asm, 64.0, 10.0, table)
    assert res.info.converged
    for key, val in res.residuals.items():
        assert val < 1e-9, (key, val)
    assert abs(res.e) < 1e-12
    assert abs(res.t) < 1e-12


def test_solve_master_rejects_failing_assembly(table):
    from netforge.builders import n_v_assembly
    with pytest.raises(SolverError):
        solve_master(n_v_assembly(), 64.0, 10.0, table)


def test_solve_master_rejects_an_f_key_naming_no_sub_vertex(table):
    # the key counted in the chain-count estimate but applied no force
    for key in [("v0", "nowhere"), ("nowhere", "o"), "v0"]:
        with pytest.raises(ValueError, match=re.escape(
                f"f key {key!r} names no sub vertex")):
            solve_master(example_5_1(7), 64.0, 10.0, table,
                         f={("v1", "o"): 0.1, key: 0.3})


def test_solve_master_reports_weights_leaving_the_table(table):
    # at the table's shortest length a trial weight just above 1 in
    # magnitude has no alpha_ell; the solve fails instead of crashing
    # (k = 8: a Newton iterate reaches |a| = 1.0024; k = 6 fails the
    # ray-separation condition before the solve starts)
    with pytest.raises(SolverError, match="master solve failed: .*"
                                          "tabulated range"):
        solve_master(example_5_1(8), 64.0, 2.0, table)
    # at the longest, the master weights below 1 have none either, which
    # the chain quantization meets before the Newton solve starts
    with pytest.raises(SolverError, match="chain quantization failed"):
        solve_master(example_5_1(7), 64.0, 110.0, table)


def test_solve_master_at_shortest_length(table):
    # k = 7 stays inside the table at ell = 2: every weight keeps |w| <= 1
    res = solve_master(example_5_1(7), 64.0, 2.0, table)
    assert res.info.converged
    for key, val in res.residuals.items():
        assert val < 1e-11, (key, val)
    weights = np.concatenate([res.master_weights, res.sub_weights])
    assert np.max(np.abs(weights)) <= 1.0


@st.composite
def master_systems(draw):
    """(assembly, kappa, ell) over ex51 (ring weights -1) and perturbed
    n_c assemblies (the smallest master weight is -1)."""
    kappa = draw(st.sampled_from([48.0, 64.0, 1024.0]))
    ell = draw(st.floats(9.0, 11.0))
    if draw(st.booleans()):
        asm = example_5_1(draw(st.sampled_from([7, 8, 9])))
    else:
        asm = n_c_assembly(perturbation=0.02,
                           seed=draw(st.integers(0, 2 ** 16)))
    return asm, kappa, ell


@settings(max_examples=30, deadline=None)
@given(master_systems(), st.integers(0, 2 ** 32 - 1))
def test_master_jacobian_matches_finite_differences(table, system, seed):
    asm, kappa, ell = system
    fun, jac, x0, _ = _master_system(asm, kappa, ell, table)
    rng = np.random.default_rng(seed)
    for x in (x0, x0 + rng.normal(0.0, 1e-3, len(x0))):
        # at the default step 1e-7 the forward differences' own
        # truncation error reaches 8e-6 of a row's scale (the dilation
        # column moves the weights by ell^2 each); at 1e-8 it stays
        # below 1e-6
        J, J_fd = jac(x), fd_jacobian(fun, x, step=1e-8)
        assert J.shape == J_fd.shape == (len(x0), len(x0))
        row_scale = np.max(np.abs(J), axis=1)
        assert np.all(np.abs(J - J_fd) <= 1e-5 * row_scale[:, None])


@pytest.mark.parametrize("asm, kappa", [
    (example_5_1(7), 64.0), (example_5_1(9), 1024.0),
    (n_c_assembly(perturbation=0.02, seed=1), 64.0)])
def test_master_solve_same_with_fd_jacobian(table, asm, kappa):
    fun, jac, x0, finish = _master_system(asm, kappa, 10.0, table)
    opts = dict(tol=1e-11, maxiter=200, max_step=0.25)
    x, info = damped_newton(fun, x0, jac=jac, **opts)
    x_fd, info_fd = damped_newton(fun, x0, jac=lambda x: fd_jacobian(fun, x),
                                  **opts)
    assert info.converged and info_fd.converged
    assert info.iterations == info_fd.iterations
    res, res_fd = finish(x, info), finish(x_fd, info_fd)
    for name in ("master_weights", "master_positions", "sub_weights",
                 "sub_positions"):
        assert np.max(np.abs(getattr(res, name) - getattr(res_fd, name)),
                      initial=0.0) <= 1e-10, name


def test_master_solve_evaluation_budget(table):
    # one Jacobian per Newton step and no finite differences: ex51 takes
    # 12 steps and 37 residual evaluations (the backtracking line search
    # tries 3 points per step on average); an FD Jacobian would add 68
    # evaluations per step
    info = solve_master(example_5_1(7), 64.0, 10.0, table).info
    assert info.converged
    assert info.jac_evals == info.iterations == 12
    assert info.fun_evals <= 3 * info.iterations + 1


def _cloud_51(table):
    res = solve_master(example_5_1(7), 64.0, 10.0, table)
    return res, generate_cloud(res, table)


def test_generate_cloud_counts(table):
    res, cfg = _cloud_51(table)
    expect = sum(asm_sub.net.n for asm_sub in res.assembly.subs.values())
    expect += sum(2 * m - 1 for m in res.m_map.values())
    assert len(cfg.points) == expect == 1428


def test_generate_cloud_sign_pattern(table):
    res, cfg = _cloud_51(table)
    by_prov = {pt.provenance: pt.sign for pt in cfg.points}
    # ring edges have negative weight: chains alternate
    m_ring = res.m_map[("v0", "v1")]
    ring = [by_prov[f"chain:v0:v1:{j}"] for j in range(1, 2 * m_ring)]
    assert all(ring[j] == -ring[j - 1] for j in range(1, len(ring)))
    # spokes have positive weight: chains are constant
    m_spoke = res.m_map[("c", "v0")]
    spoke = [by_prov[f"chain:c:v0:{j}"] for j in range(1, 2 * m_spoke)]
    assert len(set(spoke)) == 1
    # a chain's first point matches its p-side anchor sign
    assert by_prov["chain:c:v0:1"] == by_prov["anchor:c:z0"]


def test_cloud_roundtrip(tmp_path, table):
    _, cfg = _cloud_51(table)
    path = tmp_path / "cloud.csv"
    save_cloud(cfg, path)
    back = load_cloud(path, cfg.ell)
    assert len(back.points) == len(cfg.points)
    for a, b in zip(cfg.points, back.points):
        assert a.z == b.z and a.sign == b.sign and a.provenance == b.provenance
    with pytest.raises(NetworkError):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n")
        load_cloud(bad, 10.0)


def test_assembly_roundtrip(tmp_path):
    asm = example_5_2(4)
    path = tmp_path / "asm.json"
    save_assembly(asm, path)
    back = load_assembly(path)
    assert back.master.weights == asm.master.weights
    assert back.master.vertices == asm.master.vertices
    for p in asm.master.ids:
        assert back.subs[p].anchors == asm.subs[p].anchors
        assert back.subs[p].net.weights == pytest.approx(
            asm.subs[p].net.weights)


def _assert_assembly_roundtrips(asm, path):
    save_assembly(asm, path)
    back = load_assembly(path)
    assert back.master.vertices == asm.master.vertices
    assert back.master.weights == asm.master.weights
    assert back.subs.keys() == asm.subs.keys()
    for p, sub in asm.subs.items():
        assert back.subs[p].net.vertices == sub.net.vertices
        assert back.subs[p].net.weights == sub.net.weights
        assert back.subs[p].anchors == sub.anchors
    assert back.signs == asm.signs


@settings(max_examples=30, deadline=None)
@given(ab=st.lists(st.floats(0.001, 0.05), min_size=2, max_size=2,
                   unique=True).map(sorted),
       perturbation=st.floats(0.0, 0.02), seed=st.integers(0, 2 ** 16))
# a move below balance_nearby's default tolerance must still be re-balanced
@example(ab=[0.03125, 0.046875], perturbation=1e-11, seed=2)
def test_nc_assembly_json_roundtrip(tmp_path_factory, ab, perturbation,
                                    seed):
    asm = n_c_assembly(*ab, perturbation=perturbation, seed=seed)
    _assert_assembly_roundtrips(asm, tmp_path_factory.mktemp("asm")
                                / "asm.json")


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_example_assembly_json_roundtrip(tmp_path_factory, data):
    build = data.draw(st.sampled_from([example_5_1, example_5_2]))
    k = data.draw(st.integers(3, 9) if build is example_5_1
                  else st.sampled_from([4, 5]))
    asm = build(k)
    asm.signs = {p: {r: (-1) ** len(r) for r in sub.net.ids}
                 for p, sub in sorted(asm.subs.items())[:2]}
    _assert_assembly_roundtrips(asm, tmp_path_factory.mktemp("asm")
                                / "asm.json")


def test_neighbor_graph_diagnostic_chain(table):
    cfg = diagnostic_chain_cloud(table, 10.0, 5)
    nb = neighbor_graph(cfg)
    assert nb.ok
    # interior points see exactly their two chain neighbors
    assert all(len(nb.neighbors[i]) == 2 for i in range(1, len(cfg.points) - 1))
    assert len(nb.neighbors[0]) == 1


def test_neighbor_graph_flags_violation():
    cfg = Configuration([0j, 10.3 + 0j], [1, 1], ["a", "b"], 10.0, band=0.2)
    nb = neighbor_graph(cfg, delta=0.05)
    assert len(nb.violations) == 1
    i, j, d = nb.violations[0]
    assert (i, j) == (0, 1) and d == pytest.approx(10.3)


def test_neighbor_graph_flags_degree_mismatch():
    cfg = Configuration([0j, 10 + 0j], [1, 1], ["a", "b"], 10.0, band=0.5,
                        expected_degree=[2, 1])
    nb = neighbor_graph(cfg)
    assert nb.degree_mismatches == [(0, 2, 1)]


def test_neighbor_graph_near_band_past_far_band():
    # C = 1 > delta ell = 0.5: a pair at 10.8 is near although it lies
    # beyond the far edge 10.5, so the search must reach ell + C
    cfg = Configuration([0j, 10.8 + 0j, 30 + 0j, 30 + 10.2j], [1] * 4,
                        ["a", "b", "c", "d"], 10.0, band=1.0)
    nb = neighbor_graph(cfg, delta=0.05)
    assert nb.neighbors == [[1], [0], [3], [2]]
    assert nb.violations == []


def test_neighbor_graph_keeps_pair_on_band_edge():
    # |z| is exactly ell + C = 10, but its squared distance rounds above
    # 100: an index that compares squares keeps the pair only by the
    # slack on its radius
    z = complex(3.07112432354196, 9.51673239034013)
    cfg = Configuration([0j, z], [1, 1], ["a", "b"], 9.5, band=0.5)
    nb = neighbor_graph(cfg, delta=0.0)
    assert nb.neighbors == [[1], [0]]


def _neighbor_graph_loop(config, C, delta):
    """Reference: the O(N^2) scan that tests every pair, as neighbor_graph
    did before the KD-tree. Returns (neighbors, violations, mismatches)."""
    z = config.positions
    npts = len(z)
    ell = config.ell
    neighbors = [[] for _ in range(npts)]
    violations = []
    for i in range(npts):
        d = np.abs(z[i + 1:] - z[i])
        near = np.abs(d - ell) <= C
        bad = ~near & (d < (1.0 + delta) * ell)
        for k in np.nonzero(near)[0]:
            neighbors[i].append(i + 1 + int(k))
            neighbors[i + 1 + int(k)].append(i)
        for k in np.nonzero(bad)[0]:
            violations.append((i, i + 1 + int(k), float(d[k])))
    mismatches = [(i, expect, len(neighbors[i]))
                  for i, expect in enumerate(config.expected_degree.tolist())
                  if expect >= 0 and len(neighbors[i]) != expect]
    return [sorted(nb) for nb in neighbors], violations, mismatches


@st.composite
def planted_clouds(draw):
    """(config, C, delta): random points plus pairs planted on the band
    edges d = ell - C, ell + C and (1 + delta) ell, with C up to ell / 2
    so the near band often reaches past the far one, far from the origin
    as the clouds of large kappa are."""
    ell = draw(st.floats(2.0, 20.0))
    delta = draw(st.floats(0.0, 0.3))
    C = draw(st.floats(0.01, 0.5)) * ell
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    origin = complex(*rng.uniform(-1e5, 1e5, 2))
    n = draw(st.integers(0, 30))
    zs = list(origin + rng.uniform(0, 4 * ell, n)
              + 1j * rng.uniform(0, 4 * ell, n))
    edges = (ell - C, ell + C, (1.0 + delta) * ell)
    for _ in range(draw(st.integers(0, 12))):
        d = draw(st.sampled_from(edges)) * (1.0 + draw(
            st.sampled_from((-1e-15, 0.0, 1e-15))))
        base = zs[int(rng.integers(len(zs)))] if zs else origin
        zs.append(base + d * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    # -1: no expected degree for that point
    expected = [int(rng.integers(0, 4)) if rng.random() < 0.5 else -1
                for _ in zs]
    return (Configuration(zs, [1] * len(zs),
                          [f"p{i}" for i in range(len(zs))], ell, band=C,
                          expected_degree=expected), C, delta)


@settings(max_examples=150, deadline=None)
@given(planted_clouds())
def test_neighbor_graph_matches_all_pairs_loop(cloud):
    config, C, delta = cloud
    nb = neighbor_graph(config, delta=delta)
    neighbors, violations, mismatches = _neighbor_graph_loop(config, C, delta)
    assert nb.neighbors == neighbors
    assert nb.violations == violations
    assert all(type(d) is float for _, _, d in nb.violations)
    assert nb.degree_mismatches == mismatches


def test_neighbor_graph_skips_non_finite_points():
    # a NaN or infinite position passes no band test, as in the loop
    zs = [0j, 10 + 0j, complex("nan"), 20 + 0j, complex("inf"), 10.2 + 0.1j]
    config = Configuration(zs, [1] * len(zs),
                           [f"p{i}" for i in range(len(zs))], 10.0, band=0.5,
                           expected_degree=[-1, -1, 0, -1, 1, -1])
    nb = neighbor_graph(config, delta=0.05)
    assert (nb.neighbors, nb.violations, nb.degree_mismatches) == \
        _neighbor_graph_loop(config, 0.5, 0.05)
    assert nb.degree_mismatches == [(4, 1, 0)]


@st.composite
def index_clouds(draw):
    """(positions, cell, centers, radii) for CloudIndex: points from a
    spread of 1e-3 to 1e15 about a negative corner, on a lattice of
    quarter cells (so on cell edges, with repeats) or anywhere, with NaN
    and infinite positions, duplicates, and the radii that reach exactly
    to other points."""
    scale = 10.0 ** draw(st.integers(-3, 15))
    cell = scale * draw(st.sampled_from((0.05, 0.25, 1.0, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(0, 40))
    xy = rng.uniform(-1.0, 1.0, (n, 2))
    if draw(st.booleans()):
        xy = np.round(xy * 4.0) / 4.0
    z = list(scale * (xy[:, 0] + 1j * xy[:, 1]))
    for _ in range(draw(st.integers(0, 3))):
        z.append(z[int(rng.integers(len(z)))] if z and rng.random() < 0.5
                 else draw(st.sampled_from((
                     complex("nan"), complex("inf"), complex(1.0, -math.inf),
                     complex("nan+1j")))))
    z = np.array(z, dtype=complex)[rng.permutation(len(z))]
    ok = z[np.isfinite(z)]
    radii = [0.0, 0.5 * cell, cell, 2.5 * cell, 3.0 * scale]
    radii += [abs(ok[i] - ok[j]) for i, j in rng.integers(len(ok), size=(4, 2))
              ] if ok.size else []
    centers = list(ok[:4]) + [scale * complex(*rng.uniform(-1.5, 1.5, 2))]
    return z, cell, centers, radii


@settings(max_examples=150, deadline=None)
@given(index_clouds())
def test_cloud_index_after_distance_test_is_brute_force(cloud):
    z, cell, centers, radii = cloud
    index = CloudIndex(z, cell)
    n = len(z)
    # every pair i < j in lexicographic order, its distance as the
    # callers take it (numpy's complex abs on arrays, which can differ
    # from the scalar abs in the last bit)
    every = np.column_stack(np.triu_indices(n, 1))
    for r in radii:
        ij = index.pairs(r)
        assert ij.shape[1] == 2 and np.all(ij[:, 0] < ij[:, 1])
        assert np.all(np.diff(ij[:, 0] * n + ij[:, 1]) > 0)
        kept = ij[np.abs(z[ij[:, 1]] - z[ij[:, 0]]) <= r]
        with np.errstate(invalid="ignore"):          # inf - inf
            brute = every[np.abs(z[every[:, 1]] - z[every[:, 0]]) <= r]
        assert np.array_equal(kept, brute)
        for c in centers:
            k = index.near(c, r)
            assert np.all(np.diff(k) > 0)
            assert np.array_equal(k[np.abs(z[k] - c) <= r],
                                  np.flatnonzero(np.abs(z - c) <= r))


def test_cloud_index_coarsens_a_cell_whose_keys_would_overflow():
    # 1e15 / 1e-3 cells a side: row * ncol + col would pass 2**63
    z = np.array([0j, 1e15 + 1e15j, 1e15, 1e15j, 1.0, 1.0 + 5e-4j,
                  -3e14 + 2e14j], dtype=complex)
    index = CloudIndex(z, 1e-3)
    every = np.column_stack(np.triu_indices(len(z), 1))
    for r in (1e-3, 1.0, 1e14, 1.5e15):
        ij = index.pairs(r)
        assert np.array_equal(
            ij[np.abs(z[ij[:, 1]] - z[ij[:, 0]]) <= r],
            every[np.abs(z[every[:, 1]] - z[every[:, 0]]) <= r])
        for c in z:
            k = index.near(c, r)
            assert np.array_equal(k[np.abs(z[k] - c) <= r],
                                  np.flatnonzero(np.abs(z - c) <= r))


def test_cloud_index_of_an_empty_cloud():
    index = CloudIndex(np.array([complex("nan")]), 1.0)
    assert index.near(0j, 5.0).tolist() == []
    assert index.pairs(5.0).shape == (0, 2)
    with pytest.raises(ValueError, match="cell side"):
        CloudIndex(np.zeros(2, dtype=complex), 0.0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 80), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2 ** 32 - 1), zeros=st.integers(0, 3))
def test_null_space_is_scipys(n, scale, seed, zeros):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(1, n)) * scale
    a[0, rng.integers(n, size=zeros)] = 0.0
    got, want = _null_space(a), null_space(a)
    assert got.shape == want.shape and np.array_equal(got, want)


def _check_ray_separation_loop(asm):
    """Reference: the scalar double loop that checked ray separation
    before it took arrays, message for message."""
    for p, sub in asm.subs.items():
        diam = sub.net.diameter()
        rays = _rays(asm, p)
        if not math.isfinite(diam):
            return False, f"sub at {p!r} has a non-finite diameter"
        jmax_v = math.ceil(diam + 2)
        if jmax_v > RAY_J_MAX:
            return False, (f"sub at {p!r} of diameter {diam:.6g} needs ray "
                           f"points past j={RAY_J_MAX}")
        for (o, u, q) in rays:
            for r in sub.net.ids:
                v = sub.net.vertices[r]
                if v == o:
                    continue
                for j in range(1, jmax_v + 1):
                    d = abs(o + j * u - v)
                    if d < 1.0 + GEOM_TOL:
                        return False, (f"sub vertex {r!r} at {p!r} within "
                                       f"{d:.9f} of ray point j={j} "
                                       f"toward {q!r}")
        for i in range(len(rays)):
            for k in range(i + 1, len(rays)):
                o1, u1, q1 = rays[i]
                o2, u2, q2 = rays[k]
                cosg = max(-1.0, min(1.0, (u1 * u2.conjugate()).real))
                half = math.sqrt(max(0.0, (1.0 - cosg) / 2.0))
                if half < 1e-6:
                    lat = abs((o2 - o1).imag * u1.real
                              - (o2 - o1).real * u1.imag)
                    if lat < 1.0 + GEOM_TOL and abs(o1 - o2) > GEOM_TOL:
                        return False, (f"parallel rays toward {q1!r},{q2!r} "
                                       f"at {p!r} separated by {lat:.6f}")
                    continue
                jmax = math.ceil((diam + 2) / (math.sqrt(2.0) * half)) + 1
                if jmax > RAY_J_MAX:
                    return False, (f"rays toward {q1!r} and {q2!r} at "
                                   f"{p!r} need points up to j={jmax}, "
                                   f"past {RAY_J_MAX}")
                for j in range(1, jmax + 1):
                    for jp in range(1, jmax + 1):
                        d = abs(o1 + j * u1 - o2 - jp * u2)
                        if d < 1.0 + GEOM_TOL:
                            return False, (f"rays toward {q1!r} and {q2!r} "
                                           f"at {p!r}: points j={j}, "
                                           f"j'={jp} at distance {d:.9f}")
    return True, ""


@pytest.mark.parametrize("k", range(3, 33))
def test_ray_separation_matches_loop_on_example_5_1(k):
    asm = example_5_1(k)
    assert _check_ray_separation(asm) == _check_ray_separation_loop(asm)
    # the rays of a small polygon's centre come within 1 of each other
    assert _check_ray_separation(asm)[0] == (k >= 7)


@st.composite
def ray_assemblies(draw):
    """A master star p -> q1..qm with one sub at p: random vertices within
    2 of its origin, anchors among them, rays in random directions (two
    of them sometimes parallel), so that ray points come near vertices
    and each other at every j."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nv = draw(st.integers(1, 6))
    verts = {f"r{i}": complex(*rng.uniform(-2.0, 2.0, 2)) for i in range(nv)}
    m = draw(st.integers(1, 4))
    angles = rng.uniform(0, 2 * math.pi, m)
    if m > 1 and draw(st.booleans()):
        angles[1] = angles[0]
    master = Network({"p": 0j, **{f"q{i}": 10 * complex(math.cos(t),
                                                        math.sin(t))
                                  for i, t in enumerate(angles)}},
                     {("p", f"q{i}"): 1.0 for i in range(m)})
    anchors = {f"q{i}": f"r{int(rng.integers(nv))}" for i in range(m)}
    subs = {q: singleton_at(master, q) for q in master.ids if q != "p"}
    subs["p"] = SubNetwork(Network(verts, {}), anchors)
    return Assembly(master, subs)


@settings(max_examples=300, deadline=None)
@given(ray_assemblies())
def test_ray_separation_matches_loop_on_planted_rays(asm):
    assert _check_ray_separation(asm) == _check_ray_separation_loop(asm)


def test_ray_separation_names_the_first_violation_in_loop_order():
    # ray a runs along +x from o, ray b along +y from s = 2 - 3i, so its
    # point j' = 3 is ray a's point j = 2; v sits 0.5 from ray a's j = 3
    master = Network({"p": 0j, "a": 10 + 0j, "b": 10j},
                     {("a", "p"): 1.0, ("b", "p"): 1.0})

    def asm(**vertices):
        sub = SubNetwork(Network({"o": 0j, "s": 2 - 3j, **vertices}, {}),
                         {"a": "o", "b": "s"})
        return Assembly(master, {"p": sub, "a": singleton_at(master, "a"),
                                 "b": singleton_at(master, "b")})

    # the vertex is checked first; of the ray points, (j, j') = (1, 3) at
    # distance exactly 1 comes before the crossing at (2, 3)
    cases = [(asm(v=3 + 0.5j), "sub vertex 'v' at 'p' within 0.500000000 "
                               "of ray point j=3 toward 'a'"),
             (asm(), "rays toward 'a' and 'b' at 'p': points j=1, j'=3 at "
                     "distance 1.000000000")]
    for a, message in cases:
        assert _check_ray_separation(a) == (False, message)
        assert _check_ray_separation_loop(a) == (False, message)


def _refuse_long_ranges(monkeypatch):
    """Make np.arange fail the test when asked for more than RAY_J_MAX + 1
    points, so that a search past the cap is refused, never allocated."""
    real = np.arange

    def arange(*args, **kwargs):
        lo, hi = (0, args[0]) if len(args) == 1 else args[:2]
        assert hi - lo <= RAY_J_MAX + 1, f"np.arange of {hi - lo} points"
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "arange", arange)


def test_ray_separation_refuses_a_search_past_the_cap(monkeypatch):
    _refuse_long_ranges(monkeypatch)
    master = Network({"p": 0j, "a": 10 + 0j, "b": 10 * cmath.exp(1e-4j)},
                     {("a", "p"): 1.0, ("b", "p"): 1.0})

    def asm(sub):
        return Assembly(master, {"p": sub, "a": singleton_at(master, "a"),
                                 "b": singleton_at(master, "b")})

    def spread(*ys):
        return SubNetwork(Network({"o": 0j, **{f"w{i}": 1j * y for i, y
                                               in enumerate(ys)}}, {}),
                          {"a": "o", "b": "o"})

    # rays 1e-4 rad apart: the pair grid would be 28,286^2 cells
    cases = [(asm(singleton_at(master, "p")),
              "rays toward 'a' and 'b' at 'p' need points up to j=28286, "
              f"past {RAY_J_MAX}"),
             (asm(spread(-1e308)), "sub at 'p' of diameter 1e+308 needs "
                                   f"ray points past j={RAY_J_MAX}"),
             (asm(spread(-1e308, 1e308)),
              "sub at 'p' has a non-finite diameter")]
    for a, message in cases:
        assert _check_ray_separation(a) == (False, message)
        assert _check_ray_separation_loop(a) == (False, message)


def test_configure_reports_a_sub_too_wide_to_search(tmp_path, capsys,
                                                    monkeypatch):
    # a sub vertex of example_5_1 moved to y = -1e308 ended configure in
    # a traceback: condition (vi) asked np.arange for 1e308 points
    _refuse_long_ranges(monkeypatch)
    asm = example_5_1(7)
    sub = asm.subs["c"].net
    r = sub.ids[0]
    asm.subs["c"] = SubNetwork(
        sub.with_positions({**sub.vertices, r: complex(sub.vertices[r].real,
                                                       -1e308)}),
        asm.subs["c"].anchors)
    path = tmp_path / "asm.json"
    save_assembly(asm, path)
    out = tmp_path / "cloud.csv"
    assert cli.main(["configure", "--assembly", str(path),
                     "--out", str(out)]) == cli.EXIT_CONDITIONS
    err = capsys.readouterr().err
    assert ("condition vi_ray_separation fails: sub at 'c' of diameter "
            "1e+308 needs ray points past j=2048") in err.splitlines()
    assert "Traceback" not in err
    assert not out.exists()


def test_singleton_anchors():
    master = polygon_center(5)
    sub = singleton_at(master, "v0")
    assert sub.net.n == 1
    assert set(sub.anchors) == set(master.neighbors("v0"))
