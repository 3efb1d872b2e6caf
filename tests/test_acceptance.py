"""End-to-end acceptance gate: one test per release criterion."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import random_network
from netforge.assembly import generate_cloud, solve_master
from netforge.balance import balance_nearby
from netforge.builders import example_5_1
from netforge.catalog import catalog, n_c, n_v, n_y, polygon_center, triangle
from netforge.fields import FieldWindow, project_force, residual
from netforge.linearize import (adjointness_defect, build_differentials,
                                certify, nv_closability_criterion)
from netforge.network import forces, total_weight


def test_criterion_1_force_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    for _ in range(200):
        net = random_network(rng)
        scale = max(total_weight(net), 1e-300)
        F = forces(net)
        assert abs(sum(F.values())) < 1e-10 * scale
        torque = sum((net.vertices[v].conjugate() * F[v]).imag
                     for v in net.ids)
        assert abs(torque) < 1e-10 * scale * max(net.diameter(), 1.0)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_adjointness():
    start = time.perf_counter()
    from netforge.catalog import catalog_names
    for name in catalog_names():
        assert adjointness_defect(build_differentials(catalog(name))) < 1e-12
    rng = np.random.default_rng(999)
    for _ in range(100):
        net = random_network(rng)
        assert adjointness_defect(build_differentials(net)) < 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_3_certification_table():
    start = time.perf_counter()
    # chain: flexible
    assert certify(catalog("N_I", n=4)).flexible
    # constant-weight regular polygons: flexible
    for n in range(3, 9):
        assert certify(catalog("N_RegPol", n=n)).flexible
    # triangles: flexible iff the weight sum is nonzero
    grid = (-2.0, -1.0, -0.5, 0.5, 1.0, 1.5)
    for w0 in grid:
        for w1 in grid:
            for w2 in grid:
                cert = certify(triangle(0.0, (w0, w1, w2)))
                assert cert.flexible == (abs(w0 + w1 + w2) > 1e-12), \
                    (w0, w1, w2)
    # polygon with center: balanced, flexible, rank 2k-1, closable iff k != 6
    for k in range(3, 13):
        cert = certify(polygon_center(k))
        assert cert.balanced and cert.flexible
        assert cert.df_a_rank == 2 * k - 1
        assert cert.closable == (k != 6)
        assert cert.gap_ratio > 10
    # V-shaped network: flexible and closable across the angle grid
    for theta in np.linspace(math.pi / 12, math.pi / 4.5, 8):
        cert = certify(n_v(float(theta)))
        assert cert.flexible and cert.closable
        assert cert.gap_ratio > 10
        assert nv_closability_criterion(float(theta)) > 0
    # Y-shaped network
    for nu, mu in ((0.3, 0.8), (0.5, 1.2)):
        cert = certify(n_y(nu, mu))
        assert cert.flexible and cert.closable
        assert cert.gap_ratio > 10
    # off-center square network
    for a, b in ((0.3, 0.5), (0.1, 0.9)):
        cert = certify(n_c(a, b))
        assert cert.flexible and cert.closable
        assert cert.gap_ratio > 10
    assert time.perf_counter() - start < 10.0


def test_criterion_4_upsilon_asymptotics(table):
    s = np.linspace(15.0, 25.0, 101)
    c = -np.log(table.upsilon(s)) - s - 0.5 * np.log(s)
    assert c.max() - c.min() < 1e-2
    ratio = -float(table.upsilon(20.0)) / float(table.upsilon_prime(20.0))
    expect = 1.0 - 1.0 / 40.0
    assert abs(ratio - expect) < 1e-3 * expect


def test_criterion_5_alpha_expansion(table):
    ells = (20.0, 40.0, 80.0)
    d = [abs(table.alpha_ell(math.e, ell) - 1.0 / ell) for ell in ells]
    assert all(dk * ell ** 2 < 1.0 for dk, ell in zip(d, ells))
    slope = np.polyfit(np.log(ells), np.log(d), 1)[0]
    assert abs(slope + 2.0) < 0.3


def test_criterion_6_residual_decay(table):
    from netforge.assembly import Configuration
    scaled = []
    for ell in (8.0, 10.0, 12.0):
        cfg = Configuration([0j, complex(ell, 0)], [1, 1], ["a", "b"], ell)
        w = residual(cfg, FieldWindow(0j, 3.0, 0.05), table)
        sup = float(np.max(np.abs(w.E)))
        scaled.append(sup * math.exp(ell) * math.sqrt(ell))
    assert max(scaled) / min(scaled) < 1.25


@pytest.fixture(scope="module")
def example_run(table):
    """Example polygon-with-center run with small prescribed forces at
    the ring singletons."""
    asm = example_5_1(7)
    f = {}
    for j in range(7):
        z = asm.master.vertices[f"v{j}"]
        f[(f"v{j}", "o")] = 0.05 * z / abs(z)
    res = solve_master(asm, 64.0, 10.0, table, f=f)
    cfg = generate_cloud(res, table)
    return asm, f, res, cfg


def test_criterion_7_projection_expansion(table, example_run):
    from netforge.assembly import Configuration

    def projection(cfg, z):
        # on the assembled window: half width ell/4 + 2 about z
        window = FieldWindow(z, cfg.ell / 4.0 + 2.0)
        return project_force(cfg, residual(cfg, window, table), table)

    # two-point oracle
    ell = 10.0
    cfg2 = Configuration([0j, complex(ell, 0)], [1, 1], ["a", "b"], ell)
    g = projection(cfg2, 0j)
    ups = float(table.upsilon(ell))
    assert abs(abs(g) - ups) < 0.05 * ups
    # interior chain points of the generated cloud project below 5%
    asm, f, res, cfg = example_run
    mids = [pt for pt in cfg.points
            if pt.provenance.startswith("chain:")
            and int(pt.provenance.rsplit(":", 1)[1])
            == res.m_map[tuple(pt.provenance.split(":")[1:3])]]
    assert len(mids) == 14
    for pt in mids:
        assert abs(projection(cfg, pt.z)) < 0.05 * ups
    # anchor projections match the prescribed-force prediction within 10%
    for pt in cfg.points:
        if not (pt.provenance.startswith("anchor:v")
                and pt.provenance.endswith(":o")):
            continue
        p = pt.provenance.split(":")[1]
        pred = ups * (f[(p, "o")] + res.e
                      + 1j * res.t * asm.master.vertices[p])
        proj = projection(cfg, pt.z)
        assert abs(proj - pred) < 0.1 * abs(pred), pt.provenance


def test_criterion_9_solvers(table):
    # re-balance a perturbed polygon with center
    net = polygon_center(5)
    rng = np.random.default_rng(42)
    phi = {v: z + complex(*rng.normal(0, 0.02, 2))
           for v, z in net.vertices.items()}
    res = balance_nearby(net, phi)
    moved = net.with_positions(phi).with_weights(res.a_tilde)
    assert max(abs(fv) for fv in forces(moved).values()) < 1e-10
    assert abs(res.e) < 1e-8 and abs(res.t) < 1e-8
    # master solve at desk scale, forward-verified residuals
    start = time.perf_counter()
    out = solve_master(example_5_1(7), 64.0, 10.0, table)
    assert time.perf_counter() - start < 30.0
    assert out.info.converged
    for key in ("a", "b", "cd", "e", "f"):
        assert out.residuals[key] < 1e-9, (key, out.residuals[key])


def _run_cli(args, cwd, env):
    return subprocess.run([sys.executable, "-m", "netforge.cli"] + args,
                          cwd=cwd, env=env, capture_output=True, text=True)


def test_criterion_10_end_to_end(tmp_path, table, cache_env):
    runs = (
        ("ex51", ["--catalog", "example_5_1", "--k", "7"]),
        ("nc", ["--catalog", "n_c", "--perturbation", "0.02", "--seed", "1"]),
    )
    for name, flags in runs:
        cloud = tmp_path / f"{name}.csv"
        r = _run_cli(["configure"] + flags
                     + ["--ell", "10", "--kappa", "64", "--out", str(cloud)],
                     tmp_path, cache_env)
        assert r.returncode == 0, (name, r.stderr)
        report = json.loads((tmp_path / f"{name}.csv.report.json").read_text())
        assert report["band_violations"] == []
        assert report["degree_mismatches"] == []
        diag = tmp_path / f"{name}.json"
        r2 = _run_cli(["assemble", str(cloud), "--ell", "10",
                       "--windows", "anchors", "--out", str(diag)],
                      tmp_path, cache_env)
        assert r2.returncode == 0, (name, r2.stderr)
        obj = json.loads(diag.read_text())
        assert obj["gate"]["pass"] is True
