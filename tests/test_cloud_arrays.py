"""The cloud held as arrays against the per-point references it replaced:
generation, the CSV round trip and the neighbor graph give the same bits,
bytes and reports, and a CLI run builds no per-point objects."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CACHE_DIR
from netforge import cli
from netforge.assembly import (Configuration, generate_cloud, load_cloud,
                               neighbor_graph, save_cloud, solve_master,
                               solve_signs)
from netforge.builders import example_5_1, example_5_2, n_c_assembly

ELL = 10.0
CLOUDS = {
    "ex51-k7-kappa64": lambda: (example_5_1(7), 64.0),
    "ex51-k7-kappa1024": lambda: (example_5_1(7), 1024.0),
    # triangle subs on the ring, a singleton at the centre
    "ex52-k4-kappa64": lambda: (example_5_2(4), 64.0),
    "nc-perturbed-seed1": lambda: (n_c_assembly(perturbation=0.01, seed=1),
                                   64.0),
}


# --- per-point references ------------------------------------------------

def _generate_cloud_loop(result, table):
    """Reference: one point at a time, in Python complex arithmetic, with
    the solved sub positions read through the layout's (p, r) keys.
    Returns ([(z, sign, provenance)], {index: degree}, band)."""
    asm = result.assembly
    ell, kappa = result.ell, result.kappa
    eta, _ = solve_signs(asm)
    phi = dict(zip(asm.master.ids, result.master_positions.tolist()))
    weight = dict(zip(asm.master.edges, result.master_weights.tolist()))
    local = dict(zip(result.layout.keys, result.sub_positions.tolist()))
    rows = []
    expected = {}
    for p in asm.master.ids:
        sub = asm.subs[p]
        anchored = {}
        for q, r in sub.anchors.items():
            anchored[r] = anchored.get(r, 0) + 1
        for r in sub.net.ids:
            z = ell * (kappa * phi[p] + local[(p, r)])
            kind = "anchor" if r in anchored else "internal"
            expected[len(rows)] = (len(sub.net.neighbors(r))
                                   + anchored.get(r, 0))
            rows.append((z, eta[p][r], f"{kind}:{p}:{r}"))
    weights = (result.sub_weights.tolist()
               + [weight[ek] for ek in asm.master.edges])
    lams = (ell * table.alpha_ell(np.array(weights), ell)).tolist()
    lam_master = dict(zip(asm.master.edges, lams[len(result.sub_weights):]))
    for ek in asm.master.edges:
        p, q = ek
        aw = weight[ek]
        lam = lam_master[ek]
        ap = ell * (kappa * phi[p] + local[(p, asm.subs[p].anchors[q])])
        aq = ell * (kappa * phi[q] + local[(q, asm.subs[q].anchors[p])])
        e_pq = (aq - ap) / abs(aq - ap)
        eta0 = eta[p][asm.subs[p].anchors[q]]
        for j in range(1, 2 * result.m_map[ek]):
            z = ap + j * (ell - lam) * e_pq
            sign = eta0 * ((-1) ** j if aw < 0 else 1)
            expected[len(rows)] = 2
            rows.append((z, sign, f"chain:{p}:{q}:{j}"))
    return rows, expected, max(abs(lam) for lam in lams) + 0.1


def _save_cloud_loop(rows, path):
    with open(path, "w") as fh:
        fh.write("x,y,sign,provenance\n")
        for z, sign, prov in rows:
            fh.write(f"{z.real:.17g},{z.imag:.17g},{sign:d},{prov}\n")


def _load_cloud_loop(path):
    rows = []
    with open(path) as fh:
        fh.readline()
        for line in fh:
            line = line.strip()
            if not line:
                continue
            x, y, s, prov = line.split(",", 3)
            rows.append((complex(float(x), float(y)), int(s), prov))
    return rows


def _neighbor_graph_per_point(config, C, delta):
    """Reference: the cloud index's candidates classified pair by pair into
    per-point neighbor lists. Returns (neighbors, violations,
    mismatches)."""
    z = config.positions
    ell = config.ell
    far = (1.0 + delta) * ell
    neighbors = [[] for _ in range(len(z))]
    violations = []
    for i, j in config.index.pairs(float(np.fmax(far, ell + C))).tolist():
        d = abs(z[j] - z[i])
        if abs(d - ell) <= C:
            neighbors[i].append(j)
            neighbors[j].append(i)
        elif d < far:
            violations.append((i, j, float(d)))
    mismatches = [(i, e, len(neighbors[i]))
                  for i, e in enumerate(config.expected_degree.tolist())
                  if e >= 0 and len(neighbors[i]) != e]
    return [sorted(nb) for nb in neighbors], violations, mismatches


def _bits(z):
    return np.asarray(z, dtype=complex).view(np.uint64).tolist()


# --- the solved clouds ---------------------------------------------------

@pytest.fixture(scope="module", params=sorted(CLOUDS))
def solved(request, table):
    asm, kappa = CLOUDS[request.param]()
    return solve_master(asm, kappa, ELL, table)


def test_generate_cloud_matches_loop(solved, table):
    cfg = generate_cloud(solved, table)
    rows, expected, band = _generate_cloud_loop(solved, table)
    assert _bits(cfg.positions) == _bits([z for z, _, _ in rows])
    assert cfg.signs.tolist() == [s for _, s, _ in rows]
    assert cfg.provenance == [p for _, _, p in rows]
    assert cfg.expected_degree.tolist() == [expected[i]
                                            for i in range(len(rows))]
    assert cfg.band == band


def test_cloud_file_matches_loop(solved, table, tmp_path):
    cfg = generate_cloud(solved, table)
    rows = _generate_cloud_loop(solved, table)[0]
    path, ref = tmp_path / "cloud.csv", tmp_path / "ref.csv"
    save_cloud(cfg, path)
    _save_cloud_loop(rows, ref)
    assert path.read_bytes() == ref.read_bytes()
    back = load_cloud(path, ELL)
    again = _load_cloud_loop(path)
    assert _bits(back.positions) == _bits([z for z, _, _ in again])
    assert back.signs.tolist() == [s for _, s, _ in again]
    assert back.provenance == [p for _, _, p in again]
    assert _bits(back.positions) == _bits(cfg.positions)


def test_neighbor_report_matches_loop(solved, table):
    cfg = generate_cloud(solved, table)
    C = _generate_cloud_loop(solved, table)[2]
    nb = neighbor_graph(cfg)
    neighbors, violations, mismatches = _neighbor_graph_per_point(cfg, C,
                                                                  0.05)
    assert nb.neighbors == neighbors
    assert nb.violations == violations
    assert nb.degree_mismatches == mismatches
    assert nb.near_pairs.tolist() == sorted(
        [i, j] for i, nbs in enumerate(neighbors) for j in nbs if i < j)


# --- round trip ----------------------------------------------------------

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 1e16 + 2.0]
coordinates = st.one_of(st.sampled_from(SPECIAL),
                        st.floats(allow_nan=False, width=64))
# printable ASCII without leading or trailing blanks (lines are stripped
# when read); commas are kept, since only the first three split a row
labels = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                 max_size=12).filter(lambda s: s == s.strip())


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 25))
    x = draw(st.lists(coordinates, min_size=n, max_size=n))
    y = draw(st.lists(coordinates, min_size=n, max_size=n))
    signs = draw(st.lists(st.one_of(st.sampled_from([-1, 1]),
                                    st.integers(-2 ** 63, 2 ** 63 - 1)),
                          min_size=n, max_size=n))
    prov = draw(st.lists(labels, min_size=n, max_size=n))
    positions = np.empty(n, dtype=complex)
    positions.real, positions.imag = x, y
    return Configuration(positions, signs, prov, ELL)


@settings(max_examples=200, deadline=None)
@given(clouds())
def test_cloud_round_trip(tmp_path_factory, cloud):
    d = tmp_path_factory.mktemp("roundtrip")
    first, second = d / "a.csv", d / "b.csv"
    save_cloud(cloud, first)
    back = load_cloud(first, ELL)
    save_cloud(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert _bits(back.positions) == _bits(cloud.positions)
    assert back.signs.tolist() == cloud.signs.tolist()
    assert back.provenance == cloud.provenance


# --- no per-point objects on the CLI path --------------------------------

def test_cli_run_keeps_clouds_as_arrays(tmp_path, monkeypatch):
    seen = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append(out)
            return out
        return wrapper
    monkeypatch.setenv("NETFORGE_CACHE", CACHE_DIR)
    for name in ("generate_cloud", "load_cloud", "neighbor_graph"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    cloud = str(tmp_path / "cloud.csv")
    assert cli.main(["configure", "--catalog", "example_5_1", "--k", "7",
                     "--kappa", "64", "--out", cloud]) == 0
    assert cli.main(["assemble", cloud, "--ell", "10",
                     "--out", str(tmp_path / "diag.json")]) == 0
    generated, report, loaded = seen
    for cfg in (generated, loaded):
        assert all(isinstance(getattr(cfg, name), np.ndarray)
                   for name in ("positions", "signs", "expected_degree"))
        assert len(cfg.points) == 1428
    # the per-point neighbor lists are built only when read
    assert "neighbors" not in vars(report)
    assert len(report.near_pairs) == 1435
    points = list(loaded.points)
    assert points[67] == (loaded.positions[67], loaded.signs[67],
                          loaded.provenance[67])
    assert points[-1] == loaded.points[-1]
