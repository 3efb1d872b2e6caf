import json
import math
import os
import subprocess
import sys
import time

import pytest

from netforge import cli
from netforge.catalog import catalog

RUN = [sys.executable, "-m", "netforge.cli"]


def run_cli(args, cwd, env):
    return subprocess.run(RUN + args, cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_certify_polygon_center_k6(tmp_path, cache_env):
    out = tmp_path / "cert.json"
    r = run_cli(["certify", "--catalog", "polygon_center", "--k", "6",
                 "--out", str(out)], tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    cert = json.loads(out.read_text())
    assert cert["flexible"] is True
    assert cert["closable"] is False
    assert (tmp_path / "cert.json.manifest.json").exists()


def test_certify_nc(tmp_path, cache_env):
    r = run_cli(["certify", "--catalog", "N_C", "--a", "0.3", "--b", "0.5"],
                tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    cert = json.loads(r.stdout)
    assert cert["flexible"] is True and cert["closable"] is True
    assert cert["gap_ratio"] > 10


def test_certify_malformed_file_exits_64(tmp_path, cache_env):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    r = run_cli(["certify", "--network", str(bad)], tmp_path, cache_env)
    assert r.returncode == 64, r.stderr


def test_certify_unknown_catalog_exits_64(tmp_path, cache_env):
    r = run_cli(["certify", "--catalog", "bogus"], tmp_path, cache_env)
    assert r.returncode == 64, r.stderr


def test_bad_flag_exits_64(tmp_path, cache_env):
    r = run_cli(["certify", "--frobnicate"], tmp_path, cache_env)
    assert r.returncode == 64, r.stderr


def test_certify_disconnected_exits_1(tmp_path, cache_env):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "vertices": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0},
                     {"id": "c", "x": 5, "y": 5}, {"id": "d", "x": 6, "y": 5}],
        "edges": [{"u": "a", "v": "b", "weight": 1.0},
                  {"u": "c", "v": "d", "weight": 1.0}]}))
    r = run_cli(["certify", "--network", str(net)], tmp_path, cache_env)
    assert r.returncode == 1, r.stderr
    cert = json.loads(r.stdout)
    assert cert["connected"] is False


ONE_VERTEX = {"vertices": [{"id": "a", "x": 0, "y": 0}], "edges": []}
EDGELESS = [
    # (network, exit code, connected); no network is a usage error
    (ONE_VERTEX, 0, True),
    ({"vertices": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0}],
      "edges": []}, 1, False),
    ({"vertices": [], "edges": []}, 64, None),
]


@pytest.mark.parametrize("net, code, connected", EDGELESS,
                         ids=["one-vertex", "two-isolated", "no-vertices"])
def test_certify_network_without_edges(tmp_path, cache_env, net, code,
                                       connected):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(net))
    r = run_cli(["certify", "--network", str(path)], tmp_path, cache_env)
    assert r.returncode == code, r.stderr
    assert "Traceback" not in r.stderr
    if connected is None:
        assert r.stdout == ""
        return
    cert = json.loads(r.stdout)
    assert cert["connected"] is connected
    assert cert["m"] == 0 and cert["gap_ratio"] is None


def test_configure_failing_assembly_exits_3(tmp_path, cache_env):
    # example_5_1 fails ray separation at every k from 3 to 6
    for flags in (["n_v"], ["example_5_1", "--k", "6"]):
        r = run_cli(["configure", "--catalog"] + flags, tmp_path, cache_env)
        assert r.returncode == 3, (flags, r.stderr)
        assert "vi_ray_separation" in r.stderr


def test_configure_at_shortest_length_exits_1(tmp_path, cache_env):
    # --ell 2 is accepted (it is the table's shortest length), but no
    # weight of magnitude above 1 has a length correction there; at k = 8
    # a Newton iterate reaches one, so the master solve fails: exit 1
    # with a message, not a traceback
    cloud = tmp_path / "cloud.csv"
    r = run_cli(["configure", "--catalog", "example_5_1", "--k", "8",
                 "--ell", "2", "--out", str(cloud)], tmp_path, cache_env)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("configure: ")
    assert "Traceback" not in r.stderr
    assert not cloud.exists()


def test_configure_at_longest_length_exits_1(tmp_path, cache_env):
    # --ell 110 is accepted (the table's longest length), but ex51's
    # master weights below 1 in magnitude need lengths beyond the table
    # already when the chain counts are chosen: exit 1 with a message
    cloud = tmp_path / "cloud.csv"
    r = run_cli(["configure", "--catalog", "example_5_1", "--k", "7",
                 "--ell", "110", "--kappa", "64", "--out", str(cloud)],
                tmp_path, cache_env)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("configure: chain quantization failed: ")
    assert "tabulated range" in r.stderr
    assert r.stderr.count("\n") == 1
    assert "Traceback" not in r.stderr
    assert not cloud.exists()


def test_configure_assemble_plot_pipeline(tmp_path, cache_env):
    cloud = tmp_path / "cloud.csv"
    r = run_cli(["configure", "--catalog", "n_c", "--ell", "10",
                 "--kappa", "64", "--out", str(cloud)], tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    assert cloud.exists()
    report = json.loads((tmp_path / "cloud.csv.report.json").read_text())
    assert report["band_violations"] == []
    assert report["degree_mismatches"] == []
    assert max(report["condition_residuals"].values()) < 1e-9
    solver = json.loads(
        (tmp_path / "cloud.csv.manifest.json").read_text())["solver"]
    assert solver["jac_evals"] == solver["iterations"] >= 1
    assert solver["fun_evals"] >= solver["iterations"] + 1
    assert len(solver["residual_history"]) == solver["iterations"] + 1
    assert solver["residual_history"][-1] < 1e-11

    diag = tmp_path / "diag.json"
    r2 = run_cli(["assemble", str(cloud), "--ell", "10",
                  "--windows", "anchors", "--out", str(diag)],
                 tmp_path, cache_env)
    assert r2.returncode == 0, r2.stderr
    obj = json.loads(diag.read_text())
    assert obj["gate"]["pass"] is True
    assert obj["norms"]["sup_max"] > 0

    svg = tmp_path / "cloud.svg"
    r3 = run_cli(["plot", str(cloud), "--out", str(svg)], tmp_path, cache_env)
    assert r3.returncode == 0, r3.stderr
    assert "<circle" in svg.read_text()


def test_assemble_single_point_all_zero(tmp_path, cache_env):
    cloud = tmp_path / "one.csv"
    cloud.write_text("x,y,sign,provenance\n0,0,1,anchor:a:o\n")
    diag = tmp_path / "one.json"
    r = run_cli(["assemble", str(cloud), "--ell", "10", "--windows", "all",
                 "--out", str(diag)], tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    obj = json.loads(diag.read_text())
    assert obj["norms"]["sup_max"] == 0.0
    assert obj["points"][0]["projection"] == [0.0, 0.0] or \
        obj["points"][0]["projection"] == [-0.0, -0.0]


def test_assemble_is_deterministic(tmp_path, cache_env):
    cloud = tmp_path / "two.csv"
    cloud.write_text("x,y,sign,provenance\n"
                     "0,0,1,anchor:a:o\n10,0,1,anchor:b:o\n")
    d1, d2 = tmp_path / "d1.json", tmp_path / "d2.json"
    for d in (d1, d2):
        r = run_cli(["assemble", str(cloud), "--ell", "10",
                     "--windows", "all", "--out", str(d)],
                    tmp_path, cache_env)
        assert r.returncode == 0, r.stderr
    assert d1.read_bytes() == d2.read_bytes()


def test_assemble_computes_each_named_window_once(tmp_path, cache_env):
    # a repeated index names one window: one row, the same output
    cloud = tmp_path / "line.csv"
    cloud.write_text("x,y,sign,provenance\n" + "".join(
        f"{10 * i},0,1,anchor:p{i}:o\n" for i in range(7)))
    outs = []
    for windows in ("5,5,5", "5"):
        diag = tmp_path / f"diag{len(windows)}.json"
        r = run_cli(["assemble", str(cloud), "--ell", "10",
                     "--windows", windows, "--out", str(diag)],
                    tmp_path, cache_env)
        assert r.returncode == 0, r.stderr
        assert "(1 windows" in r.stdout
        outs.append(diag.read_bytes())
    assert outs[0] == outs[1]
    assert [p["index"] for p in json.loads(outs[0])["points"]] == [5]


def test_assemble_gate_fails_on_nan_projection(tmp_path, cache_env):
    # a NaN mid-chain point gives a NaN projection, which must fail the
    # gate rather than drop out of the worst-projection maximum
    cloud = tmp_path / "cloud.csv"
    r = run_cli(["configure", "--catalog", "example_5_1", "--k", "7",
                 "--kappa", "64", "--ell", "10", "--out", str(cloud)],
                tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    lines = cloud.read_text().splitlines()
    chain = {}                                   # j -> point index
    for i, line in enumerate(lines[1:]):
        prov = line.split(",", 3)[3]
        if prov.startswith("chain:c:v0:"):
            chain[int(prov.rsplit(":", 1)[1])] = i
    mid = chain[(max(chain) + 1) // 2]           # j = m of 2m - 1 points
    x, y, sign, prov = lines[mid + 1].split(",", 3)
    lines[mid + 1] = f"nan,nan,{sign},{prov}"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    diag = tmp_path / "diag.json"
    r = run_cli(["assemble", str(bad), "--ell", "10", "--windows", str(mid),
                 "--out", str(diag)], tmp_path, cache_env)
    assert r.returncode == 1, r.stderr
    assert "gate FAIL" in r.stdout
    obj = json.loads(diag.read_text())
    assert obj["gate"]["pass"] is False
    row = next(p for p in obj["points"] if p["index"] == mid)
    assert row["gated"] is True
    assert all(math.isnan(v) for v in row["projection"])
    # the window on the NaN point has NaN norms, and the maxima carry
    # them whichever window comes first
    for windows in (f"{mid},0", f"0,{mid}"):
        r = run_cli(["assemble", str(bad), "--ell", "10",
                     "--windows", windows, "--out", str(diag)],
                    tmp_path, cache_env)
        assert r.returncode == 1, r.stderr
        assert "Warning" not in r.stderr
        obj = json.loads(diag.read_text())
        rows = {p["index"]: p for p in obj["points"]}
        assert math.isnan(rows[mid]["sup_norm"])
        assert math.isnan(rows[mid]["weighted_norm"])
        assert rows[0]["sup_norm"] > 0 and rows[0]["weighted_norm"] > 0
        assert math.isnan(obj["norms"]["sup_max"])
        assert math.isnan(obj["norms"]["weighted_max"])


def test_assemble_rejects_cloud_of_other_ell(tmp_path, cache_env):
    # the configure report next to the cloud records its ell; assembling
    # at another ell is a usage error, not a passing gate
    cloud = tmp_path / "cloud.csv"
    r = run_cli(["configure", "--catalog", "example_5_1", "--k", "7",
                 "--kappa", "64", "--ell", "10", "--out", str(cloud)],
                tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    diag = tmp_path / "diag.json"
    r = run_cli(["assemble", str(cloud), "--ell", "3", "--out", str(diag)],
                tmp_path, cache_env)
    assert r.returncode == 64, r.stderr
    assert "configured at ell 10" in r.stderr
    assert "Traceback" not in r.stderr
    assert not diag.exists()


@pytest.mark.parametrize("report, message", [
    ("garbage", ".report.json: invalid JSON"),
    ('{"ell": "ten"}', "was configured at ell ten"),
    ('{"points": 1}', ".report.json records no ell"),
    ("[10]", ".report.json records no ell")],
    ids=["garbage", "string-ell", "no-ell", "array"])
def test_assemble_names_the_report_it_cannot_read(tmp_path, capsys, report,
                                                  message):
    cloud = tmp_path / "one.csv"
    cloud.write_text("x,y,sign,provenance\n0,0,1,anchor:a:o\n")
    (tmp_path / "one.csv.report.json").write_text(report)
    diag = tmp_path / "d.json"
    assert cli.main(["assemble", str(cloud), "--ell", "10",
                     "--out", str(diag)]) == 64
    err = capsys.readouterr().err
    assert err.startswith(f"assemble: {cloud}")
    assert f"{cloud}.report.json" in err and message in err
    assert not diag.exists()
    assert not list(tmp_path.glob("*.manifest.json"))


@pytest.mark.parametrize("sign", ["0", "2", "-3"])
def test_assemble_refuses_a_sign_other_than_one(tmp_path, capsys, sign):
    cloud = tmp_path / "two.csv"
    cloud.write_text("x,y,sign,provenance\n0,0,1,anchor:a:o\n"
                     f"10,0,{sign},anchor:b:o\n")
    diag = tmp_path / "d.json"
    assert cli.main(["assemble", str(cloud), "--ell", "10",
                     "--out", str(diag)]) == 64
    assert capsys.readouterr().err == ("assemble: cloud signs must be +1 "
                                       "or -1\n")
    assert not diag.exists()


def _refuse_to_certify(*args, **kwargs):
    raise AssertionError("certify ranked a network past LAMBDA_MAX")


@pytest.mark.parametrize("source", ["catalog", "network"])
def test_certify_refuses_a_network_past_the_largest_lambda(
        tmp_path, capsys, monkeypatch, source):
    # each flag is within K_MAX, but N_RegPol_k at --n 64 --k 64 has a
    # Lambda of side 2n + m = 12,288 (a 768 MiB matrix); a path of 1,100
    # vertices from a file has side 3,299. Both are refused before any
    # matrix is built: certify itself must not run.
    monkeypatch.setattr(cli, "certify", _refuse_to_certify)
    if source == "catalog":
        args = ["--catalog", "N_RegPol_k", "--n", "64", "--k", "64"]
        side = 12288
    else:
        path = tmp_path / "path.json"
        path.write_text(json.dumps({
            "vertices": [{"id": f"v{i:04d}", "x": i, "y": 0}
                         for i in range(1100)],
            "edges": [{"u": f"v{i:04d}", "v": f"v{i + 1:04d}", "weight": 1}
                      for i in range(1099)]}))
        args, side = ["--network", str(path)], 3299
    out = tmp_path / "cert.json"
    start = time.perf_counter()
    assert cli.main(["certify", *args, "--out", str(out)]) == 64
    assert time.perf_counter() - start < 10.0
    err = capsys.readouterr().err
    assert err.startswith("certify: ") and f"= {side} exceeds" in err
    assert not out.exists()
    assert not list(tmp_path.glob("*.manifest.json"))


def test_lambda_max_is_k_poly_at_k_max():
    net = catalog("K_poly", k=cli.K_MAX)
    assert 2 * net.n + net.m == cli.LAMBDA_MAX == 2144


def test_plot_empty_cloud(tmp_path, cache_env):
    cloud = tmp_path / "empty.csv"
    cloud.write_text("x,y,sign,provenance\n")
    svg = tmp_path / "empty.svg"
    r = run_cli(["plot", str(cloud), "--out", str(svg)], tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    assert "<circle" not in svg.read_text()


def test_plot_field_csv_exits_64(tmp_path, cache_env):
    # plot reads clouds only; an x,y,value field file is a usage error
    field = tmp_path / "field.csv"
    field.write_text("x,y,value\n0,0,1.5\n0,1,0.5\n1,0,0.5\n1,1,1.5\n")
    svg = tmp_path / "heat.svg"
    r = run_cli(["plot", str(field), "--out", str(svg)], tmp_path, cache_env)
    assert r.returncode == 64, r.stderr
    assert "Traceback" not in r.stderr
    assert not svg.exists()


def test_assemble_plot_writes_heatmap(tmp_path, cache_env):
    # --plot renders the residual of the first window as a heatmap, lists
    # it in the manifest, and a rerun writes the same bytes
    cloud = tmp_path / "cloud.csv"
    r = run_cli(["configure", "--catalog", "example_5_1", "--k", "7",
                 "--kappa", "64", "--ell", "10", "--out", str(cloud)],
                tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    svgs = []
    for name in ("a", "b"):
        svg, diag = tmp_path / f"{name}.svg", tmp_path / f"{name}.json"
        r = run_cli(["assemble", str(cloud), "--ell", "10",
                     "--windows", "anchors", "--plot", str(svg),
                     "--out", str(diag)], tmp_path, cache_env)
        assert r.returncode == 0, r.stderr
        man = json.loads((tmp_path / f"{name}.json.manifest.json")
                         .read_text())
        assert man["outputs"] == [str(diag), str(svg)]
        svgs.append(svg.read_text())
    assert svgs[0] == svgs[1]
    assert svgs[0].count("<rect") > 100        # cells and the colorbar
    assert "<text" in svgs[0]                  # the colorbar's labels


def test_plot_unknown_header_exits_64(tmp_path, cache_env):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    r = run_cli(["plot", str(bad)], tmp_path, cache_env)
    assert r.returncode == 64, r.stderr


def test_assemble_delta_within_its_limit_runs(tmp_path, cache_env):
    # the limit on |delta| at ell 10 is 19.51: 19.5 and -19.5 still run
    cloud = tmp_path / "two.csv"
    cloud.write_text("x,y,sign,provenance\n"
                     "0,0,1,anchor:a:o\n10,0,1,anchor:b:o\n")
    for delta in ("19.5", "-19.5"):
        diag = tmp_path / f"d{delta}.json"
        r = run_cli(["assemble", str(cloud), "--ell", "10", "--delta", delta,
                     "--windows", "all", "--out", str(diag)],
                    tmp_path, cache_env)
        assert r.returncode == 0, r.stderr
        norms = json.loads(diag.read_text())["norms"]
        assert 0 < norms["weighted_max"] < math.inf


def test_manifest_path_skips_non_regular_files(tmp_path):
    out = tmp_path / "diag.json"
    assert cli._manifest_path(str(out)) == str(out) + ".manifest.json"
    out.write_text("{}")
    assert cli._manifest_path(str(out)) == str(out) + ".manifest.json"
    assert cli._manifest_path(None) == "netforge-run.manifest.json"
    assert cli._manifest_path(os.devnull) is None
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    assert cli._manifest_path(str(fifo)) is None


def test_manifest_contents(tmp_path, cache_env):
    cloud = tmp_path / "empty.csv"
    cloud.write_text("x,y,sign,provenance\n")
    svg = tmp_path / "p.svg"
    r = run_cli(["plot", str(cloud), "--out", str(svg)], tmp_path, cache_env)
    assert r.returncode == 0, r.stderr
    man = json.loads((tmp_path / "p.svg.manifest.json").read_text())
    assert man["command"] == "plot"
    assert man["outputs"] == [str(svg)]
    assert man["wall_time"] >= 0
    assert "version" in man


MASTER_ONE = {"vertices": [{"id": "p", "x": 0, "y": 0}], "edges": []}
SINGLETON = {"network": {"vertices": [{"id": "o", "x": 0, "y": 0}],
                         "edges": []}, "anchors": {}}
BAD_DOCUMENTS = [
    ("configure", "--assembly", {"foo": 1}),
    ("configure", "--assembly", [1, 2]),
    ("configure", "--assembly", {"master": {"vertices": [], "edges": []},
                                 "subassembly": {}}),
    ("configure", "--assembly", {"master": MASTER_ONE,
                                 "subassembly": {"p": SINGLETON}}),
    ("configure", "--assembly", {"master": MASTER_ONE,
                                 "subassembly": {"p": 3}}),
    ("configure", "--assembly", {"master": MASTER_ONE,
                                 "subassembly": {"p": {"anchors": {}}}}),
    ("certify", "--network", {"vertices": [1], "edges": []}),
    ("certify", "--network", {"vertices": [{"id": "a", "x": 0, "y": 0}],
                              "edges": [[1, 2]]}),
    ("certify", "--network", {"vertices": [{"id": "a", "x": 0, "y": 0},
                                           {"id": "b", "x": 1, "y": 0}],
                              "edges": [{"u": "a", "weight": 1.0}]}),
    ("certify", "--network", "network"),
]


@pytest.mark.parametrize("command, flag, doc", BAD_DOCUMENTS,
                         ids=[f"{c}-{i}" for i, (c, _, _)
                              in enumerate(BAD_DOCUMENTS)])
def test_malformed_document_exits_64(tmp_path, cache_env, command, flag,
                                     doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    r = run_cli([command, flag, str(path), "--out", str(out)], tmp_path,
                cache_env)
    assert r.returncode == 64, r.stderr
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith(f"{command}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "configure"])
@pytest.mark.parametrize("k", [str(cli.K_MAX + 1), "100000", "7.5", "x"])
def test_k_above_its_limit_exits_64_at_parsing(command, k, capsys):
    parser = cli.build_parser()
    assert parser.parse_args([command, "--k", str(cli.K_MAX)]).k == cli.K_MAX
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--catalog", "example_5_1", "--k", k])
    assert exc.value.code == 64
    assert "--k" in capsys.readouterr().err


BAD_INPUTS = [
    *[(cmd, ["--ell", ell]) for cmd in ("configure", "assemble")
      for ell in ("1", "nan", "200")],
    *[("configure", ["--kappa", kappa]) for kappa in ("0", "-3", "nan")],
    *[("certify", ["--n", n]) for n in (str(cli.K_MAX + 1), "200000")],
    *[("configure", ["--perturbation", p]) for p in ("nan", "inf")],
    *[("assemble", ["--windows", w]) for w in ("99999", "-1", ",", "")],
    *[("assemble", ["--delta", d])
      for d in ("nan", "inf", "-inf", "-1000", "1000", "19.6")],
    ("configure", ["--out", "/nonexistent/dir/x.csv"]),
    ("assemble", ["--out", "/nonexistent/d.json"]),
    ("assemble", ["--plot", "/nonexistent/p.svg"]),
    ("certify", ["--out", "/nonexistent/c.json"]),
]


@pytest.mark.parametrize("command, flags", BAD_INPUTS,
                         ids=[f"{c}{''.join(f)}" for c, f in BAD_INPUTS])
def test_bad_input_exits_64(tmp_path, cache_env, command, flags):
    if command == "configure":
        args = ["configure", "--catalog", "example_5_1", "--k", "7",
                "--out", str(tmp_path / "cloud.csv")]
    elif command == "certify":
        args = ["certify", "--catalog", "N_I"]
    else:
        cloud = tmp_path / "one.csv"
        cloud.write_text("x,y,sign,provenance\n0,0,1,anchor:a:o\n")
        args = ["assemble", str(cloud), "--out", str(tmp_path / "d.json")]
        if "--ell" not in flags:
            args += ["--ell", "10"]
    r = run_cli(args + flags, tmp_path, cache_env)
    assert r.returncode == 64, r.stderr
    assert "Traceback" not in r.stderr
    # a bad value names its flag, an unwritable output names its path
    assert (flags[1] if flags[0] in ("--out", "--plot") else flags[0]) \
        in r.stderr
    assert not (tmp_path / "cloud.csv").exists()
    assert not (tmp_path / "d.json").exists()
    assert not list(tmp_path.glob("*.manifest.json"))
