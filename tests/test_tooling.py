"""The benchmark's layer tracer (perfbench/spans.py) patches netforge
functions by name; these tests fail when a rename breaks it."""

import importlib.util
import json
import os

import pytest

from conftest import CACHE_DIR
from netforge import (assembly, balance, builders, cli, fields, interaction,
                      solvers)

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")
OWNERS = (assembly, balance, builders, cli, fields, interaction,
          interaction.InteractionTable)


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_newton_and_restores_functions(spans, table):
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert balance.damped_newton is not solvers.damped_newton
        assembly.solve_master(builders.example_5_1(7), 64.0, 10.0, table)
    finally:
        tracer.uninstall()
    assert len(tracer.durations("solvers.damped_newton")) == 1
    assert tracer.counts["solvers.newton_iterations"] >= 1
    assert tracer.counts["solvers.fun_evals"] > 0
    assert balance.damped_newton is solvers.damped_newton
    assert assembly.damped_newton is solvers.damped_newton
    for owner, attrs in before.items():
        now = vars(owner)
        assert now.keys() == attrs.keys()
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_tracer_sees_each_window_and_its_profile_samples(spans, table):
    # the assembled-window path must keep calling the names the tracer
    # patches: residual_norms once per window, u0_at for every bump
    cfg = assembly.diagnostic_chain_cloud(table, 10.0, 3)
    rows = range(4)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        for idx in rows:
            cli._point_row(cfg, idx, table, fields.DELTA_DEFAULT)
    finally:
        tracer.uninstall()
    assert tracer.counts["fields.windows"] == len(rows)
    assert len(tracer.durations("fields.project_force")) == len(rows)
    assert tracer.counts["fields.scan.within_reach"] >= len(rows)
    assert tracer.counts["interaction.u0_at.samples"] > 0


def test_traced_cli_run_counts_points_pairs_and_windows(spans, tmp_path,
                                                        monkeypatch):
    # the benchmark's traced run reads these counts off the objects the
    # CLI stages return (cloud points, near pairs) and off residual_norms
    monkeypatch.setenv("NETFORGE_CACHE", CACHE_DIR)
    cloud = str(tmp_path / "cloud.csv")
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["configure", "--catalog", "example_5_1", "--k", "7",
                         "--kappa", "64", "--ell", "10", "--out", cloud]) == 0
        assert cli.main(["assemble", cloud, "--ell", "10",
                         "--out", str(tmp_path / "diag.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["assembly.points"] == 1428
    assert tracer.counts["assembly.neighbor_graph.near_pairs"] == 1435
    assert tracer.counts["fields.windows"] == 28
    # one u0_at call per bump a window's reach selects (224 over the 28
    # windows; the half_width + 30 reach took 294), except the bump at each
    # window's centre: all 28 share one template, built once for the
    # window shape. The projection calibration's two-bump window has that
    # shape too, so it adds only its off-centre bump.
    config = assembly.load_cloud(cloud, 10.0)
    with open(tmp_path / "diag.json") as fh:
        rows = [row["index"] for row in json.load(fh)["points"]]
    bumps = sum(len(fields._window_points(config, fields.FieldWindow(
        config.positions[i].item(), 4.5))) for i in rows)
    assert bumps == 224
    off_centre = bumps - len(rows) + 1
    assert tracer.counts["interaction.u0_at.calls"] == off_centre + 1
    for name in ("assembly.generate_cloud", "assembly.save_cloud",
                 "assembly.neighbor_graph", "assembly.load_cloud"):
        assert len(tracer.durations(name)) == 1, name
