"""netforge command line: certify / configure / assemble / plot.

Every run writes a manifest JSON next to its main output. Outputs carry
no timestamps, so a rerun with the same inputs is byte-identical (the
manifest itself records wall time and is the one exception).
"""

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .assembly import (generate_cloud, load_assembly, load_cloud,
                       neighbor_graph, save_cloud, solve_master,
                       verify_assembly)
from .builders import assembly_catalog, assembly_names
from .catalog import catalog, catalog_names
from .fields import (FieldWindow, delta_limit, predicted_force,
                     project_force, residual, residual_norms)
from .interaction import S_MAX, S_MIN, load_or_build
from .linearize import certify
from .network import NetworkError, load_network, read_json, write_json
from .solvers import SolverError
from .svgplot import heatmap_svg, scatter_svg

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_BORDERLINE = 2
EXIT_CONDITIONS = 3
EXIT_USAGE = 64

# Largest --k and --n. verify_assembly's cost grows like k^4.9 (0.35 s
# for example_5_1 at k 64, 10 s at k 128, on a 2-core x86-64 host), and
# certify on K_poly at k 256 allocates a 7.9 GiB matrix.
K_MAX = 64
# Largest Lambda side 2n + m that certify ranks, K_poly's at --k K_MAX: two
# flags build more (N_RegPol_k at --n 64 --k 64, side 12,288, 768 MiB).
LAMBDA_MAX = 2 * K_MAX + K_MAX * (K_MAX - 1) // 2


class CliParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunManifest:
    command: str
    inputs: list
    parameters: dict
    outputs: list
    version: str = __version__
    wall_time: float = 0.0
    solver: dict | None = None   # Newton trace of the commands that solve

    def write(self, path):
        """Write the manifest to `path`; None writes nothing."""
        if path is None:
            return
        obj = {"command": self.command, "inputs": self.inputs,
               "parameters": self.parameters, "outputs": self.outputs,
               "version": self.version, "wall_time": self.wall_time}
        if self.solver is not None:
            obj["solver"] = self.solver
        write_json(obj, path)


def _manifest_path(out):
    """`<out>.manifest.json`, or None when `out` is an existing file that
    is not a regular one (a device such as /dev/null, a FIFO), beside
    which no manifest belongs."""
    if out and os.path.exists(out) and not os.path.isfile(out):
        return None
    return (out or "netforge-run") + ".manifest.json"


_PARAM_FLAGS = ("k", "n", "theta", "nu", "mu", "a", "b",
                "perturbation", "seed")


def _add_catalog_flags(sp, catalog_help="catalog name"):
    sp.add_argument("--catalog", help=catalog_help)
    sp.add_argument("--k", type=_k,
                    help="polygon size of the catalogs that take one, an "
                         f"integer <= {K_MAX}")
    sp.add_argument("--n", type=_k,
                    help="size of the catalogs that take one, an integer "
                         f"<= {K_MAX}")
    sp.add_argument("--theta", type=float)
    sp.add_argument("--nu", type=float)
    sp.add_argument("--mu", type=float)
    sp.add_argument("--a", type=float)
    sp.add_argument("--b", type=float)
    sp.add_argument("--perturbation", type=_finite)
    sp.add_argument("--seed", type=int)


def _number(text, ok, requirement):
    """argparse type: a float that satisfies `ok`, else a usage error."""
    try:
        val = float(text)
    except ValueError:
        val = math.nan
    if not ok(val):
        raise argparse.ArgumentTypeError(f"must be {requirement}, "
                                         f"got {text!r}")
    return val


def _finite(text):
    return _number(text, math.isfinite, "a finite number")


def _k(text):
    """argparse type (--k, --n): an integer <= K_MAX, else a usage error."""
    try:
        k = int(text)
    except ValueError:
        k = K_MAX + 1
    if k > K_MAX:
        raise argparse.ArgumentTypeError(f"must be an integer <= {K_MAX}, "
                                         f"got {text!r}")
    return k


def _ell(text):
    # the interaction table spans [S_MIN, S_MAX]; NaN fails the comparison
    return _number(text, lambda v: S_MIN <= v <= S_MAX,
                   f"a number in [{S_MIN:g}, {S_MAX:g}]")


def _kappa(text):
    return _number(text, lambda v: 0 < v < math.inf,
                   "a finite number > 0")


def _check_out_dirs(*paths):
    """Fail before any work when an output path's directory is missing."""
    for path in filter(None, paths):
        d = os.path.dirname(path) or "."
        if not os.path.isdir(d):
            raise FileNotFoundError(f"no directory {d!r} for the output "
                                    f"{path!r}")


def _catalog_params(args):
    return {f: getattr(args, f) for f in _PARAM_FLAGS
            if getattr(args, f, None) is not None}


def build_parser():
    p = CliParser(prog="netforge",
                  description="weighted-network certification and "
                              "bump-configuration pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="rank-certify a network")
    c.add_argument("--network", help="network JSON file")
    _add_catalog_flags(c)
    c.add_argument("--tol-rank", type=float, default=1e-9)
    c.add_argument("--out", help="certificate JSON path (default stdout)")

    g = sub.add_parser("configure", help="assembly -> point cloud CSV")
    g.add_argument("--assembly", help="assembly JSON file")
    _add_catalog_flags(g, "assembly catalog name; n_v, and example_5_1 "
                          "with --k 3 to 6, are negative examples that "
                          "exit 3 (vi_ray_separation) at every kappa")
    g.add_argument("--ell", type=_ell, default=10.0)
    g.add_argument("--kappa", type=_kappa, default=64.0)
    g.add_argument("--delta", type=float, default=0.05,
                   help="far-band margin: far means d >= (1+delta) ell")
    g.add_argument("--tol-newton", type=float, default=1e-11)
    g.add_argument("--out", default="cloud.csv")

    a = sub.add_parser("assemble", help="cloud CSV -> field diagnostics")
    a.add_argument("cloud", help="point cloud CSV")
    a.add_argument("--ell", type=_ell, required=True)
    a.add_argument("--delta", type=float, default=-0.5,
                   help="weighted-norm exponent")
    a.add_argument("--windows", default="anchors",
                   help="anchors | all | comma-separated point indices")
    a.add_argument("--plot", help="optional residual heatmap SVG path")
    a.add_argument("--out", default="diagnostics.json")

    r = sub.add_parser("plot", help="cloud CSV -> scatter SVG")
    r.add_argument("input", help="cloud CSV")
    r.add_argument("--out", default="plot.svg")
    return p


# --- certify ----------------------------------------------------------------

def cmd_certify(args):
    start = time.perf_counter()
    inputs = []
    try:
        _check_out_dirs(args.out)
        if args.network:
            net = load_network(args.network)
            inputs.append(args.network)
        elif args.catalog:
            net = catalog(args.catalog, **_catalog_params(args))
        else:
            print("certify needs --network or --catalog "
                  f"(catalog names: {', '.join(catalog_names())})",
                  file=sys.stderr)
            return EXIT_USAGE
        if 2 * net.n + net.m > LAMBDA_MAX:
            raise NetworkError(f"Lambda side 2n + m = {2 * net.n + net.m} "
                               f"exceeds {LAMBDA_MAX} (K_poly at --k "
                               f"{K_MAX}), the largest certify ranks")
    except (OSError, NetworkError, TypeError, ValueError) as exc:
        print(f"certify: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cert = certify(net, tol=args.tol_rank)
    text = cert.to_json() + "\n"
    outputs = []
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        outputs.append(args.out)
    else:
        sys.stdout.write(text)
    man = RunManifest("certify", inputs,
                      {"catalog": args.catalog, **_catalog_params(args),
                       "tol_rank": args.tol_rank},
                      outputs)
    man.wall_time = time.perf_counter() - start
    man.write(_manifest_path(args.out))
    if not (cert.connected and cert.embedded):
        return EXIT_FAILED
    if cert.borderline:
        return EXIT_BORDERLINE
    return EXIT_OK


# --- configure ---------------------------------------------------------------

def cmd_configure(args):
    start = time.perf_counter()
    inputs = []
    try:
        _check_out_dirs(args.out)
        if args.assembly:
            asm = load_assembly(args.assembly)
            inputs.append(args.assembly)
        elif args.catalog:
            asm = assembly_catalog(args.catalog, **_catalog_params(args))
        else:
            print("configure needs --assembly or --catalog "
                  f"(assembly names: {', '.join(assembly_names())})",
                  file=sys.stderr)
            return EXIT_USAGE
        if not asm.master.edges:
            raise NetworkError("the assembly's master network has no edges")
    except (OSError, NetworkError, TypeError, ValueError) as exc:
        print(f"configure: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report = verify_assembly(asm)
    if not report.ok:
        for name in report.failing():
            print(f"condition {name} fails: {report.details[name]}",
                  file=sys.stderr)
        return EXIT_CONDITIONS

    table = load_or_build()
    try:
        result = solve_master(asm, args.kappa, args.ell, table,
                              tol=args.tol_newton, skip_verify=True)
    except SolverError as exc:
        print(f"configure: {exc}", file=sys.stderr)
        return EXIT_FAILED

    config = generate_cloud(result, table)
    save_cloud(config, args.out)
    nb = neighbor_graph(config, delta=args.delta)
    report_path = args.out + ".report.json"
    write_json({
        "points": len(config.positions),
        "ell": args.ell, "kappa": args.kappa,
        "chain_counts": {f"{p}--{q}": m
                         for (p, q), m in sorted(result.m_map.items())},
        "condition_residuals": {k: float(v)
                                for k, v in sorted(result.residuals.items())},
        "band_violations": [[i, j, d] for i, j, d in nb.violations],
        "degree_mismatches": [[i, e, g] for i, e, g in nb.degree_mismatches],
    }, report_path)
    man = RunManifest("configure", inputs,
                      {"catalog": args.catalog, **_catalog_params(args),
                       "ell": args.ell, "kappa": args.kappa,
                       "delta": args.delta, "tol_newton": args.tol_newton},
                      [args.out, report_path])
    info = result.info
    man.solver = {"iterations": info.iterations,
                  "fun_evals": info.fun_evals, "jac_evals": info.jac_evals,
                  "residual_history": info.history}
    man.wall_time = time.perf_counter() - start
    man.write(_manifest_path(args.out))
    if nb.violations or nb.degree_mismatches:
        if nb.violations:
            i, j, d = nb.violations[0]
            print(f"band violation: points {i}, {j} at distance {d:.6g}",
                  file=sys.stderr)
        else:
            i, e, g = nb.degree_mismatches[0]
            print(f"degree mismatch: point {i} expected {e} got {g}",
                  file=sys.stderr)
        return EXIT_CONDITIONS
    print(f"wrote {args.out} ({len(config.positions)} points)")
    return EXIT_OK


# --- assemble ----------------------------------------------------------------

def _midchain_indices(config):
    """Indices of mid-chain points (j = m on each master edge), parsed
    from the provenance column `chain:p:q:j`, in ascending order."""
    chain = np.array(config.provenance, dtype=str)
    idx = np.flatnonzero(np.strings.startswith(chain, "chain:"))
    if not idx.size:
        return []
    # rebinding and del drop each copy of the column once it is parsed
    chain = chain[idx]
    bad = np.strings.count(chain, ":") != 3
    if bad.any():
        raise NetworkError("malformed chain provenance "
                           f"{str(chain[bad][0])!r}")
    edge, _, j = np.strings.rpartition(chain, ":")
    del chain
    j = np.fromiter(map(int, j.tolist()), dtype=int, count=len(j))
    group = np.unique(edge, return_inverse=True)[1]
    top = np.full(len(idx), j.min())
    np.maximum.at(top, group, j)
    return idx[j == (top[group] + 1) // 2].tolist()


def _select_windows(config, spec):
    n = len(config.positions)
    if spec == "all":
        return list(range(n))
    if spec == "anchors":
        return [i for i, prov in enumerate(config.provenance)
                if prov.startswith("anchor:")]
    try:
        # one window per index, in the order first named
        sel = list(dict.fromkeys(int(s) for s in spec.split(",")
                                 if s.strip()))
    except ValueError:
        raise NetworkError(f"bad --windows value {spec!r}")
    if not sel:
        raise NetworkError(f"--windows {spec!r} names no point index")
    for i in sel:
        if not 0 <= i < n:
            raise NetworkError(f"--windows index {i} is not in "
                               f"[0, {n}), the cloud's point indices")
    return sel


def _half_width(ell):
    """Half width of an assembled window: the projection's cutoff radius
    ell/4 plus 2."""
    return ell / 4.0 + 2.0


def _point_row(config, idx, table, delta):
    z = config.positions[idx].item()
    field = residual(config, FieldWindow(z, _half_width(config.ell),
                                         delta=delta), table)
    proj = project_force(config, field, table)
    sup, weighted = residual_norms(field)
    pred = predicted_force(config, idx, table)
    return field, {
        "index": idx, "provenance": config.provenance[idx],
        "sup_norm": sup, "weighted_norm": weighted,
        "projection": [proj.real, proj.imag],
        "predicted": [pred.real, pred.imag],
        "projection_error": abs(proj - pred),
    }


def _check_cloud_ell(path, ell):
    """Reject a cloud whose configure report (`<cloud>.report.json`)
    records an ell other than `ell`, records none or is no JSON; a cloud
    without a report passes."""
    report = path + ".report.json"
    try:
        built = read_json(report)["ell"]
    except FileNotFoundError:
        return
    except NetworkError as exc:
        raise NetworkError(f"{report}: {exc}") from exc
    except (KeyError, TypeError):
        raise NetworkError(f"{report} records no ell")
    if built != ell:
        raise NetworkError(f"{path} was configured at ell {built} "
                           f"({report}), not at --ell {ell}")


def cmd_assemble(args):
    start = time.perf_counter()
    limit = delta_limit(_half_width(args.ell), args.ell)
    if not abs(args.delta) <= limit:         # NaN fails too
        print(f"assemble: --delta must be a number with |delta| <= "
              f"{limit:.4g} at --ell {args.ell:g}, got {args.delta!r}: the "
              "norm weight over- or underflows beyond it", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_out_dirs(args.out, args.plot)
        _check_cloud_ell(args.cloud, args.ell)
        config = load_cloud(args.cloud, args.ell)
        if np.any(np.abs(config.signs) != 1):   # the windows add or subtract
            raise NetworkError("cloud signs must be +1 or -1")
        sel = _select_windows(config, args.windows)
        midchain = _midchain_indices(config)
    except (OSError, NetworkError, ValueError, OverflowError) as exc:
        print(f"assemble: {exc}", file=sys.stderr)
        return EXIT_USAGE
    table = load_or_build()
    ups = float(table.upsilon(args.ell))
    rows = []
    first_field = None
    for idx in sel:
        field, row = _point_row(config, idx, table, args.delta)
        row["gated"] = False
        rows.append(row)
        if first_field is None:
            first_field = field
    threshold = 0.05 * ups
    gated = []
    seen = {r["index"]: r for r in rows}
    for idx in midchain:
        if idx in seen:
            row = seen[idx]
        else:
            _, row = _point_row(config, idx, table, args.delta)
            rows.append(row)
        row["gated"] = True
        gated.append(np.hypot(*row["projection"]))
    # a NaN projection or threshold fails; vacuously true without chains
    worst = float(np.max(gated, initial=0.0))
    gate_pass = bool(np.isfinite(threshold) and np.isfinite(worst)
                     and worst <= threshold)
    # a NaN norm propagates into the maxima and the decay estimate
    sup_max = float(np.max([r["sup_norm"] for r in rows], initial=0.0))
    weighted_max = float(np.max([r["weighted_norm"] for r in rows],
                                initial=0.0))
    decay = (-float(np.log(sup_max * np.sqrt(args.ell))) / args.ell
             if sup_max != 0 else float("inf"))
    obj = {
        "ell": args.ell,
        "upsilon_ell": ups,
        "norms": {"sup_max": sup_max, "weighted_max": weighted_max,
                  "decay_rate_estimate": decay},
        "gate": {"threshold": threshold, "worst_projection": worst,
                 "pass": gate_pass},
        "points": sorted(rows, key=lambda r: r["index"]),
    }
    write_json(obj, args.out, default=float)
    outputs = [args.out]
    if args.plot and first_field is not None:
        x, y = first_field.window.axes()
        heatmap_svg(x, y, first_field.E, args.plot)
        outputs.append(args.plot)
    man = RunManifest("assemble", [args.cloud],
                      {"ell": args.ell, "delta": args.delta,
                       "windows": args.windows},
                      outputs)
    man.wall_time = time.perf_counter() - start
    man.write(_manifest_path(args.out))
    print(f"wrote {args.out} ({len(rows)} windows, gate "
          f"{'pass' if gate_pass else 'FAIL'})")
    return EXIT_OK if gate_pass else EXIT_FAILED


# --- plot --------------------------------------------------------------------

def cmd_plot(args):
    start = time.perf_counter()
    try:
        config = load_cloud(args.input, 1.0)
        scatter_svg(config.positions, config.signs, args.out)
    except (OSError, NetworkError, ValueError, OverflowError) as exc:
        print(f"plot: {exc}", file=sys.stderr)
        return EXIT_USAGE
    man = RunManifest("plot", [args.input], {}, [args.out])
    man.wall_time = time.perf_counter() - start
    man.write(_manifest_path(args.out))
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {"certify": cmd_certify, "configure": cmd_configure,
             "assemble": cmd_assemble, "plot": cmd_plot}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:          # an output path that cannot be written
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
