"""Benchmark of the netforge CLI pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload solve-ex51 --seed 1 --seconds 22 \
        --trace 0

Each op runs `netforge.cli.main([...])` commands in this process, one op
at a time in a closed loop: the next op starts when the previous one has
finished and its outputs have been checked. Ops start until `--seconds` of
op time have been measured. The workload seed draws every CLI argument;
the program sees only those arguments.

Before the loop the benchmark sets up several times, each in a fresh
interpreter (see setup_probe.py), and reports the median as `setup_s`.

Every command of an op is bracketed by a fixed calibration kernel that
calls no netforge code, and its time is scaled to the speed the host had
when the kernel's reference time was measured (calibrate.py): the shared
host drifts by +-25% over tens of seconds, which would otherwise move a
run's medians as much as a change to the program. The unscaled wall times
are printed beside the scaled ones. Set-up runs in a fresh interpreter,
which the kernel does not track (scaled set-up times spread more than
unscaled ones), so setup_s is not scaled.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs every op twice,
once plain and once with spans recorded around each layer's public
functions (spans.py), alternating which goes first, and prints the
per-layer metrics, the unattributed remainder of the traced op time and
the tracing overhead. The spans are written to
`.bench_work/spans/<workload>-seed<seed>.csv.gz` when the run ends.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; it is also written, with the environment, the
timing statistics and every op's times and calibration passes, to
`.bench_work/results/<workload>-seed<seed>-trace<0|1>.json`. Workload
reasons, generator parameters and the reference outputs of the fixed
inputs are in perfbench/spec.json.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import calibrate
import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SPEC_PATH = os.path.join(HERE, "spec.json")

SOLVE_TOL = 1e-11              # the CLI's default --tol-newton
SETUP_TIMEOUT = 120
SETUPS = 3                     # set-ups per run; setup_s is their median


# --- ops ---------------------------------------------------------------------

class Op:
    """A sequence of CLI commands plus the check of what they wrote."""

    def __init__(self, label, commands, check, ell):
        self.label = label
        self.commands = commands     # [(kind, argv)]
        self.check = check           # () -> list of problems
        self.ell = ell               # the cloud's ell, for the self-check


CLOUD, DIAG = "cloud.csv", "diag.json"


def _path(workdir, name):
    return os.path.join(workdir, name)


def _configure_check(workdir, kappa, sub_points, ref_points=None):
    report = checks.load_strict_json(_path(workdir, CLOUD + ".report.json"))
    rows = checks.read_cloud(_path(workdir, CLOUD))
    problems = checks.check_configure(report, rows, SOLVE_TOL, kappa,
                                      sub_points)
    if ref_points is not None and len(rows) != ref_points:
        problems.append(f"{len(rows)} points, reference {ref_points}")
    return problems, rows


def ex51_op(workdir, k, kappa, ell, windows, ref_points=None):
    """configure an example_5_1 instance, then assemble it on `windows`."""
    commands = [
        ("configure", ["configure", "--catalog", "example_5_1",
                       "--k", str(k), "--ell", repr(ell),
                       "--kappa", str(kappa),
                       "--out", _path(workdir, CLOUD)]),
        ("assemble", ["assemble", _path(workdir, CLOUD), "--ell", repr(ell),
                      "--windows", windows,
                      "--out", _path(workdir, DIAG)]),
    ]

    def check():
        problems, rows = _configure_check(workdir, kappa, 2 * k, ref_points)
        requested = ([i for i, r in enumerate(rows)
                      if r[2].startswith("anchor:")] if windows == "anchors"
                     else [int(s) for s in windows.split(",")])
        problems += checks.check_diagnostics(
            checks.load_strict_json(_path(workdir, DIAG)), requested)
        return problems
    return Op(f"example_5_1 k={k} kappa={kappa} ell={ell}", commands, check,
              ell)


def solve_ex51_band(gen):
    """Pool instances whose alpha_ell call count at the seed commit is
    within `band` of the pool median (see spec.json)."""
    calls = statistics.median(r[4] for r in gen["pool"]["rows"])
    return [r[:3] for r in gen["pool"]["rows"]
            if abs(r[4] - calls) <= gen["band"] * calls]


def shuffled_cycle(rng, items):
    """The items in a seeded order, over and over, reshuffled each pass."""
    items = list(items)
    while True:
        for i in rng.permutation(len(items)):
            yield items[int(i)]


def solve_ex51_ops(rng, workdir, spec):
    # Round-robin over k, whose anchor count sets the assemble cost, so
    # every run mixes the three sizes in the same proportion; within a k
    # the instances come in a seeded order without repeats.
    band = solve_ex51_band(spec["generator"])
    ks = sorted({k for k, _, _ in band})
    by_k = {k: shuffled_cycle(rng, [r for r in band if r[0] == k])
            for k in ks}
    order = [ks[int(i)] for i in rng.permutation(len(ks))]
    while True:
        for k in order:
            _, kappa, ell = next(by_k[k])
            yield ex51_op(workdir, k, kappa, ell, "anchors")


def fields_ops(rng, workdir, spec):
    gen = spec["generator"]
    n = spec["reference"]["points"]
    while True:
        idx = np.sort(rng.choice(n, gen["windows"], replace=False))
        yield ex51_op(workdir, gen["k"], gen["kappa"], gen["ell"],
                      ",".join(str(int(i)) for i in idx), ref_points=n)


def nc_ops(rng, workdir, spec):
    gen = spec["generator"]
    ref_cert = spec["reference"]["certificate"]
    cert, heat, scatter = "cert.json", "residual.svg", "cloud.svg"
    seeds = shuffled_cycle(rng, gen["perturbation_seeds"])
    while True:
        seed = next(seeds)
        commands = [
            ("certify", ["certify", "--catalog", "N_C",
                         "--out", _path(workdir, cert)]),
            ("configure", ["configure", "--catalog", "n_c",
                           "--perturbation", repr(gen["perturbation"]),
                           "--seed", str(seed), "--ell", repr(gen["ell"]),
                           "--kappa", str(gen["kappa"]),
                           "--out", _path(workdir, CLOUD)]),
            ("assemble", ["assemble", _path(workdir, CLOUD),
                          "--ell", repr(gen["ell"]), "--windows", "anchors",
                          "--plot", _path(workdir, heat),
                          "--out", _path(workdir, DIAG)]),
            ("plot", ["plot", _path(workdir, CLOUD),
                      "--out", _path(workdir, scatter)]),
        ]

        def check():
            problems = checks.check_certificate(
                checks.load_strict_json(_path(workdir, cert)), ref_cert)
            more, rows = _configure_check(workdir, gen["kappa"],
                                          gen["sub_points"])
            problems += more
            anchors = [i for i, r in enumerate(rows)
                       if r[2].startswith("anchor:")]
            problems += checks.check_diagnostics(
                checks.load_strict_json(_path(workdir, DIAG)), anchors)
            with open(_path(workdir, heat)) as fh:
                if "<rect" not in fh.read():
                    problems.append("empty residual heatmap")
            with open(_path(workdir, scatter)) as fh:
                problems += checks.check_scatter(fh.read(), len(rows))
            return problems
        yield Op(f"n_c seed={seed}", commands, check, gen["ell"])


WORKLOADS = {
    "solve-ex51": {"ops": solve_ex51_ops, "cold": False},
    "fields-k1024": {"ops": fields_ops, "cold": False},
    "nc-cold": {"ops": nc_ops, "cold": True},
}


# --- running -----------------------------------------------------------------

def run_command(argv, tracer=None):
    """(exit code, seconds, captured output) of one in-process CLI command."""
    from netforge.cli import main as cli_main
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if tracer is None:
                rc = cli_main(argv)
            else:
                rc = tracer.call("cli", cli_main, argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a crash is a failed op, not a failed benchmark
        rc = "exception"
        out.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue()


def _bytes_since(workdir, start_ns):
    return sum(e.stat().st_size for e in os.scandir(workdir)
               if e.is_file() and e.stat().st_mtime_ns >= start_ns)


def execute(op, workdir, tracer=None):
    """Run one op and check its outputs. The op's wall time is the sum of
    its commands' times; checks and bookkeeping run after it. The
    calibration kernel runs, untimed, before the first command and after
    each one; the passes on either side of a command give the factor that
    scales its time to the reference speed."""
    rec = {"label": op.label, "commands": [], "factors": [], "problems": [],
           "windows": 0, "kernel": [calibrate.kernel()]}
    start_ns = time.time_ns()
    if tracer is not None:
        spans.install(tracer)
    try:
        for kind, argv in op.commands:
            rc, dt, text = run_command(argv, tracer)
            rec["kernel"].append(calibrate.kernel())
            rec["commands"].append((kind, dt))
            rec["factors"].append(
                calibrate.speed_factor(*rec["kernel"][-2:]))
            if rc != 0:
                rec["problems"].append(f"{kind} exited {rc}: "
                                       f"{text.strip()[-500:]}")
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec["wall"] = sum(dt for _, dt in rec["commands"])
    rec["scaled"] = sum(dt * f for (_, dt), f in zip(rec["commands"],
                                                      rec["factors"]))
    if tracer is not None:
        tracer.count("cli.bytes_written", _bytes_since(workdir, start_ns))
    if not rec["problems"]:
        try:
            rec["problems"] = op.check()
            rec["windows"] = len(checks.load_strict_json(
                _path(workdir, DIAG))["points"])
        except Exception:  # malformed output is a failed op
            rec["problems"] = [f"unreadable output: "
                               f"{traceback.format_exc(limit=2)}"]
    return rec


def self_check(workdir, ell):
    """The checks must reject a cloud with one chain point moved by ell/2,
    and so must the program's own gate on that point's window. Returns an
    error message, or None when both rejected it."""
    rows = checks.read_cloud(_path(workdir, CLOUD))
    bad, moved = checks.corrupt_cloud(rows, ell)
    if not checks.check_chain_geometry(bad):
        return "corrupted cloud passed the chain check"
    path = _path(workdir, "corrupted.csv")
    checks.write_cloud(bad, path)
    rc, _, _ = run_command(["assemble", path, "--ell", repr(ell),
                            "--windows", str(moved),
                            "--out", _path(workdir, "corrupted.json")])
    if rc != 1:
        return f"program gate exited {rc} on the corrupted cloud"
    return None


def setup_once(cache_dir):
    """One set-up in a fresh interpreter: seconds from spawning it to the
    moment its first op could start, plus the probe's own split."""
    env = dict(os.environ, NETFORGE_CACHE=cache_dir)
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    probe["setup_s"] = probe["ready"] - spawn
    return probe


# --- reporting ---------------------------------------------------------------

def tail(samples):
    """Median, plus the highest of p99/p90/p75 that has at least ten
    samples beyond it, and the sample count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n}
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out[f"p{p}"] = float(np.percentile(samples, p))
            break
    return out


def describe(name, unit, stats):
    parts = [f"median {stats['median']:.6g} {unit}"]
    parts += [f"{k} {v:.6g} {unit}" for k, v in stats.items()
              if k.startswith("p")]
    if len(parts) == 1:
        parts.append("no tail percentile from p75 up has ten samples "
                     "beyond it")
    return f"{name}: {', '.join(parts)} (n={stats['n']})"


def git_commit():
    """HEAD of the checkout's git repository, read from .git directly so
    nothing outside the checkout is consulted; None when not a repo."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """Digest of the netforge sources: identifies the code measured when
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "netforge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def blas_threads():
    """Thread count numpy's bundled OpenBLAS reports, or None."""
    import ctypes
    import glob
    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                           "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment(args):
    import platform
    import scipy
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


TIMED = ("setup_s", "pipeline_s", "configure_s", "assemble_s")


def _timings(records, setups, scaled):
    """Samples of each timed quantity, the commands' times scaled to the
    reference speed (calibrate.py) or as measured."""
    out = {"setup_s": [s["setup_s"] for s in setups],
           "pipeline_s": [], "configure_s": [], "assemble_s": []}
    for r in records:
        out["pipeline_s"].append(r["scaled" if scaled else "wall"])
        for (kind, dt), f in zip(r["commands"], r["factors"]):
            out.setdefault(f"{kind}_s", []).append(dt * f if scaled else dt)
    return out


def end_to_end(records, setups):
    """The end-to-end metrics, from times scaled to the reference speed,
    and the timing statistics behind them, also unscaled."""
    scaled = _timings(records, setups, True)
    wall = _timings(records, setups, False)
    stats = {k: tail(scaled[k]) for k in TIMED}
    stats.update({f"{k} (wall, unscaled)": tail(wall[k])
                  for k in TIMED if k != "setup_s"})
    metrics = {k: (stats[k]["median"], "s") for k in TIMED}
    metrics["windows_per_s"] = (sum(r["windows"] for r in records)
                                / sum(scaled["assemble_s"]), "1/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, stats


# Spans whose self times are reported; with the remainder they add up to
# the traced op wall time.
LAYER_SPANS = (
    "cli", "interaction.load_or_build", "interaction.alpha_ell",
    "interaction.u0_at", "solvers.damped_newton",
    "assembly.verify_assembly", "assembly.coordinate_quantization",
    "assembly.solve_master", "assembly.generate_cloud", "assembly.save_cloud",
    "assembly.load_cloud", "assembly.neighbor_graph", "fields.project_force",
    "fields.residual_norms", "fields.predicted_force",
    "builders.assembly_catalog", "balance.balance_nearby",
    "balance.realize_triangle", "linearize.certify", "svgplot.heatmap_svg",
    "svgplot.scatter_svg",
)

LAYER_COUNTS = {
    "interaction.alpha_ell.calls": "count", "interaction.u0_at.calls": "count",
    "interaction.u0_at.samples": "count", "solvers.newton_iterations": "count",
    "solvers.fun_evals": "count", "assembly.points": "count",
    "fields.windows": "count", "balance.realize_triangle.calls": "count",
    "linearize.certify.calls": "count", "svgplot.bytes": "bytes",
    "cli.bytes_written": "bytes",
}


# Self times of the layers only nc-cold reaches, and the table build time,
# read exactly 0 on the other workloads. They are printed but left out of
# the result line, where the calls and bytes counts of those layers and
# setup.table_s (table load or build in set-up) stand for them.
PRINTED_ONLY = {
    "balance.balance_nearby.self_s", "balance.realize_triangle.self_s",
    "linearize.certify.self_s", "svgplot.heatmap_svg.self_s",
    "svgplot.scatter_svg.self_s", "interaction.build_table_s",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, plain, traced, setups):
    """Per traced op: self time of every span and the layer counts; plus
    the ratios, table times, remainder and tracing overhead."""
    n = len(traced)
    c = tracer.counts
    m = {f"{name}.self_s": (tracer.self_time.get(name, 0.0) / n, "s")
         for name in LAYER_SPANS}
    m.update({name: (c.get(name, 0.0) / n, unit)
              for name, unit in LAYER_COUNTS.items()})
    m["solvers.fun_evals_per_iteration"] = (
        _ratio(c["solvers.fun_evals"], c["solvers.newton_iterations"]),
        "ratio")
    m["assembly.neighbor_graph.useful_frac"] = (
        _ratio(c["assembly.neighbor_graph.near_pairs"],
               c["assembly.neighbor_graph.pairs"]), "ratio")
    m["fields.scan_useful_frac"] = (
        _ratio(c["fields.scan.within_reach"], c["fields.scan.scanned"]),
        "ratio")
    m["interaction.table_load_s"] = (statistics.median(
        tracer.durations("interaction.load_or_build") or [0.0]), "s")
    m["interaction.build_table_s"] = (
        statistics.median(s["build_s"] for s in setups), "s")
    m["setup.table_s"] = (statistics.median(s["table_s"] for s in setups),
                          "s")
    wall = sum(r["wall"] for r in traced) / n
    m["trace.op_wall_s"] = (wall, "s")
    m["trace.remainder_s"] = (wall - sum(tracer.self_time.values()) / n, "s")
    # Scaled to the reference speed, like the end-to-end times, so that the
    # host's drift between the plain and the traced run of an op cancels.
    without = statistics.median(r["scaled"] for r in plain)
    with_spans = statistics.median(r["scaled"] for r in traced)
    m["trace.overhead_s"] = (with_spans - without, "s")
    m["trace.overhead_frac"] = (_ratio(with_spans - without, without),
                                "ratio")
    m["trace.spans_per_op"] = (len(tracer) / n, "count")
    return m


# --- main --------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "netforge", "cli.py")):
        print(f"run.py: no netforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)["workloads"][args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-"
                                 f"t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, spec, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, wl, workdir):
    # Set-up, each time in a fresh interpreter. The cold workload starts
    # every set-up from an empty table cache and its ops use the first.
    warm = os.path.join(ROOT, ".cache")
    setups = [setup_once(os.path.join(workdir, f"cache{i}") if wl["cold"]
                         else warm) for i in range(SETUPS)]
    if wl["cold"] and not all(s["built"] for s in setups):
        print("run.py: a cold set-up found a table cache", file=sys.stderr)
        return 1
    os.environ["NETFORGE_CACHE"] = (os.path.join(workdir, "cache0")
                                    if wl["cold"] else warm)
    import netforge.cli  # noqa: F401  (imported here, outside op timing)

    ops = wl["ops"](np.random.default_rng(args.seed), workdir, spec)
    tracer = spans.Tracer() if args.trace else None
    records, plain, traced = [], [], []
    measured = 0.0
    n_ops = 0
    while measured < args.seconds or not n_ops:
        op = next(ops)
        n_ops += 1
        if tracer is None:
            runs = [execute(op, workdir)]
            plain.extend(runs)
        else:
            # The same op plain and traced, alternating which goes first.
            tracer.begin_op(n_ops)
            first_traced = n_ops % 2 == 0
            runs = [execute(op, workdir, tracer if t else None)
                    for t in (first_traced, not first_traced)]
            without, with_spans = runs[::-1] if first_traced else runs
            plain.append(without)
            traced.append(with_spans)
        measured += sum(r["wall"] for r in runs)
        records.extend(runs)

    checked = list(records)
    fixed = spec["reference"].get("fixed_op")
    if fixed is not None:
        op = ex51_op(workdir, fixed["k"], fixed["kappa"], fixed["ell"],
                     "anchors", ref_points=fixed["points"])
        checked.append(execute(op, workdir))
    failures = [r for r in checked if r["problems"]]
    self_check_error = self_check(workdir, op.ell)

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    for r in failures[:5]:
        print(f"FAILED {r['label']}: {'; '.join(r['problems'])}",
              file=sys.stderr)
    if self_check_error:
        print(f"self-check FAILED: {self_check_error}", file=sys.stderr)
    else:
        print("self-check: a cloud with one chain point moved by ell/2 is "
              "rejected by the chain check and by the program's gate")
    print(f"failed_frac: {len(failures)}/{len(checked)} ops = "
          f"{len(failures) / len(checked):.3g}")

    metrics, stats = end_to_end(plain, setups)
    for k, s in stats.items():
        print(describe(k, "s", s))
    print(f"calibration: median speed factor "
          f"{statistics.median(f for r in plain for f in r['factors']):.4g}"
          f" over the commands (reference kernel pass "
          f"{calibrate.REFERENCE_S} s)")
    if tracer is not None:
        metrics = layer_metrics(tracer, plain, traced, setups)
        tracer.write(os.path.join(WORK, "spans",
                                  f"{args.workload}-seed{args.seed}.csv.gz"))
        wall = metrics["trace.op_wall_s"][0]
        rest = metrics["trace.remainder_s"][0]
        print(f"trace: self times {wall - rest:.6f} s + remainder "
              f"{rest:.6f} s = traced op wall {wall:.6f} s (mean of "
              f"{len(traced)} traced ops); tracing overhead "
              f"{metrics['trace.overhead_s'][0]:.6f} s per op")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    metrics = {k: v for k, v in metrics.items() if k not in PRINTED_ONLY}

    result = {
        "correct": not failures and self_check_error is None,
        "attempted": len(checked),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-seed"
                           f"{args.seed}-trace{args.trace}.json"), "w") as fh:
        ops = [{k: r[k] for k in ("label", "wall", "scaled", "commands",
                                  "kernel", "factors")} for r in records]
        json.dump({"env": env, "stats": stats, "ops": ops, **result}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
