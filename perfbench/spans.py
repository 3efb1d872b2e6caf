"""In-memory span recorder and the instrumentation that feeds it.

Spans are recorded from outside the program: while a `Tracer` is
installed, the public functions of each netforge layer (and the
`InteractionTable` methods) are replaced by wrappers that open a span on
entry and close it on exit. A span is (name, start, end, parent, op id);
self time is its duration minus the durations of its direct children.
Nothing under `src/` is modified, and the original functions are put back
when the tracer is uninstalled.
"""

import gzip
import os
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        # One entry per span, in columns: (name id, start, end, parent, op).
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.op = -1
        self._stack = []                # [span index, child time]
        self._patches = []

    # --- recording --------------------------------------------------------

    def __len__(self):
        return len(self._name)

    def begin_op(self, op_id):
        self.op = op_id

    def call(self, name, fn, *args, **kwargs):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self._name)
        self._name.append(self._ids[name])
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._op.append(self.op)
        self._start.append(0.0)
        self._end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            self._start[idx] = start
            self._end[idx] = end
            self.self_time[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def durations(self, name):
        i = self._ids.get(name)
        return [e - s for n, s, e in zip(self._name, self._start, self._end)
                if n == i]

    def count(self, name, amount=1):
        self.counts[name] += amount

    # --- patching ---------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, owners, attr, name, after=None, before=None):
        """Wrap `attr` on every owner (module or class) with a span.

        `before(args, kwargs)` may return replacement (args, kwargs);
        `after(result, args)` records counts from the call."""
        orig = owners[0].__dict__[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = tracer.call(name, orig, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = orig
        for owner in owners:
            self._patch(owner, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # --- output -----------------------------------------------------------

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self._name[i]]},"
                         f"{self._start[i]:.9f},{self._end[i]:.9f},"
                         f"{self._parent[i]},{self._op[i]}\n")


def install(tracer):
    """Instrument every layer a workload reaches. Each function is patched
    in every module that bound it by name at import time."""
    from netforge import (assembly, balance, builders, cli, fields,
                          interaction)
    T = interaction.InteractionTable

    tracer.span([cli], "load_or_build", "interaction.load_or_build")
    tracer.span([T], "alpha_ell", "interaction.alpha_ell",
                after=lambda r, a: tracer.count("interaction.alpha_ell.calls"))

    def u0_after(result, args):
        tracer.count("interaction.u0_at.calls")
        tracer.count("interaction.u0_at.samples", int(np.size(args[1])))
    tracer.span([T], "u0_at", "interaction.u0_at", after=u0_after)

    def newton_before(args, kwargs):
        fun = args[0]

        def counted(x):
            tracer.count("solvers.fun_evals")
            return fun(x)
        return (counted,) + tuple(args[1:]), kwargs

    def newton_after(result, args):
        tracer.count("solvers.newton_iterations", result[1].iterations)
        tracer.count("solvers.solves")
    tracer.span([assembly, balance], "damped_newton", "solvers.damped_newton",
                before=newton_before, after=newton_after)

    tracer.span([cli], "verify_assembly", "assembly.verify_assembly")
    tracer.span([assembly], "coordinate_quantization",
                "assembly.coordinate_quantization")
    tracer.span([cli], "solve_master", "assembly.solve_master")
    tracer.span([cli], "generate_cloud", "assembly.generate_cloud",
                after=lambda r, a: tracer.count("assembly.points",
                                                len(r.points)))
    tracer.span([cli], "save_cloud", "assembly.save_cloud")
    tracer.span([cli], "load_cloud", "assembly.load_cloud")

    def nb_after(report, args):
        n = len(report.neighbors)
        tracer.count("assembly.neighbor_graph.near_pairs",
                     sum(len(nb) for nb in report.neighbors) // 2)
        tracer.count("assembly.neighbor_graph.pairs", n * (n - 1) // 2)
    tracer.span([cli], "neighbor_graph", "assembly.neighbor_graph",
                after=nb_after)

    tracer.span([cli], "project_force", "fields.project_force")
    tracer.span([cli], "residual_norms", "fields.residual_norms",
                after=lambda r, a: tracer.count("fields.windows"))
    tracer.span([cli], "predicted_force", "fields.predicted_force")

    orig_scan = fields._window_points

    def window_points(config, window):
        out = orig_scan(config, window)
        tracer.count("fields.scan.scanned", len(config.points))
        tracer.count("fields.scan.within_reach", len(out))
        return out
    tracer._patch(fields, "_window_points", window_points)

    tracer.span([cli], "assembly_catalog", "builders.assembly_catalog")
    tracer.span([builders], "balance_nearby", "balance.balance_nearby")
    tracer.span([builders], "realize_triangle", "balance.realize_triangle",
                after=lambda r, a: tracer.count(
                    "balance.realize_triangle.calls"))
    tracer.span([cli, balance], "certify", "linearize.certify",
                after=lambda r, a: tracer.count("linearize.certify.calls"))

    def svg_after(result, args):
        tracer.count("svgplot.bytes", os.path.getsize(args[-1]))
    tracer.span([cli], "heatmap_svg", "svgplot.heatmap_svg", after=svg_after)
    tracer.span([cli], "scatter_svg", "svgplot.scatter_svg", after=svg_after)
