"""Output checks for the CLI artifacts one benchmark op produces.

Each check returns a list of problems (empty when the output is right).
The checks read the files the commands wrote, independently of the
program's own gates where they can: the cloud CSV is re-counted against
the reported chain counts and every chain is re-measured for equal,
collinear spacing.
"""

import json
import math

# A chain point is z_j = anchor + j * spacing * direction, so its second
# difference along the chain is zero up to rounding at cloud-scale
# coordinates (|z| ~ kappa * ell ~ 1e4, rounding ~ 1e-11).
CHAIN_TOL = 1e-6


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def load_strict_json(path):
    """Parse JSON, rejecting NaN and +-Infinity anywhere in the file."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def read_cloud(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "x,y,sign,provenance":
            raise ValueError(f"unexpected cloud header {header!r}")
        for line in fh:
            line = line.strip()
            if line:
                x, y, s, prov = line.split(",", 3)
                rows.append((complex(float(x), float(y)), int(s), prov))
    return rows


def write_cloud(rows, path):
    with open(path, "w") as fh:
        fh.write("x,y,sign,provenance\n")
        for z, s, prov in rows:
            fh.write(f"{z.real:.17g},{z.imag:.17g},{s:d},{prov}\n")


def _chains(rows):
    """(p, q) -> [(j, row index)] sorted by j."""
    out = {}
    for i, (_, _, prov) in enumerate(rows):
        if prov.startswith("chain:"):
            _, p, q, j = prov.split(":")
            out.setdefault((p, q), []).append((int(j), i))
    return {k: sorted(v) for k, v in out.items()}


def check_configure(report, rows, tol, kappa, sub_points):
    """Report and cloud of one `configure`: no band violations or degree
    mismatches, condition residuals under the solve tolerance (group b is
    solved scaled by 1/kappa), and a point count that matches the chain
    counts plus the sub-network vertices."""
    problems = []
    if report["band_violations"]:
        problems.append(f"{len(report['band_violations'])} band violations")
    if report["degree_mismatches"]:
        problems.append(f"{len(report['degree_mismatches'])} degree "
                        "mismatches")
    for group, val in report["condition_residuals"].items():
        scaled = val / kappa if group == "b" else val
        if not (math.isfinite(val) and scaled < tol):
            problems.append(f"condition residual {group} = {val:.3e}")
    if report["points"] != len(rows):
        problems.append(f"report says {report['points']} points, cloud has "
                        f"{len(rows)}")
    chains = _chains(rows)
    n_chain = 0
    for key, m in report["chain_counts"].items():
        p, q = key.split("--")
        got = len(chains.get((p, q), []))
        n_chain += got
        if got != 2 * m - 1:
            problems.append(f"chain {key}: {got} points for m = {m}")
    if len(rows) - n_chain != sub_points:
        problems.append(f"{len(rows) - n_chain} sub-network points, "
                        f"expected {sub_points}")
    problems.extend(check_chain_geometry(rows, chains))
    return problems


def check_chain_geometry(rows, chains=None):
    """Every chain is evenly spaced on a straight line."""
    problems = []
    for (p, q), js in (chains or _chains(rows)).items():
        if [j for j, _ in js] != list(range(1, len(js) + 1)):
            problems.append(f"chain {p}--{q}: indices not consecutive")
            continue
        z = [rows[i][0] for _, i in js]
        for k in range(1, len(z) - 1):
            if abs(z[k + 1] - 2 * z[k] + z[k - 1]) > CHAIN_TOL:
                problems.append(f"chain {p}--{q}: point j={k + 1} off the "
                                "evenly spaced line")
                break
    return problems


def check_diagnostics(diag, requested):
    """Diagnostics of one `assemble`: finite (enforced by the strict
    parse), gate passed, and a row for every requested window."""
    problems = []
    gate = diag["gate"]
    if gate["pass"] is not True:
        problems.append(f"gate failed: worst {gate['worst_projection']}")
    if not gate["threshold"] > 0:
        problems.append(f"gate threshold {gate['threshold']}")
    indices = [r["index"] for r in diag["points"]]
    if len(set(indices)) != len(indices):
        problems.append("duplicate window rows")
    missing = set(requested) - set(indices)
    if missing:
        problems.append(f"{len(missing)} requested windows missing")
    return problems


def check_certificate(cert, reference):
    return [f"certificate {k} = {cert.get(k)!r}, reference {v!r}"
            for k, v in reference.items() if cert.get(k) != v]


def check_scatter(svg_text, n_points):
    got = svg_text.count("<circle ")
    return [] if got == n_points else [f"scatter has {got} circles for "
                                       f"{n_points} points"]


def corrupt_cloud(rows, ell):
    """Copy of the cloud with the middle point of its first chain moved
    by ell/2 along the chain; returns (rows, moved index)."""
    chains = _chains(rows)
    js = chains[min(chains)]
    _, i = js[len(js) // 2]
    z0 = rows[js[0][1]][0]
    z1 = rows[js[-1][1]][0]
    u = (z1 - z0) / abs(z1 - z0)
    out = list(rows)
    z, s, prov = out[i]
    out[i] = (z + 0.5 * ell * u, s, prov)
    return out, i
