"""Field-level diagnostics: the superposed bump field, its algebraic
residual, and projected forces against the interaction expansion.

All diagnostics run on per-point windows; global grids at realistic
configuration scales would be far too large.
"""

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .interaction import f

# A window sums the bumps within half_width + ell + REACH of its centre. A
# bump beyond that pulls on one at the centre with at most about
# Upsilon(ell) e^{-(half_width + REACH)}, since Upsilon(s) ~ e^{-s}.
REACH = 15.0
DELTA_DEFAULT = -0.5   # weighted-norm exponent


@dataclass(frozen=True)
class FieldWindow:
    """A square sample grid about `center`; `delta` is the exponent of
    the residual norm weight on it."""
    center: complex
    half_width: float
    spacing: float = 0.1
    delta: float = DELTA_DEFAULT

    def __post_init__(self):
        if self.spacing > 0.1 + 1e-12:
            raise ValueError("window spacing must resolve the bump scale "
                             "(need <= 0.1)")

    def offsets(self):
        """Sample offsets from the centre along either axis."""
        n = int(round(2.0 * self.half_width / self.spacing)) + 1
        return np.linspace(-self.half_width, self.half_width, n)

    def axes(self):
        off = self.offsets()
        return self.center.real + off, self.center.imag + off

    def mesh(self):
        x, y = self.axes()
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True, eq=False)
class Field:
    """The superposed field on a window, as read-only sample arrays: u,
    its algebraic residual E, and the norm weight at the window's delta."""
    window: FieldWindow
    u: np.ndarray
    E: np.ndarray
    weight: np.ndarray


def _window_points(config, window):
    """(position, sign) pairs of the bumps within the window's reach,
    half_width + ell + REACH of its centre."""
    reach = window.half_width + config.ell + REACH
    k = config.index.near(window.center, reach)
    z = config.positions[k]
    keep = np.abs(z - window.center) <= reach
    return list(zip(z[keep].tolist(), config.signs[k[keep]].tolist()))


# per table: what the windows derive from its profile once and reuse, the
# templates per window shape and the projection scales per radius
_TABLE_CACHE = weakref.WeakKeyDictionary()


def _cached(table, key, build):
    """The cached value for `key` of `table`, made by build() on first
    use. A window's template depends on its shape, not on where it sits,
    so every window of one shape shares it."""
    cache = _TABLE_CACHE.setdefault(table, {})
    if key not in cache:
        cache[key] = build()
    return cache[key]


def _bump_terms(table, dx, dy, delta):
    """u0, f(u0) and the norm-weight term exp(delta sqrt(1 + |x - z|^2))
    of a bump z, on the offsets dx (column) and dy (row) from it. The
    squares are taken once; r = sqrt(dx^2 + dy^2) costs a quarter of
    np.hypot, whose overflow guard the window's offsets never need."""
    dx2, dy2 = dx * dx, dy * dy
    u0 = table.u0_at(np.sqrt(dx2 + dy2))
    return u0, f(u0), np.exp(delta * np.sqrt((1.0 + dx2) + dy2))


def residual(config, window, table):
    """The Field of `window`: the algebraic residual
    E = f(sum eta u0) - sum eta f(u0) of the superposed field u.

    The identity avoids any numerical Laplacian: each summand solves the
    equation exactly, so only the nonlinear cross terms remain. The same
    pass over the bumps sums the norm weight
    sum_z exp(delta sqrt(1 + |x - z|^2)) at the window's delta. Each bump
    is placed by its offset from the window centre; a bump at the centre
    takes the template of the window's shape. Each bump is added or
    subtracted by its sign, which must be +1 or -1.
    """
    off = window.offsets()
    u = np.zeros((off.size, off.size))
    lin = np.zeros_like(u)
    w = np.zeros_like(u)
    for z, s in _window_points(config, window):
        o = z - window.center
        if o == 0:
            u0, fu0, wz = _cached(
                table, ("bump", window.half_width, window.spacing,
                        window.delta),
                lambda: _bump_terms(table, off[:, None], off[None, :],
                                    window.delta))
        else:
            u0, fu0, wz = _bump_terms(table, (off - o.real)[:, None],
                                      (off - o.imag)[None, :], window.delta)
        if s > 0:
            u += u0
            lin += fu0
        else:
            u -= u0
            lin -= fu0
        w += wz
    E = f(u) - lin
    for a in (u, E, w):
        a.flags.writeable = False
    return Field(window, u, E, w)


def delta_limit(half_width, ell):
    """Largest |delta| at which each term exp(delta sqrt(1 + d^2)) of the
    norm weight lies in [e^-700, e^700] for every distance d from a sample
    of a window with this half width to a bump it sums: d is at most the
    corner's sqrt(2) half_width plus the reach. Both ends are normal
    floats, and e^700 leaves room for 1e4 summands below the maximum."""
    d = math.sqrt(2.0) * half_width + half_width + ell + REACH
    return 700.0 / math.hypot(1.0, d)


def residual_norms(field):
    """(sup norm, weighted norm) of the field's residual; the weight is
    sum_z exp(delta sqrt(1 + |x - z|^2)) at its window's delta. Both are
    NaN on a window centred on a non-finite point."""
    if not cmath.isfinite(field.window.center):
        return math.nan, math.nan
    size = np.abs(field.E)
    return float(np.max(size)), float(np.max(size / field.weight))


def cutoff_profile(s):
    """Smooth step: 1 below -1, 0 above 1, cosine blend between (the
    blend is exactly 1 and 0 at the clipped ends)."""
    s = np.clip(np.asarray(s, dtype=float), -1.0, 1.0)
    out = (1.0 - np.sin(np.pi * s / 2)) / 2
    return out if out.ndim else float(out)


def _projection_kernels(table, window, rho):
    """Flattened kx, ky: chi(|x - c| - rho) grad u0(|x - c|) about the
    window centre c, times the 2-D trapezoid weights."""
    off = window.offsets()
    dx, dy = off[:, None], off[None, :]
    r = np.hypot(dx, dy)
    du = table.du0_at(r)
    nz = r > 0
    trap = np.full(off.size, window.spacing)
    trap[[0, -1]] /= 2.0
    chi = cutoff_profile(r - rho) * np.outer(trap, trap)
    kx = np.divide(du * dx, r, out=np.zeros_like(r), where=nz) * chi
    ky = np.divide(du * dy, r, out=np.zeros_like(r), where=nz) * chi
    return kx.ravel(), ky.ravel()


def _raw_projection(field, table, rho):
    """Quadrature of the field's E against chi(|x - c| - rho) grad u0
    about its window's centre c, as two dot products with the shape's
    kernels."""
    window = field.window
    kx, ky = _cached(table, ("kernel", window.half_width, window.spacing,
                             rho),
                     lambda: _projection_kernels(table, window, rho))
    e = field.E.ravel()
    return complex(e @ kx, e @ ky)


def projection_scale(table, rho):
    """Calibration constant relating the raw residual-gradient quadrature
    (with cutoff radius rho) to the pair interaction, fixed per table by
    the two-point oracle: two positive bumps at distance 8 (or far enough
    to clear the cutoff) must attract with strength Upsilon along the
    axis. The calibration window has an assembled window's shape, so the
    windows reuse its projection kernels (and, at the default delta, its
    centre bump)."""
    def calibrate():
        from .assembly import Configuration
        s = max(8.0, 2.0 * rho + 4.0)
        cfg = Configuration([0j, complex(s, 0.0)], [1, 1],
                            ["cal:left", "cal:right"], s)
        cal = residual(cfg, FieldWindow(0j, rho + 2.0), table)
        ups = float(table.upsilon(s))
        scale = _raw_projection(cal, table, rho).real / ups
        if scale == 0.0:
            raise RuntimeError("projection calibration degenerated")
        return scale
    return _cached(table, ("scale", rho), calibrate)


def project_force(config, field, table):
    """Calibrated projection of the field's residual onto the cutoff
    gradient centred at its window's centre z: the leading term of the
    force on the bump at z. Under the calibration, two positive bumps
    attract (the projection at the left bump of a +/+ pair points toward
    the right bump). NaN at a non-finite z, so that a gate on it fails."""
    rho = config.ell / 4.0
    if field.window.half_width < rho + 2.0 - 1e-9:
        raise ValueError("projection window must extend ell/4 + 2 beyond "
                         "the point")
    if not cmath.isfinite(field.window.center):
        return complex(math.nan, math.nan)
    return _raw_projection(field, table, rho) / projection_scale(table, rho)


def predicted_force(config, z_index, table, band=0.5):
    """Closest-neighbor prediction sum eta_z eta_z' Upsilon(|z'-z|) unit(z'-z)
    at the point with the given index."""
    z = config.positions[z_index].item()
    eta = config.signs[z_index].item()
    ell = config.ell
    k = config.index.near(z, ell + band)
    k = k[k != z_index]
    dz = config.positions[k] - z
    # np.hypot rounds as Python's abs(complex) does; np.abs does not
    d = np.hypot(dz.real, dz.imag)
    near = np.abs(d - ell) <= band
    out = 0j
    for dzk, dk, sk, uk in zip(dz[near].tolist(), d[near].tolist(),
                               config.signs[k[near]].tolist(),
                               table.upsilon(d[near]).tolist()):
        out += eta * sk * uk * dzk / dk
    return out
