"""Radial ground state of Delta u - u + f(u) = 0, f(u) = u^3, and the
derived pair-interaction quantities.

The profile is computed by shooting and bisection; beyond r_switch the
stored profile is the matched Bessel tail A*K0(r), which avoids the
exponentially growing contamination of direct integration.

Upsilon(s) = -integral u0(|z - s e|) G(z) dz with the kernel
G = f'(u0) u0' <e, z>/|z|, which decays like e^{-3r}. For s >= S_CLOSED
every shifted bump that G's support sees is on the A*K0 tail, and Graf's
addition theorem (DLMF 10.44(ii)) leaves Upsilon(s) = -2 A K1(s) C with
one grid sum C = integral I1(r) <e, z>/|z| G(z) dz. Below S_CLOSED the
quadrature runs on the grid points with r <= R_SUPPORT only. All
consumers go through an InteractionTable, which can be cached on disk.

The table file holds knots and values only. Loading it fits the cubic
splines of ln Upsilon and its inverse with _not_a_knot, which reproduces
scipy.interpolate.CubicSpline bit for bit with a pure-Python tridiagonal
solve; the splines of u0 and u0' are fitted the same way when the profile
is first evaluated. So loading the table imports no scipy module, and a
CLI process imports scipy.special only for the Bessel tail beyond R_MAX.
"""

import hashlib
import math
import os
from functools import cached_property

import numpy as np


def f(u):
    """The nonlinearity u^3, written |u|^2 u."""
    return np.abs(u) ** 2.0 * u


def fprime(u):
    """f'(u) = 3 |u|^2."""
    return 3.0 * np.abs(u) ** 2.0


# f as |u|^{p-1} u - c |u|^{q-1} u at (p, c, q) = PCQ: table files record
# it, and the cache tag names it so, which keeps existing cache file names
PCQ = (3.0, 0.0, 5.0)
NL_KEY = "p{:g}_c{:g}_q{:g}".format(*PCQ)

R_MAX = 50.0
DR = 0.005
R_SWITCH = 12.0
QUAD_EXTENT = 18.0
QUAD_N = 361
S_MIN, S_MAX, S_STEP = 2.0, 110.0, 0.5
# From s = S_CLOSED on, G's points with r <= S_CLOSED - R_SWITCH see only
# the A*K0 tail; G holds 2e-17 of its mass beyond them, 1e-18 beyond
# R_SUPPORT.
S_CLOSED = 25.0
R_SUPPORT = 14.0
# ground_state_beta bisects u(0) inside BETA_BRACKET, at most BETA_ITERS times
BETA_BRACKET = (1.5, 3.0)
BETA_ITERS = 62


def _rhs(r, y):
    u, v = y
    return (v, -v / r + u - f(u))


def _shoot(beta, r_end, rtol=1e-13, dense=False):
    """Integrate from a series start near r = 0; terminate at the first
    zero crossing of u (downward) or of u' (upward, u still positive)."""
    from scipy.integrate import solve_ivp
    r0 = 1e-3
    c2 = (beta - f(beta)) / 4.0
    y0 = (beta + c2 * r0 * r0, 2.0 * c2 * r0)

    def hit_zero(r, y):
        return y[0]
    hit_zero.terminal = True
    hit_zero.direction = -1

    def turn_up(r, y):
        return y[1]
    turn_up.terminal = True
    turn_up.direction = 1

    sol = solve_ivp(_rhs, (r0, r_end), y0, method="DOP853",
                    rtol=rtol, atol=1e-16, events=(hit_zero, turn_up),
                    dense_output=dense)
    return sol


def ground_state_beta():
    """Central value u(0) of the positive radial ground state, by bisection
    on the shooting parameter."""
    lo, hi = BETA_BRACKET

    def classify(beta):
        sol = _shoot(beta, 30.0, rtol=1e-10)
        if sol.t_events[0].size:      # crossed zero: beta too big
            return 1
        if sol.t_events[1].size:      # turned back up: beta too small
            return -1
        return 1 if sol.y[0, -1] < 0 else -1

    if classify(lo) != -1 or classify(hi) != 1:
        raise ValueError("bracket does not straddle the ground state")
    for _ in range(BETA_ITERS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if classify(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _profile_grid(beta):
    """(r, u0, du0, A): grid profile with the K0 tail glued at R_SWITCH."""
    from scipy.special import k0, k1
    r = np.arange(0.0, R_MAX + DR / 2, DR)
    sol = _shoot(beta, R_SWITCH + 0.5, rtol=1e-13, dense=True)
    if sol.t[-1] < R_SWITCH:
        raise RuntimeError("profile terminated before the matching radius")
    u = np.empty_like(r)
    du = np.empty_like(r)
    inner = (r > 1e-3) & (r <= R_SWITCH)
    vals = sol.sol(r[inner])
    u[inner] = vals[0]
    du[inner] = vals[1]
    c2 = (beta - f(beta)) / 4.0
    small = r <= 1e-3
    u[small] = beta + c2 * r[small] ** 2
    du[small] = 2.0 * c2 * r[small]
    # tail amplitude by averaging u/K0 over the last unit before the switch
    fit = (r >= R_SWITCH - 2.0) & (r <= R_SWITCH)
    A = float(np.mean(u[fit] / k0(r[fit])))
    outer = r > R_SWITCH
    u[outer] = A * k0(r[outer])
    du[outer] = -A * k1(r[outer])
    return r, u, du, A


def _simpson_weights(n, h):
    if n % 2 == 0:
        raise ValueError("simpson needs an odd point count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _check_knots(x, y):
    """Raise ValueError, as CubicSpline does, unless x holds at least 4
    finite, strictly increasing knots and y as many finite values (along
    its first axis)."""
    if x.ndim != 1 or x.shape[0] != y.shape[0] or x.size < 4:
        raise ValueError("a spline needs matching 1-d knots and values, "
                         "at least 4")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("spline knots and values must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError("spline knots must be strictly increasing")


def _gtsv(dl, d, du, b):
    """The solution x of A x = b, column by column of the 2-d array b, for
    the tridiagonal A with sub-, main and superdiagonals dl, d and du, bit
    for bit as LAPACK's dgtsv computes it (scipy.linalg.solve_banded calls
    it for a (1, 1) band): elimination swaps rows i and i + 1 when
    |dl[i]| > |d[i]| (not on a tie), divides by the pivot, keeps the
    fill-in on a second superdiagonal du2, and back-substitutes
    ((x[i] - du[i] x[i+1]) - du2[i] x[i+2]) / d[i]. One elimination serves
    all the columns."""
    n = len(d)
    # mult[i] is the multiplier of row i's elimination, dl[i] at first
    d, du, mult = d.tolist(), du.tolist() + [0.0], dl.tolist()
    du2 = [0.0] * n
    swap = [False] * (n - 1)
    for i in range(n - 1):
        di, li = d[i], mult[i]
        if abs(di) >= abs(li):
            if di == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            mult[i] = m = li / di
            d[i + 1] -= m * du[i]
        else:
            swap[i] = True
            d[i] = li
            mult[i] = m = di / li
            d[i + 1], du[i] = du[i] - m * d[i + 1], d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -m * du2[i]
    if d[-1] == 0.0:
        raise np.linalg.LinAlgError("singular matrix")
    x = np.empty(b.shape)
    for j in range(b.shape[1]):
        # b through the row operations: y[i] is final once row i + 1 is
        # eliminated, `last` the running value of the row below
        col = b[:, j].tolist()
        y, last = [], col[0]
        for bi, m, s in zip(col[1:], mult, swap):
            if s:
                y.append(bi)
                last = last - m * bi
            else:
                y.append(last)
                last = bi - m * last
        y.append(last)
        # from the last row up; du2[n - 2] is 0, so x[n] = 0 drops out
        x1, x2 = y[-1] / d[-1], 0.0
        up = [x1]
        for yi, ui, u2i, di in zip(y[-2::-1], du[-2::-1], du2[-2::-1],
                                   d[-2::-1]):
            x1, x2 = (yi - ui * x1 - u2i * x2) / di, x1
            up.append(x1)
        x[::-1, j] = up
    return x


def _not_a_knot(x, y):
    """Coefficients, rows c0..c3 of c0 s^3 + c1 s^2 + c2 s + c3 with
    s = xq - x[i], of the not-a-knot cubic spline through (x, y), bit for
    bit as scipy.interpolate.CubicSpline computes them: the same
    tridiagonal system for the slopes at the knots, solved as
    solve_banded solves it (_gtsv), then the same Hermite form. Like
    CubicSpline it fits every column of a 2-d y (knots along axis 0, the
    coefficients of column j at [..., j]) and raises ValueError on
    non-finite data or on knots that do not strictly increase."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_knots(x, y)
    n = x.size
    dx = np.diff(x)
    dxr = dx.reshape((n - 1,) + (1,) * (y.ndim - 1))
    slope = np.diff(y, axis=0) / dxr
    d = np.empty(n)                       # diagonal, super- and sub-
    d[1:-1] = 2 * (dx[:-1] + dx[1:])
    du = np.empty(n - 1)
    du[1:] = dx[:-1]
    dl = np.empty(n - 1)
    dl[:-1] = dx[1:]
    b = np.empty(y.shape)
    b[1:-1] = 3 * (dxr[1:] * slope[:-1] + dxr[:-1] * slope[1:])
    # not-a-knot: the third derivative is continuous at x[1] and x[-2]
    e = x[2] - x[0]
    d[0] = dx[1]
    du[0] = e
    # squared as arrays, as scipy squares them: for 2-d y, dxr[0] is an
    # array, whose ** 2 is x * x, where a float64 scalar's calls pow
    b[0] = ((dxr[0] + 2 * e) * dxr[1] * slope[0]
            + dxr[0]**2 * slope[1]) / e
    e = x[-1] - x[-3]
    d[-1] = dx[-2]
    dl[-1] = e
    b[-1] = ((dxr[-1]**2 * slope[-2]
              + (2 * e + dxr[-1]) * dxr[-2] * slope[-1]) / e)
    m = _gtsv(dl, d, du, b.reshape(n, -1)).reshape(y.shape)
    t = (m[:-1] + m[1:] - 2 * slope) / dxr
    return np.stack((t / dxr, (slope - m[:-1]) / dxr - t, m[:-1], y[:-1]))


class _Cubic:
    """The not-a-knot cubic spline through (x, y), called as scipy's PPoly
    evaluates it and its derivative, bit for bit: on the interval i with
    x[i] <= xq < x[i + 1], the end intervals extended past the knots, NaN
    mapped to NaN, terms summed from c3 up with s^3 = (s s) s, and the
    slope from the coefficients c[:-1] * (3, 2, 1)."""

    def __init__(self, x, y):
        self.x = np.ascontiguousarray(x, dtype=float)
        self.c = _not_a_knot(self.x, y)
        # searching the inner knots gives the interval, ends clipped
        self._inner = self.x[1:-1].copy()
        # one gather per call: left knot, c3, c2, c1, c0, 2 c1, 3 c0
        c = self.c
        self._rows = np.vstack((self.x[:-1], c[::-1],
                                c[1::-1] * [[2.0], [3.0]]))

    def _gather(self, xq):
        xq = np.asarray(xq, dtype=float)
        x0, *c = self._rows[:, np.searchsorted(self._inner, xq, "right")]
        s = xq - x0
        return s, s * s, c

    def __call__(self, xq):
        s, s2, (c3, c2, c1, c0, _, _) = self._gather(xq)
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)

    def value_and_slope(self, xq):
        s, s2, (c3, c2, c1, c0, d1, d0) = self._gather(xq)
        return (c3 + c2 * s + c1 * s2 + c0 * (s2 * s),
                c2 + d1 * s + d0 * s2)


def _spline_on_grid(rows, x):
    """The cubic spline with coefficient rows `rows` (row i holds c3, c2,
    c1, c0 of the interval i, as _not_a_knot fits them) on the knots
    i * DR at x, bit for bit as _Cubic and scipy evaluate it:
    c3 + c2 s + c1 s^2 + c0 s^3 summed in that order, s = x - i DR, on
    the i with i DR <= x < (i + 1) DR (ends extended). i is x / DR
    truncated. Where that i may be one off (s < 0, or s so near DR that
    (i + 1) DR can round below x) or lies past the ends, i moves across
    the knot or is clipped and s is taken again: a few x at the knots, and
    those beyond the grid."""
    shape = np.shape(x)
    x = np.ravel(x)
    n = rows.shape[0]
    i = (x * (1.0 / DR)).astype(np.intp)
    s = x - i * DR
    # as unsigned, a negative i (and NaN's) is past n too
    fix = np.flatnonzero((s < 0) | (s >= DR * (1.0 - 1e-9))
                         | (i.view(np.uintp) >= n))
    if fix.size:
        xf = x[fix]
        j = i[fix]
        j -= xf < j * DR
        j += xf >= (j + 1) * DR
        j = np.clip(j, 0, n - 1)
        i[fix] = j
        s[fix] = xf - j * DR
    # one gather of a contiguous row per sample, then the sum in that
    # order (c2 s + c3 is c3 + c2 s), in place
    c3, c2, c1, c0 = np.take(rows, i, axis=0).T
    s2 = s * s
    out = c2 * s
    out += c3
    out += c1 * s2
    s2 *= s
    s2 *= c0
    out += s2
    return out.reshape(shape)


class InteractionTable:
    """Ground-state profile plus the pair interaction Upsilon on a log
    spline, with the alpha_ell inverse and the normalization constant.

    Without `ln_ups` the table computes Upsilon by quadrature on its own
    profile at the lengths `s` (default: S_MIN to S_MAX in S_STEP)."""

    def __init__(self, beta, r, u0, du0, A, s=None, ln_ups=None):
        self.beta = float(beta)
        self.r = np.asarray(r, dtype=float)
        self.u0 = np.asarray(u0, dtype=float)
        self.du0 = np.asarray(du0, dtype=float)
        self.A = float(A)
        if not np.array_equal(self.r, np.arange(self.r.size) * DR):
            raise ValueError("profile grid must be r = i * DR")
        # the profile splines are fitted on first use, their data checked now
        _check_knots(self.r, np.column_stack((self.u0, self.du0)))
        if s is None:
            s = np.arange(S_MIN, S_MAX + S_STEP / 2, S_STEP)
        self.s = np.asarray(s, dtype=float)
        if ln_ups is None:
            ln_ups = np.log(self._upsilon_quadrature(self.s))
        self.ln_ups = np.asarray(ln_ups, dtype=float)
        if np.any(np.diff(self.ln_ups) >= 0):
            raise RuntimeError("interaction strength is not decreasing")
        self._ls = _Cubic(self.s, self.ln_ups)
        # the spline's range; at s[-1] it can round an ulp off ln_ups[-1]
        self._ls_lo, self._ls_hi = self._ls(self.s[[-1, 0]])
        # first guess for the inverse of _ls, polished by Newton in alpha_ell
        self._ls_inv = _Cubic(self.ln_ups[::-1], self.s[::-1])

    def _upsilon_quadrature(self, s):
        """Upsilon at the lengths `s` on the QUAD_N-point grid of side
        2 QUAD_EXTENT: the Graf closed form from S_CLOSED on, the
        quadrature over G's support below it."""
        from scipy.special import i1, k1
        X, Y, GW = _interaction_kernel(self, (1.0, 0.0), QUAD_N, QUAD_EXTENT)
        R = np.hypot(X, Y)
        far = s >= S_CLOSED
        vals = np.empty_like(s)
        C = np.sum(i1(R) * (X / np.where(R > 0, R, 1.0)) * GW)
        vals[far] = -2.0 * self.A * k1(s[far]) * C
        sup = R <= R_SUPPORT
        X, Y, GW = X[sup], Y[sup], GW[sup]
        vals[~far] = [-np.sum(self.u0_at(np.hypot(X - si, Y)) * GW)
                      for si in s[~far]]
        if np.any(vals <= 0):
            raise RuntimeError("nonpositive interaction values")
        return vals

    # --- profile -------------------------------------------------------

    @cached_property
    def _profile_c(self):
        """Coefficient rows of the u0 and u0' splines, [0] and [1], as
        _spline_on_grid reads them: row i holds c3, c2, c1, c0 of the
        interval i. They are fitted together: they share the knots r, so
        one elimination serves both."""
        c = _not_a_knot(self.r, np.column_stack((self.u0, self.du0)))
        return np.ascontiguousarray(c[::-1].transpose(2, 1, 0))

    def u0_at(self, r):
        return self._radial(r, self._profile_c[0], "k0", self.A)

    def du0_at(self, r):
        return self._radial(r, self._profile_c[1], "k1", -self.A)

    def _radial(self, r, c, bessel, amplitude):
        """The spline with coefficient rows `c` on the grid, the tail
        amplitude * K(r) beyond it (and at NaN), K the scipy.special
        function named `bessel`; each point runs only its own branch."""
        r = np.asarray(r, dtype=float)
        inside = r <= self.r[-1]
        if inside.all():
            out = _spline_on_grid(c, r)
        else:
            import scipy.special
            out = np.empty_like(r)
            out[inside] = _spline_on_grid(c, r[inside])
            out[~inside] = amplitude * getattr(scipy.special, bessel)(
                r[~inside])
        return out if out.ndim else float(out)

    def tail_constant(self):
        """ln u0 + r + (1/2) ln r averaged over r in [20, 25]."""
        sel = (self.r >= 20.0) & (self.r <= 25.0)
        rr = self.r[sel]
        return float(np.mean(np.log(self.u0[sel]) + rr + 0.5 * np.log(rr)))

    def c_star(self):
        """1 / (pi * integral of u0'^2 r dr)."""
        from scipy.integrate import simpson
        val = simpson(self.du0 ** 2 * self.r, x=self.r)
        return 1.0 / (math.pi * val)

    # --- interaction ---------------------------------------------------

    def upsilon(self, s):
        return np.exp(self._ls(s))

    def upsilon_prime(self, s):
        ls, lsd = self._ls.value_and_slope(s)
        return np.exp(ls) * lsd

    def alpha_ell(self, a, ell):
        """alpha with |a| * Upsilon(ell) = Upsilon(ell (1 - alpha)).

        `a` and `ell` broadcast; a scalar result is a float. The root
        t = ell (1 - alpha) of _ls(t) = ln|a| + _ls(ell) starts from the
        inverse spline, offset so that |a| = 1 gives t = ell exactly, and
        takes three Newton steps on the forward spline. Raises ValueError
        when any ln|a| + _ls(ell) is NaN or outside the tabulated range."""
        a = np.asarray(a, dtype=float)
        ls_ell = self._ls(ell)
        with np.errstate(divide="ignore"):     # a = 0 fails the range test
            target = np.log(np.abs(a)) + ls_ell
        bad = ~((target >= self._ls_lo) & (target <= self._ls_hi))
        if np.any(bad):
            raise ValueError(f"alpha_ell target out of tabulated range "
                             f"(a={np.broadcast_to(a, bad.shape)[bad][0]}, "
                             f"ell={ell})")
        t = ell + (self._ls_inv(target) - self._ls_inv(ls_ell))
        for _ in range(3):
            ls, lsd = self._ls.value_and_slope(t)
            t = t - (ls - target) / lsd
        out = 1.0 - t / ell
        return out if out.ndim else float(out)

    def dalpha_da(self, a, ell):
        """Derivative of alpha_ell in a; scalar or array `a` as there."""
        a = np.asarray(a, dtype=float)
        t = ell * (1.0 - self.alpha_ell(a, ell))
        out = -np.copysign(1.0, a) * self.upsilon(ell) / (
            ell * self.upsilon_prime(t))
        return out if out.ndim else float(out)

    # --- persistence ----------------------------------------------------

    def save(self, path):
        p, c, q = PCQ
        np.savez(path, p=p, c=c, q=q,
                 beta=self.beta, r=self.r, u0=self.u0, du0=self.du0,
                 A=self.A, s=self.s, ln_ups=self.ln_ups)

    @classmethod
    def load(cls, path):
        with np.load(path) as d:
            pcq = (float(d["p"]), float(d["c"]), float(d["q"]))
            if pcq != PCQ:
                raise ValueError(f"{path} holds a table for the "
                                 f"nonlinearity (p, c, q) = {pcq}, not "
                                 "the cubic (3, 0, 5)")
            return cls(float(d["beta"]), d["r"], d["u0"], d["du0"],
                       float(d["A"]), d["s"], d["ln_ups"])


def _interaction_kernel(table, e, n, extent):
    """Grid X, Y and the premultiplied source kernel G * weights, where
    G = f'(u0) u0' <e, z>/|z|."""
    ax = np.linspace(-extent, extent, n)
    h = ax[1] - ax[0]
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    R = np.hypot(X, Y)
    proj = np.zeros_like(R)
    nz = R > 0
    proj[nz] = (e[0] * X[nz] + e[1] * Y[nz]) / R[nz]
    G = fprime(table.u0_at(R)) * table.du0_at(R) * proj
    w = _simpson_weights(n, h)
    return X, Y, G * np.outer(w, w)


def build_table():
    beta = ground_state_beta()
    return InteractionTable(beta, *_profile_grid(beta))


def cache_dir():
    return os.environ.get("NETFORGE_CACHE", os.path.join(
        os.path.expanduser("~"), ".cache", "netforge"))


def table_cache_path(directory=None):
    tag = f"{NL_KEY}_rmax{R_MAX:g}_dr{DR:g}_rs{R_SWITCH:g}" \
          f"_q{QUAD_N}x{QUAD_EXTENT:g}_s{S_MIN:g}-{S_MAX:g}-{S_STEP:g}" \
          f"_closed{S_CLOSED:g}_sup{R_SUPPORT:g}"
    digest = hashlib.sha256(tag.encode()).hexdigest()[:12]
    d = directory or cache_dir()
    return os.path.join(d, f"interaction_{NL_KEY}_{digest}.npz")


def load_or_build(directory=None):
    path = table_cache_path(directory)
    if os.path.exists(path):
        return InteractionTable.load(path)
    table = build_table()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    table.save(path)
    return table
