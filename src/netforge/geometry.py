"""Plane geometry of segments and rays: one intersection predicate,
`pieces_conflict`, and the pairwise scan `embedded` built on it.

Points are complex numbers. The predicates take an absolute tolerance on
lengths and on cross products of unit directions.
"""

import math

INF = math.inf


def cross(u, v):
    return u.real * v.imag - u.imag * v.real


class Piece:
    """A segment or a ray, for the embeddedness checks of networks and of
    sub-networks with their anchor rays.

    origin + t*direction for t in [0, length]; length = inf for rays.
    """

    def __init__(self, origin, direction, length):
        self.o = origin
        self.d = direction / abs(direction)
        self.length = length

    def point(self, t):
        return self.o + t * self.d

    def endpoints(self):
        eps = [self.o]
        if self.length < INF:
            eps.append(self.point(self.length))
        return eps


def segment(a, b):
    """The segment [a, b] as a Piece."""
    d = b - a
    return Piece(a, d / abs(d), abs(d))


def pieces_conflict(p1: Piece, p2: Piece, tol):
    """True if two pieces intersect anywhere except at a point that is an
    endpoint of both."""
    denom = cross(p1.d, p2.d)
    w = p2.o - p1.o
    if abs(denom) <= tol:
        # parallel: conflict only when collinear with an overlap that is
        # more than a shared endpoint
        if abs(cross(p1.d, w)) > tol * max(abs(w), 1.0):
            return False
        s = (w.real * p1.d.real + w.imag * p1.d.imag)
        sgn = p1.d.real * p2.d.real + p1.d.imag * p2.d.imag
        if sgn > 0:
            lo2, hi2 = s, s + p2.length
        else:
            lo2, hi2 = s - p2.length, s
        # the overlap of p2's range with [0, p1.length] along p1
        lo, hi = max(0.0, lo2), min(p1.length, hi2)
        if hi < lo - tol:
            return False
        if hi - lo > tol:
            return True
        pt = p1.point(lo)
        return not (_is_endpoint(pt, p1, tol) and _is_endpoint(pt, p2, tol))
    t1 = cross(w, p2.d) / denom
    t2 = cross(w, p1.d) / denom
    if t1 < -tol or t1 > p1.length + tol:
        return False
    if t2 < -tol or t2 > p2.length + tol:
        return False
    pt = p1.point(t1)
    return not (_is_endpoint(pt, p1, tol) and _is_endpoint(pt, p2, tol))


def _is_endpoint(pt, piece, tol):
    return any(abs(pt - e) <= tol for e in piece.endpoints())


def embedded(pieces, tol):
    """True if no two of the pieces conflict."""
    return not any(pieces_conflict(pieces[i], pieces[j], tol)
                   for i in range(len(pieces))
                   for j in range(i + 1, len(pieces)))
