import cmath
import itertools

from netforge.geometry import INF, Piece, cross, pieces_conflict, segment

TOL = 1e-12


def conflict(a, b, c, d, tol=TOL):
    return pieces_conflict(segment(a, b), segment(c, d), tol)


def test_cross():
    assert cross(1 + 0j, 1j) == 1.0
    assert cross(1j, 1 + 0j) == -1.0
    assert cross(2 + 3j, 4 + 6j) == 0.0


def test_segments_crossing():
    assert conflict(0j, 1 + 1j, 1j, 1 + 0j)


def test_segments_disjoint():
    assert not conflict(0j, 1 + 0j, 2j, 1 + 2j)


def test_segments_shared_endpoint_ok():
    # two edges out of a common vertex, not collinear: no conflict
    assert not conflict(0j, 1 + 0j, 0j, 1j)


def test_segments_collinear_overlap():
    assert conflict(0j, 2 + 0j, 1 + 0j, 3 + 0j)
    # collinear continuation through a shared endpoint only touches
    assert not conflict(0j, 1 + 0j, 1 + 0j, 2 + 0j)
    # same segment twice always conflicts, either way round
    assert conflict(0j, 1 + 0j, 0j, 1 + 0j)
    assert conflict(0j, 1 + 0j, 1 + 0j, 0j)


def test_segments_t_touch():
    # an endpoint in the interior of the other segment conflicts
    assert conflict(0j, 2 + 0j, 1 + 0j, 1 + 1j)


def test_grid_segment_pairs_symmetric_and_invariant():
    """Every ordered pair of segments between points of the 4x4 integer
    grid: the verdict does not depend on the order of the pair, on the
    direction of either segment, or on a rotation, scale and shift of the
    figure with the tolerance scaled alike."""
    pts = [complex(x, y) for x in range(4) for y in range(4)]
    segs = list(itertools.permutations(pts, 2))
    scale = 2.3
    move = cmath.exp(0.7j) * scale

    def moved(*zs):
        return [move * z + (5 + 2j) for z in zs]

    conflicts = 0
    for (a, b), (c, d) in itertools.product(segs, segs):
        got = conflict(a, b, c, d)
        conflicts += got
        assert conflict(c, d, a, b) == got, (a, b, c, d)
        assert conflict(b, a, c, d) == got, (a, b, c, d)
        assert conflict(a, b, d, c) == got, (a, b, c, d)
        assert conflict(*moved(a, b, c, d), TOL * scale) == got, \
            (a, b, c, d)
    assert len(segs) ** 2 == 57600
    assert 0 < conflicts < len(segs) ** 2


def test_pieces_crossing_rays():
    r1 = Piece(0j, 1 + 0j, INF)
    r2 = Piece(1 - 1j, 1j, INF)
    assert pieces_conflict(r1, r2, TOL)


def test_pieces_common_origin():
    r1 = Piece(0j, 1 + 0j, INF)
    r2 = Piece(0j, 1j, INF)
    assert not pieces_conflict(r1, r2, TOL)


def test_pieces_parallel():
    r1 = Piece(0j, 1 + 0j, INF)
    r2 = Piece(1j, 1 + 0j, INF)
    assert not pieces_conflict(r1, r2, TOL)
    # collinear rays pointing the same way overlap
    r3 = Piece(1 + 0j, 1 + 0j, INF)
    assert pieces_conflict(r1, r3, TOL)
    # collinear rays pointing apart share nothing
    r4 = Piece(-1 + 0j, -1 + 0j, INF)
    assert not pieces_conflict(r1, r4, TOL)


def test_piece_segment_vs_ray():
    seg = Piece(1j, -2j, 2.0)          # segment from i to -i
    ray = Piece(-1 + 0j, 1 + 0j, INF)  # hits it at the midpoint
    assert pieces_conflict(seg, ray, TOL)
    short = Piece(-1 + 0j, 1 + 0j, 0.5)
    assert not pieces_conflict(seg, short, TOL)


def test_piece_endpoint_touch():
    seg1 = Piece(0j, 1 + 0j, 1.0)
    seg2 = Piece(1 + 0j, 1j, 1.0)
    assert not pieces_conflict(seg1, seg2, TOL)
    # endpoint of one in the interior of the other conflicts
    seg3 = Piece(0.5 + 0j, 1j, 1.0)
    assert pieces_conflict(seg1, seg3, TOL)
