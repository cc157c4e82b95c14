import ast
import math
import operator
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tropbetti import exactgeom, linalg
from tropbetti.exactgeom import (
    EmptyPolyhedronError,
    HPolyhedron,
    RadVal,
    VPolytope,
    canonical_form,
    sqfree_decompose,
)

from oracles import (
    hull_vertices_lp,
    is_bounded_lp,
    lifted_hull_raised,
    lower_faces_raised,
    lower_vertices_raised,
    minkowski_sum,
    polygon_area,
    simplex_volume_sq,
)
from tropbetti.realize import gen_grid_example

from simplex import LPStatus, solve_lp

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


# ------------------------------------------------------------------ RadVal


def test_sqfree_decompose():
    assert sqfree_decompose(8) == (2, 2)
    assert sqfree_decompose(1) == (1, 1)
    assert sqfree_decompose(12) == (2, 3)
    with pytest.raises(ValueError):
        sqfree_decompose(0)


def test_sqfree_decompose_stops_trial_division_at_its_bound():
    p = 1000003  # prime, above the trial-division bound
    assert sqfree_decompose(p) == (1, p)
    assert sqfree_decompose(12 * p * p) == (2 * p, 3)
    assert sqfree_decompose(p**3) == (1, p**3)  # not squarefree past the bound
    assert RadVal.from_sqrt(1, p**3) == RadVal.from_sqrt(p, p)


def test_radval_equality_and_hash_go_by_the_square():
    assert RadVal(Fraction(1), 8) == RadVal(Fraction(2), 2)
    assert hash(RadVal(Fraction(1), 8)) == hash(RadVal(Fraction(2), 2))
    assert RadVal(Fraction(1), 8) != RadVal(Fraction(1), 2)
    # (q, s) = (2, 1) and (1, 4) are one value: every order operator agrees,
    # where comparing the pairs themselves would put (1, 4) first
    two, also_two = RadVal(Fraction(2)), RadVal(Fraction(1), 4)
    assert two == also_two and hash(two) == hash(also_two)
    assert (two < also_two, two <= also_two, two > also_two, two >= also_two) == (False, True, False, True)
    assert (also_two < two, also_two <= two, also_two > two, also_two >= two) == (False, True, False, True)
    assert RadVal(Fraction(0), 5).s == 1 and repr(also_two) == "RadVal(1*sqrt(4))"


def test_radval_basics():
    v = RadVal.from_sqrt(1, 8)
    assert (v.q, v.s) == (2, 2)
    assert v.sq() == 8
    assert v == RadVal.from_sqrt(2, 2)
    assert v.scaled(3) == RadVal.from_sqrt(6, 2)


def test_radval_comparisons_with_rationals():
    v = RadVal.from_sqrt(1, 2)  # sqrt(2)
    assert v < 2 and v <= Fraction(3, 2) and not v < 1
    assert RadVal(Fraction(3)) == 3
    with pytest.raises(ValueError):
        _ = v < -1


radvals = st.builds(
    RadVal.from_sqrt,
    st.fractions(min_value=0, max_value=6, max_denominator=4),
    st.fractions(min_value=Fraction(1, 4), max_value=12, max_denominator=4),
)


@given(radvals, st.one_of(radvals, st.fractions(min_value=0, max_value=8, max_denominator=4)))
@settings(max_examples=200)
def test_radval_comparisons_agree_with_squares(v, w):
    w_sq = w.sq() if isinstance(w, RadVal) else w * w
    assert (v < w, v <= w, v > w, v >= w) == (v.sq() < w_sq, v.sq() <= w_sq, v.sq() > w_sq, v.sq() >= w_sq)
    assert (v > 0) == (v.sq() > 0) and (0 < v) == (v.sq() > 0)


@given(radvals, st.fractions(max_value=0, max_denominator=4).filter(lambda q: q < 0))
def test_radval_comparison_with_negative_rational_raises(v, q):
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(ValueError):
            compare(v, q)


# ------------------------------------------------------------- feasibility


def test_lp_feasible_interval():
    p = HPolyhedron(1, [], [((1,), 0), ((-1,), -1)])
    assert not p.is_empty() and 0 <= p.feasible_point()[0] <= 1


def test_lp_feasible_contradiction():
    p = HPolyhedron(1, [], [((1,), 1), ((-1,), 0)])
    assert p.is_empty() and p.feasible_point() is None


def test_lp_feasible_diagonal():
    p = HPolyhedron(2, [((1, -1), 0)], [((1, 0), 0), ((0, 1), 0)])
    assert not p.is_empty()
    x, y = p.feasible_point()
    assert x == y and x >= 0


def test_affine_dim_examples():
    assert HPolyhedron(2, [((1, 0), 0)], []).affine_dim() == 1
    assert HPolyhedron(1, [], [((1,), 1), ((-1,), 0)]).affine_dim() == -1
    assert HPolyhedron(3, [], []).affine_dim() == 3


def _seeded_member(seed: int, n: int, count: int) -> HPolyhedron:
    """count rows through a random anchor: one equality, two equalities
    written as pairs of opposite inequalities, and inequalities with a
    slack of 0 to 3 there."""
    rng = random.Random(seed)
    anchor = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]

    def normal():
        a = [0] * n
        while not any(a):
            a = [rng.randint(-2, 2) for _ in range(n)]
        return a

    eqs = [(a, linalg.dot(a, anchor)) for a in [normal()]]
    ineqs = []
    for a in (normal(), normal()):
        ineqs += [(a, linalg.dot(a, anchor)), ([-x for x in a], -linalg.dot(a, anchor))]
    while len(eqs) + len(ineqs) < count:
        a = normal()
        ineqs.append((a, linalg.dot(a, anchor) - rng.randint(0, 3)))
    return HPolyhedron(n, eqs, ineqs)


def test_affine_hull_of_a_4d_member_with_20_rows():
    """Fourier–Motzkin grows exponentially with the dimension; a realize
    member in 4 dimensions with 20 rows takes well under a second, and its
    implicit equalities are the rows whose maximum, by the simplex, is
    their right-hand side."""
    p = _seeded_member(0, 4, 20)
    start = time.perf_counter()
    hull = p.affine_hull_rows()
    elapsed = time.perf_counter() - start
    implicit = []
    for a, b in p.ineq:
        res = solve_lp(p.n, p.eq, p.ineq, a, maximize=True)
        if res.status is LPStatus.OPTIMAL and res.value == b:
            implicit.append((a, b))
    assert len(p.eq) + len(p.ineq) == 20 and len(implicit) >= 4
    assert hull == list(p.eq) + implicit
    assert elapsed < 5.0


# ------------------------------------------------------------------- hulls


def test_convex_hull_examples():
    p = VPolytope.hull([(0, 0), (1, 0), (0, 1), (Fraction(1, 4), Fraction(1, 4))])
    assert set(p.vertices) == {(0, 0), (1, 0), (0, 1)}
    assert VPolytope.hull([(0, 0)]).vertices == ((0, 0),)
    seg = VPolytope.hull([(0, 0), (2, 0), (1, 0)])
    assert set(seg.vertices) == {(0, 0), (2, 0)}


def test_convex_hull_idempotent():
    pts = [(0, 0), (3, 1), (1, 3), (1, 1), (2, 2)]
    p = VPolytope.hull(pts)
    assert VPolytope.hull(p.vertices) == p


def test_minkowski_examples():
    sx = VPolytope.hull([(0, 0), (1, 0)])
    sy = VPolytope.hull([(0, 0), (0, 1)])
    square = minkowski_sum(sx, sy)
    assert set(square.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    p = VPolytope.hull([(0, 0), (2, 1), (1, 3)])
    shifted = minkowski_sum(p, VPolytope.hull([(5, 7)]))
    assert set(shifted.vertices) == {(5, 7), (7, 8), (6, 10)}
    doubled = minkowski_sum(p, p)
    assert set(doubled.vertices) == {(0, 0), (4, 2), (2, 6)}


def test_minkowski_commutative():
    a = VPolytope.hull([(0, 0), (1, 2)])
    b = VPolytope.hull([(0, 0), (2, 0), (0, 2)])
    assert minkowski_sum(a, b) == minkowski_sum(b, a)


@st.composite
def point_sets(draw, n, max_points=8):
    """Points base + sum c_i d_i with k <= n directions: full-dimensional,
    coplanar, collinear or single sets, integer or rational, with repeats."""
    coord = rationals if draw(st.booleans()) else st.integers(min_value=-3, max_value=3)
    k = draw(st.integers(min_value=0, max_value=n))
    base = draw(st.lists(coord, min_size=n, max_size=n))
    dirs = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=k, max_size=k))
    combos = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=1, max_size=max_points)
    )
    pts = [
        tuple(Fraction(b) + sum(c * d[j] for c, d in zip(cs, dirs)) for j, b in enumerate(base))
        for cs in combos
    ]
    return pts + draw(st.lists(st.sampled_from(pts), max_size=3))


dims = st.integers(min_value=1, max_value=4)


@given(dims, st.data())
@settings(deadline=None, max_examples=120)
def test_hull_matches_lp_oracle(n, data):
    pts = data.draw(point_sets(n))
    assert list(VPolytope.hull(pts).vertices) == hull_vertices_lp(pts)


@given(dims, st.data())
@settings(deadline=None, max_examples=60)
def test_minkowski_matches_lp_oracle(n, data):
    a, b = data.draw(point_sets(n, max_points=4)), data.draw(point_sets(n, max_points=4))
    sums = [tuple(x + y for x, y in zip(p, q)) for p in a for q in b]
    total = minkowski_sum(VPolytope.hull(a), VPolytope.hull(b))
    assert list(total.vertices) == hull_vertices_lp(sums)


# ------------------------------------------------------------------ volume


def test_volume_examples():
    tri = VPolytope.hull([(0, 0), (1, 0), (0, 1)])
    assert tri.volume() == RadVal(Fraction(1, 2))
    seg = VPolytope.hull([(0, 0), (1, 1)])
    assert seg.volume() == RadVal.from_sqrt(1, 2)
    square = VPolytope.hull([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert square.volume() == RadVal(Fraction(1))
    point = VPolytope.hull([(3, 4)])
    assert point.volume() == RadVal(Fraction(1))  # 0-dim volume is 1


def test_volume_full_dim_is_rational_and_scales():
    p = VPolytope.hull([(0, 0), (3, 1), (1, 2), (2, 3)])
    v = p.volume()
    assert v.s == 1
    doubled = VPolytope.hull([tuple(2 * c for c in pt) for pt in p.vertices])
    assert doubled.volume() == v.scaled(4)  # lambda^r with r = 2


@given(st.lists(st.tuples(rationals, rationals), min_size=1, max_size=6))
@settings(deadline=None, max_examples=60)
def test_volume_2d_matches_shoelace(points):
    p = VPolytope.hull(points)
    if p.affine_dim() == 2:
        assert p.volume() == RadVal(polygon_area(points))


@given(st.integers(min_value=2, max_value=4), st.data())
@settings(deadline=None, max_examples=80)
def test_lower_dim_simplex_volume_matches_sympy(n, data):
    r = data.draw(st.integers(min_value=1, max_value=n - 1))
    verts = data.draw(st.lists(st.tuples(*[rationals] * n), min_size=r + 1, max_size=r + 1, unique=True))
    want = simplex_volume_sq(verts)
    assume(want != 0)  # affinely independent
    p = VPolytope(n, verts)
    assert p.affine_dim() == r
    assert p.volume().sq() == want


def test_hull_triangulates_once(monkeypatch):
    calls = []
    place = exactgeom._place
    monkeypatch.setattr(exactgeom, "_place", lambda points, ray: calls.append(ray) or place(points, ray))
    # a lattice quadrilateral, with an interior point, in a rational plane of Q^3
    pts = [(x, y, Fraction(x, 4)) for x, y in [(0, 0), (2, 1), (1, 3), (3, 4), (1, 2)]]
    p = VPolytope.hull(pts)
    assert calls == [None]  # one placing, without a ray
    assert p.affine_dim() == 2 and len(p.vertices) == 4
    assert p.volume() == RadVal.from_sqrt(Fraction(5, 4), 17)  # area 5 times sqrt(1 + (1/4)^2)
    assert calls == [None]


def _apply(matrix, shift, pts):
    return [tuple(sum(a * x for a, x in zip(row, p)) + t for row, t in zip(matrix, shift)) for p in pts]


@given(dims, st.data())
@settings(deadline=None, max_examples=80)
def test_volume_invariant_under_order_and_signed_permutations(n, data):
    pts = data.draw(point_sets(n))
    vol = VPolytope.hull(pts).volume()
    shuffled = data.draw(st.permutations(pts))
    assert VPolytope(n, shuffled).volume() == vol
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    matrix = [[signs[i] * int(j == perm[i]) for j in range(n)] for i in range(n)]
    shift = data.draw(st.lists(rationals, min_size=n, max_size=n))
    assert VPolytope.hull(_apply(matrix, shift, pts)).volume() == vol


@given(dims, st.data())
@settings(deadline=None, max_examples=80)
def test_full_dim_volume_invariant_under_unimodular_maps(n, data):
    pts = data.draw(point_sets(n))
    p = VPolytope.hull(pts)
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2)), max_size=4)
    ):
        if i != j:
            matrix[i] = [x + c * y for x, y in zip(matrix[i], matrix[j])]
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    image = VPolytope.hull(_apply(matrix, shift, pts))
    if p.affine_dim() == n:
        assert image.volume() == p.volume()
    else:
        assert image.affine_dim() == p.affine_dim()


@given(dims, st.sampled_from(["none", "ray", "flat"]), st.data())
@settings(deadline=None, max_examples=150)
def test_place_does_not_depend_on_point_order(n, kind, data):
    # the first affinely independent points seed the simplex, so a
    # permutation changes the seed and the insertion order
    simplex = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(0,) * n]
    extra = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=12))
    pts = list(dict.fromkeys(simplex + extra))
    ray = None
    if kind != "none":
        ray = data.draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
    if kind == "flat":
        # points in the hyperplane x_n = 0, which only the ray completes
        pts = [p for p in pts if p[-1] == 0]
        ray = ray[:-1] + (data.draw(st.sampled_from([-2, -1, 1, 2])),)
    facets, total = exactgeom._place(pts, ray)
    shuffled = exactgeom._place(data.draw(st.permutations(pts)), ray)
    in_order = exactgeom._place(sorted(pts), ray)
    # with a ray the total counts the cones through it, whose slices tile
    # the projection of the hull along the ray
    assert shuffled == in_order == (facets, total)
    if ray is not None:
        assert all(sum(a * x for a, x in zip(normal, ray)) >= 0 for normal, _ in facets)
    assert all(sum(a * x for a, x in zip(normal, p)) >= offset for normal, offset in facets for p in pts)
    # every facet holds a point, and the facets are distinct
    assert all(any(sum(a * x for a, x in zip(normal, p)) == offset for p in pts) for normal, offset in facets)
    assert len({normal for normal, _ in facets}) == len(facets)


lifts = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def lifted_sets(r):
    return st.lists(st.tuples(*[st.integers(0, 2)] * r, lifts), min_size=1, max_size=5)


@given(st.integers(min_value=1, max_value=3).flatmap(lambda r: st.lists(lifted_sets(r), min_size=1, max_size=3)))
@example([[(0, 0, 5)]])  # one point
@example([[(1, 1, 0), (1, 1, 2), (1, 1, -1)]])  # points differing only in the lift
@example([[(0, 0, 0), (1, 1, 1), (2, 2, 0)], [(0, 1, 0), (2, 1, 1)]])  # lower-dimensional sets
@example([[(0, 0, 0), (1, 0, 1), (0, 1, 1)], [(0, 0, 1), (1, 0, 0)], [(0, 0, 0), (0, 1, 0), (1, 1, 0)]])
@example([[(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 0)]])  # lifts affine in a: one lower face
@settings(deadline=None, max_examples=200)
def test_ray_hulls_match_raised_copies(sets):
    """conv(P) + cone(e) has the facets, lower vertices and lower faces of
    conv(P ∪ (P + e)), which the oracle builds from raised copies."""
    for pts in sets:
        ints = [tuple(p[:-1]) + (int(p[-1] * 6),) for p in pts]
        low, _, cols, facets, _ = exactgeom._lifted_hull(ints)
        raised_low, raised_cols, raised = lifted_hull_raised(ints)
        bottom = (1 << len(low)) - 1
        assert (low, cols) == (raised_low, raised_cols)
        assert sorted((t & bottom, a) for t, a in facets) == sorted((t & bottom, a) for t, a in raised)
        # the ray's bit marks exactly the vertical facets
        assert all(bool(t >> len(low) & 1) == (a[-1] == 0) for t, a in facets)
        assert exactgeom._lower_vertices(ints) == lower_vertices_raised(ints)
    faces = exactgeom.lower_faces(exactgeom.lifted_sum_hull(sets))
    assert len(faces) == len(set(faces)) and set(faces) == set(lower_faces_raised(sets))


def test_lower_faces_hulls_each_sum_once(monkeypatch):
    """k summands make 2k - 1 placings: one per summand, one per running sum
    before a further summand, and one of the final sum, which has 64
    points on the 3 x 3 grid; no placing gets a raised copy."""
    s = gen_grid_example(3, 3)
    sets = [[tuple(m.a) + (m.b,) for m in f.monomials] for f in s.polys]
    calls = []
    place = exactgeom._place
    monkeypatch.setattr(exactgeom, "_place", lambda points, ray: calls.append(len(points)) or place(points, ray))
    exactgeom.lifted_sum_hull(sets)
    assert len(sets) == 3 and len(calls) == 2 * 3 - 1
    assert max(calls) == calls[-1] == 64


def test_lower_faces_of_lifted_square():
    # the unit square lifted at (1, 1): two lower triangles meeting on the
    # diagonal from (1, 0) to (0, 1), 5 lower edges and 4 lower vertices
    square = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)]
    faces = exactgeom.lower_faces(exactgeom.lifted_sum_hull([square]))
    argmins = sorted(sorted(sets[0]) for _, sets in faces)
    assert argmins == [[0], [0, 1], [0, 1, 2], [0, 2], [1], [1, 2], [1, 2, 3], [1, 3], [2], [2, 3], [3]]
    for x, (rows,) in faces:
        values = [sum(a * c for a, c in zip(p[:2], x)) + p[2] for p in square]
        assert rows == {j for j, v in enumerate(values) if v == min(values)}
    # a segment plus the square: the sum has the segment's two ends as summands
    segment = [(0, 0, Fraction(1, 2)), (2, 0, 0)]
    faces = exactgeom.lower_faces(exactgeom.lifted_sum_hull([square, segment]))
    assert all(len(rows) == 2 for _, rows in faces)
    assert {rows[1] for _, rows in faces} == {frozenset({0}), frozenset({1}), frozenset({0, 1})}


# --------------------------------------------------------------- polyhedra


def test_lineality_examples():
    basis = HPolyhedron(2, [((1, 0), 0)], []).lineality_basis()
    assert len(basis) == 1 and basis[0][0] == 0 and basis[0][1] != 0
    assert HPolyhedron(2, [], [((1, 0), 0), ((0, 1), 0)]).lineality_basis() == []
    assert len(HPolyhedron(2, [], []).lineality_basis()) == 2
    with pytest.raises(EmptyPolyhedronError):
        HPolyhedron(1, [], [((1,), 1), ((-1,), 0)]).lineality_basis()


@given(st.lists(rationals, min_size=1, max_size=5).filter(any), rationals)
def test_rows_are_primitive_with_equalities_sign_normalized(a, b):
    """An equality row is scaled to the coprime integer normal with a
    positive lead, an inequality row by a positive factor only."""
    n = len(a)
    for p, flip in ((HPolyhedron(n, [(a, b)], []), True), (HPolyhedron(n, [], [(a, b)]), False)):
        [(w, rhs)] = p.eq if flip else p.ineq
        assert all(type(x) is int for x in w) and math.gcd(*w) == 1
        q = next(i for i, x in enumerate(a) if x)
        c = w[q] / a[q]
        assert w == tuple(c * x for x in a) and rhs == c * b
        assert c > 0 or (flip and w[q] > 0)


def test_canonical_form_reduces_modulo_the_hull():
    # on the line x = y: 2x + 0y >= 1 and x + y >= 1 are one inequality,
    # x - y >= -3 vanishes on the line, and the redundant x + y >= 0 stays
    form = canonical_form(2, [((2, -2), 0)], [((2, 0), 1), ((1, 1), 1), ((1, -1), -3), ((1, 1), 0)])
    assert form.eqs == (((1, -1), 0),)
    assert form.ineqs == (((0, 1), 0), ((0, 1), Fraction(1, 2)))
    p = HPolyhedron(2, [((2, -2), 0)], [((2, 0), 1), ((1, 1), 1), ((1, -1), -3), ((1, 1), 0)])
    assert p.canonical() == form._replace(ineqs=(((0, 1), Fraction(1, 2)),))


def test_canonical_identifies_equal_polyhedra():
    a = HPolyhedron(2, [((2, 0), 0)], [((0, 3), 0)])
    b = HPolyhedron(2, [((-1, 0), 0)], [((0, 1), 0), ((0, 2), -5)])
    assert a.canonical() == b.canonical()
    empty = HPolyhedron(1, [], [((1,), 1), ((-1,), 0)])
    assert empty.canonical().empty


@pytest.mark.parametrize("zero_eqs, zero_ineqs", [([((0, 0), 1)], []), ([], [((0, 0), 1)])], ids=["0=1", "0>=1"])
def test_a_zero_row_that_no_point_satisfies_empties_the_polyhedron(zero_eqs, zero_ineqs):
    """0 = 1 or 0 >= 1 empties a polyhedron whose other rows hold at the
    origin, through every predicate and through ``intersect``."""
    p = HPolyhedron(2, [((1, -1), 0), *zero_eqs], [((1, 0), -2), *zero_ineqs])
    assert p.is_empty() and p.feasible_point() is None and p.relative_interior_point() is None
    assert not p.contains((0, 0)) and p.affine_dim() == -1
    assert p.canonical() == exactgeom.CanonicalHRep(2, True)
    with pytest.raises(EmptyPolyhedronError):
        p.affine_hull_rows()
    box = HPolyhedron(2, [], [((1, 0), -1), ((-1, 0), -1), ((0, 1), -1), ((0, -1), -1)])
    assert not box.is_empty() and box.contains((0, 0))
    assert box.intersect(p).is_empty() and p.intersect(box).is_empty()
    assert not box.intersect(p).contains((0, 0))
    # the simplex of the tests agrees, on the rows as given
    assert solve_lp(2, [((1, -1), 0), *zero_eqs], [((1, 0), -2), *zero_ineqs]).status is LPStatus.INFEASIBLE
    assert solve_lp(2, [((1, -1), 0)], [((1, 0), -2)]).status is LPStatus.OPTIMAL


def test_trivially_true_zero_rows_are_dropped():
    """0 = 0 and 0 >= -1 leave the rows as they are without them."""
    eqs, ineqs = [((1, 1), 2)], [((1, 0), 0), ((0, 2), -1)]
    plain = HPolyhedron(2, eqs, ineqs)
    p = HPolyhedron(2, [((0, 0), 0), *eqs], [*ineqs, ((0, 0), -1), ((0, 0), 0)])
    assert (p.eq, p.ineq) == (plain.eq, plain.ineq)
    assert p.affine_hull_rows() == plain.affine_hull_rows() == list(plain.eq)


def test_contains_and_vertices():
    square = HPolyhedron(
        2, [], [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    )
    assert square.contains((Fraction(1, 2), Fraction(1, 2)))
    assert not square.contains((2, 0))
    assert set(square.vertices()) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert square.is_bounded()
    assert not HPolyhedron(2, [((1, 0), 0)], []).is_bounded()


@given(
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(deadline=None, max_examples=60)
def test_feasible_point_satisfies_constraints(n, data):
    anchor = data.draw(st.lists(rationals, min_size=n, max_size=n))
    eqs, ineqs = [], []
    for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
        a = data.draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n))
        if any(a):
            eqs.append((a, sum(Fraction(c) * x for c, x in zip(a, anchor))))
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        a = data.draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n))
        if any(a):
            ineqs.append((a, sum(Fraction(c) * x for c, x in zip(a, anchor)) - 1))
    p = HPolyhedron(n, eqs, ineqs)
    x = p.feasible_point()
    assert x is not None
    assert p.contains(x)


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(deadline=None, max_examples=150)
def test_is_bounded_matches_lp_oracle(n, data):
    anchor = data.draw(st.lists(rationals, min_size=n, max_size=n))
    coeffs = st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)
    eqs = [(a, sum(Fraction(c) * x for c, x in zip(a, anchor))) for a in data.draw(st.lists(coeffs, max_size=2))]
    ineqs = [
        (a, sum(Fraction(c) * x for c, x in zip(a, anchor)) - data.draw(st.integers(0, 2)))
        for a in data.draw(st.lists(coeffs, max_size=7))
    ]
    p = HPolyhedron(n, eqs, ineqs)
    assert p.is_bounded() == is_bounded_lp(p)


# -------------------------------------------------------------- invariants


def test_exactgeom_has_no_assert():
    """No module of the package (exactgeom included) uses ``assert``.

    ``python -O`` strips asserts; invariants raise ``InvariantError``.
    """
    found = []
    for path in sorted(Path(exactgeom.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [(path.name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []

