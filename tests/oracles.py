"""Independent oracles frozen for the test suite.

Each oracle deliberately avoids the code path it is used to check:

- ``sign_vectors_bruteforce`` (kept in ``tropbetti.cli``, as ``check
  --oracle`` runs it) decides all 3^ell candidate sign vectors by
  Fourier–Motzkin elimination (``linprog.feasible_point``); the face
  enumeration under test steps between faces and decides no feasibility
  (``feasible_point`` itself is judged by the simplex of ``simplex.py`` in
  test_linprog).
- The LP oracles below run the exact two-phase simplex of ``simplex.py``,
  which shares no code with ``feasible_point``.
- ``rational_rank`` delegates to sympy's rank over QQ, independent of the
  package's elimination code.
- ``convex_hull_2d`` / ``polygon_area`` are a monotone-chain hull and
  shoelace area, independent of the placing triangulation and Gram volumes.
- ``simplex_volume_sq`` is the squared volume of an r-simplex in Q^n from
  sympy's determinant of the Gram matrix of its edge vectors; the volume
  under test comes from a placing triangulation of a projection.
- ``newton_polytope`` and ``minkowski_sum`` hull the unlifted Newton
  polytopes and their sums point by point (``VPolytope.hull``); the dense
  volume under test is read from the placing of the lifted sum, over the
  cones through its ray.
- ``hull_vertices_lp`` keeps the points that no exact LP writes as a convex
  combination of the other points; the hull under test uses no LP.
- ``lower_vertices_raised`` and ``lower_faces_raised`` take lower hulls as
  conv(P ∪ (P + e)), P with copies raised by the unit lift e, and hull the
  final sum once more after pruning it; the lower hulls under test are
  conv(P) + cone(e), placed with e as a vertex at infinity.
- ``is_zero`` and ``is_system_zero`` evaluate every monomial at a point
  with ``eval_poly``; the cells read zeros from sign vectors of the tie
  arrangement, and the realizations are checked by them point by point.
- ``dense_volume_bound`` writes the paper's dense bound on its own, as
  (2^(r+1) - 1) r! times the (r, Vol_r) that ``newton_volume`` reads from
  the lifted hull; ``bound_report`` computes the same bound and is compared
  with it.
- ``univariate_zeros`` finds breakpoints of a univariate min-envelope from
  pairwise tie candidates.
- ``is_bounded_lp`` decides boundedness with one LP over the full
  recession cone; ``HPolyhedron.is_bounded`` asks ``feasible_point``, for
  each signed unit vector u, for a cone vector v with u.v > 0.
- ``pattern_at`` evaluates every monomial at a point with ``eval_poly``;
  the cells read zero patterns from sign vectors instead, and the dual
  route from the lower hull's facets.
- ``dual_patterns_by_faces`` evaluates the patterns at the witness of
  every face of the tie arrangement; the dual route under test takes the
  lower hull of the lifted Newton sum and never builds the arrangement.
- ``formal_product`` multiplies every pair of monomials and keeps every
  product, and ``drop_dominated`` then keeps the least constant of each
  exponent; ``trop_mul`` merges the products of one exponent as it forms
  them.
- ``pattern_closure`` writes a cell's closure with a row per tie and per
  other monomial, so ``HPolyhedron.canonical`` strips redundant rows, one
  ``feasible_point`` call each;
  ``PrevarietyComplex.hrep`` reads one row per facet from the face poset.
- ``sliced_closures`` cuts each cell's closure with the orthogonal
  complement of the component's lineality space, found as a nullspace of
  all closure normals; ``PrevarietyComplex.lineality`` and ``retract``
  read the same answers from the face poset and build no polyhedron.
- ``from_maximal`` builds a simplicial complex from its maximal simplices
  by expanding each into all its nonempty subsets, for the textbook
  ``betti`` examples; ``topology.triangulate`` lists each chain of the face
  poset once and never expands a subset.
- ``nerve_betti`` takes the Betti numbers of a realized complex from the
  nerve of its members: by the nerve theorem a finite union of closed
  convex sets is homotopy equivalent to the nerve of the cover, whose
  simplices are the member sets with a nonempty common intersection,
  decided by ``feasible_point`` (``HPolyhedron.intersect`` and
  ``is_empty``).  It uses
  neither the realization, the tie arrangement, the dual route nor the
  face poset.
- ``cell_nerve_betti`` takes the Betti numbers of any prevariety from the
  nerve of its closed maximal cells, whose patterns come from the dual
  route and whose closures are ``pattern_closure``; the emptiness of each
  intersection is decided by Farkas multipliers in the simplex
  (``simplex.farkas_infeasible``).  It uses neither the arrangement, the
  face poset, the retract, ``triangulate`` nor ``linalg.rank``.
- ``zaslavsky_face_counts`` counts an arrangement's faces per dimension from
  its intersection poset alone (Zaslavsky's theorem), with flats it builds
  itself in ``Fraction`` reduced row echelon form; the walk under test
  steps between faces on integer rows and counts nothing.
- ``sign_vector`` evaluates every rational hyperplane at a point
  (``hyperplane_value``), and ``face_at`` picks the enumerated face with
  that sign vector; the enumeration under test reads integer rows scaled
  per hyperplane, steps between faces and never evaluates at an arbitrary
  point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import sympy

from tropbetti import exactgeom, linalg
from tropbetti.arrangement import enumerate_faces
from tropbetti.cli import sign_vectors_bruteforce  # the one copy; re-exported here
from tropbetti.exactgeom import DimensionMismatch, HPolyhedron, RadVal, VPolytope, newton_volume
from tropbetti.prevariety import DualFace, dual_subdivision, tropical_faces
from tropbetti.topology import BettiVector, SimplicialComplex, betti
from tropbetti.tropical import LinForm, TropPoly, eval_poly

from simplex import LPStatus, farkas_infeasible, solve_lp


def rational_rank(rows) -> int:
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def simplicial_betti(sc) -> tuple[int, ...]:
    """Betti numbers with boundary ranks computed by sympy over QQ."""
    by_dim = sc.by_dim()
    if not by_dim:
        return ()
    top = max(by_dim)
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}
    ranks = {0: 0, top + 1: 0}
    for d in range(1, top + 1):
        rows = []
        for s in by_dim[d]:
            row = [0] * len(by_dim[d - 1])
            for omit in range(len(s)):
                row[index[d - 1][s[:omit] + s[omit + 1 :]]] = (-1) ** omit
            rows.append(row)
        ranks[d] = rational_rank(rows)
    b = [len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in range(top + 1)]
    while b and b[-1] == 0:
        b.pop()
    return tuple(b)


def from_maximal(maximal) -> SimplicialComplex:
    """The complex whose simplices are the nonempty subsets of the given ones."""
    simplices: set[frozenset[int]] = set()
    for s in maximal:
        s = frozenset(s)
        for r in range(1, len(s) + 1):
            simplices.update(frozenset(c) for c in itertools.combinations(s, r))
    vertices = tuple(sorted({v for s in simplices for v in s}))
    return SimplicialComplex(vertices, frozenset(simplices))


def nerve_betti(c) -> BettiVector:
    """Betti numbers of the union of a complex's member polyhedra, from the
    nerve of the members (Björner, "Topological methods", Handbook of
    Combinatorics, 1995, Thm 10.6)."""
    members = range(len(c.polyhedra))
    simplices = set()
    for r in range(1, len(c.polyhedra) + 1):
        for sub in itertools.combinations(members, r):
            # a set with a facet outside the nerve has an empty intersection
            if r > 1 and any(frozenset(f) not in simplices for f in itertools.combinations(sub, r - 1)):
                continue
            common = c.polyhedra[sub[0]]
            for i in sub[1:]:
                common = common.intersect(c.polyhedra[i])
            if not common.is_empty():
                simplices.add(frozenset(sub))
    return betti(SimplicialComplex(tuple(members), frozenset(simplices)))


def cell_nerve_betti(s) -> BettiVector:
    """b_0, ..., b_(n-1) of a prevariety V in Q^n from the nerve of its
    closed maximal cells (the nerve theorem, as for ``nerve_betti``).

    The maximal cells are the tropical lower faces of the dual route whose
    pattern contains no other's.  The closures of cells B_1, ..., B_r meet
    in the closure of the union of their patterns (``pattern_closure``),
    decided empty by the multipliers' simplex (``farkas_infeasible``).
    dim V <= n - 1, so the nerve's n-skeleton, its simplices on at most
    n + 1 cells, has the homology that counts; its b_n is not read.
    """
    patterns = [set(f.pattern) for f in tropical_faces(dual_subdivision(s))]
    maximal = [b for b in patterns if not any(other < b for other in patterns)]
    simplices = {frozenset([i]) for i in range(len(maximal))}
    layer = sorted(simplices, key=sorted)
    for _ in range(s.n):
        grown = {a | b for a, b in itertools.combinations(layer, 2) if len(a | b) == len(a) + 1}
        layer = []
        for sub in sorted(grown, key=sorted):
            if any(sub - {i} not in simplices for i in sub):
                continue
            common = pattern_closure(s, tuple(sorted(set().union(*(maximal[i] for i in sub)))))
            if not farkas_infeasible(s.n, common.eq, common.ineq):
                simplices.add(sub)
                layer.append(sub)
    b = simplicial_betti(SimplicialComplex(tuple(range(len(maximal))), frozenset(simplices)))
    return BettiVector.make(b[: s.n])


def convex_hull_2d(points) -> list[tuple[Fraction, Fraction]]:
    """Monotone-chain hull, counterclockwise, collinear points dropped."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points})
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def polygon_area(points) -> Fraction:
    """Exact area of the convex hull of 2D rational points (shoelace)."""
    hull = convex_hull_2d(points)
    if len(hull) < 3:
        return Fraction(0)
    twice = sum(
        hull[i][0] * hull[(i + 1) % len(hull)][1] - hull[(i + 1) % len(hull)][0] * hull[i][1]
        for i in range(len(hull))
    )
    return abs(twice) / 2


def simplex_volume_sq(verts) -> Fraction:
    """Squared r-volume of the simplex conv(verts): det(D D^T) / (r!)^2,
    D the r x n matrix of differences verts[i] - verts[0]."""
    d = sympy.Matrix([[sympy.Rational(x - y) for x, y in zip(v, verts[0])] for v in verts[1:]])
    return Fraction(str((d * d.T).det() / sympy.factorial(d.rows) ** 2))


def newton_polytope(f: TropPoly) -> VPolytope:
    return VPolytope.hull([mon.a for mon in f.monomials])


def minkowski_sum(a: VPolytope, b: VPolytope) -> VPolytope:
    if a.n != b.n:
        raise DimensionMismatch("ambient dimensions differ")
    return VPolytope.hull(linalg.vadd(p, q) for p in a.vertices for q in b.vertices)


def hull_vertices_lp(points) -> list[tuple[Fraction, ...]]:
    """Sorted vertices of conv(points), one LP per point."""
    pts = sorted({tuple(Fraction(x) for x in p) for p in points})
    return [p for p in pts if not _in_hull_lp(p, [q for q in pts if q != p])]


def _in_hull_lp(p, points) -> bool:
    """p in conv(points)?"""
    if not points:
        return False
    m = len(points)
    eqs = [([q[j] for q in points], p[j]) for j in range(len(p))]
    eqs.append(([1] * m, 1))
    ineqs = [([int(i == j) for j in range(m)], 0) for i in range(m)]
    return solve_lp(m, eqs, ineqs).status is LPStatus.OPTIMAL


def lifted_hull_raised(points):
    """(P, cols, facets) of conv(P ∪ (P + e)), P the lowest of the integer
    points (a, b) over each a: the facets through a point of P, bit i of
    ``tight`` for P[i] and bit len(P) + i for P[i] + e."""
    lowest: dict[tuple, int] = {}
    for p in points:
        a, b = p[:-1], p[-1]
        if a not in lowest or b < lowest[a]:
            lowest[a] = b
    low = sorted(a + (b,) for a, b in lowest.items())
    _, cols, facets, _ = exactgeom._hull_facets(low + [p[:-1] + (p[-1] + 1,) for p in low], None)
    bottom = (1 << len(low)) - 1
    return low, cols, [f for f in facets if f[0] & bottom]


def lower_vertices_raised(points) -> list:
    """The points of P that are vertices of conv(P ∪ (P + e))."""
    low, cols, facets = lifted_hull_raised(points)
    return [low[i] for i in exactgeom._vertex_indices(len(low), facets, len(cols))]


def lower_faces_raised(point_sets) -> list:
    """``exactgeom.lower_faces`` of the lifted sum, from raised copies: the
    summands and running sums pruned by ``lower_vertices_raised``, the final
    sum pruned and hulled again, its lower faces the facet intersections
    without a raised point."""
    sets = [[tuple(Fraction(c) for c in p) for p in pts] for pts in point_sets]
    flat, _ = linalg.over_common_denominator([p for pts in sets for p in pts])
    ints, start = [], 0
    for pts in sets:
        ints.append(flat[start : start + len(pts)])
        start += len(pts)
    r = len(flat[0]) - 1
    lows = [lower_vertices_raised(pts) for pts in ints]
    verts = lows[0]
    for summand in lows[1:]:
        verts = lower_vertices_raised(linalg.vadd(v, q) for v in verts for q in summand)
    verts, cols, facets = lifted_hull_raised(verts)
    bottom = (1 << len(verts)) - 1
    faces, stack = set(), [t for t, _ in facets]
    while stack:
        face = stack.pop()
        if face in faces:
            continue
        faces.add(face)
        for tight, _ in facets:
            sub = face & tight
            if sub & bottom and sub not in faces:
                stack.append(sub)
    out = []
    for face in sorted(f for f in faces if not f & ~bottom):
        total = [sum(col) for col in zip(*(normal for tight, normal in facets if tight & face == face))]
        w = [0] * (r + 1)
        for c, v in zip(cols, total):
            w[c] = v
        argmins = []
        for pts in ints:
            values = [linalg.dot(w, p) for p in pts]
            argmins.append(frozenset(j for j, v in enumerate(values) if v == min(values)))
        out.append((tuple(Fraction(v, w[r]) for v in w[:r]), tuple(argmins)))
    return out


def is_zero(f: TropPoly, x) -> bool:
    _, argmin = eval_poly(f, x)
    return len(argmin) >= 2


def is_system_zero(s, x) -> bool:
    return all(is_zero(f, x) for f in s.polys)


def dense_volume_bound(s) -> tuple[int, RadVal]:
    """(r, (2^(r+1)-1) * r! * Vol_r of the summed Newton polytopes)."""
    r, vol = newton_volume(s.lifted_hull)
    return r, vol.scaled((2 ** (r + 1) - 1) * math.factorial(r))


def univariate_zeros(f: TropPoly) -> list[Fraction]:
    """Zeros of a univariate tropical polynomial from pairwise breakpoints."""
    assert f.n == 1
    candidates = set()
    for m1, m2 in itertools.combinations(f.monomials, 2):
        if m1.a[0] != m2.a[0]:
            candidates.add(Fraction(m2.b - m1.b, m1.a[0] - m2.a[0]))
    return sorted(x for x in candidates if is_zero(f, (x,)))


def make_pattern(pairs) -> tuple[tuple[int, int], ...]:
    """The pattern of (polynomial index, monomial index) pairs, in any order
    and with repeats."""
    return tuple(sorted(set((int(i), int(j)) for i, j in pairs)))


def pattern_at(s, x) -> tuple[tuple[int, int], ...]:
    """Argmin pattern of a system at x, every monomial evaluated exactly."""
    pairs = []
    for i, f in enumerate(s.polys):
        _, argmin = eval_poly(f, x)
        pairs.extend((i, j) for j in argmin)
    return make_pattern(pairs)


def formal_product(f: TropPoly, g: TropPoly) -> TropPoly:
    """Every product of a monomial of f with one of g, none merged."""
    return TropPoly(
        [LinForm.make(linalg.vadd(mf.a, mg.a), mf.b + mg.b) for mf in f.monomials for mg in g.monomials]
    )


def drop_dominated(f: TropPoly) -> TropPoly:
    """Remove monomials strictly dominated by a parallel one.

    Of monomials sharing a coefficient vector only the smallest constant
    can ever attain the minimum; argmin sets (hence zeros) are unchanged.
    """
    best: dict[tuple[int, ...], LinForm] = {}
    for mon in f.monomials:
        cur = best.get(mon.a)
        if cur is None or mon.b < cur.b:
            best[mon.a] = mon
    return TropPoly(best.values())


def dual_patterns_by_faces(s) -> list[DualFace]:
    """One DualFace per argmin pattern of the arrangement's faces, sorted.

    Every x lies on one face, which has one pattern throughout, so the
    faces realize exactly the lower faces of the lifted Newton sum.
    """
    seen: dict[tuple, DualFace] = {}
    for face in enumerate_faces(s.arrangement):
        b = pattern_at(s, face.witness)
        if b not in seen:
            seen[b] = DualFace(s, b, face.witness)
    return sorted(seen.values(), key=lambda f: f.pattern)


def is_bounded_lp(p) -> bool:
    """A nonempty H-polyhedron is bounded iff its recession cone is {0}."""
    normals = [list(a) for a, _ in p.eq] + [list(a) for a, _ in p.ineq]
    if rational_rank(normals) < p.n:
        return False  # it contains a line
    if not p.ineq:
        return True
    eqs = [(list(a), 0) for a, _ in p.eq]
    ineqs = [(list(a), 0) for a, _ in p.ineq]
    total = [sum(col) for col in zip(*(a for a, _ in p.ineq))]
    ineqs.append(([-v for v in total], -1))
    res = solve_lp(p.n, eqs, ineqs, total, maximize=True)
    assert res.status is LPStatus.OPTIMAL
    return res.value == 0


def vscale(c, a) -> tuple[Fraction, ...]:
    c = Fraction(c)
    return tuple(c * x for x in a)


def pattern_closure(s, b) -> HPolyhedron:
    """{x : ties of B hold with equality and weakly below all other monomials}.

    Every tie and every other monomial gives a row; its canonical form needs
    one feasibility question per inequality.  ``PrevarietyComplex.hrep``
    reads the same form from the face poset, one inequality per facet, and
    decides none.
    """
    eqs, ineqs = [], []
    for i, f in enumerate(s.polys):
        row = [j for p, j in b if p == i]
        if not row:
            continue
        m0 = f.monomials[row[0]]
        for j in range(f.m):
            if j != row[0]:
                mj = f.monomials[j]
                (eqs if j in row else ineqs).append((linalg.vsub(mj.a, m0.a), m0.b - mj.b))
    return HPolyhedron(s.n, eqs, ineqs)


def sliced_closures(s, component) -> tuple[int, list]:
    """(d, closures sliced by L-perp) for a connected component of cells.

    L, the lineality space the component's closures share, is the nullspace
    of all their constraint normals (d = dim L); each closure is cut with
    L-perp through the origin, and its witness minus its L-component must
    lie in the cut.  A cut is pointed, and the retract is the bounded cuts.
    """
    closures = [pattern_closure(s, cell.pattern) for cell in component]
    normals = [list(a) for p in closures for a, _ in p.eq + p.ineq]
    basis = linalg.nullspace(normals, s.n)
    if not basis:
        return 0, closures
    gram = [[linalg.dot(u, v) for v in basis] for u in basis]
    cut = HPolyhedron(s.n, [(u, 0) for u in basis], [])
    sliced = []
    for cell, closure in zip(component, closures):
        coeffs = linalg.solve(gram, [linalg.dot(u, cell.witness) for u in basis])
        w = cell.witness
        for c, u in zip(coeffs, basis):
            w = linalg.vsub(w, vscale(c, u))
        p = closure.intersect(cut)
        assert p.contains(w), "the sliced witness lies outside the sliced closure"
        sliced.append(p)
    return len(basis), sliced


def hyperplane_value(h, x) -> Fraction:
    """normal.x - offset of a public ``Hyperplane``, in rational arithmetic."""
    return linalg.dot(h.normal, x) - h.offset


def sign_vector(arr, x) -> tuple[int, ...]:
    """Sign of every hyperplane's value at x, from the rational hyperplanes;
    the enumeration under test reads integer rows scaled per hyperplane."""
    values = [hyperplane_value(h, tuple(Fraction(c) for c in x)) for h in arr.hyperplanes]
    return tuple((v > 0) - (v < 0) for v in values)


def face_at(arr, x):
    """The one enumerated face whose relative interior contains x."""
    sv = sign_vector(arr, x)
    [face] = [f for f in enumerate_faces(arr) if f.signs == sv]
    return face


def _fraction_rref(rows):
    """(rows, pivots) of the reduced row echelon form of ``Fraction`` rows
    (a | b) of a.x = b, pivots increasing; None if a row reduces to 0 = 1."""
    red: list[list[Fraction]] = []
    pivots: list[int] = []
    for v in rows:
        v = _reduce(v, red, pivots)
        p = next((c for c, x in enumerate(v) if x), None)
        if p is None:
            continue
        if p == len(v) - 1:
            return None
        v = [x / v[p] for x in v]
        red = [[x - r[p] * y for x, y in zip(r, v)] for r in red]
        red.append(v)
        pivots.append(p)
    order = sorted(range(len(red)), key=pivots.__getitem__)
    return tuple(tuple(red[i]) for i in order), tuple(pivots[i] for i in order)


def _reduce(v, red, pivots) -> list[Fraction]:
    v = list(v)
    for r, p in zip(red, pivots):
        if v[p]:
            v = [x - v[p] * y for x, y in zip(v, r)]
    return v


def zaslavsky_face_counts(arr) -> dict[int, int]:
    """{k: number of k-faces} of an affine arrangement, from its flats alone.

    A flat is a distinct nonempty intersection of hyperplanes, found as its
    own reduced row echelon form and known by the set of hyperplanes that
    contain it, so that Y is in X exactly when X's set is in Y's.  By
    Zaslavsky ("Facing up to arrangements", Mem. AMS 1975) the k-faces
    number the sum, over the flats X of dimension k, of the regions of the
    arrangement restricted to X: the sum over the flats Y in X of
    |mu(X, Y)|, mu the Moebius function of the flats ordered by reverse
    inclusion.
    """
    hps = [tuple(Fraction(c) for c in h.normal) + (Fraction(h.offset),) for h in arr.hyperplanes]
    flats = {((), ()): frozenset()}  # echelon form -> the hyperplanes containing the flat
    frontier = [((), ())]
    while frontier:
        new = []
        for rows, pivots in frontier:
            for h in hps:
                form = _fraction_rref(list(rows) + [h])
                if form is None or form in flats:
                    continue
                flats[form] = frozenset(i for i, g in enumerate(hps) if not any(_reduce(g, *form)))
                new.append(form)
        frontier = new
    counts: dict[int, int] = {}
    for (rows, _), x in flats.items():
        mu: dict[frozenset, int] = {}
        for y in sorted((y for y in flats.values() if x <= y), key=len):
            mu[y] = 1 if y == x else -sum(m for z, m in mu.items() if z < y)
        dim = arr.n - len(rows)
        counts[dim] = counts.get(dim, 0) + sum(abs(m) for m in mu.values())
    return counts
