"""Exact rational convex geometry: H-polyhedra, V-polytopes, volumes.

H-polyhedron predicates, emptiness among them, are feasibility questions,
decided exactly by Fourier–Motzkin elimination (see linprog) and asked
anew on each call; the relative interior, from which ``realize`` reads a
member's affine hull, is a polyhedron's one memo.  ``HPolyhedron`` serves
``realize`` input and the tests' reference.  Its ``canonical`` and the
cells' poset H-reps share ``canonical_form``.
A V-polytope's vertices, dimension r and r-volume come from one run of an
integer placing triangulation, with no feasibility question: the points,
scaled to integers, are projected onto the pivot columns of their
differences, and the r-volume is the triangulation's own total times the
Gram factor of that projection.
The lifted Newton sum conv(Q_1 + ... + Q_k) + cone(e) is placed once: its
bounded faces are the dual route's lower faces, and the placing's total over
the cones through e gives the volume of the dense bound's Newton sum.
Volumes are represented as q*sqrt(s) with q rational and s a positive
integer, so that every comparison in the bound checks stays exact; s is
squarefree except for square factors of primes above trial division's bound.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property, total_ordering

from . import linalg, linprog
from .linalg import InvariantError


class DimensionMismatch(ValueError):
    pass


class EmptyPolyhedronError(ValueError):
    pass


_TRIAL_BOUND = 10**5


def sqfree_decompose(g: int) -> tuple[int, int]:
    """g = sq**2 * s; returns (sq, s).

    Trial division stops at ``_TRIAL_BOUND``, so a large prime radicand costs
    no more than a small one; a cofactor left above the bound joins sq if it
    is a perfect square and s otherwise.
    """
    if g <= 0:
        raise ValueError("positive integer required")
    sq, s = 1, 1
    d = 2
    while d * d <= g and d <= _TRIAL_BOUND:
        e = 0
        while g % d == 0:
            g //= d
            e += 1
        sq *= d ** (e // 2)
        if e % 2:
            s *= d
        d += 1
    root = math.isqrt(g)
    if root * root == g:
        return sq * root, s
    return sq, s * g


@total_ordering
class RadVal:
    """Exact nonnegative value q*sqrt(s), q a Fraction, s a positive integer.

    ``from_sqrt`` leaves s squarefree up to trial division's bound, so two
    equal values may differ in (q, s); equality, order and hashing go by
    ``sq()``.  The order is ``__lt__``'s; comparing with a negative rational
    raises ``ValueError``.
    """

    __slots__ = ("q", "s")

    def __init__(self, q: Fraction, s: int = 1):
        if q < 0:
            raise ValueError("coefficient must be nonnegative")
        self.q = q
        self.s = s if q else 1

    @classmethod
    def from_sqrt(cls, coeff, radicand) -> "RadVal":
        """coeff * sqrt(radicand), radicand a positive rational a^2 s / (b^2 t)."""
        radicand = Fraction(radicand)
        a, s = sqfree_decompose(radicand.numerator)
        b, t = sqfree_decompose(radicand.denominator)
        return cls(Fraction(coeff) * a / (b * t), s * t)

    def sq(self) -> Fraction:
        return self.q * self.q * self.s

    def scaled(self, c) -> "RadVal":
        c = Fraction(c)
        if c < 0:
            raise ValueError("scale must be nonnegative")
        return RadVal(self.q * c, self.s)

    def _cmp_key(self, other):
        if isinstance(other, RadVal):
            return self.sq(), other.sq()
        other = Fraction(other)
        if other < 0:
            raise ValueError("comparison with negative rational")
        return self.sq(), other * other

    def __lt__(self, other):
        a, b = self._cmp_key(other)
        return a < b

    def __eq__(self, other):
        if isinstance(other, RadVal):
            return self.sq() == other.sq()
        return self.sq() == Fraction(other) ** 2 and Fraction(other) >= 0

    def __hash__(self):
        return hash(self.sq())

    def approx(self) -> float:
        if self.s > sys.float_info.max:
            # s past float range: isqrt(s) > 10^154 is off from sqrt(s) by
            # less than 1, far below a float's precision
            return float(self.q * math.isqrt(self.s))
        return float(self.q) * self.s ** 0.5

    def __repr__(self):
        return f"RadVal({self.q}*sqrt({self.s}))"


def _canon_row(a, b, flip: bool):
    """(w, c b) for the coprime integer normal w = c a, with c > 0, or with
    ``flip`` the sign of c that makes w's first nonzero entry positive."""
    w = linalg.primitive(linalg.integral_rows([a])[0])
    q = next(i for i, x in enumerate(w) if x)
    if flip and w[q] < 0:
        w = tuple(-x for x in w)
    return w, Fraction(b) * w[q] / a[q]


# Hashable canonical identity of a polyhedron (or the empty marker)
CanonicalHRep = namedtuple("CanonicalHRep", "n empty eqs ineqs", defaults=((), ()))


def canonical_form(n: int, hull, ineqs) -> CanonicalHRep:
    """Canonical form of a nonempty polyhedron from rows (a, b): equalities
    <a, x> = b that cut out its affine hull, and inequalities <a, x> >= b.

    The equalities become the hull's reduced echelon rows (A | b), coprime
    with positive pivots.  Each inequality is reduced modulo them, which
    scales it by a positive factor, and made canonical; rows that vanish
    on the hull are dropped.  Redundant inequalities are kept.
    """
    red, pivots = linalg.reduced_echelon(linalg.integral_rows((*a, b) for a, b in hull))
    reduced = set()
    for row in linalg.integral_rows((*a, b) for a, b in ineqs):
        row = linalg.eliminate(row, red, pivots)
        if any(row[:n]):
            reduced.add(_canon_row(row[:n], row[n], False))
    eqs = tuple((row[:n], Fraction(row[n])) for row in red)
    return CanonicalHRep(n, False, eqs, tuple(sorted(reduced)))


class HPolyhedron:
    """{x : <a,x> = b for eqs, <a,x> >= b for ineqs}, exact rational data.

    Immutable after construction; rows are canonicalized to coprime integer
    normals (equality rows additionally sign-normalized).  A zero row that
    every point satisfies is dropped, and one that no point satisfies is
    kept as the row 0.x >= 1, so emptiness is a feasibility question like
    any other.  Each predicate asks its own; the relative interior, from
    which the affine hull and the canonical form are read, is the one memo.
    """

    def __init__(self, n: int, equalities=(), inequalities=()):
        self.n = n
        eqs, ineqs = set(), set()
        for rows, kept, is_eq in ((equalities, eqs, True), (inequalities, ineqs, False)):
            for a, b in rows:
                a, b = tuple(Fraction(v) for v in a), Fraction(b)
                if len(a) != n:
                    raise DimensionMismatch(f"{'equality' if is_eq else 'inequality'} arity != ambient dimension")
                if not linalg.is_zero_vec(a):
                    kept.add(_canon_row(a, b, is_eq))
                elif (b != 0) if is_eq else (b > 0):  # no point has 0 = b or 0 >= b
                    ineqs.add(((0,) * n, Fraction(1)))
        self.eq = tuple(sorted(eqs))
        self.ineq = tuple(sorted(ineqs))

    def __repr__(self):
        return f"HPolyhedron(n={self.n}, eq={len(self.eq)}, ineq={len(self.ineq)})"

    def feasible_point(self):
        return linprog.feasible_point(self.n, self.eq, self.ineq)

    def is_empty(self) -> bool:
        return self.feasible_point() is None

    def contains(self, point) -> bool:
        point = linalg.fvec(point)
        return all(linalg.dot(a, point) == b for a, b in self.eq) and all(
            linalg.dot(a, point) >= b for a, b in self.ineq
        )

    @cached_property
    def _relint(self):
        """(implicit equality indices, relative-interior point) or None.

        A row tight at a feasible point is implicit when no point of the
        polyhedron satisfies it strictly; then it joins the equalities.
        The mean of that point and the strict points found is strict on
        every other row.
        """
        w = self.feasible_point()
        if w is None:
            return None
        implicit: set[int] = set()
        points = [w]
        for i, (a, b) in enumerate(self.ineq):
            if linalg.dot(a, w) > b:
                continue
            eqs = [*self.eq, *(self.ineq[j] for j in implicit)]
            others = [row for j, row in enumerate(self.ineq) if j != i and j not in implicit]
            p = linprog.feasible_point(self.n, eqs, others, [(a, b)])
            if p is None:
                implicit.add(i)
            else:
                points.append(p)
        return implicit, tuple(sum(col) / len(points) for col in zip(*points))

    def relative_interior_point(self):
        r = self._relint
        return None if r is None else r[1]

    def affine_hull_rows(self):
        """Equality rows (incl. implicit ones) cutting out the affine hull."""
        r = self._relint
        if r is None:
            raise EmptyPolyhedronError("empty polyhedron has no affine hull")
        implicit, _ = r
        return list(self.eq) + [self.ineq[i] for i in sorted(implicit)]

    def affine_dim(self) -> int:
        if self._relint is None:
            return -1
        return self.n - linalg.rank([a for a, _ in self.affine_hull_rows()])

    def lineality_basis(self):
        if self.is_empty():
            raise EmptyPolyhedronError("lineality of an empty polyhedron")
        normals = [list(a) for a, _ in self.eq] + [list(a) for a, _ in self.ineq]
        return linalg.nullspace(normals, self.n)

    def is_bounded(self) -> bool:
        """Empty, or a recession cone {v : eq.v = 0, ineq.v >= 0} with no v
        that has +-v_i > 0 for a coordinate i."""
        cone = [(a, 0) for a, _ in self.eq], [(a, 0) for a, _ in self.ineq]
        units = [tuple(s * (j == i) for j in range(self.n)) for i in range(self.n) for s in (1, -1)]
        return self.is_empty() or all(linprog.feasible_point(self.n, *cone, [(u, 0)]) is None for u in units)

    def intersect(self, other: "HPolyhedron") -> "HPolyhedron":
        if self.n != other.n:
            raise DimensionMismatch("ambient dimensions differ")
        return HPolyhedron(self.n, self.eq + other.eq, self.ineq + other.ineq)

    def canonical(self) -> CanonicalHRep:
        if self._relint is None:
            return CanonicalHRep(self.n, True)
        form = canonical_form(self.n, self.affine_hull_rows(), self.ineq)
        # strip each inequality that the others imply: none of their points violates it
        kept = list(form.ineqs)
        i = 0
        while i < len(kept):
            a, b = kept[i]
            others = kept[:i] + kept[i + 1 :]
            if linprog.feasible_point(self.n, form.eqs, others, [(tuple(-x for x in a), -b)]) is None:
                del kept[i]
            else:
                i += 1
        return form._replace(ineqs=tuple(kept))

    def vertices(self):
        """Vertices of the polyhedron (brute force; small inputs only)."""
        rows = list(self.eq) + list(self.ineq)
        out = set()
        for sub in itertools.combinations(range(len(rows)), self.n):
            a = [list(rows[i][0]) for i in sub]
            b = [rows[i][1] for i in sub]
            if linalg.rank(a) != self.n:
                continue
            x = linalg.solve(a, b)
            if x is not None and self.contains(x):
                out.add(x)
        return sorted(out)


class VPolytope:
    """Convex hull of rational points (all exact); ``hull`` keeps only the
    vertices among the points."""

    def __init__(self, n: int, vertices):
        self.n = n
        self.vertices = tuple(sorted(set(tuple(Fraction(x) for x in v) for v in vertices)))
        self._cache: dict = {}

    def __repr__(self):
        return f"VPolytope(n={self.n}, vertices={len(self.vertices)})"

    def __eq__(self, other):
        return isinstance(other, VPolytope) and (self.n, self.vertices) == (other.n, other.vertices)

    def __hash__(self):
        return hash((self.n, self.vertices))

    @classmethod
    def hull(cls, points) -> "VPolytope":
        """conv(points), kept as its vertices, with its dimension and volume."""
        pts = sorted(set(tuple(Fraction(x) for x in p) for p in points))
        if not pts:
            raise ValueError("at least one point required")
        vertices, r, volume = _hull(pts)
        p = cls(len(pts[0]), vertices)
        p._cache["measure"] = r, volume
        return p

    def _measure(self) -> tuple[int, RadVal]:
        if "measure" not in self._cache:
            self._cache["measure"] = _hull(self.vertices)[1:]
        return self._cache["measure"]

    def affine_dim(self) -> int:
        return self._measure()[0]

    def volume(self) -> RadVal:
        """Exact r-dimensional Euclidean volume, r = affine dimension."""
        return self._measure()[1]


# ------------------------------------------------ integer placing triangulation


def _place(points, ray):
    """Beneath-beyond placing triangulation of conv(points) + cone(ray).

    The points are distinct integer points and ``ray`` an integer direction
    or None, together spanning Z^r.  The ray is a vertex at infinity: its row
    in a simplex's cofactor normal is the ray itself, not a difference.  The
    first point, the ray and the next affinely independent points, in the
    given order, seed a simplex; each further point, in a fixed pseudo-random
    order, is coned to the boundary simplices it lies strictly beyond.  (In
    sorted order every new point would be extreme, the worst case for the
    cone step.)  A boundary simplex keeps its unreduced cofactor normal, so
    |det| of a cone is the point's distance below the simplex's offset.
    Returns the facets, as sorted primitive (normal, offset) with <normal, x>
    >= offset on the hull (so <normal, ray> >= 0), and the sum of |det|, r!
    times the volume if there is no ray.  With a ray only the simplices
    through its vertex count: their slices above all points, translates of
    the projections of their finite points, tile the hull's projection along
    the ray, so for the ray e_r the total is (r - 1)! times the volume of
    conv(points) in the first r - 1 coordinates.  Neither depends on the
    point order.
    """
    pts = list(points)
    r, far = len(pts[0]), len(pts)  # far: the ray's vertex, last in every sorted simplex

    def edge(i, o):
        return ray if i == far else linalg.vsub(pts[i], o)

    seed = [0] if ray is None else [0, far]
    for i in range(1, len(pts)):
        if len(seed) <= r and len(linalg.echelon([edge(j, pts[0]) for j in seed[1:] + [i]])[0]) == len(seed):
            seed.append(i)
    if len(seed) != r + 1:
        raise InvariantError("placing triangulation", f"points span {len(seed) - 1} of {r} dimensions")
    rest = sorted(set(range(len(pts))) - set(seed))
    random.Random(0).shuffle(rest)
    # m times an interior point of every hull below, m the seed's points
    m = len(seed) - (ray is not None)
    centre = [sum(c) for c in zip(*(ray if i == far else pts[i] for i in seed))]

    def facet(verts):
        o = pts[verts[0]]
        rows = [edge(i, o) for i in verts[1:]]
        normal = tuple((-1) ** i * linalg.det([row[:i] + row[i + 1 :] for row in rows]) for i in range(r))
        offset = linalg.dot(normal, o)
        side = linalg.dot(normal, centre) - m * offset
        if side == 0:
            raise InvariantError("placing triangulation", f"boundary simplex {verts} is degenerate")
        if side < 0:
            normal, offset = tuple(-x for x in normal), -offset
        return verts, normal, offset

    # without a point, only the face at infinity of a half-line, never a facet
    boundary = [facet(verts) for verts in itertools.combinations(sorted(seed), r) if verts != (far,)]
    total = abs(linalg.det([edge(i, pts[0]) for i in seed[1:]]))
    for p in rest:
        q = pts[p]
        visible, kept = [], []
        for f in boundary:
            (visible if linalg.dot(f[1], q) < f[2] else kept).append(f)
        if not visible:
            continue
        ridges = Counter()
        for verts, normal, offset in visible:
            if ray is None or verts[-1] == far:
                total += offset - linalg.dot(normal, q)
            ridges.update(verts[:i] + verts[i + 1 :] for i in range(r))
        kept.extend(facet(tuple(sorted(ridge + (p,)))) for ridge, k in ridges.items() if k == 1)
        boundary = kept
    # an offset is a multiple of the gcd of its integer normal
    facets = {(w[:-1], w[-1]) for w in (linalg.primitive(normal + (offset,)) for _, normal, offset in boundary)}
    return sorted(facets), total


def _hull_facets(ints, ray):
    """conv(P) + cone(ray), P distinct integer points and ``ray`` a direction
    or None, in the pivot columns of the differences of P and the ray.

    Projecting onto those columns is injective on the affine hull.  Returns
    (rows, cols, facets, total): the integer echelon rows of the differences
    and the ray (``linalg.echelon``); their sorted pivot columns; per facet
    (tight, normal), bit i of ``tight`` set when it holds P[i] and bit len(P)
    when it holds the ray, and ``normal`` over ``cols``; and ``_place``'s total.
    """
    rows, pivots = linalg.echelon([linalg.vsub(q, ints[0]) for q in ints[1:]] + ([ray] if ray is not None else []))
    cols = sorted(pivots)
    proj = [tuple(q[c] for c in cols) for q in ints]
    if ray is not None:
        ray = tuple(ray[c] for c in cols)
    facets, total = _place(proj, ray)
    ends = [(q, 1) for q in proj] + ([(ray, 0)] if ray is not None else [])
    tight = [(sum(1 << i for i, (q, c) in enumerate(ends) if linalg.dot(a, q) == c * b), a) for a, b in facets]
    return rows, cols, tight, total


def _vertex_indices(count, facets, r) -> list:
    """The first ``count`` points that are vertices of an r-dimensional hull:
    those whose facets, (tight, normal) as ``_hull_facets`` gives them, have
    normals of full rank."""
    return [i for i in range(count) if len(linalg.echelon(a for tight, a in facets if tight >> i & 1)[0]) == r]


def _hull(pts):
    """(vertices, r, Vol_r) of the convex hull of distinct rational points.

    The points, scaled by d to integers, are triangulated once in the pivot
    columns C of the r x n echelon rows W of their differences.  That
    projection scales r-volumes by |det W_C| / sqrt(det(W W^T)), a factor
    that does not depend on the basis W of the hull's direction space (it
    is 1 when r = n), so Vol_r = total * sqrt(det(W W^T) / det(W_C)^2) / (r! d^r).
    """
    if len(pts) == 1:
        return list(pts), 0, RadVal(Fraction(1))
    ints, den = linalg.over_common_denominator(pts)
    w, cols, facets, total = _hull_facets(ints, None)
    return [pts[i] for i in _vertex_indices(len(pts), facets, len(cols))], len(cols), _volume(w, cols, total, den)


def _volume(w, cols, total, den) -> RadVal:
    """Vol_r = total * sqrt(det(W W^T) / det(W_C)^2) / (r! d^r), as in ``_hull``."""
    r = len(w)
    gram = Fraction(
        linalg.det([[linalg.dot(a, b) for b in w] for a in w]), linalg.det([[row[c] for c in cols] for row in w]) ** 2
    )
    return RadVal.from_sqrt(Fraction(total, math.factorial(r) * den**r), gram)


# ------------------------------------------- lower faces of lifted Minkowski sums


def _lifted_hull(points):
    """conv(P) + cone(e), P the lowest of the points over each a.

    The points are integer (a, b), b the lift, and e is the unit lift.
    Returns P and ``_hull_facets``' (rows, cols, facets, total) for P and e:
    the pivot columns ``cols`` hold the last one, and ``facets`` are the
    lower and vertical facets, bit len(P) of ``tight`` set on the vertical.
    """
    # in decreasing order, the last point over each a is the lowest
    low = sorted({p[:-1]: p for p in sorted(points, reverse=True)}.values())
    return (low, *_hull_facets(low, (0,) * (len(low[0]) - 1) + (1,)))


def _lower_vertices(points) -> list:
    """The lower vertices of conv(points), integer points (a, b), b the lift:
    the vertices of conv(P) + cone(e), whose facets have normals of full rank."""
    low, _, cols, facets, _ = _lifted_hull(points)
    return [low[i] for i in _vertex_indices(len(low), facets, len(cols))]


# ``_lifted_hull``'s (P, rows, cols, facets, total) for a sum of point sets,
# after the sets times ``den``, the least integer making them integral
LiftedHull = namedtuple("LiftedHull", "sets den low rows cols facets total")


def lifted_sum_hull(point_sets) -> LiftedHull:
    """conv(Q_1 + ... + Q_k) + cone(e), Q_i sets of points (a, b) in Q^r x Q.

    The lower vertices of a sum are sums of lower vertices, so each set and
    the running sum before each further set are pruned to their lower
    vertices, and the final sum is placed once: 2k - 1 placings for k sets.
    """
    flat, den = linalg.over_common_denominator([p for pts in point_sets for p in pts])
    it = iter(flat)
    ints = [[next(it) for _ in pts] for pts in point_sets]
    summed = ints[0]
    for pts in ints[1:]:
        summand = _lower_vertices(pts)
        summed = [linalg.vadd(v, q) for v in _lower_vertices(summed) for q in summand]
    return LiftedHull(ints, den, *_lifted_hull(summed))


def lower_faces(hull: LiftedHull) -> list:
    """Lower faces of a lifted Minkowski sum, with witnesses.

    A face of the sum is lower when some functional (x, 1) attains its
    minimum over the sum exactly on it.  Returns, per lower face, (x,
    argmins): such an x, and per set the positions of its points on which
    (x, 1) is minimal (the summands of the face).

    The lower faces are the bounded faces of the hull: the intersections of
    its facets, read as sets of tight points, that miss the ray.  The facets
    through a lower face have normals with last entry <normal, e> >= 0, and
    as the face misses the ray at least one is > 0, so their sum (w, t) has
    t > 0 and x = w / t selects exactly that face.
    """
    ints, _, low, _, cols, facets, _ = hull
    r = len(low[0]) - 1
    ray = 1 << len(low)
    faces, stack = set(), [t for t, _ in facets]
    while stack:
        face = stack.pop()
        if face in faces:
            continue
        faces.add(face)
        stack.extend(sub for sub in (face & t for t, _ in facets) if sub & (ray - 1) and sub not in faces)

    out = []
    for face in sorted(f for f in faces if not f & ray):
        total = [sum(col) for col in zip(*(normal for tight, normal in facets if tight & face == face))]
        w = [0] * (r + 1)
        for c, v in zip(cols, total):
            w[c] = v
        if w[r] <= 0:
            raise InvariantError("lower_faces", f"summed facet normal {w} of a lower face is not lifted")
        argmins = []
        for pts in ints:
            values = [linalg.dot(w, p) for p in pts]
            least = min(values)
            argmins.append(frozenset(j for j, v in enumerate(values) if v == least))
        out.append((tuple(Fraction(v, w[r]) for v in w[:r]), tuple(argmins)))
    return out


def newton_volume(hull: LiftedHull) -> tuple[int, RadVal]:
    """(r, Vol_r) of the Newton sum P_1 + ... + P_k, the lifted sum's
    projection along e: the placing's total is r! den^r times its volume in
    the pivot columns before the lift's, those of the echelon rows' exponent
    parts, which span its direction space."""
    n = len(hull.low[0]) - 1
    w = [row[:n] for row in hull.rows if any(row[:n])]
    if hull.cols[-1] != n or len(w) != len(hull.cols) - 1:
        raise InvariantError("newton_volume", f"pivot columns {hull.cols} do not end with the lift's, {n}")
    return len(w), _volume(w, hull.cols[:-1], hull.total, hull.den)
