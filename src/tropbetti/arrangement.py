"""Hyperplane arrangements from pairwise monomial ties, with exact face
enumeration.

Each pair of distinct monomials (a1, b1), (a2, b2) of a polynomial ties on
the hyperplane (a1 - a2).x = b2 - b1.  The faces of the resulting
arrangement are the sign-vector cells; every cell of the tropical
prevariety is a union of such faces.

Faces are enumerated bottom-up without linear programming: first the flats
of the intersection lattice, then, per flat L in increasing dimension, the
regions of the arrangement induced on L.  Every region of the induced
arrangement has a facet F (a face one dimension lower, already known), and
near a relative-interior point of F the arrangement restricted to L looks
like the single hyperplane spanned by F; stepping off F by an exact
rational +-eps lands witnesses in the two adjacent regions.  F's flat is
L & h for any definer h of F's flat that L lacks, so a direction of L
leaves it exactly when h's normal does not vanish on it: the step goes
along the first such direction of L, with no elimination.

Each face found has one record (sign vector, witness, hyperplane values,
flat), and each level's records seed the next.  A face's zero set is the set
of its flat's definers, so no record stores it.  A flat is *covering* when
its definers have source ties in every polynomial; only faces on covering
flats can carry prevariety cells.  A subflat only gains definers, so
covering flats are closed under descent.  There is one entry point:
``enumerate_faces(arr)`` walks every flat, as the sign-vector oracle needs;
``enumerate_faces(arr, keep)`` builds and walks only the covering ones, as
the cells need, and steps off only the faces whose sign vectors ``keep``
accepts.  Points, the bulk of the lattice, are judged before they are
built: along a line the sign vector changes only where hyperplanes cross
it, so one sweep over the crossings in their exact order gives every
point's signs (the incremental construction of Edelsbrunner, O'Rourke and
Seidel, SIAM J. Comput. 1986).  A point gets its hyperplane values and a
record only if ``keep`` accepts its signs, and every point does without
``keep``.  A covering subflat F of a flat L that ties no monomials of a
polynomial p has a hyperplane h of p among its definers, which crosses L,
so F lies in the subflat L & h: the lattice intersects a flat that is not
covering only with the hyperplanes of one such p, the one with the fewest,
and a covering flat with every hyperplane, which keeps its ``split``
exact.  Each level's flats are walked in the order of their sorted definers,
the order in which the breadth-first lattice of every flat lists them.  So
if the kept faces are closed under taking faces, the facet that first
reaches a kept face in the full walk is kept and walked first here too, and
each kept face gets the full walk's witness.

Everything below the public hyperplanes runs in ``int`` arithmetic.  The
walk reads hyperplane i as the integer row (N_i, O_i) = c_i (normal,
offset), c_i the offset's denominator.  A positive factor per hyperplane
changes neither the sign of its value at a point nor the ratio of that
value to its rate of change along a direction, and the walk reads nothing
else of it: signs, line crossings (-value / rate) and step lengths (the
least |value| / |rate|).  So the faces, their dimensions and their
witnesses are those of the rational hyperplanes.  The linear algebra is
``linalg``'s integer elimination: a flat is keyed by its reduced echelon
rows (N | O), each coprime with a positive pivot, which are as canonical
as the rational reduced echelon form; a hyperplane that crosses the flat
extends them by one row (``linalg.reduce_into``), and the flat's base
point and directions are their integer solution and kernel.  Points and
witnesses are integer vectors over one denominator in lowest terms, and
become ``Fraction`` vectors only in the finished faces.

Each system owns its arrangement (``TropSystem.arrangement``).  Face
lists are not cached: each call walks the arrangement afresh.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from . import linalg

if TYPE_CHECKING:
    from .tropical import TropSystem


def _sign(v) -> int:
    return (v > 0) - (v < 0)


# normal.x = offset with coprime integer normal, first nonzero > 0, and a
# Fraction offset; ``sources`` lists the monomial pairs (poly index, j1, j2)
# whose tie locus is this hyperplane
Hyperplane = namedtuple("Hyperplane", "normal offset sources")


class ArrFace:
    """Relatively open face of an arrangement: one sign vector's cell."""

    def __init__(self, signs: tuple[int, ...], dim: int, witness):
        self.signs = signs
        self.dim = dim
        self.witness = witness

    def __repr__(self):
        return f"ArrFace(dim={self.dim}, signs={''.join('0+-'[s] for s in self.signs)})"


class Arrangement:
    """Deduplicated tie hyperplanes of a tropical polynomial system.

    Monomial pairs with equal variable parts never tie and induce no
    hyperplane.
    """

    def __init__(self, n: int, k: int, hyperplanes):
        self.n = n
        self.k = k
        self.hyperplanes = tuple(hyperplanes)
        self._hp_polys = tuple(frozenset(i for i, _, _ in h.sources) for h in self.hyperplanes)
        self._poly_hps: list[list[int]] = [[] for _ in range(k)]  # each polynomial's hyperplanes
        for h, polys in enumerate(self._hp_polys):
            for p in polys:
                self._poly_hps[p].append(h)
        self._rows = tuple(_integer_row(h) for h in self.hyperplanes)

    @property
    def ell(self) -> int:
        return len(self.hyperplanes)

    def __repr__(self):
        return f"Arrangement(n={self.n}, hyperplanes={self.ell})"

    def covers(self, zero_set) -> bool:
        """Whether the hyperplanes in zero_set tie monomials of all k polynomials."""
        return len(self._tied(zero_set)) == self.k

    def _tied(self, zero_set) -> set[int]:
        """The polynomials that the hyperplanes in zero_set tie monomials of."""
        tied: set[int] = set()
        for i in zero_set:
            tied |= self._hp_polys[i]
        return tied


def build_arrangement(system: TropSystem) -> Arrangement:
    # (normal, offset numerator, offset denominator) -> source pairs
    seen: dict[tuple[tuple[int, ...], int, int], list[tuple[int, int, int]]] = {}
    # polynomials of one system often share monomials, so each distinct
    # monomial (a, num, den) gets an id, and each pair of ids maps to its
    # tie's source list in ``seen``, or to None if they never tie
    ids: dict[tuple[tuple[int, ...], int, int], int] = {}
    ties: dict[tuple[int, int], list[tuple[int, int, int]] | None] = {}
    for i, f in enumerate(system.polys):
        mons = [(m.a, m.b.numerator, m.b.denominator) for m in f.monomials]
        mids = [ids.setdefault(m, len(ids)) for m in mons]
        for j1, j2 in itertools.combinations(range(len(mons)), 2):
            pair = mids[j1], mids[j2]
            if pair not in ties:
                key = _tie_key(mons[j1], mons[j2])
                ties[pair] = None if key is None else seen.setdefault(key, [])
            srcs = ties[pair]
            if srcs is not None:
                srcs.append((i, j1, j2))
    hps = [Hyperplane(nrm, Fraction(num, den), tuple(srcs)) for (nrm, num, den), srcs in seen.items()]
    hps.sort(key=lambda h: (h.normal, h.offset))
    return Arrangement(system.n, system.k, hps)


def _tie_key(m1, m2) -> tuple[tuple[int, ...], int, int] | None:
    """(normal, offset numerator, offset denominator) of the tie of the
    monomials (a, num, den), in lowest terms; None if a1 = a2."""
    (a1, p1, q1), (a2, p2, q2) = m1, m2
    diff = [x - y for x, y in zip(a1, a2)]
    q = next((c for c, x in enumerate(diff) if x), None)
    if q is None:
        return None
    normal = linalg.primitive(diff if diff[q] > 0 else [-x for x in diff])
    # diff = g normal, so the tie is normal.x = (b2 - b1) / g, put in lowest
    # terms with a positive denominator
    num, den = p2 * q1 - p1 * q2, q1 * q2 * (diff[q] // normal[q])
    if den < 0:
        num, den = -num, -den
    r = math.gcd(num, den)
    return normal, num // r, den // r


def _integer_row(h: Hyperplane) -> tuple[tuple[int, ...], int]:
    """(N, O) = c (normal, offset), c > 0 the offset's denominator."""
    return tuple(h.offset.denominator * a for a in h.normal), h.offset.numerator


def _shifted(values, denom: int, num: int, den: int, slopes) -> tuple[tuple[int, ...], int]:
    """values / denom + (num / den) * slopes, for den > 0, as integers over
    one positive denominator in lowest terms."""
    p = num * denom
    w = linalg.primitive([v * den + p * t for v, t in zip(values, slopes)] + [denom * den])
    return w[:-1], w[-1]


class _Flat:
    """Nonempty intersection of hyperplanes: an affine subspace.

    ``rows`` are its reduced echelon rows (N | O), each coprime with a
    positive entry in its pivot column ``pivots[j]``, and ``dirs`` are
    coprime integer directions spanning it.  The base point is
    ``base / denom``; the hyperplane rows take the values
    ``base_values[i] / values_denom`` there.  ``split`` says whether some
    hyperplane crosses the flat without containing it.  A point's
    ``signs`` is the sign vector its line's sweep judged it on; other
    flats have None.
    """

    __slots__ = (
        "dim", "rows", "pivots", "dirs", "base", "denom", "base_values", "values_denom", "definers", "split",
        "signs",
    )

    def __init__(self, rows, pivots, dirs, base, denom, base_values, values_denom, definers):
        self.dim = len(dirs)
        self.rows = rows
        self.pivots = pivots
        self.dirs = dirs
        self.base = base
        self.denom = denom
        self.base_values = base_values
        self.values_denom = values_denom
        self.definers = definers
        self.split = False
        self.signs = None


def _make_flat(n, rows, pivots, hrows):
    """Flat of reduced echelon rows; its base has the free coordinates zero."""
    base, denom, dirs = linalg.solution_and_kernel(rows, pivots, n)
    base_values = tuple(linalg.dot(a, base) - b * denom for a, b in hrows)
    definers = frozenset(
        i for i, (a, _) in enumerate(hrows) if base_values[i] == 0 and all(linalg.dot(a, u) == 0 for u in dirs)
    )
    return _Flat(rows, pivots, dirs, base, denom, base_values, denom, definers)


def _points_on_line(fl, hrows, flats, covers, keep):
    """Zero-dimensional flats on a line, judged in one sweep along it.

    All hyperplanes through base + t*u either contain the line (so are
    among its definers) or cross it at parameter t, which makes the
    definers and sign vector of every point on the line cheap: the signs
    at t -> -inf are -sign(slope) for a crossing hyperplane and the sign of
    its value for any other, and they change only where hyperplanes cross.
    So the points are visited in their exact order along the line, and
    each is judged before it is built: a point whose definers fail
    ``covers`` or whose sign vector ``keep`` rejects is dropped, a rejected
    one marked None in ``flats`` so that no other line judges it again.
    Only a kept point gets its hyperplane values, and it carries the sign
    vector it was judged on.  A point has no subflats, so nothing below
    needs a dropped one.
    """
    u = fl.dirs[0]
    slopes = [linalg.dot(a, u) for a, _ in hrows]
    signs = []  # the sign vector at t -> -inf
    crossings: dict[tuple[int, int], list[int]] = {}  # t = num / den in lowest terms
    for i, t in enumerate(slopes):
        if t == 0:  # the line lies in, or parallel to, hyperplane i
            signs.append(_sign(fl.base_values[i]))
            continue
        signs.append(-_sign(t))
        num, den = -fl.base_values[i], fl.values_denom * t
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        crossings.setdefault((num // g, den // g), []).append(i)
    fl.split = bool(crossings)
    kept = []  # (first hyperplane, key, point)
    for num, den in sorted(crossings, key=lambda t: Fraction(*t)):
        idxs = crossings[num, den]
        for i in idxs:
            signs[i] = 0
        definers = fl.definers | frozenset(idxs)
        if covers is None or covers(definers):
            base, denom = _shifted(fl.base, fl.denom, num, den, u)
            key = ("pt", denom) + base
            if key not in flats:
                judged = tuple(signs)
                if keep is None or keep(judged):
                    values, values_denom = _shifted(fl.base_values, fl.values_denom, num, den, slopes)
                    pt = _Flat((), (), [], base, denom, values, values_denom, definers)
                    pt.signs = judged
                    kept.append((idxs[0], key, pt))
                else:
                    flats[key] = None
        for i in idxs:
            signs[i] = _sign(slopes[i])
    # the lattice lists a line's points by their first crossing hyperplane,
    # so that each level comes out in the order of its sorted definers
    kept.sort()
    for _, key, pt in kept:
        flats[key] = pt
    return [pt for _, _, pt in kept]


def _intersection_lattice(arr: Arrangement, covering_only: bool, keep=None) -> list[_Flat]:
    """Every flat, breadth first; with ``covering_only``, the covering flats,
    each with its exact ``split``, and only the other flats that lead to
    them: a flat that ties no monomials of some polynomials is intersected
    only with the hyperplanes of the one among them with the fewest.  With
    ``keep``, only the points whose sign vectors it accepts are built."""
    n, hrows = arr.n, arr._rows
    covers = arr.covers if covering_only else None
    start = _make_flat(n, (), (), hrows)
    flats = {start.rows: start}  # flats by rows, points by ("pt", denom, *base), None if rejected
    frontier = [start]
    while frontier:
        new = []
        for fl in frontier:
            if fl.dim == 0:
                continue
            if fl.dim == 1:
                new.extend(_points_on_line(fl, hrows, flats, covers, keep))
                continue
            crossing = range(len(hrows))
            if covering_only:
                tied = arr._tied(fl.definers)
                if len(tied) < arr.k:
                    crossing = min((hps for p, hps in enumerate(arr._poly_hps) if p not in tied), key=len)
            for i in crossing:
                if i in fl.definers:
                    continue
                row = hrows[i]
                if all(linalg.dot(row[0], u) == 0 for u in fl.dirs):
                    continue  # parallel to the flat: empty intersection
                fl.split = True
                rows, pivots = linalg.reduce_into(fl.rows, fl.pivots, row[0] + (row[1],))
                if rows in flats:
                    continue
                sub = _make_flat(n, rows, pivots, hrows)
                flats[rows] = sub
                new.append(sub)
        frontier = new
    return [fl for fl in flats.values() if fl is not None]


class _FaceRec:
    """A face on ``flat``, whose definers are the face's zero set.

    Its witness is ``witness / denom`` and the hyperplane rows take the
    values ``values[i] / values_denom`` there, all integers over positive
    denominators.
    """

    __slots__ = ("signs", "witness", "denom", "values", "values_denom", "flat")

    def __init__(self, signs, witness, denom, values, values_denom, flat):
        self.signs = signs
        self.witness = witness
        self.denom = denom
        self.values = values
        self.values_denom = values_denom
        self.flat = flat


def enumerate_faces(arrangement: Arrangement, keep=None) -> tuple[ArrFace, ...]:
    """All faces of the arrangement, sorted by sign vector.

    The faces partition the ambient space: every point's sign vector is
    the sign vector of exactly one face.  With ``keep``, a predicate on
    sign vectors, only the covering flats are walked and only the faces
    ``keep`` accepts are returned and stepped off; if they lie on covering
    flats and are closed under taking faces, that is the full list
    filtered by ``keep``, witnesses included.  ``keep`` is called at most
    once per sign vector, with an immutable tuple, which it may store.
    """
    n, hrows = arrangement.n, arrangement._rows
    by_dim: dict[int, list[_Flat]] = {}
    for fl in _intersection_lattice(arrangement, keep is not None, keep):
        if keep is None or arrangement.covers(fl.definers):
            by_dim.setdefault(fl.dim, []).append(fl)
    for level in by_dim.values():
        # the order of the breadth-first walk of every flat, on which the
        # stepped witnesses depend: the first facet to reach a face wins
        level.sort(key=lambda fl: sorted(fl.definers))

    found: dict[tuple[int, ...], _FaceRec | None] = {}  # sign vector -> its record, or None if rejected
    below: list[_FaceRec] = []  # the faces one dimension down, in the order found
    for d in range(n + 1):
        new: list[_FaceRec] = []
        members_by_hp: dict[int, list[_FaceRec]] = {}
        for rec in below:
            for i in rec.flat.definers:
                members_by_hp.setdefault(i, []).append(rec)
        for fl in by_dim.get(d, ()):
            if not fl.split:
                # Nothing splits the flat: it is a single face outright.  A
                # point was kept on the signs its line's sweep judged.
                signs = fl.signs
                if signs is None:
                    signs = tuple([_sign(v) for v in fl.base_values])
                    if keep is not None and not keep(signs):
                        found[signs] = None
                        continue
                found[signs] = _FaceRec(signs, fl.base, fl.denom, fl.base_values, fl.values_denom, fl)
                new.append(found[signs])
                continue
            if fl.definers:
                i0 = min(fl.definers, key=lambda i: len(members_by_hp.get(i, ())))
                candidates = [r for r in members_by_hp.get(i0, ()) if r.flat.definers >= fl.definers]
            else:
                candidates = below
            tu_by_dir: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
            for rec in candidates:
                # rec spans a hyperplane within fl, fl & h for any definer h
                # of rec's flat that fl lacks; step off it both ways along
                # the first direction of fl that h's normal does not kill.
                h = next(i for i in rec.flat.definers if i not in fl.definers)
                u = next(v for v in fl.dirs if linalg.dot(hrows[h][0], v))
                if u not in tu_by_dir:
                    tu = [linalg.dot(a, u) for a, _ in hrows]
                    tu_by_dir[u] = tu, [_sign(x) for x in tu]
                tu, tu_signs = tu_by_dir[u]
                eps = None
                for s in (1, -1):
                    signs = tuple(sg if sg else s * st for sg, st in zip(rec.signs, tu_signs))
                    if signs in found:
                        continue
                    if keep is not None and not keep(signs):
                        found[signs] = None
                        continue
                    if eps is None:
                        # half the distance, along u, to the nearest crossing
                        # hyperplane: min |v| / (2 |t|) over v != 0 != t
                        near_v, near_t = 0, 0
                        for v, t in zip(rec.values, tu):
                            if v and t and (not near_t or abs(v) * near_t < near_v * abs(t)):
                                near_v, near_t = abs(v), abs(t)
                        eps = (near_v, 2 * rec.values_denom * near_t) if near_t else (1, 1)
                    num, den = s * eps[0], eps[1]
                    witness, denom = _shifted(rec.witness, rec.denom, num, den, u)
                    values, values_denom = _shifted(rec.values, rec.values_denom, num, den, tu)
                    found[signs] = _FaceRec(signs, witness, denom, values, values_denom, fl)
                    new.append(found[signs])
        below = new

    faces = [
        ArrFace(signs, rec.flat.dim, tuple(Fraction(x, rec.denom) for x in rec.witness))
        for signs, rec in found.items()
        if rec is not None
    ]
    faces.sort(key=lambda f: f.signs)
    return tuple(faces)
