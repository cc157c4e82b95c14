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
rational +-eps lands witnesses in the two adjacent regions.

A face's zero set is the set of definers of its flat.  A flat is
*covering* when its definers have source ties in every polynomial; only
faces on covering flats can carry prevariety cells.  A subflat only gains
definers, so covering flats are closed under descent, and the stepping
above run over the covering flats alone finds exactly the covering faces
(the facets it steps off lie on covering subflats).  ``faces()`` walks
every flat, as the sign-vector oracle needs; ``covering_faces()`` walks
only the covering ones, as the cells need, or filters ``faces()`` when
that list is already there.

An arrangement caches its face lists, and each system owns its
arrangement (``TropSystem.arrangement``), so the lists live exactly as
long as the system; nothing is cached across systems.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING

from . import linalg

if TYPE_CHECKING:
    from .tropical import TropSystem


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class Hyperplane:
    """normal.x = offset with coprime integer normal, first nonzero > 0.

    ``sources`` lists the monomial pairs (poly index, j1, j2) whose tie
    locus is this hyperplane.
    """

    normal: tuple[int, ...]
    offset: Fraction
    sources: tuple[tuple[int, int, int], ...]

    def value(self, x) -> Fraction:
        return linalg.dot(self.normal, x) - self.offset


class ArrFace:
    """Relatively open face of an arrangement: one sign vector's cell."""

    def __init__(self, signs: tuple[int, ...], dim: int, witness):
        self.signs = signs
        self.dim = dim
        self.witness = linalg.fvec(witness)

    def __repr__(self):
        return f"ArrFace(dim={self.dim}, signs={''.join('0+-'[s] for s in self.signs)})"

    def __eq__(self, other):
        return isinstance(other, ArrFace) and self.signs == other.signs

    def __hash__(self):
        return hash(self.signs)

    @cached_property
    def zero_set(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self.signs) if s == 0)


class Arrangement:
    """Deduplicated tie hyperplanes of a tropical polynomial system.

    ``degenerate_pairs`` records monomial pairs with equal variable parts
    and distinct constants; they never tie and induce no hyperplane.
    """

    def __init__(self, n: int, k: int, hyperplanes, degenerate_pairs=()):
        self.n = n
        self.k = k
        self.hyperplanes = tuple(hyperplanes)
        self.degenerate_pairs = tuple(degenerate_pairs)
        self._hp_polys = tuple(frozenset(i for i, _, _ in h.sources) for h in self.hyperplanes)
        self._cache: dict = {}

    @property
    def ell(self) -> int:
        return len(self.hyperplanes)

    def __repr__(self):
        return f"Arrangement(n={self.n}, hyperplanes={self.ell})"

    def covers(self, zero_set) -> bool:
        """Whether the hyperplanes in zero_set tie monomials of all k polynomials."""
        covered: set[int] = set()
        for i in zero_set:
            covered |= self._hp_polys[i]
        return len(covered) == self.k

    def faces(self) -> tuple[ArrFace, ...]:
        if "faces" not in self._cache:
            self._cache["faces"] = enumerate_faces(self)
        return self._cache["faces"]

    def covering_faces(self) -> tuple[ArrFace, ...]:
        """The faces whose zero sets cover every polynomial, by sign vector."""
        if "covering_faces" not in self._cache:
            if "faces" in self._cache:
                faces = tuple(f for f in self._cache["faces"] if self.covers(f.zero_set))
            else:
                faces = enumerate_faces(self, covering=True)
            self._cache["covering_faces"] = faces
        return self._cache["covering_faces"]


def build_arrangement(system: TropSystem) -> Arrangement:
    seen: dict[tuple[tuple[int, ...], Fraction], list[tuple[int, int, int]]] = {}
    degenerate = []
    for i, f in enumerate(system.polys):
        for j1, j2 in itertools.combinations(range(f.m), 2):
            m1, m2 = f.monomials[j1], f.monomials[j2]
            normal = linalg.vsub(m1.a, m2.a)
            if linalg.is_zero_vec(normal):
                degenerate.append((i, j1, j2))
                continue
            w, c = linalg.primitive(normal, allow_flip=True)
            offset = c * (m2.b - m1.b)
            seen.setdefault((w, offset), []).append((i, j1, j2))
    hps = [Hyperplane(nrm, off, tuple(srcs)) for (nrm, off), srcs in seen.items()]
    hps.sort(key=lambda h: (h.normal, h.offset))
    return Arrangement(system.n, system.k, hps, degenerate)


class _Flat:
    """Nonempty intersection of hyperplanes: an affine subspace.

    The hyperplane values at ``base`` are ``base_values[i] / denom``.
    """

    __slots__ = ("key", "dim", "base", "dirs", "rows", "definers", "base_values", "denom")

    def __init__(self, key, dim, base, dirs, rows, definers, base_values, denom):
        self.key = key
        self.dim = dim
        self.base = base
        self.dirs = dirs
        self.rows = rows
        self.definers = definers
        self.base_values = base_values
        self.denom = denom


def _make_flat(n, rows, hps):
    """Flat from equation rows (normal, offset), or None if empty."""
    aug = [list(a) + [b] for a, b in rows]
    red, pivots = linalg.rref(aug)
    if n in pivots:
        return None
    return _finish_flat(n, red, hps)


def _finish_flat(n, red, hps):
    key = tuple(tuple(r) for r in red)
    normals = [r[:n] for r in red]
    base = linalg.solve(normals, [r[n] for r in red]) if red else tuple([Fraction(0)] * n)
    # integer direction vectors keep the hot sign loops in int arithmetic
    dirs = [linalg.primitive(u)[0] for u in linalg.nullspace(normals, n)]
    red_rows = [(tuple(r[:n]), r[n]) for r in red]
    (base_values,), denom = linalg._over_common_denominator([[h.value(base) for h in hps]])
    definers = frozenset(
        i
        for i, h in enumerate(hps)
        if base_values[i] == 0
        and all(sum(a * b for a, b in zip(h.normal, u)) == 0 for u in dirs)
    )
    return _Flat(key, n - len(red), base, dirs, red_rows, definers, base_values, denom)


def _shifted(values, denom, step: Fraction, slopes) -> tuple[list[int], int]:
    """values / denom + step * slopes, again over one reduced denominator."""
    p, q = step.numerator * denom, step.denominator
    out = [v * q + p * t for v, t in zip(values, slopes)]
    denom *= q
    g = math.gcd(denom, *out)
    if g > 1:
        out = [v // g for v in out]
        denom //= g
    return out, denom


def _points_on_line(fl, hps, flats, keep):
    """Zero-dimensional flats on a line, grouped by crossing parameter.

    All hyperplanes through base + t*u either contain the line (so are
    among its definers) or cross it at parameter t, which makes the
    definers and hyperplane values of every point on the line cheap.
    Points whose definers fail ``keep`` are dropped before their values
    are computed: a point has no subflats, so nothing below needs it.
    """
    u = fl.dirs[0]
    slopes = [sum(a * b for a, b in zip(h.normal, u)) for h in hps]
    crossings: dict[Fraction, list[int]] = {}
    for i, t in enumerate(slopes):
        if t != 0 and i not in fl.definers:
            crossings.setdefault(Fraction(-fl.base_values[i], fl.denom * t), []).append(i)
    out = []
    for t, idxs in crossings.items():
        definers = fl.definers | frozenset(idxs)
        if keep is not None and not keep(definers):
            continue
        base = linalg.vadd(fl.base, linalg.vscale(t, u))
        key = ("pt",) + tuple(base)
        if key in flats:
            continue
        values, denom = _shifted(fl.base_values, fl.denom, t, slopes)
        pt = _Flat(key, 0, base, [], [], definers, values, denom)
        flats[key] = pt
        out.append(pt)
    return out


def _intersection_lattice(n, hps, keep=None):
    start = _make_flat(n, [], hps)
    flats = {start.key: start}
    frontier = [start]
    while frontier:
        new = []
        for fl in frontier:
            if fl.dim == 0:
                continue
            if fl.dim == 1:
                new.extend(_points_on_line(fl, hps, flats, keep))
                continue
            for i, h in enumerate(hps):
                if i in fl.definers:
                    continue
                if all(sum(a * b for a, b in zip(h.normal, u)) == 0 for u in fl.dirs):
                    continue  # parallel to the flat: empty intersection
                aug = [list(a) + [b] for a, b in fl.rows] + [list(h.normal) + [h.offset]]
                red, pivots = linalg.rref(aug)
                if n in pivots:
                    continue
                key = tuple(tuple(r) for r in red)
                if key in flats:
                    continue
                sub = _finish_flat(n, red, hps)
                flats[key] = sub
                new.append(sub)
        frontier = new
    return flats


class _FaceRec:
    """A face on ``flat`` that faces one dimension up step off.

    The hyperplane values at its witness are ``values[i] / denom``,
    integers over one positive denominator, so the hot loops stay in int
    arithmetic.
    """

    __slots__ = ("signs", "zero_set", "witness", "values", "denom", "flat")

    def __init__(self, signs, zero_set, witness, values, denom, flat):
        self.signs = signs
        self.zero_set = zero_set
        self.witness = witness
        self.values = values
        self.denom = denom
        self.flat = flat


def _in_span(v, red, pivots):
    """Whether v lies in the row space captured by (rref rows, pivots)."""
    w = list(v)
    for row, p in zip(red, pivots):
        if w[p] != 0:
            f = w[p]
            w = [x - f * y for x, y in zip(w, row)]
    return all(x == 0 for x in w)


def enumerate_faces(arrangement: Arrangement, covering: bool = False) -> tuple[ArrFace, ...]:
    """All faces of the arrangement, sorted by sign vector.

    The faces partition the ambient space: every point's sign vector is
    the sign vector of exactly one face.  With ``covering``, only the
    flats that cover every polynomial are walked, which yields exactly
    the faces among those whose zero sets cover every polynomial.
    """
    n, hps = arrangement.n, arrangement.hyperplanes
    keep = arrangement.covers if covering else None
    by_dim: dict[int, list[_Flat]] = {}
    for fl in _intersection_lattice(n, hps, keep).values():
        if keep is None or keep(fl.definers):
            by_dim.setdefault(fl.dim, []).append(fl)

    found: dict[tuple[int, ...], tuple[int, tuple[Fraction, ...]]] = {}
    recs_by_dim: dict[int, list[_FaceRec]] = {}

    def add_flat_face(fl):
        signs = tuple(_sign(v) for v in fl.base_values)
        if signs in found:
            return
        found[signs] = (fl.dim, fl.base)
        if fl.dim < n:  # top-dimensional faces seed nothing further
            zero_set = frozenset(i for i, s in enumerate(signs) if s == 0)
            rec = _FaceRec(signs, zero_set, fl.base, fl.base_values, fl.denom, fl)
            recs_by_dim.setdefault(fl.dim, []).append(rec)

    for d in range(0, n + 1):
        level = by_dim.get(d, [])
        if not level:
            continue
        below = recs_by_dim.get(d - 1, ())
        members_by_hp: dict[int, list[_FaceRec]] = {}
        for rec in below:
            for i in rec.zero_set:
                members_by_hp.setdefault(i, []).append(rec)
        for fl in level:
            if d == 0 or not any(
                i not in fl.definers
                and any(sum(a * b for a, b in zip(h.normal, u)) != 0 for u in fl.dirs)
                for i, h in enumerate(hps)
            ):
                # Nothing splits the flat: it is a single face outright.
                add_flat_face(fl)
                continue
            if fl.definers:
                i0 = min(fl.definers, key=lambda i: len(members_by_hp.get(i, ())))
                candidates = [r for r in members_by_hp.get(i0, ()) if r.zero_set >= fl.definers]
            else:
                candidates = below
            tu_by_dir: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
            off_facet: dict[int, tuple[int, ...]] = {}  # id(facet's flat) -> u
            for rec in candidates:
                # rec spans a hyperplane within fl; step off it both ways.
                u = off_facet.get(id(rec.flat))
                if u is None:
                    dirs = [list(v) for v in rec.flat.dirs]
                    red, pivots = linalg.rref(dirs) if dirs else ([], [])
                    u = off_facet[id(rec.flat)] = next(v for v in fl.dirs if not _in_span(v, red, pivots))
                if u not in tu_by_dir:
                    tu = [sum(a * b for a, b in zip(h.normal, u)) for h in hps]
                    tu_by_dir[u] = tu, [_sign(x) for x in tu]
                tu, tu_signs = tu_by_dir[u]
                eps = None
                for s in (1, -1):
                    signs = tuple(sg if sg else s * st for sg, st in zip(rec.signs, tu_signs))
                    if signs in found:
                        continue
                    if eps is None:
                        # half the distance, along u, to the nearest crossing
                        # hyperplane: min |v| / (2 |t|) over v != 0 != t
                        near_v, near_t = 0, 0
                        for v, t in zip(rec.values, tu):
                            if v and t and (not near_t or abs(v) * near_t < near_v * abs(t)):
                                near_v, near_t = abs(v), abs(t)
                        eps = Fraction(near_v, 2 * rec.denom * near_t) if near_t else Fraction(1)
                    step = s * eps
                    witness = linalg.vadd(rec.witness, linalg.vscale(step, u))
                    found[signs] = (d, witness)
                    if d < n:
                        values, denom = _shifted(rec.values, rec.denom, step, tu)
                        zero_set = frozenset(i for i, sg in enumerate(signs) if sg == 0)
                        recs_by_dim.setdefault(d, []).append(
                            _FaceRec(signs, zero_set, witness, values, denom, fl)
                        )

    faces = [ArrFace(signs, dim, w) for signs, (dim, w) in found.items()]
    faces.sort(key=lambda f: f.signs)
    return tuple(faces)
