"""Exact Betti numbers of a prevariety.

A connected component is L x (its slice by L-perp), L the lineality space
of its cells, and the slice retracts onto the cells bounded modulo L, which
``PrevarietyComplex.retract`` reads from the face poset; no polyhedron is
built here.  Each component's retract is triangulated as the order complex
of its face poset, read from the complex's face relation, and homology
ranks come from exact rational ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .prevariety import PrevarietyComplex


@dataclass(frozen=True)
class BettiVector:
    """b_0..b_dim with trailing zeros trimmed; empty space -> ()."""

    b: tuple[int, ...]

    @classmethod
    def make(cls, values) -> "BettiVector":
        vals = list(values)
        while vals and vals[-1] == 0:
            vals.pop()
        return cls(tuple(int(v) for v in vals))

    @property
    def total(self) -> int:
        return sum(self.b)

    def __add__(self, other: "BettiVector") -> "BettiVector":
        out = [0] * max(len(self.b), len(other.b))
        for i, v in enumerate(self.b):
            out[i] += v
        for i, v in enumerate(other.b):
            out[i] += v
        return BettiVector.make(out)

    def __getitem__(self, i: int) -> int:
        return self.b[i] if i < len(self.b) else 0


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex: downward-closed vertex subsets."""

    vertices: tuple[int, ...]
    simplices: frozenset[frozenset[int]]

    @classmethod
    def from_maximal(cls, maximal) -> "SimplicialComplex":
        simplices: set[frozenset[int]] = set()
        for s in maximal:
            s = frozenset(s)
            for r in range(1, len(s) + 1):
                simplices.update(frozenset(c) for c in itertools.combinations(s, r))
        vertices = tuple(sorted({v for s in simplices for v in s}))
        return cls(vertices, frozenset(simplices))

    def by_dim(self) -> dict[int, list[tuple[int, ...]]]:
        out: dict[int, list[tuple[int, ...]]] = {}
        for s in self.simplices:
            out.setdefault(len(s) - 1, []).append(tuple(sorted(s)))
        for lst in out.values():
            lst.sort()
        return out


def triangulate(c: PrevarietyComplex, members) -> SimplicialComplex:
    """Order complex of the face poset on the cells ``members`` (indices
    into ``c.cells``): the barycentric subdivision.

    The members are bounded modulo lineality (``PrevarietyComplex.retract``),
    and their faces among each other come from ``c.faces``.  A maximal chain
    runs from a member that is no other member's face down covering
    relations to a member without faces; its vertices are cell indices.
    """
    inside = set(members)
    below = {a: {b for b in c.faces[a] if b != a and b in inside} for a in inside}
    covers = {a: [b for b in bs if not any(b in below[x] for x in bs)] for a, bs in below.items()}
    maximal: list[tuple[int, ...]] = []

    def descend(chain: tuple[int, ...]):
        if not covers[chain[-1]]:
            maximal.append(chain)
        for b in covers[chain[-1]]:
            descend(chain + (b,))

    faces_of_others = set().union(*below.values())
    for a in inside - faces_of_others:
        descend((a,))
    return SimplicialComplex.from_maximal(maximal)


def betti(sc: SimplicialComplex) -> BettiVector:
    """b_nu = #nu-simplices - rank d_nu - rank d_{nu+1}, over the rationals."""
    if not sc.simplices:
        return BettiVector.make([])
    by_dim = sc.by_dim()
    top = max(by_dim)
    index = {d: {s: i for i, s in enumerate(by_dim[d])} for d in by_dim}
    ranks = {0: 0}
    for d in range(1, top + 1):
        rows = []
        lower = index[d - 1]
        for s in by_dim[d]:
            row = [0] * len(lower)
            for omit in range(len(s)):
                face = s[:omit] + s[omit + 1 :]
                row[lower[face]] = (-1) ** omit
            rows.append(row)
        ranks[d] = linalg.rank(rows)
    ranks[top + 1] = 0
    return BettiVector.make(
        [len(by_dim.get(d, [])) - ranks.get(d, 0) - ranks.get(d + 1, 0) for d in range(top + 1)]
    )


def betti_of_complex(c: PrevarietyComplex) -> BettiVector:
    retract_by_component: dict[int, list[int]] = {}
    for i, (label, retract) in enumerate(zip(c.component_labels, c.retract)):
        if retract:
            retract_by_component.setdefault(label, []).append(i)
    total = BettiVector.make([])
    for members in retract_by_component.values():
        total = total + betti(triangulate(c, members))
    return total
