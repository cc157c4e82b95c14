"""Exact Betti numbers of a prevariety.

A connected component is L x (its slice by L-perp), L the lineality space
of its cells, and the slice retracts onto the cells bounded modulo L, which
``PrevarietyComplex.retract`` reads from the face poset; no polyhedron is
built here.  Each component's retract is triangulated as the order complex
of its face poset, and homology ranks come from exact rational ranks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .prevariety import PrevarietyCell, PrevarietyComplex, connected_components


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


def triangulate(cells: list[PrevarietyCell]) -> SimplicialComplex:
    """Order complex of the face poset: the barycentric subdivision.

    The cells are bounded modulo lineality (``PrevarietyComplex.retract``).
    As in ``PrevarietyComplex.incidence``, a cell lies in the closure of
    another exactly when its tie pattern is a proper superset.
    """
    comparable = [
        [a is b or a.pattern < b.pattern or b.pattern < a.pattern for b in cells] for a in cells
    ]
    maximal: list[tuple[int, ...]] = []

    def extend(chain: list[int], candidates: list[int]):
        grew = False
        for v in candidates:
            if all(comparable[v][u] for u in chain):
                extend(chain + [v], [w for w in candidates if w > v])
                grew = True
        if not grew and chain:
            maximal.append(tuple(chain))

    extend([], list(range(len(cells))))
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
    keep = {cell.pattern for cell, retract in zip(c.cells, c.retract) if retract}
    total = BettiVector.make([])
    for component in connected_components(c):
        total = total + betti(triangulate([cell for cell in component if cell.pattern in keep]))
    return total
