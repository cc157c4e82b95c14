"""Exact Betti numbers of a prevariety.

A connected component is L x (its slice by L-perp), L the lineality space
of its cells, and the slice retracts onto the cells bounded modulo L, which
``PrevarietyComplex.retract`` reads from the face poset; no polyhedron is
built here.  The retract of all components together is triangulated once,
as the order complex of the complex's face relation ``faces``, and homology
ranks come from exact rational ranks.  The Euler characteristic, counted
on the cells themselves, checks the chains and the ranks.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .linalg import InvariantError
from .prevariety import PrevarietyComplex


class BettiVector:
    """b_0..b_dim with trailing zeros trimmed; empty space -> ().

    ``v[i]`` past the end is 0; a BettiVector equals only a BettiVector.
    """

    __slots__ = ("b",)

    def __init__(self, b: tuple[int, ...]):
        self.b = b

    def __eq__(self, other):
        return self.b == other.b if isinstance(other, BettiVector) else NotImplemented

    def __hash__(self):
        return hash((self.b,))

    def __repr__(self):
        return f"BettiVector(b={self.b!r})"

    @classmethod
    def make(cls, values) -> "BettiVector":
        vals = list(values)
        while vals and vals[-1] == 0:
            vals.pop()
        return cls(tuple(int(v) for v in vals))

    @property
    def total(self) -> int:
        return sum(self.b)

    def __getitem__(self, i: int) -> int:
        return self.b[i] if i < len(self.b) else 0


class SimplicialComplex(namedtuple("SimplicialComplex", "vertices simplices")):
    """Abstract simplicial complex: a tuple of vertices and a frozenset of
    downward-closed vertex frozensets."""

    __slots__ = ()

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

    Its simplices are the chains of cells under the face relation
    ``c.faces``.  Strict pattern containment is transitive, so each chain is
    listed exactly once by descending from its largest cell through the
    faces among the members.
    """
    inside = set(members)
    chains: list[frozenset[int]] = []

    def descend(chain: tuple[int, ...]):
        chains.append(frozenset(chain))
        for b in c.faces[chain[-1]][1:]:
            if b in inside:
                descend(chain + (b,))

    for a in inside:
        descend((a,))
    return SimplicialComplex(tuple(sorted(inside)), frozenset(chains))


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
    """Betti numbers of the whole retract.  Components share no chain, so
    one order complex over all of them gives the summed boundary ranks.

    The retract is a regular cell complex whose cells, modulo lineality,
    have dimension dim - lineality, so by Euler-Poincare the alternating
    sum of the Betti numbers is the alternating count of those cells; a
    mismatch raises ``InvariantError``.
    """
    members = [i for i, keep in enumerate(c.retract) if keep]
    b = betti(triangulate(c, members))
    chi = sum((-1) ** (c.cells[i].dim - c.lineality[i]) for i in members)
    if sum((-1) ** i * bi for i, bi in enumerate(b.b)) != chi:
        raise InvariantError("betti_of_complex", f"Betti numbers {b.b} miss the Euler characteristic {chi}")
    return b
