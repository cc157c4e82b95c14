"""Cells of a tropical prevariety, built by two independent routes.

Route 1 (tie patterns): every face of the tie arrangement carries a
constant argmin pattern; the faces whose pattern has at least two entries
per polynomial cover the prevariety, and faces sharing a pattern B are
merged into the single convex, relatively open cell U_B.  Such a face has
a tie in every polynomial, so it lies on a covering flat, and the route
walks those flats keeping only these faces (``enumerate_faces(arr, keep)``).

A pattern is a plain tuple: its (polynomial index, monomial index) pairs
in sorted order, so tuple order, hashing and equality are the patterns'.
Each polynomial's row of it is read in one pass where it is needed.

Patterns are read from sign vectors, not by evaluating monomials: the
monomials are sorted by (a, b), so for j1 < j2 of one polynomial,
sign(m_j2 - m_j1) is the sign of the pair's tie hyperplane, and it is
positive for a pair with equal exponents.

Route 2 (dual subdivision): the lower faces of Q_1 + ... + Q_k, the sum of
the lifted point sets {(a_j, b_j)}, with their decomposition
F = F_1 + ... + F_k, from the integer lower hull (``TropSystem.lifted_hull``);
no arrangement and no feasibility question.  Each lower face comes with a
witness x at which (x, 1) selects it, so its pattern is the argmin pattern
at x.  Tropical faces (a tie in every polynomial) dualize to the closed
cells G(F) of the prevariety, with dim F + dim G(F) = n; ``dual_cell``
checks by exact evaluation that the witness has exactly F's pattern.

The faces of the closure of U_B are the cells whose pattern contains B;
lineality, the retract and each cell's canonical H-representation are read
from that face poset, with no H-polyhedron and no feasibility question.
"""

from __future__ import annotations

from functools import cached_property

from . import arrangement, linalg
from .arrangement import ArrFace, Arrangement
from .exactgeom import CanonicalHRep, canonical_form, lower_faces
from .linalg import InvariantError
from .tropical import TropSystem, eval_poly


def _rows(pattern, k: int) -> list[list[int]]:
    """Each polynomial's monomial indices in a pattern, in increasing order."""
    rows: list[list[int]] = [[] for _ in range(k)]
    for i, j in pattern:
        rows[i].append(j)
    return rows


def _pattern_reader(s: TropSystem, arr: Arrangement):
    """Function from a face's sign vector to its argmin pattern if that is
    a zero pattern (a tie in every polynomial), else to None.

    ``TropPoly`` sorts its monomials by (a, b): for j1 < j2 either a_j1 = a_j2
    and b_j1 < b_j2, or a_j2 - a_j1 has first nonzero entry positive, as
    their tie hyperplane's normal has, so m_j2 - m_j1 is a positive multiple
    of the hyperplane's value and has the face's sign on it.
    """
    # tables[i][j1][j2]: the tie hyperplane of monomials j1 < j2 of
    # polynomial i, or -1 when a_j1 = a_j2, where m_j2 > m_j1 everywhere
    tables = [[[-1] * f.m for _ in range(f.m)] for f in s.polys]
    for h, hp in enumerate(arr.hyperplanes):
        for i, j1, j2 in hp.sources:
            tables[i][j1][j2] = h

    def read(signs) -> tuple[tuple[int, int], ...] | None:
        pairs = []
        for i, hs in enumerate(tables):
            best = [0]
            for j in range(1, len(hs)):
                h = hs[best[0]][j]
                sg = signs[h] if h >= 0 else 1  # the sign of m_j - m_best
                if sg < 0:
                    best = [j]
                elif sg == 0:
                    best.append(j)
            if len(best) < 2:
                return None
            pairs.extend((i, j) for j in best)
        return tuple(pairs)

    return read


class PrevarietyCell:
    """One relatively open cell U_B: its pattern, dimension and a point."""

    def __init__(self, pattern, dim: int, witness):
        self.pattern = pattern
        self.dim = dim
        self.witness = witness

    def __repr__(self):
        return f"PrevarietyCell(dim={self.dim}, pattern={self.pattern})"

    def __eq__(self, other):
        return isinstance(other, PrevarietyCell) and self.pattern == other.pattern

    def __hash__(self):
        return hash(self.pattern)


class PrevarietyComplex:
    """Cells of a prevariety with their closure (face) relation.

    The faces of the closure of U_B are the cells whose pattern contains B
    (``faces[i]``, cell i first).  This is the complex's one relation: the
    components, lineality, retract and H-representations here, and the
    triangulation in ``topology``, are all read from it.  A closure's faces
    share its lineality space, of dimension d: ``lineality[i]`` is the least
    cell dimension in the component, and ``retract[i]`` says if the closure
    is bounded modulo that space, that is, if each of its faces of dimension
    d + 1 (an edge) has two faces of dimension d (its vertices).
    """

    def __init__(self, system: TropSystem, cells):
        self.system = system
        self.cells = tuple(sorted(cells, key=lambda c: c.pattern))
        patterns = [set(c.pattern) for c in self.cells]
        self.faces = tuple(
            [a] + [b for b, pb in enumerate(patterns) if pa < pb] for a, pa in enumerate(patterns)
        )
        self.component_labels = self._label_components()
        low: dict[int, int] = {}
        for cell, label in zip(self.cells, self.component_labels):
            low[label] = min(low.get(label, cell.dim), cell.dim)
        self.lineality = tuple(low[label] for label in self.component_labels)
        rays = set()
        for i, (cell, d) in enumerate(zip(self.cells, self.lineality)):
            if cell.dim == d + 1:
                ends = sum(self.cells[j].dim == d for j in self.faces[i])
                if ends not in (1, 2):
                    raise InvariantError("PrevarietyComplex", f"edge {cell.pattern} has {ends} vertices")
                if ends == 1:
                    rays.add(i)
        self.retract = tuple(rays.isdisjoint(faces) for faces in self.faces)

    def __repr__(self):
        return f"PrevarietyComplex(cells={len(self.cells)})"

    def hrep(self, i: int) -> CanonicalHRep:
        """Canonical H-representation of the closure of cell i, with no
        feasibility question.

        With j0 the least monomial of B in each polynomial p, the closure is
        the set where m_j = m_j0 for (p, j) in B and m_q >= m_j0 otherwise.
        At the witness every m_q is strictly above m_j0, so the ties alone
        cut out the affine hull.  The facets are the faces of dimension
        dim - 1, and a facet has one irredundant inequality modulo the hull
        (Ziegler, *Lectures on Polytopes*): m_q >= m_j0 for any pair (p, q)
        of the facet's pattern outside B, which is tight on the facet.
        """
        cell = self.cells[i]
        ties = set(cell.pattern)
        first = [row[0] for row in _rows(cell.pattern, self.system.k)]

        def row(p, q):
            # m_q >= m_j0 reads <a_q - a_j0, x> >= b_j0 - b_q
            mons = self.system.polys[p].monomials
            m0, mq = mons[first[p]], mons[q]
            return linalg.vsub(mq.a, m0.a), m0.b - mq.b

        eqs = [row(p, q) for p, q in cell.pattern if q != first[p]]
        ineqs = []
        for j in self.faces[i]:
            face = self.cells[j]
            if face.dim == cell.dim - 1:
                ineqs.append(row(*next(pq for pq in face.pattern if pq not in ties)))
        return canonical_form(self.system.n, eqs, ineqs)

    def _label_components(self) -> tuple[int, ...]:
        parent = list(range(len(self.cells)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, faces in enumerate(self.faces):
            for b in faces[1:]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        roots: dict[int, int] = {}
        labels = []
        for i in range(len(self.cells)):
            r = find(i)
            labels.append(roots.setdefault(r, len(roots)))
        return tuple(labels)


def cells_via_arrangement(s: TropSystem) -> PrevarietyComplex:
    """Prevariety cells as merged tie-pattern classes of arrangement faces."""
    arr = s.arrangement
    read = _pattern_reader(s, arr)
    patterns: dict[tuple[int, ...], tuple] = {}  # each kept face's, by sign vector

    def zero(signs) -> bool:
        # a tie in every polynomial: on a covering flat, and closed under
        # taking faces, as the prevariety is closed
        b = read(signs)
        if b is not None:
            patterns[signs] = b
        return b is not None

    top: dict[tuple, ArrFace] = {}  # each pattern's first face of top dimension
    for face in arrangement.enumerate_faces(arr, zero):
        b = patterns[face.signs]
        if b not in top or face.dim > top[b].dim:
            top[b] = face
    return PrevarietyComplex(s, [PrevarietyCell(b, f.dim, f.witness) for b, f in top.items()])


class DualFace:
    """Lower face F = F_1 + ... + F_k of the sum of the lifted point sets.

    Each summand F_i is recorded by the monomial index set selecting it,
    the argmin pattern of (x, 1) at the face's witness slope x.
    """

    def __init__(self, system: TropSystem, pattern, witness):
        self.system = system
        self.pattern = pattern
        self.witness = witness

    def __repr__(self):
        return f"DualFace(dim={self.dim}, tropical={self.tropical})"

    @cached_property
    def parts(self) -> tuple:
        """The lifted points (a_j, b_j) of each summand F_i, built on demand."""
        return tuple(
            tuple((*f.monomials[j].a, f.monomials[j].b) for j in row)
            for f, row in zip(self.system.polys, _rows(self.pattern, self.system.k))
        )

    @cached_property
    def dim(self) -> int:
        diffs = []
        for pts in self.parts:
            base = pts[0]
            diffs.extend(linalg.vsub(p, base) for p in pts[1:])
        return linalg.rank(diffs)

    @property
    def tropical(self) -> bool:
        """At least two tied monomials in every polynomial."""
        return all(len(row) >= 2 for row in _rows(self.pattern, self.system.k))


def dual_subdivision(s: TropSystem) -> list[DualFace]:
    """All lower faces of Q_1 + ... + Q_k, from the system's lifted hull."""
    seen: dict[tuple, DualFace] = {}
    for x, argmins in lower_faces(s.lifted_hull):
        b = tuple((i, j) for i, row in enumerate(argmins) for j in sorted(row))
        if b in seen:
            raise InvariantError("dual_subdivision", f"two lower faces with pattern {b}")
        seen[b] = DualFace(s, b, x)
    return sorted(seen.values(), key=lambda f: f.pattern)


def tropical_faces(subdivision: list[DualFace]) -> list[DualFace]:
    return [f for f in subdivision if f.tropical]


def dual_cell(s: TropSystem, f: DualFace) -> PrevarietyCell:
    """G(F): the closed prevariety cell dual to a tropical face.

    The face's witness must have exactly its pattern, so it lies in the
    relatively open cell U_B.  The functionals (x, 1) that select F are
    those orthogonal to its differences, so dim G(F) = n - dim F.
    """
    if not f.tropical:
        raise ValueError("dual_cell requires a tropical face")
    if any(eval_poly(g, f.witness)[1] != frozenset(row) for g, row in zip(s.polys, _rows(f.pattern, s.k))):
        raise InvariantError("dual_cell", f"witness {f.witness} does not have pattern {f.pattern}")
    return PrevarietyCell(f.pattern, s.n - f.dim, f.witness)


def connected_components(c: PrevarietyComplex) -> list[list[PrevarietyCell]]:
    """Cells grouped by connected component of the support, sorted by pattern
    within and across groups, as the cells and their labels are."""
    groups: dict[int, list[PrevarietyCell]] = {}
    for cell, label in zip(c.cells, c.component_labels):
        groups.setdefault(label, []).append(cell)
    return list(groups.values())
