"""Exact feasibility of linear systems by Fourier–Motzkin elimination.

``feasible_point`` decides whether rows a.x = b, a.x >= b and a.x > b
have a common rational point, and returns one.  The equalities are solved
first; the inequalities are rewritten in coordinates y of their solution
set's kernel, and each strict row a.x > b becomes a.x - t >= b with one
extra variable t <= 1 that must end positive (Schrijver, *Theory of
Linear and Integer Programming*, 1986, §12.2).  The y are eliminated from
last to first.  Each derived row keeps its history, the set of input rows
it sums, and after s eliminations a row whose history has more than s + 1
members is redundant and dropped (Chernikov's rule; Imbert, "Fourier's
elimination: which to choose?", 1993).  Rows are kept once per (row,
history): two equal rows with different histories are both kept.  The
point is read back with the largest allowed t and each y at the midpoint
of its bounds (one past a lone bound, 0 with none), and is checked
against every input row.

Its callers are ``check --oracle``'s sign-vector brute force and the
``HPolyhedron`` predicates, of which ``realize`` uses the affine hull;
face enumeration, the cells, the dual route and the Betti numbers decide
no feasibility.  The work grows exponentially with the dimension, and
every such system here has at most a few coordinates.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import linalg
from .linalg import InvariantError

_HOLDS = (("=", operator.eq), (">=", operator.ge), (">", operator.gt))


def feasible_point(n, eqs=(), ineqs=(), stricts=()):
    """A point x in Q^n with a.x = b on ``eqs``, a.x >= b on ``ineqs`` and
    a.x > b on ``stricts``, rows (a, b), or None when there is none."""
    x = _solve(n, eqs, ineqs, stricts)
    if x is not None:
        for rows, (op, holds) in zip((eqs, ineqs, stricts), _HOLDS):
            for a, b in rows:
                if not holds(linalg.dot(a, x), b):
                    point = ", ".join(map(str, x))
                    raise InvariantError("feasible_point", f"({point}) breaks the row {tuple(a)} . x {op} {b}")
    return x


def _solve(n, eqs, ineqs, stricts):
    red, pivots = linalg.reduced_echelon(linalg.integral_rows([(*a, b) for a, b in eqs]))
    if n in pivots:
        return None
    base, denom, dirs = linalg.solution_and_kernel(red, pivots, n)
    m = len(dirs)
    # x = base / denom + sum_j y_j dirs[j]; over z = (t, y_1, ..., y_m) a
    # row (c, d) reads c.z >= d, and the strict row 0 > -1 caps t at 1
    rows = set()
    for k, (t, (a, b)) in enumerate([(0, r) for r in ineqs] + [(-1, r) for r in (*stricts, ((0,) * n, -1))]):
        c = [linalg.dot(a, u) for u in dirs] + [b - Fraction(linalg.dot(a, base), denom)]
        if not _keep((t, *linalg.integral_rows([c])[0]), 1 << k, rows):
            return None
    stages = []
    for j in range(m, 0, -1):
        pos = [(r, h) for r, h in rows if r[j] > 0]
        neg = [(r, h) for r, h in rows if r[j] < 0]
        rows = {(r, h) for r, h in rows if r[j] == 0}
        stages.append((j, pos, neg))
        for p, hp in pos:
            for q, hq in neg:
                h = hp | hq
                if h.bit_count() <= m - j + 2:
                    c = [-q[j] * x + p[j] * y for x, y in zip(p, q)]
                    if not _keep(c, h, rows):
                        return None
    t = min(Fraction(r[-1], r[0]) for r, _ in rows)
    if t <= 0:
        return None
    z = [t] + [Fraction(0)] * m
    for j, pos, neg in reversed(stages):
        lo = max((_bound(r, j, z) for r, _ in pos), default=None)
        hi = min((_bound(r, j, z) for r, _ in neg), default=None)
        if lo is not None and hi is not None:
            z[j] = (lo + hi) / 2
        elif lo is not None:
            z[j] = lo + 1
        elif hi is not None:
            z[j] = hi - 1
    return tuple(Fraction(x, denom) + sum(z[j + 1] * u[i] for j, u in enumerate(dirs)) for i, x in enumerate(base))


def _keep(row, history, rows) -> bool:
    """Add the row c.z >= d to ``rows`` unless it has no variable left;
    False when such a row, 0 >= d, fails."""
    if not any(row[:-1]):
        return row[-1] <= 0
    rows.add((linalg.primitive(row), history))
    return True


def _bound(row, j, z) -> Fraction:
    """The bound on z_j that a row c.z >= d with c_j != 0 and no entry past
    j sets, given z_0, ..., z_(j-1)."""
    return (row[-1] - sum(c * x for c, x in zip(row[:j], z))) / row[j]
