"""Exact rational linear algebra helpers.

Everything here works on tuples/lists of ``fractions.Fraction`` (or ints)
and never touches floating point.  Matrices are lists of row vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]


def fvec(v) -> Vec:
    return tuple(Fraction(x) for x in v)


def dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a):
    c = Fraction(c)
    return tuple(c * x for x in a)


def is_zero_vec(v) -> bool:
    return all(x == 0 for x in v)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Zero rows are dropped.  Input rows are not mutated.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    if not rows:
        return 0
    return len(rref([list(r) for r in rows])[0])


def solve(a_rows, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not a_rows:
        return ()
    n = len(a_rows[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a_rows, b)]
    red, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        x[p] = row[n]
    return tuple(x)


def nullspace(a_rows, n: int) -> list[Vec]:
    """Basis of {x in Q^n : A x = 0}."""
    if not a_rows:
        return [tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)]
    red, pivots = rref([list(r) for r in a_rows])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def primitive(v, allow_flip: bool = False) -> tuple[tuple[int, ...], Fraction]:
    """Scale a rational vector to a coprime integer vector.

    Returns (w, c) with w = c*v, c > 0 (or c < 0 if allow_flip and the first
    nonzero entry of v scaled positively would be negative).  Zero vectors
    return (0-vector, 1).
    """
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr), Fraction(1)
    (ints,), den = _over_common_denominator([fr])
    g = gcd(*ints)
    ints = [x // g for x in ints]
    c = Fraction(den, g)
    if allow_flip:
        lead = next(x for x in ints if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
            c = -c
    return tuple(ints), c


def _over_common_denominator(rows) -> tuple[list[tuple[int, ...]], int]:
    """Rational rows as (integer rows, d): the rows times one positive d.

    Package-internal: arrangement and exactgeom use it to move rational
    data into integer arithmetic.
    """
    d = lcm(*(x.denominator for row in rows for x in row))
    return [tuple(x.numerator * (d // x.denominator) for x in row) for row in rows], d
