"""Exact linear algebra: one division-free integer elimination.

Vectors are tuples or lists; matrices are lists of row vectors.  Nothing
here touches floating point, and all elimination runs on integers:

* ``eliminate`` clears a vector's entries in the pivot columns of rows,
  each step v <- r[p] v - v[p] r (Bareiss's fraction-free step, without
  his exact division).  With r[p] > 0 it scales the rational step's result
  by a positive factor.
* ``echelon`` is an echelon basis built one row at a time; its pivot
  columns, sorted, are those of any echelon form of the row space.
* ``reduce_into`` extends reduced echelon rows by one row.  Every row is
  coprime with a positive pivot, so it is the positive multiple of the
  rational reduced row echelon row that ``primitive`` makes coprime, and
  the rows depend only on the row space, not on the order of the input.
* ``solution_and_kernel`` reads the solution and the kernel of reduced
  rows (A | b) as integers, and ``det`` is Bareiss's determinant.

``rank``, ``solve`` and ``nullspace`` take rational rows: each row is
scaled to integers first, by the least positive factor that does it
(``integral_rows``), which changes neither the row space nor the
solutions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

Vec = tuple[Fraction, ...]


class InvariantError(RuntimeError):
    """An internal invariant broke: a defect in the program, not bad input."""

    def __init__(self, stage: str, invariant: str):
        super().__init__(f"{stage}: {invariant}")


def fvec(v) -> Vec:
    return tuple(Fraction(x) for x in v)


def dot(a, b):
    """Integer for integer vectors, Fraction once an entry is one."""
    return sum(map(operator.mul, a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def is_zero_vec(v) -> bool:
    return all(x == 0 for x in v)


def over_common_denominator(rows) -> tuple[list[tuple[int, ...]], int]:
    """Rational rows as (integer rows, d): the rows times one positive d,
    the least that makes them integral."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return [tuple(x.numerator * (d // x.denominator) for x in row) for row in rows], d


def integral_rows(rows) -> list[tuple[int, ...]]:
    """Each rational row times the least positive integer making it integral."""
    return [over_common_denominator([row])[0][0] for row in rows]


def primitive(v) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else tuple(v)


def eliminate(v, rows, pivots) -> list[int]:
    """v with its entries in the pivot columns cleared by the integer rows,
    without division: v <- r[p] v - v[p] r, row by row."""
    for r, p in zip(rows, pivots):
        if v[p]:
            a, b = r[p], v[p]
            v = [a * x - b * y for x, y in zip(v, r)]
    return v


def echelon(vectors) -> tuple[list[tuple[int, ...]], list[int]]:
    """Echelon basis of the span of integer vectors, as (rows, pivots):
    each vector is eliminated by the rows before it and, if anything is
    left, kept coprime with its first nonzero column as pivot."""
    rows: list[tuple[int, ...]] = []
    pivots: list[int] = []
    for v in vectors:
        w = eliminate(v, rows, pivots)
        p = next((c for c, x in enumerate(w) if x), None)
        if p is not None:
            rows.append(primitive(w))
            pivots.append(p)
    return rows, pivots


def reduce_into(rows, pivots, v):
    """Reduced echelon rows and pivots of span(rows) + v, or None when the
    integer vector v lies in the span.

    ``rows`` are reduced, sorted by pivot, each coprime with a positive
    pivot.  v is reduced against them, scaled to coprime integers with a
    positive pivot and substituted back into the rows before it, which
    keeps all three properties.
    """
    h = eliminate(list(v), rows, pivots)
    q = next((c for c, x in enumerate(h) if x), None)
    if q is None:
        return None
    h = primitive([-x for x in h] if h[q] < 0 else h)
    out_rows, out_pivots = [], []
    for r, p in zip(rows, pivots):
        if q < p and q not in out_pivots:
            out_rows.append(h)
            out_pivots.append(q)
        if r[q]:
            r = primitive(eliminate(r, (h,), (q,)))
        out_rows.append(r)
        out_pivots.append(p)
    if q not in out_pivots:
        out_rows.append(h)
        out_pivots.append(q)
    return tuple(out_rows), tuple(out_pivots)


def reduced_echelon(vectors) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Reduced echelon rows and pivots of the span of integer vectors."""
    rows, pivots = (), ()
    for v in vectors:
        grown = reduce_into(rows, pivots, v)
        if grown is not None:
            rows, pivots = grown
    return rows, pivots


def solution_and_kernel(rows, pivots, n: int):
    """(base, denom, dirs) for reduced echelon rows (A | b) of a consistent
    system in n unknowns (no pivot in column n).

    ``base / denom`` solves A x = b with the free coordinates zero, and
    ``dirs`` holds one coprime integer kernel vector per free column, in
    column order, positive in its free column and zero in the others.
    """
    denom = lcm(*(r[p] for r, p in zip(rows, pivots)))
    base = [0] * n
    for r, p in zip(rows, pivots):
        base[p] = r[n] * (denom // r[p])
    dirs = []
    for f in range(n):
        if f not in pivots:
            u = [0] * n
            u[f] = denom
            for r, p in zip(rows, pivots):
                u[p] = -r[f] * (denom // r[p])
            dirs.append(primitive(u))
    return tuple(base), denom, dirs


def det(rows) -> int:
    """Determinant of a square integer matrix (Bareiss's elimination, with
    its exact division by the previous pivot).

    Up to 3 x 3, the sizes of facet cofactors in up to four dimensions, it
    is expanded directly.
    """
    if len(rows) <= 3:
        if len(rows) < 2:
            return rows[0][0] if rows else 1
        if len(rows) == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def rank(rows) -> int:
    return len(echelon(integral_rows(rows))[0])


def solve(a_rows, b):
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero.
    """
    if not a_rows:
        return ()
    n = len(a_rows[0])
    rows, pivots = reduced_echelon(integral_rows([list(row) + [rhs] for row, rhs in zip(a_rows, b)]))
    if n in pivots:
        return None
    base, denom, _ = solution_and_kernel(rows, pivots, n)
    return tuple(Fraction(x, denom) for x in base)


def nullspace(a_rows, n: int) -> list[Vec]:
    """Basis of {x in Q^n : A x = 0}, one vector per free column f of the
    reduced echelon form, with entry 1 at f and 0 at the other free columns."""
    rows, pivots = reduced_echelon(integral_rows([list(row) + [0] for row in a_rows]))
    _, _, dirs = solution_and_kernel(rows, pivots, n)
    free = [f for f in range(n) if f not in pivots]
    return [tuple(Fraction(x, u[f]) for x in u) for u, f in zip(dirs, free)]
