"""Exact rational linear algebra helpers.

Everything here works on tuples/lists of ``fractions.Fraction`` (or ints)
and never touches floating point.  Matrices are lists of row vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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


def _gcd_all(xs) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


def primitive(v, allow_flip: bool = False) -> tuple[tuple[int, ...], Fraction]:
    """Scale a rational vector to a coprime integer vector.

    Returns (w, c) with w = c*v, c > 0 (or c < 0 if allow_flip and the first
    nonzero entry of v scaled positively would be negative).  Zero vectors
    return (0-vector, 1).
    """
    fr = [Fraction(x) for x in v]
    if all(x == 0 for x in fr):
        return tuple(0 for _ in fr), Fraction(1)
    den_lcm = 1
    for x in fr:
        den_lcm = den_lcm * x.denominator // gcd(den_lcm, x.denominator)
    ints = [int(x * den_lcm) for x in fr]
    g = _gcd_all(ints)
    ints = [x // g for x in ints]
    c = Fraction(den_lcm, g)
    if allow_flip:
        lead = next(x for x in ints if x != 0)
        if lead < 0:
            ints = [-x for x in ints]
            c = -c
    return tuple(ints), c


def integer_kernel(a_rows: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {v in Z^n : A v = 0} (saturated lattice).

    Column-reduction with unimodular operations; A must have integer entries.
    """
    m = [list(map(int, row)) for row in a_rows]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]  # columns of U

    def colop_sub(j_dst, j_src, q, nrows):
        for i in range(nrows):
            m[i][j_dst] -= q * m[i][j_src]
        for i in range(n):
            u[i][j_dst] -= q * u[i][j_src]

    def colswap(j1, j2, nrows):
        for i in range(nrows):
            m[i][j1], m[i][j2] = m[i][j2], m[i][j1]
        for i in range(n):
            u[i][j1], u[i][j2] = u[i][j2], u[i][j1]

    nrows = len(m)
    pivot_cols: set[int] = set()
    next_col = 0
    for r in range(nrows):
        # Euclidean reduction across non-pivot columns in row r.
        while True:
            live = [j for j in range(next_col, n) if m[r][j] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda j: abs(m[r][j]))
            j0 = live[0]
            for j in live[1:]:
                q = m[r][j] // m[r][j0]
                colop_sub(j, j0, q, nrows)
        live = [j for j in range(next_col, n) if m[r][j] != 0]
        if live:
            colswap(next_col, live[0], nrows)
            pivot_cols.add(next_col)
            next_col += 1
    return [tuple(u[i][j] for i in range(n)) for j in range(next_col, n)]


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def gram_det(vectors) -> Fraction:
    g = [[dot(a, b) for b in vectors] for a in vectors]
    return det(g)
