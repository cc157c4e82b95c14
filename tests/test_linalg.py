import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tropbetti import linalg

from oracles import rational_rank

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=1, max_size=4
    )
)


@given(matrices)
@settings(deadline=None)
def test_rank_matches_sympy(rows):
    assert linalg.rank(rows) == rational_rank(rows)


@given(matrices)
@settings(deadline=None)
def test_rref_rows_span_and_pivots(rows):
    red, pivots = linalg.rref(rows)
    assert len(red) == len(pivots) == linalg.rank(rows)
    for row, p in zip(red, pivots):
        assert row[p] == 1
        # pivot column is zero in every other row
        assert all(other[p] == 0 for other in red if other is not row)


@given(matrices, st.data())
@settings(deadline=None)
def test_solve_satisfies_system(rows, data):
    n = len(rows[0])
    b = data.draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
    x = linalg.solve(rows, b)
    if x is None:
        assert rational_rank([list(r) + [v] for r, v in zip(rows, b)]) > rational_rank(rows)
    else:
        assert all(linalg.dot(row, x) == rhs for row, rhs in zip(rows, b))


@given(matrices)
@settings(deadline=None)
def test_nullspace_dimension_and_membership(rows):
    n = len(rows[0])
    basis = linalg.nullspace(rows, n)
    assert len(basis) == n - linalg.rank(rows)
    for v in basis:
        assert all(linalg.dot(row, v) == 0 for row in rows)
    assert linalg.rank(basis) == len(basis)


@given(st.lists(rationals, min_size=1, max_size=5))
def test_primitive_properties(v):
    w, c = linalg.primitive(v)
    if all(x == 0 for x in v):
        assert w == tuple(0 for _ in v) and c == 1
        return
    assert c > 0
    assert w == tuple(c * Fraction(x) for x in v)
    from math import gcd

    g = 0
    for x in w:
        g = gcd(g, abs(x))
    assert g == 1


@given(st.lists(rationals, min_size=1, max_size=5))
def test_primitive_flip_sign(v):
    w, c = linalg.primitive(v, allow_flip=True)
    nz = [x for x in w if x != 0]
    if nz:
        assert nz[0] > 0
    assert w == tuple(c * Fraction(x) for x in v)


@given(matrices)
def test_over_common_denominator(rows):
    ints, d = linalg._over_common_denominator(rows)
    assert d > 0
    assert [[Fraction(x, d) for x in row] for row in ints] == [[Fraction(x) for x in row] for row in rows]
    # no smaller denominator will do: d/g would, for any common factor g
    assert math.gcd(d, *(x for row in ints for x in row)) == 1
