import math
from fractions import Fraction

import sympy
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
int_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n), min_size=1, max_size=5
    )
)


def _sympy_rref(rows):
    red, pivots = sympy.Matrix(rows).rref()
    return [[Fraction(str(x)) for x in red[i, :]] for i in range(len(pivots))], list(pivots)


@given(matrices)
@settings(deadline=None)
def test_rank_matches_sympy(rows):
    assert linalg.rank(rows) == rational_rank(rows)


@given(int_matrices)
@settings(deadline=None)
def test_reduced_rows_are_the_primitive_rational_rref(rows):
    red, pivots = linalg.reduced_echelon(rows)
    want, want_pivots = _sympy_rref(rows)
    assert list(pivots) == want_pivots
    for row, p, ref in zip(red, pivots, want):
        assert row[p] > 0 and math.gcd(*row) == 1
        # a positive multiple of the rational reduced row (whose pivot is 1)
        assert [Fraction(x, row[p]) for x in row] == ref
        assert all(other[p] == 0 for other in red if other is not row)


@given(int_matrices, st.randoms(use_true_random=False), st.data())
@settings(deadline=None)
def test_reduced_rows_depend_only_on_the_span(rows, rng, data):
    """A shuffled, positively rescaled spanning set, with a combination of
    its rows added, has the identical reduced rows."""
    other = [[c * x for x in row] for row in rows for c in [data.draw(st.integers(1, 4))]]
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    other.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(len(rows[0]))])
    rng.shuffle(other)
    assert linalg.reduced_echelon(other) == linalg.reduced_echelon(rows)


@given(int_matrices)
@settings(deadline=None)
def test_echelon_pivots_and_eliminate(rows):
    ech, pivots = linalg.echelon(rows)
    red, red_pivots = linalg.reduced_echelon(rows)
    assert sorted(pivots) == list(red_pivots) and len(ech) == rational_rank(rows)
    for row, p in zip(ech, pivots):
        assert row[p] != 0 and not any(row[:p]) and math.gcd(*row) == 1
    # every input row is eliminated to zero; a vector outside the span is not
    assert all(not any(linalg.eliminate(row, ech, pivots)) for row in rows)
    n = len(rows[0])
    for c in range(n):
        unit = [int(i == c) for i in range(n)]
        inside = rational_rank(rows + [unit]) == len(ech)
        assert inside == (not any(linalg.eliminate(unit, ech, pivots)))


@given(int_matrices, st.data())
@settings(deadline=None)
def test_solution_and_kernel(rows, data):
    n = len(rows[0])
    b = data.draw(st.lists(st.integers(-6, 6), min_size=len(rows), max_size=len(rows)))
    red, pivots = linalg.reduced_echelon([list(row) + [v] for row, v in zip(rows, b)])
    if n in pivots:
        assert rational_rank([list(r) + [v] for r, v in zip(rows, b)]) > rational_rank(rows)
        return
    base, denom, dirs = linalg.solution_and_kernel(red, pivots, n)
    assert denom > 0
    assert all(linalg.dot(row, base) == v * denom for row, v in zip(rows, b))
    assert len(dirs) == n - rational_rank(rows) and rational_rank(dirs or [[0] * n]) == len(dirs)
    for u in dirs:
        assert math.gcd(*u) == 1 and all(linalg.dot(row, u) == 0 for row in rows)


@given(matrices, st.data())
@settings(deadline=None)
def test_solve_satisfies_system(rows, data):
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
    # one vector per free column: 1 there, 0 in the other free columns
    free = [next(c for c, x in reversed(list(enumerate(v))) if x) for v in basis]
    assert all(v[f] == 1 for v, f in zip(basis, free))
    assert all(basis[i][f] == 0 for i in range(len(basis)) for j, f in enumerate(free) if i != j)


@given(st.lists(st.integers(-30, 30), min_size=1, max_size=5).filter(any))
def test_primitive_properties(v):
    w = linalg.primitive(v)
    assert math.gcd(*w) == 1
    q = next(i for i, x in enumerate(v) if x)
    c = Fraction(w[q], v[q])
    assert c > 0 and w == tuple(c * x for x in v)


@given(matrices)
def test_over_common_denominator(rows):
    ints, d = linalg.over_common_denominator(rows)
    assert d > 0
    assert [[Fraction(x, d) for x in row] for row in ints] == [[Fraction(x) for x in row] for row in rows]
    # no smaller denominator will do: d/g would, for any common factor g
    assert math.gcd(d, *(x for row in ints for x in row)) == 1


@given(st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_det_matches_sympy(rows):
    want = sympy.Matrix(rows).det() if rows else 1
    assert linalg.det(rows) == want

