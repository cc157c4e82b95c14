from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbetti.exactgeom import DimensionMismatch
from tropbetti.tropical import (
    LaurentError,
    LinForm,
    TropPoly,
    TropSystem,
    degree,
    eval_poly,
    make_coeffs_nonneg,
    trop_mul,
)

from oracles import drop_dominated, formal_product, is_zero, minkowski_sum, newton_polytope, univariate_zeros

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def poly(*mons):
    return TropPoly([LinForm.make(a, b) for a, b in mons])


def polys(n, laurent=False, max_m=4, coeff_bound=3):
    lo = -coeff_bound if laurent else 0
    mon = st.tuples(
        st.tuples(*[st.integers(min_value=lo, max_value=coeff_bound)] * n), rationals
    )
    return st.lists(mon, min_size=1, max_size=max_m, unique=True).map(
        lambda ms: TropPoly([LinForm.make(a, b) for a, b in ms])
    )


def points(n):
    return st.tuples(*[rationals] * n)


LINE = poly(((1, 0), 0), ((0, 1), 0), ((0, 0), 0))


def test_eval_examples():
    f = poly(((1,), 0), ((0,), 0))  # min(x, 0)
    value, argmin = eval_poly(f, (3,))
    assert value == 0 and argmin == {0}  # constant monomial sorts first
    value, argmin = eval_poly(LINE, (0, 0))
    assert value == 0 and argmin == {0, 1, 2}
    g = poly(((2,), 1), ((1,), 0))  # min(2x+1, x)
    value, argmin = eval_poly(g, (-1,))
    assert value == -1 and len(argmin) == 2


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_poly(LINE, (0,))


def test_degree_examples():
    assert degree(poly(((2, 3), 1), ((0, 0), 5))) == 5
    assert degree(poly(((0,), 0))) == 0
    assert degree(LINE) == 1
    with pytest.raises(LaurentError):
        degree(poly(((-1,), 0)))


def test_is_zero_examples():
    f = poly(((1,), 0), ((0,), 0))
    assert is_zero(f, (0,))
    assert not is_zero(f, (1,))
    assert not is_zero(poly(((1,), 2)), (5,))


def test_linform_orders_and_hashes_as_its_pair():
    """So a polynomial's monomial order and its set iteration are those of
    the (a, b) pairs."""
    pairs = [((1, 0), Fraction(2)), ((0, 1), Fraction(5)), ((0, 1), Fraction(-1, 2)), ((0, 0), Fraction(3))]
    forms = [LinForm.make(a, b) for a, b in pairs]
    assert [hash(f) for f in forms] == [hash(p) for p in pairs]
    assert [(f.a, f.b) for f in sorted(forms)] == sorted(pairs)
    assert [(f.a, f.b) for f in set(forms)] == list(set(pairs))
    assert [(m.a, m.b) for m in TropPoly(forms).monomials] == sorted(pairs)
    assert LinForm.make((1, 0), 2) < LinForm.make((1, 0), 3) < LinForm.make((1, 1), -9)
    assert repr(forms[0]) == "LinForm(a=(1, 0), b=Fraction(2, 1))"


def test_duplicate_monomials_removed():
    f = TropPoly([LinForm.make((1,), 0), LinForm.make((1,), 0)])
    assert f.m == 1
    assert not is_zero(f, (7,))


def test_newton_polytope_examples():
    assert set(newton_polytope(LINE).vertices) == {(1, 0), (0, 1), (0, 0)}
    seg = newton_polytope(poly(((2,), 0), ((1,), 1), ((0,), 3)))
    assert set(seg.vertices) == {(0,), (2,)}
    assert newton_polytope(poly(((0,), 5))).vertices == ((0,),)


def test_trop_mul_examples():
    fx = poly(((1, 0), 0), ((0, 0), 0))
    fy = poly(((0, 1), 0), ((0, 0), 0))
    prod = trop_mul(fx, fy)
    assert set((m.a, m.b) for m in prod.monomials) == {
        ((1, 1), 0),
        ((1, 0), 0),
        ((0, 1), 0),
        ((0, 0), 0),
    }
    unit = poly(((0, 0), 0))
    assert trop_mul(fx, unit) == fx
    assert is_zero(prod, (0, 5))
    assert not is_zero(prod, (1, 1))
    # x y arises twice, with the constants 1 and 6; only 1 can attain the minimum
    prod = trop_mul(poly(((1, 0), 0), ((0, 1), 4)), poly(((0, 1), 1), ((1, 0), 2)))
    assert set((m.a, m.b) for m in prod.monomials) == {((1, 1), 1), ((2, 0), 2), ((0, 2), 5)}


@given(polys(2, max_m=3), polys(2, max_m=3), points(2))
@settings(deadline=None, max_examples=80)
def test_trop_mul_zero_set_is_union(f, g, x):
    assert is_zero(trop_mul(f, g), x) == (is_zero(f, x) or is_zero(g, x))


@given(polys(2, laurent=True, max_m=4), polys(2, laurent=True, max_m=4))
@settings(deadline=None, max_examples=80)
def test_trop_mul_is_the_formal_product_without_dominated_monomials(f, g):
    assert trop_mul(f, g) == drop_dominated(formal_product(f, g))


@given(polys(2, max_m=3), polys(2, max_m=3))
@settings(deadline=None, max_examples=40)
def test_trop_mul_newton_polytope_is_minkowski_sum(f, g):
    assert newton_polytope(trop_mul(f, g)) == minkowski_sum(
        newton_polytope(f), newton_polytope(g)
    )


def test_make_coeffs_nonneg_examples():
    f = poly(((-1,), 0), ((0,), 0))
    g = make_coeffs_nonneg(f)
    assert not g.laurent
    assert set((m.a, m.b) for m in g.monomials) == {((0,), 0), ((1,), 0)}
    h = make_coeffs_nonneg(poly(((-1, 1), 0), ((-2, 0), 0), ((0, 0), 1)))
    assert set((m.a, m.b) for m in h.monomials) == {((1, 1), 0), ((0, 0), 0), ((2, 0), 1)}
    assert make_coeffs_nonneg(LINE) == LINE


@given(polys(2, laurent=True, max_m=3), points(2))
@settings(deadline=None, max_examples=80)
def test_make_coeffs_nonneg_preserves_argmin(f, x):
    # the same shift is added to every monomial, so indexing is preserved
    _, before = eval_poly(f, x)
    _, after = eval_poly(make_coeffs_nonneg(f), x)
    assert before == after


@given(polys(1, max_m=4), points(1))
@settings(deadline=None, max_examples=80)
def test_constant_shift_preserves_zeros(f, x):
    shifted = TropPoly([LinForm.make(m.a, m.b + Fraction(7, 3)) for m in f.monomials])
    assert is_zero(f, x) == is_zero(shifted, x)


@given(polys(2, max_m=4), points(2))
@settings(deadline=None, max_examples=80)
def test_drop_dominated_preserves_zeros(f, x):
    assert is_zero(f, x) == is_zero(drop_dominated(f), x)


def test_univariate_zero_oracle():
    f = poly(((2,), 0), ((1,), 1), ((0,), 3))
    assert univariate_zeros(f) == [1, 2]
    assert is_zero(f, (1,)) and is_zero(f, (2,))


def test_system_validation():
    with pytest.raises(ValueError):
        TropSystem(2, [])
    with pytest.raises(DimensionMismatch):
        TropSystem(1, [LINE])
    s = TropSystem(2, [LINE])
    assert s.k == 1 and s.max_monomials == 3
