"""Hypothesis strategies shared by the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from tropbetti.tropical import LinForm, TropPoly, TropSystem

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def small_systems(draw, max_n: int = 3, max_k: int = 3, max_m: int = 3) -> TropSystem:
    """Small systems with exponents in {0, 1, 2}.

    Repeated exponent vectors are frequent, so polynomials with a single
    monomial or with degenerate pairs (equal exponents, distinct
    constants) are common.
    """
    n = draw(st.integers(1, max_n))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    polys = []
    for _ in range(draw(st.integers(1, max_k))):
        mons = draw(st.lists(st.tuples(exponents, rationals), min_size=1, max_size=max_m))
        polys.append(TropPoly([LinForm.make(a, b) for a, b in mons]))
    return TropSystem(n, polys)
