import random
from fractions import Fraction

import pytest

from tropbetti.corpus import random_complex
from tropbetti.exactgeom import HPolyhedron
from tropbetti.prevariety import cells_via_arrangement
from tropbetti.realize import (
    MAX_COMPLEX_MEMBERS,
    ComplexDescription,
    complex_prevariety,
    gen_grid_example,
    halfspace_prevariety,
    polyhedron_prevariety,
    union_prevarieties,
)
from tropbetti.topology import betti_of_complex

from oracles import is_system_zero, univariate_zeros


F = Fraction


def test_halfspace_examples():
    # A = {y = 0}, L = x: the half-line {y = 0, x >= 0}
    s = halfspace_prevariety(2, [((0, 1), 0)], ((1, 0), 0))
    assert s.k == 2
    assert is_system_zero(s, (F(2), F(0)))
    assert not is_system_zero(s, (F(-1), F(0)))
    assert not is_system_zero(s, (F(0), F(1)))


def test_halfspace_point_on_line():
    s = halfspace_prevariety(1, [((1,), 0)])
    assert is_system_zero(s, (F(0),))
    assert not is_system_zero(s, (F(1),))


def test_halfspace_diagonal():
    s = halfspace_prevariety(2, [((1, -1), 0)], ((1, 1), 0))
    for x in [(F(1), F(1)), (F(0), F(0))]:
        assert is_system_zero(s, x)
    for x in [(F(-1), F(-1)), (F(1), F(2))]:
        assert not is_system_zero(s, x)


def test_halfspace_requires_equation():
    with pytest.raises(ValueError):
        halfspace_prevariety(2, [])


def test_polyhedron_segment():
    seg = HPolyhedron(2, [((0, 1), 0)], [((1, 0), 0), ((-1, 0), -1)])
    s = polyhedron_prevariety(seg)
    assert is_system_zero(s, (F(1, 2), F(0)))
    assert is_system_zero(s, (F(0), F(0)))
    assert not is_system_zero(s, (F(2), F(0)))
    assert not is_system_zero(s, (F(1, 2), F(1, 2)))


def test_polyhedron_single_point():
    pt = HPolyhedron(2, [((1, 0), 0), ((0, 1), 0)], [])
    s = polyhedron_prevariety(pt)
    assert is_system_zero(s, (F(0), F(0)))
    assert not is_system_zero(s, (F(0), F(1)))


def test_polyhedron_line_without_inequalities():
    line = HPolyhedron(2, [((1, 0), 0)], [])
    s = polyhedron_prevariety(line)
    assert is_system_zero(s, (F(0), F(17)))
    assert not is_system_zero(s, (F(1), F(0)))


def test_polyhedron_full_dimensional_rejected():
    with pytest.raises(ValueError):
        polyhedron_prevariety(HPolyhedron(2, [], [((1, 0), 0)]))


def test_union_cross():
    a = polyhedron_prevariety(HPolyhedron(2, [((1, 0), 0)], []))
    b = polyhedron_prevariety(HPolyhedron(2, [((0, 1), 0)], []))
    u = union_prevarieties(a, b)
    assert u.k == 1
    assert {(m.a, m.b) for m in u.polys[0].monomials} == {
        ((1, 1), 0),
        ((1, 0), 0),
        ((0, 1), 0),
        ((0, 0), 0),
    }
    for x, inside in [((0, 5), True), ((3, 0), True), ((1, 1), False)]:
        assert is_system_zero(u, (F(x[0]), F(x[1]))) == inside


def test_union_membership_is_disjunction():
    rng = random.Random(59)
    a = polyhedron_prevariety(HPolyhedron(2, [((1, -1), 0)], []))
    b = polyhedron_prevariety(HPolyhedron(2, [((1, 1), 2)], [((0, 1), 0)]))
    u = union_prevarieties(a, b)
    for _ in range(200):
        x = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(2))
        assert is_system_zero(u, x) == (is_system_zero(a, x) or is_system_zero(b, x))
    uu = union_prevarieties(a, a)
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(2))
        assert is_system_zero(uu, x) == is_system_zero(a, x)


def test_union_with_empty_zero_set():
    a = polyhedron_prevariety(HPolyhedron(2, [((1, 0), 0)], []))
    no_zeros = complex_prevariety(ComplexDescription.make(2, []))
    u = union_prevarieties(a, no_zeros)
    rng = random.Random(61)
    for _ in range(100):
        x = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(2))
        assert is_system_zero(u, x) == is_system_zero(a, x)


def test_complex_prevariety_two_points_and_segment():
    p1 = HPolyhedron(1, [((1,), 0)], [])
    p2 = HPolyhedron(1, [((1,), 5)], [])
    s = complex_prevariety(ComplexDescription.make(1, [p1, p2]))
    assert betti_of_complex(cells_via_arrangement(s)).b == (2,)
    seg = HPolyhedron(2, [((0, 1), 0)], [((1, 0), 0), ((-1, 0), -1)])
    s = complex_prevariety(ComplexDescription.make(2, [seg]))
    assert betti_of_complex(cells_via_arrangement(s)).b == (1,)


def test_complex_prevariety_cap():
    pts = [HPolyhedron(1, [((1,), i)], []) for i in range(MAX_COMPLEX_MEMBERS + 1)]
    with pytest.raises(ValueError):
        complex_prevariety(ComplexDescription.make(1, pts))


def test_grid_example_univariate_zeros():
    f = gen_grid_example(1, 2).polys[0]
    assert univariate_zeros(f) == [1, 3]
    f = gen_grid_example(1, 1).polys[0]
    assert univariate_zeros(f) == [1]
    f = gen_grid_example(1, 4).polys[0]
    assert univariate_zeros(f) == [1, 3, 5, 7]


def test_grid_example_cell_counts():
    comp = cells_via_arrangement(gen_grid_example(2, 2))
    assert len(comp.cells) == 4
    assert all(c.dim == 0 for c in comp.cells)
    assert betti_of_complex(cells_via_arrangement(gen_grid_example(2, 2))).total == 4


def test_grid_example_validation():
    with pytest.raises(ValueError):
        gen_grid_example(0, 2)
    with pytest.raises(ValueError):
        gen_grid_example(1, 0)


def test_random_complex_roundtrip_membership():
    rng = random.Random(67)
    corpus_rng = random.Random(67)
    for c in [random_complex(corpus_rng, max_members=2) for _ in range(5)]:
        s = complex_prevariety(c)
        for _ in range(100):
            x = tuple(
                Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(c.n)
            )
            want = any(p.contains(x) for p in c.polyhedra)
            assert is_system_zero(s, x) == want
        # anchor-style points on each member must be in the prevariety
        for p in c.polyhedra:
            w = p.relative_interior_point()
            if w is not None:
                assert is_system_zero(s, w)
