import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tropbetti.arrangement import enumerate_faces
from tropbetti.corpus import random_system, system_corpus
from tropbetti.exactgeom import EmptyPolyhedronError, HPolyhedron, VPolytope
from tropbetti.prevariety import (
    DualFace,
    _pattern_reader,
    cells_via_arrangement,
    connected_components,
    dual_cell,
    dual_subdivision,
    tropical_faces,
)
from tropbetti.realize import ComplexDescription, complex_prevariety, gen_grid_example
from tropbetti.tropical import LinForm, TropPoly, TropSystem, eval_poly

from oracles import (
    dual_patterns_by_faces,
    face_at,
    is_system_zero,
    make_pattern,
    minkowski_sum,
    pattern_at,
    pattern_closure,
)
from strategies import small_systems

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def poly(*mons):
    return TropPoly([LinForm.make(a, b) for a, b in mons])


# monomials sort as 0 -> index 0, y -> index 1, x -> index 2
LINE = TropSystem(2, [poly(((0, 0), 0), ((0, 1), 0), ((1, 0), 0))])


def _side(eq, ineqs):
    return HPolyhedron(2, [eq], ineqs)


# the boundary of the unit square, acceptance criterion 6's circle
SQUARE = complex_prevariety(
    ComplexDescription.make(
        2,
        [
            _side(((0, 1), 0), [((1, 0), 0), ((-1, 0), -1)]),
            _side(((0, 1), 1), [((1, 0), 0), ((-1, 0), -1)]),
            _side(((1, 0), 0), [((0, 1), 0), ((0, -1), -1)]),
            _side(((1, 0), 1), [((0, 1), 0), ((0, -1), -1)]),
        ],
    )
)


def tie_pattern(s, face):
    """Argmin pattern on the face's relative interior, evaluated at its witness."""
    return pattern_at(s, face.witness)


def cell_closure(s, b) -> set:
    """Patterns of the proper faces of U_B (they partition its boundary)."""
    realized = {tie_pattern(s, face) for face in enumerate_faces(s.arrangement)}
    if b not in realized:
        raise EmptyPolyhedronError("U_B is empty: pattern not realized")
    return {b1 for b1 in realized if set(b) < set(b1)}


def test_tie_pattern_examples():
    arr = LINE.arrangement
    origin = face_at(arr, (0, 0))
    assert tie_pattern(LINE, origin) == ((0, 0), (0, 1), (0, 2))
    ray = face_at(arr, (-1, -1))
    assert tie_pattern(LINE, ray) == ((0, 1), (0, 2))
    sector = face_at(arr, (1, 1))
    assert tie_pattern(LINE, sector) == ((0, 0),)


def test_tie_pattern_zero_predicate():
    """A dual face is tropical when its pattern ties two monomials in every
    polynomial."""
    two = TropSystem(2, [LINE.polys[0], LINE.polys[0]])
    assert DualFace(LINE, make_pattern([(0, 0), (0, 1)]), (0, 0)).tropical
    assert not DualFace(LINE, make_pattern([(0, 0)]), (0, 0)).tropical
    assert not DualFace(two, make_pattern([(0, 0), (0, 1)]), (0, 0)).tropical
    assert not DualFace(two, make_pattern([(0, 0), (0, 1), (1, 2)]), (0, 0)).tropical
    assert DualFace(two, make_pattern([(0, 0), (0, 1), (1, 0), (1, 2)]), (0, 0)).tropical


def test_cells_tropical_line():
    comp = cells_via_arrangement(LINE)
    assert len(comp.cells) == 4
    dims = sorted(c.dim for c in comp.cells)
    assert dims == [0, 1, 1, 1]
    assert len(connected_components(comp)) == 1


def test_cells_single_monomial_empty():
    comp = cells_via_arrangement(TropSystem(2, [poly(((0, 0), 5))]))
    assert len(comp.cells) == 0
    assert connected_components(comp) == []


def test_cells_grid_2x2():
    comp = cells_via_arrangement(gen_grid_example(2, 2))
    assert len(comp.cells) == 4
    assert all(c.dim == 0 for c in comp.cells)
    assert len(connected_components(comp)) == 4


def test_components_univariate_two_zeros():
    comp = cells_via_arrangement(gen_grid_example(1, 2))
    assert len(comp.cells) == 2
    assert len(connected_components(comp)) == 2


def test_pattern_merge_shared_by_several_faces():
    # min(0, y+10, 2y+9, x): the cell {x = 0, y > -1/2}... the tie x = 0
    # spans several arrangement faces (split by the tie of the two
    # non-minimal monomials), but it is a single convex prevariety cell
    s = TropSystem(2, [poly(((0, 0), 0), ((0, 1), 10), ((0, 2), 9), ((1, 0), 0))])
    b = make_pattern([(0, 0), (0, 3)])
    carriers = [f for f in enumerate_faces(s.arrangement) if tie_pattern(s, f) == b]
    assert len(carriers) >= 2
    comp = cells_via_arrangement(s)
    matches = [c for c in comp.cells if c.pattern == b]
    assert len(matches) == 1
    patterns = [c.pattern for c in comp.cells]
    assert len(patterns) == len(set(patterns))


def test_cell_closure_examples():
    ray = make_pattern([(0, 1), (0, 2)])
    assert cell_closure(LINE, ray) == {make_pattern([(0, 0), (0, 1), (0, 2)])}
    origin = make_pattern([(0, 0), (0, 1), (0, 2)])
    assert cell_closure(LINE, origin) == set()
    grid = gen_grid_example(1, 2)
    for cell in cells_via_arrangement(grid).cells:
        assert cell_closure(grid, cell.pattern) == set()


def test_cell_closure_unrealized_pattern_raises():
    s = TropSystem(1, [poly(((0,), 3), ((1,), 1), ((2,), 0))])
    with pytest.raises(EmptyPolyhedronError):
        cell_closure(s, make_pattern([(0, 0), (0, 2)]))


def test_dual_subdivision_tropical_line():
    faces = dual_subdivision(LINE)
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 3, 1: 3, 2: 1}
    trop = tropical_faces(faces)
    assert len(trop) == 4
    assert sorted(f.dim for f in trop) == [1, 1, 1, 2]


def test_dual_subdivision_two_polynomials():
    s = TropSystem(
        2, [poly(((0, 0), 0), ((1, 0), 0)), poly(((0, 0), 0), ((0, 1), 0))]
    )
    faces = dual_subdivision(s)
    assert len(faces) == 9  # unit square: 4 vertices, 4 edges, 1 square
    trop = tropical_faces(faces)
    assert len(trop) == 1 and trop[0].dim == 2
    cell = dual_cell(s, trop[0])
    assert cell.dim == 0
    assert pattern_closure(s, cell.pattern).contains((0, 0))


def test_dual_cell_examples():
    trop = tropical_faces(dual_subdivision(LINE))
    by_pattern = {f.pattern: f for f in trop}
    triangle = by_pattern[((0, 0), (0, 1), (0, 2))]
    assert triangle.dim == 2
    g = dual_cell(LINE, triangle)
    assert g.dim == 0 and pattern_closure(LINE, g.pattern).contains((0, 0))
    edge = by_pattern[((0, 0), (0, 2))]  # monomials 0 and x tie
    cell = dual_cell(LINE, edge)
    expected = HPolyhedron(2, [((1, 0), 0)], [((0, 1), 0)]).canonical()  # ray {x=0, y>=0}
    assert pattern_closure(LINE, cell.pattern).canonical() == expected
    comp = cells_via_arrangement(LINE)
    assert comp.hrep(comp.cells.index(cell)) == expected
    assert edge.dim + cell.dim == 2


def test_dual_cell_requires_tropical():
    vertex = next(f for f in dual_subdivision(LINE) if f.dim == 0)
    with pytest.raises(ValueError):
        dual_cell(LINE, vertex)


def test_dual_total_polytope_decomposition():
    trop = tropical_faces(dual_subdivision(LINE))
    for f in trop:
        # F = F_1 + ... + F_k in lifted space
        total = VPolytope.hull(f.parts[0])
        for pts in f.parts[1:]:
            total = minkowski_sum(total, VPolytope.hull(pts))
        assert total.affine_dim() == f.dim


def test_cross_method_equality_seeded():
    rng = random.Random(33)
    for _ in range(12):
        s = random_system(rng, max_k=2, max_m=3)
        comp = cells_via_arrangement(s)
        duals = [dual_cell(s, f) for f in tropical_faces(dual_subdivision(s))]
        assert {c.pattern for c in comp.cells} == {c.pattern for c in duals}
        by_pattern = {c.pattern: c for c in comp.cells}
        for d in duals:
            assert by_pattern[d.pattern].dim == d.dim
            i = comp.cells.index(d)
            assert comp.hrep(i) == pattern_closure(s, d.pattern).canonical()


# ------------------------------------------ dual route against the arrangement


def assert_dual_routes_agree(s):
    """The lower-hull route equals the patterns read off every arrangement face."""
    got = dual_subdivision(s)
    want = dual_patterns_by_faces(s)
    assert [(f.pattern, f.dim, f.tropical) for f in got] == [(f.pattern, f.dim, f.tropical) for f in want]
    for f in got:
        assert pattern_at(s, f.witness) == f.pattern


def test_dual_routes_agree_on_corpus():
    for s in system_corpus(20260823, 100) + [gen_grid_example(3, 3)]:
        assert_dual_routes_agree(s)


@given(small_systems())
@settings(deadline=None, max_examples=120)
def test_dual_routes_agree_random(s):
    assert_dual_routes_agree(s)


def test_dual_routes_agree_examples():
    # one polynomial with n + 1 or fewer monomials: its lifted points lie in a
    # non-vertical hyperplane, so the whole sum is a lower face
    simplex = TropSystem(3, [poly(((0, 0, 0), 0), ((1, 0, 0), 2), ((0, 1, 0), -1), ((0, 0, 1), 3))])
    pair = TropSystem(3, [poly(((0, 0, 0), 0), ((1, 2, 0), 1))])
    faces = dual_subdivision(simplex)
    assert len(faces) == 15 and max(f.dim for f in faces) == 3
    assert [f.dim for f in dual_subdivision(pair)] == [0, 1, 0]
    univariate = TropSystem(1, [poly(((0,), 3), ((1,), 1), ((2,), 0)), poly(((0,), 0), ((3,), -2))])
    single = TropSystem(2, [poly(((1, 1), 5)), poly(((0, 0), 0), ((1, 0), 1))])
    degenerate = TropSystem(2, [TropPoly([LinForm.make((1, 0), 0), LinForm.make((1, 0), 2), LinForm.make((0, 1), 1)])])
    for s in (simplex, pair, univariate, single, degenerate, LINE):
        assert_dual_routes_agree(s)


def test_sampled_patterns_appear_in_subdivision():
    rng = random.Random(5)
    s = random_system(rng, max_k=2, max_m=3)
    patterns = {f.pattern for f in dual_subdivision(s)}
    for _ in range(200):
        x = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(s.n))
        assert pattern_at(s, x) in patterns


def test_partition_of_prevariety():
    rng = random.Random(17)
    s = random_system(rng, max_k=2, max_m=4)
    comp = cells_via_arrangement(s)
    cell_patterns = {c.pattern for c in comp.cells}
    for _ in range(300):
        x = tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 4)) for _ in range(s.n))
        b = pattern_at(s, x)
        if is_system_zero(s, x):
            assert b in cell_patterns  # x is in the relative interior of one cell
        else:
            assert b not in cell_patterns


def test_phi_v_at_most_phi_a():
    rng = random.Random(23)
    for _ in range(8):
        s = random_system(rng, max_k=2, max_m=3)
        assert len(cells_via_arrangement(s).cells) <= len(enumerate_faces(s.arrangement))


def test_duplicate_polynomial_leaves_cells_unchanged():
    rng = random.Random(29)
    for _ in range(5):
        s = random_system(rng, max_k=2, max_m=3)
        doubled = TropSystem(s.n, list(s.polys) + [s.polys[0]])
        a, b = cells_via_arrangement(s), cells_via_arrangement(doubled)
        assert {a.hrep(i) for i in range(len(a.cells))} == {b.hrep(i) for i in range(len(b.cells))}


def test_closure_lattice_intersection_property():
    comp = cells_via_arrangement(LINE)
    canon = {comp.hrep(i) for i in range(len(comp.cells))}
    closures = [pattern_closure(LINE, c.pattern) for c in comp.cells]
    for i, a in enumerate(closures):
        for b in closures[i + 1 :]:
            meet = a.intersect(b)
            if not meet.is_empty():
                assert meet.canonical() in canon


# ------------------------------------------ H-representations from the poset


# a Laurent polynomial: a point and three rays
LAURENT = TropSystem(
    2, [TropPoly([LinForm.make((-1, 0), 0), LinForm.make((0, 1), 1), LinForm.make((1, -1), -2)])]
)
# rational constants: a bounded edge with rational ends
RATIONAL = TropSystem(
    2, [poly(((0, 0), Fraction(1, 3)), ((1, 0), Fraction(-2, 5)), ((0, 1), Fraction(7, 2)), ((1, 1), Fraction(1, 2)))]
)


def assert_hreps_match_lp(s):
    """Each cell's H-rep read from the face poset equals the LP canonical
    form of its closure written with a row per monomial."""
    comp = cells_via_arrangement(s)
    for i, cell in enumerate(comp.cells):
        assert comp.hrep(i) == pattern_closure(s, cell.pattern).canonical(), cell


@given(small_systems())
# a point cell, the origin of the tropical line, with three rays
@example(LINE)
# the tropical line times a line: every cell has lineality 1
@example(TropSystem(3, [poly(((0, 0, 0), 0), ((0, 1, 0), 0), ((1, 0, 0), 0))]))
@example(LAURENT)
@example(RATIONAL)
@example(SQUARE)
@settings(deadline=None, max_examples=150)
def test_hrep_matches_lp_canonical(s):
    assert_hreps_match_lp(s)


# ------------------------------------------------ patterns from sign vectors


def assert_sign_patterns_match_evaluation(s, faces):
    read = _pattern_reader(s, s.arrangement)
    for face in faces:
        b = pattern_at(s, face.witness)
        assert read(face.signs) == (b if is_system_zero(s, face.witness) else None)


def test_sign_patterns_on_corpus():
    for s in system_corpus(20260823, 40):
        assert_sign_patterns_match_evaluation(s, enumerate_faces(s.arrangement))


@given(small_systems())
@settings(deadline=None, max_examples=80)
def test_sign_patterns_random(s):
    assert_sign_patterns_match_evaluation(s, enumerate_faces(s.arrangement))


def test_pattern_reader_examples():
    """A pair with equal exponents never ties and its larger constant never
    attains the minimum; Laurent exponents sort like any others.  The
    reader gives the zero pattern that ``eval_poly`` finds at every face's
    witness, and None where that is no zero pattern."""
    # monomials sort as 0 -> index 0, y + 2 -> 1, x -> 2, x + 1 -> 3
    degen = TropSystem(2, [poly(((1, 0), 0), ((1, 0), 1), ((0, 1), 2), ((0, 0), 0))])
    laurent = TropSystem(
        2,
        [
            TropPoly([LinForm.make((-1, 0), 0), LinForm.make((0, -2), 1), LinForm.make((1, 1), Fraction(-1, 2))]),
            TropPoly([LinForm.make((0, 0), 0), LinForm.make((-1, 1), 3)]),
        ],
    )
    # five of the six pairs tie; x and x + 1 never do
    assert degen.arrangement.ell == 5
    read = _pattern_reader(degen, degen.arrangement)
    assert read(face_at(degen.arrangement, (0, -2)).signs) == ((0, 0), (0, 1), (0, 2))
    assert read(face_at(degen.arrangement, (-1, -3)).signs) == ((0, 1), (0, 2))
    assert read(face_at(degen.arrangement, (5, 5)).signs) is None
    assert read(face_at(degen.arrangement, (-1, 5)).signs) is None
    for s in (degen, laurent):
        read = _pattern_reader(s, s.arrangement)
        for face in enumerate_faces(s.arrangement):
            argmins = [eval_poly(f, face.witness)[1] for f in s.polys]
            want = tuple((i, j) for i, row in enumerate(argmins) for j in sorted(row))
            zero = all(len(row) >= 2 for row in argmins)
            assert read(face.signs) == (want if zero else None)


def zero_faces_keys(s):
    """(signs, dim, witness) of the pruned walk and of the covering walk
    filtered by zero pattern."""
    arr = s.arrangement
    read = _pattern_reader(s, arr)

    def zero(signs):
        return read(signs) is not None

    covering = enumerate_faces(arr, keep=lambda signs: True)
    want = [(f.signs, f.dim, f.witness) for f in covering if zero(f.signs)]
    return [(f.signs, f.dim, f.witness) for f in enumerate_faces(arr, keep=zero)], want


def test_pruned_walk_on_corpus_grid_and_square():
    for s in system_corpus(20260823, 100) + [gen_grid_example(3, 3), SQUARE]:
        got, want = zero_faces_keys(s)
        assert got == want


@given(small_systems())
@settings(deadline=None, max_examples=80)
def test_pruned_walk_random(s):
    got, want = zero_faces_keys(s)
    assert got == want


def test_square_covering_faces_and_patterns():
    """Acceptance criterion 6's square: 140 hyperplanes, 81 polynomials."""

    s = SQUARE
    arr = s.arrangement
    full = enumerate_faces(arr)
    keys = [(f.signs, f.dim, f.witness) for f in full if arr.covers([i for i, sg in enumerate(f.signs) if sg == 0])]
    covering = enumerate_faces(arr, keep=lambda signs: True)
    assert [(f.signs, f.dim, f.witness) for f in covering] == keys
    assert len(covering) < len(full) / 10
    # evaluating all 81 polynomials takes ~25 ms a face: check every 8th
    # covering face and, through the cells, the witness of every pattern
    assert_sign_patterns_match_evaluation(s, covering[::8])
    cells = cells_via_arrangement(s).cells
    assert len(cells) == 8
    assert all(pattern_at(s, c.witness) == c.pattern for c in cells)
