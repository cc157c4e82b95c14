import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbetti.corpus import complex_corpus, random_complex, random_system, system_corpus
from tropbetti.exactgeom import HPolyhedron, InvariantError
from tropbetti.prevariety import PrevarietyComplex, cells_via_arrangement, connected_components
from tropbetti.realize import ComplexDescription, complex_prevariety, gen_grid_example
from tropbetti import topology
from tropbetti.topology import (
    BettiVector,
    SimplicialComplex,
    betti,
    betti_of_complex,
    triangulate,
)
from tropbetti.tropical import LinForm, TropPoly, TropSystem

from cli_digests import CORPUS_COUNT, CORPUS_SEED
from oracles import (
    cell_nerve_betti,
    from_maximal,
    nerve_betti,
    pattern_closure,
    simplicial_betti,
    sliced_closures,
)
from strategies import small_systems


def poly(*mons):
    return TropPoly([LinForm.make(a, b) for a, b in mons])


LINE = TropSystem(2, [poly(((0, 0), 0), ((0, 1), 0), ((1, 0), 0))])


def _side(eq, lo, hi):
    return HPolyhedron(2, [eq], [lo, hi])


# the boundary of the unit square, acceptance criterion 6's circle
SQUARE = ComplexDescription.make(
    2,
    [
        _side(((0, 1), 0), ((1, 0), 0), ((-1, 0), -1)),
        _side(((0, 1), 1), ((1, 0), 0), ((-1, 0), -1)),
        _side(((1, 0), 0), ((0, 1), 0), ((0, -1), -1)),
        _side(((1, 0), 1), ((0, 1), 0), ((0, -1), -1)),
    ],
)


def _betti_sum(vectors) -> BettiVector:
    """Entrywise sum of Betti vectors, trailing zeros trimmed."""
    vectors = list(vectors)
    top = max((len(v.b) for v in vectors), default=0)
    return BettiVector.make([sum(v[i] for v in vectors) for i in range(top)])


def test_betti_vector_basics():
    v = BettiVector.make([1, 0, 2, 0, 0])
    assert v.b == (1, 0, 2)
    assert v.total == 3
    assert v[1] == 0 and v[7] == 0
    assert _betti_sum([v, BettiVector.make([0, 5])]).b == (1, 5, 2)
    assert BettiVector.make([]).b == ()


def test_betti_vector_equals_only_a_betti_vector():
    v = BettiVector.make([1, 1, 0])
    assert v == BettiVector((1, 1)) and hash(v) == hash(BettiVector((1, 1)))
    assert v != (1, 1) and v != [1, 1] and v != BettiVector((1,))
    assert repr(v) == "BettiVector(b=(1, 1))"
    assert BettiVector.make([]) != () and BettiVector.make([])[0] == 0


def test_from_maximal_downward_closed():
    sc = from_maximal([(0, 1, 2)])
    assert len(sc.simplices) == 7
    assert frozenset({0, 1}) in sc.simplices
    assert sc.vertices == (0, 1, 2)


def test_betti_textbook_examples():
    assert betti(from_maximal([(0,)])).b == (1,)
    assert betti(from_maximal([(0,), (1,)])).b == (2,)
    hollow = from_maximal([(0, 1), (1, 2), (0, 2)])
    assert betti(hollow).b == (1, 1)
    filled = from_maximal([(0, 1, 2)])
    assert betti(filled).b == (1,)
    sphere = from_maximal(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    )
    assert betti(sphere).b == (1, 0, 1)


@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
        min_size=1,
        max_size=6,
    )
)
@settings(deadline=None, max_examples=60)
def test_betti_matches_independent_rank_oracle(maximal):
    sc = from_maximal(maximal)
    assert betti(sc).b == simplicial_betti(sc)


def test_reduce_lineality_line_in_plane():
    s = TropSystem(2, [poly(((0, 0), 0), ((1, 0), 0))])  # V = {x = 0}
    comp = cells_via_arrangement(s)
    assert comp.lineality == (1,)
    assert len(comp.cells) == 1 and comp.cells[0].dim - comp.lineality[0] == 0
    assert comp.retract == (True,)


def test_reduce_lineality_plane_in_space():
    s = TropSystem(3, [poly(((0, 0, 0), 0), ((1, 0, 0), 0))])  # V = {x = 0}
    comp = cells_via_arrangement(s)
    assert comp.lineality == (2,)
    assert len(comp.cells) == 1 and comp.cells[0].dim - comp.lineality[0] == 0


def test_reduce_lineality_pointed_component_unchanged():
    comp = cells_via_arrangement(LINE)
    assert comp.lineality == (0,) * len(comp.cells)
    assert sorted(c.dim for c in comp.cells) == [0, 1, 1, 1]


def _retract(comp):
    return [c for c, keep in zip(comp.cells, comp.retract) if keep]


def _retract_members(comp, component=None):
    """Indices of the retract cells, within one component if given."""
    return [
        i
        for i, (c, keep) in enumerate(zip(comp.cells, comp.retract))
        if keep and (component is None or c in component)
    ]


def test_bounded_subcomplex_tropical_line():
    retract = _retract(cells_via_arrangement(LINE))
    assert len(retract) == 1
    assert retract[0].dim == 0


def test_triangulate_single_point_and_grid():
    line = cells_via_arrangement(LINE)
    sc = triangulate(line, _retract_members(line))
    assert betti(sc).b == (1,)
    comp = cells_via_arrangement(gen_grid_example(2, 2))
    total = _betti_sum(
        betti(triangulate(comp, _retract_members(comp, component)))
        for component in connected_components(comp)
    )
    assert total.b == (4,)


def _chains_by_patterns(comp, members):
    """Every nonempty chain of the members under proper pattern inclusion."""
    chains = set()
    pattern = {v: set(comp.cells[v].pattern) for v in members}

    def extend(chain, rest):
        if chain:
            chains.add(frozenset(chain))
        for v in rest:
            pv = pattern[v]
            if all(pv < pattern[u] or pattern[u] < pv for u in chain):
                extend(chain + [v], [w for w in rest if w > v])

    extend([], list(members))
    return chains


def _assert_triangulation_matches_patterns(comp):
    """Per component and across all components: the chains of pattern
    inclusion, and Betti numbers that add up over the components."""
    per_component = []
    for component in connected_components(comp):
        members = _retract_members(comp, component)
        sc = triangulate(comp, members)
        assert sc.simplices == _chains_by_patterns(comp, members)
        per_component.append(betti(sc))
    members = _retract_members(comp)
    assert triangulate(comp, members).simplices == _chains_by_patterns(comp, members)
    assert betti_of_complex(comp) == _betti_sum(per_component)


@given(small_systems())
@settings(deadline=None, max_examples=100)
def test_triangulate_reads_the_chains_of_pattern_inclusion(s):
    _assert_triangulation_matches_patterns(cells_via_arrangement(s))


def test_triangulate_square_and_grid_chains():
    square = cells_via_arrangement(complex_prevariety(SQUARE))
    grid = cells_via_arrangement(gen_grid_example(2, 2))
    assert len(connected_components(square)) == 1
    assert len(connected_components(grid)) == 4
    for comp in (square, grid):
        _assert_triangulation_matches_patterns(comp)


def _assert_poset_matches_polyhedra(comp):
    """Lineality and retract from the face poset agree with the closures."""
    index = {cell.pattern: i for i, cell in enumerate(comp.cells)}
    for component in connected_components(comp):
        d, sliced = sliced_closures(comp.system, component)
        for cell, cut in zip(component, sliced):
            i = index[cell.pattern]
            closure = pattern_closure(comp.system, cell.pattern)
            assert comp.lineality[i] == d == len(closure.lineality_basis())
            assert comp.retract[i] == cut.is_bounded()
            assert closure.is_bounded() == (d == 0 and comp.retract[i])


@given(small_systems())
@settings(deadline=None, max_examples=200)
def test_poset_lineality_and_retract_match_polyhedra(s):
    _assert_poset_matches_polyhedra(cells_via_arrangement(s))


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=15)
def test_poset_lineality_and_retract_match_polyhedra_realized(seed):
    c = random_complex(random.Random(seed), max_members=2)
    _assert_poset_matches_polyhedra(cells_via_arrangement(complex_prevariety(c)))


# Betti numbers of the union of each member list of complex_corpus(7, 40),
# from the nerve of the members (``oracles.nerve_betti``).  The cells of the
# SLOW_MEMBERS take ten seconds or more, or do not finish; there the nerve
# is the only judge.
NERVE_BETTI = (
    (1,), (4,), (1,), (2,), (3,), (1,), (2,), (1,), (1,), (3,),
    (1,), (1,), (3,), (1, 1), (2,), (2,), (2,), (3,), (1,), (1,),
    (4,), (1,), (1,), (2,), (3,), (1,), (2,), (1,), (2,), (1,),
    (3,), (1,), (1,), (3,), (1, 1), (3,), (2,), (2,), (1,), (1,),
)
SLOW_MEMBERS = frozenset({1, 4, 20, 21, 28, 33})


def test_nerve_betti_on_complex_corpus():
    corpus = complex_corpus(7, 40)
    assert tuple(nerve_betti(c).b for c in corpus) == NERVE_BETTI
    for i, c in enumerate(corpus):
        if i not in SLOW_MEMBERS:
            assert betti_of_complex(cells_via_arrangement(complex_prevariety(c))).b == NERVE_BETTI[i], i


@given(st.integers(0, 10**6))
@settings(deadline=None, max_examples=30)
def test_nerve_betti_random(seed):
    c = random_complex(random.Random(seed), max_n=2, max_members=3)
    assert betti_of_complex(cells_via_arrangement(complex_prevariety(c))) == nerve_betti(c)


def _assert_cell_nerve_agrees(s):
    want = betti_of_complex(cells_via_arrangement(s))
    assert len(want.b) <= s.n and cell_nerve_betti(s) == want


# a tropical quadric surface in R^3 whose retract has bounded 2-cells
QUADRIC = TropSystem(
    3,
    [
        poly(
            ((0, 0, 0), -2), ((0, 0, 1), 9), ((0, 0, 2), 8), ((0, 1, 0), -5), ((0, 1, 1), 2),
            ((0, 2, 0), 6), ((1, 0, 0), 9), ((1, 0, 1), -7), ((1, 1, 0), -9), ((2, 0, 0), 6),
        )
    ],
)


def test_cell_nerve_judges_the_betti_numbers():
    """The nerve of the closed maximal cells, from the dual route and the
    simplex, gives the Betti numbers of the walk, the poset and the
    triangulation on the corpus, the 3x3 grid, a quadric surface, the
    square and members 34 and 39."""
    for s in system_corpus(CORPUS_SEED, CORPUS_COUNT):
        _assert_cell_nerve_agrees(s)
    _assert_cell_nerve_agrees(gen_grid_example(3, 3))
    comp = cells_via_arrangement(QUADRIC)
    assert any(c.dim == 2 and keep for c, keep in zip(comp.cells, comp.retract))
    _assert_cell_nerve_agrees(QUADRIC)
    _assert_cell_nerve_agrees(complex_prevariety(SQUARE))
    members = complex_corpus(7, 40)
    for i in (34, 39):
        _assert_cell_nerve_agrees(complex_prevariety(members[i]))


@given(small_systems())
@settings(deadline=None, max_examples=150)
def test_cell_nerve_judges_the_betti_numbers_of_small_systems(s):
    _assert_cell_nerve_agrees(s)


def test_retract_rejects_an_edge_without_two_ends(monkeypatch):
    """A vertex of the square claimed to be an edge has no vertices."""
    comp = cells_via_arrangement(complex_prevariety(SQUARE))
    assert comp.lineality == (0,) * 8 and all(comp.retract)
    vertex = next(c for c in comp.cells if c.dim == 0)
    monkeypatch.setattr(vertex, "dim", 1)
    with pytest.raises(InvariantError, match="^PrevarietyComplex: edge"):
        PrevarietyComplex(comp.system, comp.cells)


def test_betti_of_complex_checks_the_euler_characteristic(monkeypatch):
    """A triangulation that loses a maximal chain of the square's retract
    (an edge of its subdivision) gives Betti numbers whose alternating sum
    misses the cells' Euler characteristic, 0."""
    comp = cells_via_arrangement(complex_prevariety(SQUARE))
    assert betti_of_complex(comp).b == (1, 1)
    real = topology.triangulate

    def drop_longest(c, members):
        sc = real(c, members)
        longest = max(sc.simplices, key=lambda s: (len(s), sorted(s)))
        return SimplicialComplex(sc.vertices, sc.simplices - {longest})

    monkeypatch.setattr(topology, "triangulate", drop_longest)
    with pytest.raises(InvariantError, match=r"^betti_of_complex: Betti numbers \(1,\) miss the Euler characteristic 0"):
        betti_of_complex(comp)


def test_betti_of_prevariety_examples():
    assert betti_of_complex(cells_via_arrangement(LINE)).b == (1,)
    assert betti_of_complex(cells_via_arrangement(gen_grid_example(2, 3))).b == (9,)
    empty = TropSystem(2, [poly(((0, 0), 5))])
    assert betti_of_complex(cells_via_arrangement(empty)).b == ()
    plane = TropSystem(3, [poly(((0, 0, 0), 0), ((1, 0, 0), 0))])
    assert betti_of_complex(cells_via_arrangement(plane)).b == (1,)


def test_morse_inequality_and_euler_consistency():
    rng = random.Random(41)
    for _ in range(8):
        s = random_system(rng, max_k=2, max_m=3)
        comp = cells_via_arrangement(s)
        total = betti_of_complex(comp)
        assert total.total <= len(comp.cells)
        for component in connected_components(comp):
            retract = [
                (c, lin) for c, lin, keep in zip(comp.cells, comp.lineality, comp.retract)
                if keep and c in component
            ]
            b = betti(triangulate(comp, _retract_members(comp, component)))
            euler_cells = sum((-1) ** (c.dim - lin) for c, lin in retract)
            euler_betti = sum((-1) ** i * v for i, v in enumerate(b.b))
            assert euler_cells == euler_betti


def test_invariance_under_duplicate_shift_and_permutation():
    rng = random.Random(43)
    for _ in range(5):
        s = random_system(rng, max_k=2, max_m=3)
        base = betti_of_complex(cells_via_arrangement(s))
        doubled = TropSystem(s.n, list(s.polys) + [s.polys[0]])
        assert betti_of_complex(cells_via_arrangement(doubled)) == base
        shifted_poly = TropPoly(
            [LinForm.make(m.a, m.b + 3) for m in s.polys[0].monomials]
        )
        shifted = TropSystem(s.n, [shifted_poly] + list(s.polys[1:]))
        assert betti_of_complex(cells_via_arrangement(shifted)) == base
        perm = list(range(s.n))
        rng.shuffle(perm)
        permuted = TropSystem(
            s.n,
            [
                TropPoly([LinForm.make([m.a[p] for p in perm], m.b) for m in f.monomials])
                for f in s.polys
            ],
        )
        assert betti_of_complex(cells_via_arrangement(permuted)) == base
