import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from tropbetti.bounds import degree_bound, sparse_bound, verify_bounds
from tropbetti.corpus import random_system, system_corpus
from tropbetti.exactgeom import RadVal, newton_volume
from tropbetti.realize import gen_grid_example
from tropbetti.tropical import LaurentError, LinForm, TropPoly, TropSystem

from corpus_volumes import CORPUS_SEED, DENSE_VOLUMES
from oracles import dense_volume_bound, minkowski_sum, newton_polytope
from strategies import small_systems


def poly(*mons):
    return TropPoly([LinForm.make(a, b) for a, b in mons])


LINE = TropSystem(2, [poly(((0, 0), 0), ((0, 1), 0), ((1, 0), 0))])
CROSS = TropSystem(2, [poly(((0, 0), 0), ((1, 0), 0)), poly(((0, 0), 0), ((0, 1), 0))])


def test_dense_volume_bound_examples():
    uni = TropSystem(1, [poly(((2,), 0), ((1,), 1), ((0,), 3))])
    for s, want in ((LINE, 7), (CROSS, 14), (uni, 6)):
        r, bound = dense_volume_bound(s)
        assert (r, bound) == (s.n, RadVal(Fraction(want)))
        report = verify_bounds(s)
        assert (report.r, report.dense_bound) == (r, bound)


def test_dense_volumes_pinned_on_corpus():
    systems = system_corpus(CORPUS_SEED, len(DENSE_VOLUMES))
    for i, (s, (r, q, rad)) in enumerate(zip(systems, DENSE_VOLUMES)):
        vol = RadVal(Fraction(q), rad)
        scale = (2 ** (r + 1) - 1) * math.factorial(r)
        assert dense_volume_bound(s) == (r, vol.scaled(scale)), f"system {i}"


@given(small_systems())
@example(TropSystem(2, [poly(((0, 0), 0), ((2, 1), 1), ((1, 3), 0))]))  # k = 1
@example(TropSystem(2, [poly(((1, 1), 0), ((1, 1), 2)), poly(((0, 2), 1))]))  # the sum is a point
# exponents on a line, lifts off it: a segment of length 2 sqrt(2)
@example(TropSystem(2, [poly(((0, 0), 0), ((1, 1), 1), ((2, 2), 0))]))
@example(  # rational constants: the lifted points share the denominator 15
    TropSystem(2, [poly(((0, 0), Fraction(1, 3)), ((2, 0), 0)), poly(((0, 0), 0), ((1, 2), Fraction(2, 5)))])
)
@example(  # Laurent exponents
    TropSystem(
        2,
        [poly(((-1, 0), 0), ((0, 2), 1), ((1, -1), 0)), poly(((0, -2), 0), ((1, 1), 0))],
    )
)
@settings(deadline=None, max_examples=150)
def test_newton_volume_matches_unlifted_minkowski_sum(s):
    """(r, Vol_r) read from the lifted hull's placing equals the hull of the
    unlifted Newton sum, built polytope by polytope."""
    total = newton_polytope(s.polys[0])
    for f in s.polys[1:]:
        total = minkowski_sum(total, newton_polytope(f))
    r, vol = newton_volume(s.lifted_hull)
    assert (r, vol) == (total.affine_dim(), total.volume())
    if r == 0:
        assert vol == 1 and verify_bounds(s).dense_degenerate


def test_dense_volume_bound_degenerate():
    s = TropSystem(1, [poly(((1,), 0), ((1,), 2))])  # Newton polytope is a point
    r, bound = dense_volume_bound(s)
    assert r == 0 and bound == RadVal(Fraction(1))


def test_degree_bound_examples():
    assert degree_bound(LINE) == 7
    assert degree_bound(gen_grid_example(2, 2)) == 112
    assert degree_bound(TropSystem(1, [poly(((3,), 0), ((0,), 0))])) == 9
    with pytest.raises(LaurentError):
        degree_bound(TropSystem(1, [poly(((-1,), 0))]))


def test_sparse_bound_examples():
    assert sparse_bound(2, 1, 3) == 24
    assert sparse_bound(1, 1, 2) == 2
    assert sparse_bound(2, 2, 2) == 8
    assert sparse_bound(2, 2, 4) == 528  # grid n=2, m=3 has k=2, 4 monomials


def test_sparse_bound_degenerate_convention():
    # n exceeds ell = k*C(m,2): fall back to the essential-dimension maximum
    assert sparse_bound(3, 1, 2) == max(c * 2**c for c in range(2))  # ell = 1
    assert sparse_bound(3, 1, 2) == 2
    assert sparse_bound(2, 1, 1) == 0  # no hyperplanes at all


def test_verify_bounds_tropical_line():
    r = verify_bounds(LINE)
    assert r.phi == 4 and r.total_betti == 1
    assert r.dense_bound == RadVal(Fraction(7))
    assert r.sparse_bound == 24 and r.degree_bound == 7
    assert r.all_ok and not r.dense_degenerate and not r.sparse_degenerate
    assert r.betti_le_phi and r.phi_le_dense and r.phi_le_sparse and r.betti_le_degree


def test_verify_bounds_grid():
    r = verify_bounds(gen_grid_example(2, 3))
    assert r.phi == 9 and r.total_betti == 9
    assert r.sparse_bound == 528
    assert r.all_ok


def test_verify_bounds_empty_prevariety():
    r = verify_bounds(TropSystem(2, [poly(((0, 0), 5))]))
    assert r.phi == 0 and r.total_betti == 0
    assert r.dense_degenerate and r.phi_le_dense is None
    assert r.all_ok


def test_verify_bounds_laurent_degree_skipped():
    s = TropSystem(1, [poly(((-1,), 0), ((0,), 0))])
    r = verify_bounds(s)
    assert r.d is None and r.degree_bound is None and r.betti_le_degree is None
    assert r.all_ok


def test_dense_at_most_degree_when_full_rank():
    rng = random.Random(47)
    for _ in range(8):
        s = random_system(rng, max_k=2, max_m=3)
        r = verify_bounds(s)
        if r.r == s.n and r.degree_bound is not None:
            assert not RadVal(Fraction(r.degree_bound)) < r.dense_bound


def test_dense_bound_invariances():
    s = TropSystem(2, list(CROSS.polys))
    permuted = TropSystem(2, list(reversed(CROSS.polys)))
    assert dense_volume_bound(s) == dense_volume_bound(permuted)
    # Laurent shift: translating one Newton polytope by an integer vector
    shifted_poly = TropPoly([LinForm.make((m.a[0] - 1, m.a[1]), m.b) for m in CROSS.polys[0].monomials])
    shifted = TropSystem(2, [shifted_poly, CROSS.polys[1]])
    assert dense_volume_bound(shifted) == dense_volume_bound(CROSS)


def test_corpus_sample_no_violations():
    rng = random.Random(53)
    for _ in range(10):
        assert verify_bounds(random_system(rng, max_k=2, max_m=3)).all_ok
