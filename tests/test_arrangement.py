import ast
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import face_digests
from hidim_digests import hidim_systems
import tropbetti
from tropbetti import linalg
from tropbetti.arrangement import (
    Hyperplane,
    _intersection_lattice,
    build_arrangement,
    enumerate_faces,
)
from tropbetti.corpus import complex_corpus, random_system, system_corpus
from tropbetti.exactgeom import HPolyhedron
from tropbetti.prevariety import _pattern_reader
from tropbetti.realize import ComplexDescription, complex_prevariety, gen_grid_example
from tropbetti.tropical import LinForm, TropPoly, TropSystem

from oracles import sign_vector, sign_vectors_bruteforce, zaslavsky_face_counts
from strategies import small_systems

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def poly(*mons):
    return TropPoly([LinForm.make(a, b) for a, b in mons])


LINE = TropSystem(2, [poly(((1, 0), 0), ((0, 1), 0), ((0, 0), 0))])


def face_closure(arr, face) -> HPolyhedron:
    """The closed face: its zero hyperplanes as equalities, the rest weak."""
    eqs, ineqs = [], []
    for h, s in zip(arr.hyperplanes, face.signs):
        if s == 0:
            eqs.append((h.normal, h.offset))
        else:
            ineqs.append((tuple(s * c for c in h.normal), s * h.offset))
    return HPolyhedron(arr.n, eqs, ineqs)


def test_build_tropical_line():
    arr = build_arrangement(LINE)
    assert arr.ell == 3
    normals = {h.normal for h in arr.hyperplanes}
    assert normals == {(1, 0), (0, 1), (1, -1)}


def test_build_parallel_monomials_degenerate():
    # equal exponents never tie: the pair induces no hyperplane
    arr = build_arrangement(TropSystem(1, [poly(((1,), 0), ((1,), 1))]))
    assert arr.ell == 0


def test_build_two_polynomials():
    s = TropSystem(2, [poly(((1, 0), 0), ((0, 0), 0)), poly(((0, 1), 0), ((0, 0), 0))])
    arr = build_arrangement(s)
    assert arr.ell == 2


def test_build_dedupes_with_source_accumulation():
    # both polynomials tie on the hyperplane x = 0
    s = TropSystem(1, [poly(((1,), 0), ((0,), 0)), poly(((2,), 0), ((1,), 0))])
    arr = build_arrangement(s)
    assert arr.ell == 1
    assert set(arr.hyperplanes[0].sources) == {(0, 0, 1), (1, 0, 1)}


def test_empty_arrangement_single_face():
    s = TropSystem(2, [poly(((0, 0), 5))])
    arr = build_arrangement(s)
    assert arr.ell == 0
    [face] = enumerate_faces(arr)
    assert face.dim == 2


def test_single_hyperplane_three_faces():
    arr = build_arrangement(TropSystem(1, [poly(((1,), 0), ((0,), 0))]))
    assert sorted(f.dim for f in enumerate_faces(arr)) == [0, 1, 1]


def test_tropical_line_thirteen_faces():
    faces = enumerate_faces(build_arrangement(LINE))
    assert len(faces) == 13
    dims = sorted(f.dim for f in faces)
    assert dims == [0] + [1] * 6 + [2] * 6


def test_two_generic_lines_nine_faces():
    s = TropSystem(2, [poly(((1, 0), 0), ((0, 0), 0)), poly(((0, 1), 0), ((0, 0), 0))])
    assert len(enumerate_faces(build_arrangement(s))) == 9


def test_faces_sorted_and_consistent():
    arr = build_arrangement(LINE)
    faces = enumerate_faces(arr)
    assert [f.signs for f in faces] == sorted(f.signs for f in faces)
    for f in faces:
        assert sign_vector(arr, f.witness) == f.signs
        assert face_closure(arr, f).contains(f.witness)


def test_oracle_equivalence_seeded():
    rng = random.Random(101)
    checked = 0
    while checked < 8:
        s = random_system(rng, max_k=2, max_m=3)
        arr = build_arrangement(s)
        if arr.ell > 6:
            continue
        got = {f.signs: f for f in enumerate_faces(arr)}
        want = sign_vectors_bruteforce(arr)
        assert set(got) == set(want)
        for sv, f in got.items():
            assert sign_vector(arr, f.witness) == sv
        checked += 1


def test_faces_match_bruteforce_for_ell_7_and_8():
    """The exhaustive judge past the ell <= 6 of ``check --oracle``: every
    corpus arrangement with 7 or 8 hyperplanes, and the two pinned n = 4
    systems with 7 and 8, 3^ell sign vectors each."""
    corpus = system_corpus(face_digests.CORPUS_SEED, face_digests.CORPUS_COUNT)
    arrangements = [s.arrangement for s in corpus if s.arrangement.ell in (7, 8)]
    assert len(arrangements) == 19
    arrangements += [s.arrangement for s in hidim_systems() if s.arrangement.ell in (7, 8)]
    assert len(arrangements) == 21
    for arr in arrangements:
        assert {f.signs for f in enumerate_faces(arr)} == sign_vectors_bruteforce(arr).keys()


def assert_zaslavsky_counts(arr):
    assert zaslavsky_face_counts(arr) == dict(Counter(f.dim for f in enumerate_faces(arr)))


def test_zaslavsky_face_counts_examples():
    assert zaslavsky_face_counts(build_arrangement(TropSystem(2, [poly(((0, 0), 0))]))) == {2: 1}
    assert zaslavsky_face_counts(build_arrangement(LINE)) == {0: 1, 1: 6, 2: 6}
    two_lines = TropSystem(2, [poly(((0, 0), 0), ((1, 0), 0)), poly(((0, 0), 0), ((0, 1), 0))])
    assert zaslavsky_face_counts(build_arrangement(two_lines)) == {0: 1, 1: 4, 2: 4}


def test_zaslavsky_face_counts_match_the_walk():
    """Faces per dimension from the intersection poset alone, on every
    corpus arrangement (the 19 with 9 to 15 hyperplanes included) and the
    pinned n = 4 systems with at most 10."""
    corpus = system_corpus(face_digests.CORPUS_SEED, face_digests.CORPUS_COUNT)
    hidim = [s for s in hidim_systems() if s.arrangement.ell <= 10]
    assert len(hidim) == 8
    for s in corpus + hidim:
        assert_zaslavsky_counts(s.arrangement)


@given(small_systems())
@settings(deadline=None, max_examples=80)
def test_zaslavsky_face_counts_match_the_walk_random(s):
    assert_zaslavsky_counts(s.arrangement)


def test_face_count_bound():
    # the n 2^n C(ell, n) bound covers the faces on the hyperplane union
    # (sign vectors with a zero); regions can push the total count past it
    # in tiny arrangements (one point on a line already has 3 faces vs 2)
    rng = random.Random(7)
    for _ in range(10):
        s = random_system(rng, max_k=2, max_m=3)
        arr = build_arrangement(s)
        proper = sum(1 for f in enumerate_faces(arr) if 0 in f.signs)
        if arr.ell >= arr.n:
            assert proper <= arr.n * 2**arr.n * math.comb(arr.ell, arr.n)
        else:
            assert proper <= max(
                (c * 2**c * math.comb(arr.ell, c) for c in range(arr.ell + 1)),
                default=0,
            )


LINE_ARR = build_arrangement(LINE)
LINE_FACES = enumerate_faces(LINE_ARR)


@given(st.tuples(rationals, rationals))
@settings(deadline=None, max_examples=200)
def test_partition_every_point_in_exactly_one_face(x):
    sv = sign_vector(LINE_ARR, x)
    [home] = [f for f in LINE_FACES if f.signs == sv]
    assert face_closure(LINE_ARR, home).contains(x)


def test_partition_random_points_random_system():
    rng = random.Random(11)
    s = random_system(rng, max_k=2, max_m=4)
    arr = build_arrangement(s)
    faces = enumerate_faces(arr)
    for _ in range(500):
        x = tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(s.n))
        sv = sign_vector(arr, x)
        assert sum(1 for f in faces if f.signs == sv) == 1


def test_closure_consistency():
    arr, faces = LINE_ARR, LINE_FACES
    for f in faces:
        for g in faces:
            refines = all(
                sg == sf or sg == 0 for sf, sg in zip(f.signs, g.signs)
            ) and g.signs != f.signs
            if refines:
                assert face_closure(arr, f).contains(g.witness)


# ------------------------------------------------------ covering faces


def _face_keys(faces):
    return [(f.signs, f.dim, f.witness) for f in faces]


def _covering_by_sources(arr, face):
    """Whether the face's zero hyperplanes have source ties in every polynomial."""
    polys = {i for h, s in zip(arr.hyperplanes, face.signs) if s == 0 for i, _, _ in h.sources}
    return len(polys) == arr.k


def everything(signs) -> bool:
    return True


def covering_faces(arr):
    """The walk over covering flats that keeps every face on them."""
    return enumerate_faces(arr, keep=everything)


def assert_covering_enumeration_matches(s):
    """The walk over covering flats equals the full walk, filtered."""
    arr = build_arrangement(s)
    full = enumerate_faces(arr)
    want = [f for f in full if _covering_by_sources(arr, f)]
    assert _face_keys(covering_faces(arr)) == _face_keys(want)


def test_covering_enumeration_examples():
    # single monomial: no ties, no covering face
    lone = TropSystem(2, [poly(((1, 0), 0), ((0, 0), 0)), poly(((0, 1), 3))])
    assert covering_faces(build_arrangement(lone)) == ()
    # a degenerate pair (x + 0, x + 1) never ties; the other pairs of the
    # second polynomial do, on the lines x = y + 2 and x = y + 1
    degen = TropSystem(2, [poly(((1, 0), 0), ((0, 0), 0)), poly(((1, 0), 0), ((1, 0), 1), ((0, 1), 2))])
    arr = build_arrangement(degen)
    assert arr.ell == 3  # x = 0, and two of the second polynomial's three pairs
    assert [f.dim for f in covering_faces(arr)] == [0, 0]
    for s in (lone, degen, LINE):
        assert_covering_enumeration_matches(s)


def test_covering_enumeration_on_corpus():
    for s in system_corpus(20260823, 40):
        assert_covering_enumeration_matches(s)


@given(small_systems())
@settings(deadline=None, max_examples=80)
def test_covering_enumeration_random(s):
    assert_covering_enumeration_matches(s)


# ------------------------------------------------ the pruned lattice


def _covering_flats(arr, flats):
    """The covering flats as (dim, definers, rows, base point, split), sorted."""
    return sorted(
        (fl.dim, sorted(fl.definers), fl.rows, fl.base, fl.denom, fl.split)
        for fl in flats
        if arr.covers(fl.definers)
    )


def assert_pruned_lattice_matches(s):
    """The lattice built for the cells has every covering flat of the full
    lattice, with the same split flag, and the full lattice lists each level
    in the order of its sorted definers, the order the cells walk sorts to."""
    arr = build_arrangement(s)
    full = _intersection_lattice(arr, False)
    for d in range(arr.n + 1):
        level = [sorted(fl.definers) for fl in full if fl.dim == d]
        assert level == sorted(level)
    assert _covering_flats(arr, _intersection_lattice(arr, True)) == _covering_flats(arr, full)


def test_pruned_lattice_on_corpus_grid_square_and_members():
    members = complex_corpus(7, 40)
    systems = system_corpus(face_digests.CORPUS_SEED, face_digests.CORPUS_COUNT) + [
        gen_grid_example(3, 3),
        realized_square(),
        complex_prevariety(members[34]),
        complex_prevariety(members[39]),
    ]
    for s in systems:
        assert_pruned_lattice_matches(s)


@given(small_systems())
@settings(deadline=None, max_examples=80)
def test_pruned_lattice_random(s):
    assert_pruned_lattice_matches(s)


def test_pruned_lattice_on_the_square_builds_few_flats():
    """Of the square's 140 lines only the pivot polynomial's 20 are built
    from the plane, and one of the 584 flats (the plane) is not covering."""
    arr = build_arrangement(realized_square())
    flats = _intersection_lattice(arr, True)
    assert (arr.ell, len(flats), sum(arr.covers(fl.definers) for fl in flats)) == (140, 584, 583)
    assert sum(fl.dim == 1 for fl in flats) == min(len(hps) for hps in arr._poly_hps) == 20


def cells_keep(s, arr, asked=None):
    """The cells walk's predicate: a tie in every polynomial.  Each sign
    vector it is asked about is appended to ``asked``."""
    read = _pattern_reader(s, arr)

    def keep(signs):
        if asked is not None:
            asked.append(signs)
        return read(signs) is not None

    return keep


def test_cells_lattice_on_the_square_builds_only_its_kept_points():
    """With the cells' keep the square's lattice builds its 24 kept points,
    each carrying its sign vector, and none of the 539 other covering
    points; without keep the covering lattice still builds all 584 flats."""
    s = realized_square()
    arr = build_arrangement(s)
    keep = cells_keep(s, arr)
    points = [fl for fl in _intersection_lattice(arr, True, keep) if fl.dim == 0]
    kept_vertices = {f.signs for f in enumerate_faces(arr) if f.dim == 0 and keep(f.signs)}
    assert len(points) == len(kept_vertices) == 24
    assert {fl.signs for fl in points} == kept_vertices
    flats = _intersection_lattice(arr, True)
    assert (len(flats), sum(fl.dim == 0 for fl in flats)) == (584, 563)


def rational_rows(arr):
    """Each rational hyperplane as (normal, p, q), offset p / q with q > 0."""
    return [(h.normal, h.offset.numerator, h.offset.denominator) for h in arr.hyperplanes]


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def signs_at(rows, x, d) -> tuple[int, ...]:
    """The sign vector at the integer point x over d > 0 of ``rational_rows``."""
    return tuple(_sign(q * linalg.dot(a, x) - p * d) for a, p, q in rows)


def point_or_line_witness(rows, n, signs):
    """(x, d), an integer point over d > 0 with sign vector ``signs``, when
    the zero hyperplanes of ``signs`` cut out a point or a line, found from
    the rational hyperplanes; None if no point of that flat has it, and
    "plane" for a larger flat."""
    zero = [(a, Fraction(p, q)) for (a, p, q), sg in zip(rows, signs) if sg == 0]
    if zero:
        base = linalg.solve([a for a, _ in zero], [b for _, b in zero])
        if base is None:
            return None
        dirs = linalg.nullspace([a for a, _ in zero], n)
    else:
        base, dirs = (Fraction(0),) * n, [tuple(int(i == j) for j in range(n)) for i in range(n)]
    if len(dirs) > 1:
        return "plane"
    d = math.lcm(*(c.denominator for c in base))
    x = [int(c * d) for c in base]
    if not dirs:
        return x, d
    u = linalg.integral_rows(dirs)[0]
    # base + t u has the signs exactly for lo < t < hi, as (num, den > 0)
    lo = hi = None
    for (a, p, q), sg in zip(rows, signs):
        v, r = q * linalg.dot(a, x) - p * d, q * d * linalg.dot(a, u)  # the value is (v + t r) / (q d)
        if r == 0:
            if _sign(v) != sg:
                return None
        elif sg == 0:
            return None
        else:
            root = (-v, r) if r > 0 else (v, -r)
            if sg * r > 0 and (lo is None or root[0] * lo[1] > lo[0] * root[1]):
                lo = root
            elif sg * r < 0 and (hi is None or root[0] * hi[1] < hi[0] * root[1]):
                hi = root
    if lo is None or hi is None:
        t = Fraction(*lo) + 1 if lo is not None else Fraction(*hi) - 1 if hi is not None else Fraction(0)
    elif lo[0] * hi[1] < hi[0] * lo[1]:
        t = (Fraction(*lo) + Fraction(*hi)) / 2
    else:
        return None
    # x / d + t u over the denominator d * t.denominator
    return [c * t.denominator + t.numerator * d * w for c, w in zip(x, u)], d * t.denominator


def test_cells_keep_is_asked_only_about_faces():
    """Every sign vector the cells' keep is asked about, rejected ones
    included, is a tuple and the sign vector of a face: on the square, of
    the full walk; on members 34 and 39, of a point found with the rational
    hyperplanes.  This judges the line sweep on the points it rejects,
    which no face list shows.  The sign vectors on the planes of member 39
    come from stepping off kept faces, which the pinned face lists judge."""
    s = realized_square()
    arr = build_arrangement(s)
    asked: list = []
    enumerate_faces(arr, cells_keep(s, arr, asked))
    full = {f.signs for f in enumerate_faces(arr)}
    assert len(asked) == 651 and all(type(sg) is tuple and sg in full for sg in asked)

    members = complex_corpus(7, 40)
    for i in (34, 39):
        s = complex_prevariety(members[i])
        arr = build_arrangement(s)
        asked = []
        enumerate_faces(arr, cells_keep(s, arr, asked))
        assert asked and all(type(sg) is tuple for sg in asked)
        rows = rational_rows(arr)
        witnesses = [point_or_line_witness(rows, arr.n, sg) for sg in asked]
        checked = [(sg, w) for sg, w in zip(asked, witnesses) if w != "plane"]
        assert len(checked) > len(asked) // 2
        for sg, w in checked:
            assert w is not None and signs_at(rows, *w) == sg


# ------------------------------------------------- pinned face lists


def face_digest(faces) -> str:
    """SHA-256 of the (signs, dim, witness) list, as in ``face_digests``."""
    text = "\n".join(
        "".join("0+-"[s] for s in f.signs) + f" {f.dim} " + " ".join(str(x) for x in f.witness) for f in faces
    )
    return hashlib.sha256(text.encode()).hexdigest()


def realized_square() -> TropSystem:
    """The realized square (a circle) of acceptance criterion 6."""

    def seg(eqs, ineqs):
        return HPolyhedron(2, eqs, ineqs)

    return complex_prevariety(
        ComplexDescription.make(
            2,
            [
                seg([((0, 1), 0)], [((1, 0), 0), ((-1, 0), -1)]),
                seg([((0, 1), 1)], [((1, 0), 0), ((-1, 0), -1)]),
                seg([((1, 0), 0)], [((0, 1), 0), ((0, -1), -1)]),
                seg([((1, 0), 1)], [((0, 1), 0), ((0, -1), -1)]),
            ],
        )
    )


def test_face_lists_match_pinned_digests():
    """Signs, dimensions and stepped witnesses are byte for byte as pinned."""
    corpus = system_corpus(face_digests.CORPUS_SEED, face_digests.CORPUS_COUNT)
    covering = [face_digest(covering_faces(build_arrangement(s))) for s in corpus]
    assert covering == list(face_digests.COVERING)
    full = {}
    for i, s in enumerate(corpus):
        arr = build_arrangement(s)
        if arr.ell <= face_digests.MAX_FULL_ELL:
            full[i] = face_digest(enumerate_faces(arr))
    assert full == face_digests.FULL
    assert face_digest(covering_faces(build_arrangement(gen_grid_example(3, 3)))) == face_digests.GRID_3_3
    assert face_digest(covering_faces(build_arrangement(realized_square()))) == face_digests.SQUARE


def test_arrangement_runs_without_rational_linear_algebra(monkeypatch):
    """Build, lattice and stepping run on linalg's integer kernel alone:
    none of its rational-input entry points (which scale rows to integers
    first), no echelon basis of a facet's directions (a step direction is
    read off one definer's normal) and no per-hyperplane evaluation.
    ``eliminate`` stays allowed: ``reduce_into`` extends a flat's rows with it."""
    systems = [gen_grid_example(3, 3), realized_square()] + system_corpus(face_digests.CORPUS_SEED, 10)

    def refuse(*args, **kwargs):
        raise AssertionError("rational linear algebra in the arrangement layer")

    for name in ("rank", "solve", "nullspace", "echelon"):
        monkeypatch.setattr(linalg, name, refuse)
    # the package no longer defines Hyperplane.value; it must not come back
    monkeypatch.setattr(Hyperplane, "value", refuse, raising=False)
    for s in systems:
        arr = build_arrangement(s)
        assert enumerate_faces(arr)
        covering_faces(arr)


# ------------------------------------------------------------ guards


def test_src_has_no_functools_cache():
    """No process-wide cache: each system owns its arrangement and faces."""
    found = []
    for path in sorted(Path(tropbetti.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(path.name, node.lineno) for a in node.names if a.name in ("cache", "lru_cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache"):
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    found.append((path.name, node.lineno))
    assert found == []
