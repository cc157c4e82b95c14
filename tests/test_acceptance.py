"""Acceptance gate: eight end-to-end criteria with exact expected values.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` and in failure reports) and enforces its runtime budget.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from tropbetti.arrangement import enumerate_faces
from tropbetti.cli import check_system
from tropbetti.corpus import complex_corpus, random_system, system_corpus
from tropbetti.exactgeom import HPolyhedron
from tropbetti.prevariety import cells_via_arrangement
from tropbetti.realize import ComplexDescription, complex_prevariety, gen_grid_example
from tropbetti.topology import betti_of_complex
from tropbetti.tropical import LinForm, TropPoly, TropSystem

from oracles import is_system_zero, sign_vectors_bruteforce

CORPUS_SEED = 20260823
CORPUS_SIZE = 100


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def poly(*mons):
    return TropPoly([LinForm.make(a, b) for a, b in mons])


@pytest.fixture(scope="module")
def corpus_reports():
    """Full check pipeline over the shared 100-system corpus, timed once."""
    start = time.monotonic()
    systems = system_corpus(CORPUS_SEED, CORPUS_SIZE)
    reports = [check_system(s) for s in systems]
    return systems, reports, time.monotonic() - start


def test_criterion_1_grid_point_counts():
    results = []
    for n, m, expected in [(2, 3, 9), (3, 2, 8)]:
        start = time.monotonic()
        s = gen_grid_example(n, m)
        comp = cells_via_arrangement(s)
        phi, b = len(comp.cells), betti_of_complex(comp).b
        elapsed = time.monotonic() - start
        results.append((n, m, phi, b, elapsed))
    ok = all(
        phi == expected and b == (expected,) and elapsed < 10.0
        for (n, m, phi, b, elapsed), expected in zip(results, [9, 8])
    )
    detail = "; ".join(
        f"grid n={n} m={m}: phi={phi} betti={list(b)} in {elapsed:.2f}s"
        for n, m, phi, b, elapsed in results
    )
    _verdict(1, ok, detail)


def test_criterion_2_tropical_line():
    start = time.monotonic()
    s = TropSystem(2, [poly(((0, 0), 0), ((0, 1), 0), ((1, 0), 0))])
    report = check_system(s, oracle=True)
    elapsed = time.monotonic() - start
    ok = (
        report["phi"] == 4
        and report["betti"] == [1]
        and report["dense_bound_sq"] == [49, 1]
        and report["sparse_bound"] == 24
        and report["degree_bound"] == 7
        and report["all_ok"]
        and report["oracle_ok"]
        and elapsed < 1.0
    )
    _verdict(
        2,
        ok,
        f"phi={report['phi']} betti={report['betti']} dense^2={report['dense_bound_sq']} "
        f"sparse={report['sparse_bound']} degree={report['degree_bound']} in {elapsed:.2f}s",
    )


def test_criterion_3_cross_method_equivalence(corpus_reports):
    systems, reports, elapsed = corpus_reports
    mismatches = [
        i for i, r in enumerate(reports) if not (r["cross_method_ok"] and r["duality_ok"])
    ]
    ok = len(systems) >= 100 and not mismatches and elapsed < 300.0
    _verdict(
        3,
        ok,
        f"{len(systems)} systems, {len(mismatches)} cross-method/duality mismatches, "
        f"checks ran in {elapsed:.1f}s",
    )


def test_criterion_4_bound_suite(corpus_reports):
    systems, reports, _ = corpus_reports
    violations = [
        i
        for i, r in enumerate(reports)
        if r["betti_le_phi"] is False
        or r["phi_le_dense"] is False
        or r["phi_le_sparse"] is False
        or r["betti_le_degree"] is False
    ]
    ok = len(systems) >= 100 and not violations
    _verdict(4, ok, f"{len(systems)} systems, {len(violations)} bound violations")


def test_criterion_5_arrangement_oracle(corpus_reports):
    systems, _, _ = corpus_reports
    checked = failures = 0
    for s in systems:
        arr = s.arrangement
        if arr.ell > 6:
            continue
        checked += 1
        got = {f.signs for f in enumerate_faces(arr)}
        if got != set(sign_vectors_bruteforce(arr)):
            failures += 1
            continue
        # The n 2^n C(ell, n) face bound covers the faces on the hyperplane
        # union (all faces that can carry prevariety cells); full-dimensional
        # regions have no ties and are outside its scope.
        proper = sum(1 for sv in got if 0 in sv)
        if arr.ell >= arr.n:
            bound = arr.n * 2**arr.n * math.comb(arr.ell, arr.n)
        else:
            bound = max(
                (c * 2**c * math.comb(arr.ell, c) for c in range(arr.ell + 1)),
                default=0,
            )
        if proper > bound:
            failures += 1
    ok = checked > 0 and failures == 0
    _verdict(5, ok, f"{checked} arrangements with ell<=6 vs 3^ell oracle, {failures} failures")


def test_criterion_6_topology_oracles():
    results = []

    def seg(n, eqs, ineqs):
        return HPolyhedron(n, eqs, ineqs)

    def betti_of(s):
        return betti_of_complex(cells_via_arrangement(s)).b

    square = ComplexDescription.make(
        2,
        [
            seg(2, [((0, 1), 0)], [((1, 0), 0), ((-1, 0), -1)]),
            seg(2, [((0, 1), 1)], [((1, 0), 0), ((-1, 0), -1)]),
            seg(2, [((1, 0), 0)], [((0, 1), 0), ((0, -1), -1)]),
            seg(2, [((1, 0), 1)], [((0, 1), 0), ((0, -1), -1)]),
        ],
    )
    results.append(("circle", betti_of(complex_prevariety(square)), (1, 1)))

    segment = ComplexDescription.make(2, [seg(2, [((0, 1), 0)], [((1, 0), 0), ((-1, 0), -1)])])
    results.append(("segment", betti_of(complex_prevariety(segment)), (1,)))

    points = ComplexDescription.make(1, [seg(1, [((1,), 0)], []), seg(1, [((1,), 5)], [])])
    results.append(("two points", betti_of(complex_prevariety(points)), (2,)))

    plane = TropSystem(3, [poly(((0, 0, 0), 0), ((1, 0, 0), 0))])
    results.append(("plane betti", betti_of(plane), (1,)))
    results.append(("plane lineality", cells_via_arrangement(plane).lineality, (2,)))

    ok = all(got == want for _, got, want in results)
    _verdict(6, ok, "; ".join(f"{name}: {list(got)}" for name, got, _ in results))


def test_criterion_7_invariance_suite():
    rng = random.Random(CORPUS_SEED + 1)
    failures = 0
    count = 50
    for _ in range(count):
        s = random_system(rng, max_k=2, max_m=3)
        comp = cells_via_arrangement(s)
        base = (len(comp.cells), betti_of_complex(comp).b)
        variants = []
        variants.append(TropSystem(s.n, list(s.polys) + [s.polys[0]]))
        shifted = TropPoly([LinForm.make(m.a, m.b + 3) for m in s.polys[0].monomials])
        variants.append(TropSystem(s.n, [shifted] + list(s.polys[1:])))
        perm = list(range(s.n))
        rng.shuffle(perm)
        variants.append(
            TropSystem(
                s.n,
                [
                    TropPoly([LinForm.make([m.a[p] for p in perm], m.b) for m in f.monomials])
                    for f in s.polys
                ],
            )
        )
        for v in variants:
            comp = cells_via_arrangement(v)
            got = (len(comp.cells), betti_of_complex(comp).b)
            if got != base:
                failures += 1
    _verdict(7, failures == 0, f"{count} systems x 3 transformations, {failures} changes")


def test_criterion_8_realizer_roundtrip():
    rng = random.Random(CORPUS_SEED + 2)
    complexes = complex_corpus(CORPUS_SEED + 2, 20)
    cases = disagreements = 0
    for c in complexes:
        s = complex_prevariety(c)
        cases += 1
        points = []
        anchors = [p.relative_interior_point() for p in c.polyhedra]
        anchors = [a for a in anchors if a is not None]
        while len(points) < 1000:
            if anchors and len(points) % 4 == 0:
                base = anchors[rng.randrange(len(anchors))]
                x = tuple(
                    b + Fraction(rng.randint(-2, 2), rng.randint(1, 5)) for b in base
                )
            else:
                x = tuple(
                    Fraction(rng.randint(-15, 15), rng.randint(1, 5)) for _ in range(c.n)
                )
            points.append(x)
        points.extend(anchors)
        for x in points:
            if is_system_zero(s, x) != any(p.contains(x) for p in c.polyhedra):
                disagreements += 1
    ok = cases >= 20 and disagreements == 0
    _verdict(
        8, ok, f"{cases} complexes, >=1000 points each, {disagreements} membership disagreements"
    )
