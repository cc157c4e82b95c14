"""Seeded random corpora: tropical systems and polyhedral complexes.

Desk-scale instances (n <= 3, k <= 3, m <= 4, small integer coefficients,
rational constants with numerators and denominators <= 7) sized so that
exhaustive oracles stay affordable in the test suite.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import linalg
from .exactgeom import HPolyhedron
from .realize import ComplexDescription
from .tropical import LinForm, TropPoly, TropSystem


def random_rational(rng: random.Random, bound: int = 7) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_system(rng: random.Random, max_n: int = 3, max_k: int = 3, max_m: int = 4) -> TropSystem:
    n = rng.randint(1, max_n)
    polys = []
    for _ in range(rng.randint(1, max_k)):
        m = rng.randint(2, max_m)
        mons: set[tuple[tuple[int, ...], Fraction]] = set()
        while len(mons) < m:
            a = tuple(rng.randint(0, 3) for _ in range(n))
            mons.add((a, random_rational(rng)))
        polys.append(TropPoly([LinForm.make(a, b) for a, b in mons]))
    return TropSystem(n, polys)


def system_corpus(seed: int, count: int) -> list[TropSystem]:
    rng = random.Random(seed)
    return [random_system(rng) for _ in range(count)]


def _nonzero_intvec(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(a):
            return a


def random_polyhedron(rng: random.Random, n: int) -> HPolyhedron:
    """Nonempty positive-codimension polyhedron through a random point."""
    anchor = tuple(random_rational(rng, 3) for _ in range(n))
    eqs = []
    for _ in range(rng.randint(1, n)):
        a = _nonzero_intvec(rng, n)
        eqs.append((a, linalg.dot(a, anchor)))
    ineqs = []
    for _ in range(rng.randint(0, 2)):
        a = _nonzero_intvec(rng, n)
        ineqs.append((a, linalg.dot(a, anchor) - rng.randint(0, 3)))
    return HPolyhedron(n, eqs, ineqs)


def random_complex(rng: random.Random, max_n: int = 3, max_members: int = 4) -> ComplexDescription:
    n = rng.randint(1, max_n)
    members = [random_polyhedron(rng, n) for _ in range(rng.randint(1, max_members))]
    return ComplexDescription.make(n, members)


def complex_corpus(seed: int, count: int) -> list[ComplexDescription]:
    rng = random.Random(seed)
    return [random_complex(rng) for _ in range(count)]
