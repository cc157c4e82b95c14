"""Realize rational polyhedra and complexes as tropical prevarieties.

A half-space A_ge = {M_1 = ... = M_s = 0, L >= 0} of an affine subspace is
the zero set of the system f_i = min{M_i, 0} (i <= s) together with
f_{s+1} = min{0, M_1, L}: on A the monomials 0 and M_1 tie, and they attain
the minimum exactly where L >= 0.  Intersections concatenate systems,
unions multiply them polynomial by polynomial.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import linalg
from .exactgeom import HPolyhedron
from .tropical import LinForm, TropPoly, TropSystem, make_coeffs_nonneg, trop_mul

MAX_COMPLEX_MEMBERS = 6
"""Union systems grow as products of member system sizes; desk-scale cap."""


class ComplexDescription(namedtuple("ComplexDescription", "n polyhedra")):
    """Finite list of positive-codimension rational polyhedra in R^n: a
    tuple of ``HPolyhedron``s."""

    __slots__ = ()

    @classmethod
    def make(cls, n: int, polyhedra) -> "ComplexDescription":
        return cls(int(n), tuple(polyhedra))


def _affine_poly(n: int, row) -> TropPoly:
    """min{a.x - b, 0} for an (a, b) constraint row."""
    a, b = row
    return make_coeffs_nonneg(TropPoly([LinForm.make(a, -Fraction(b)), LinForm.make([0] * n, 0)]))


def halfspace_prevariety(n: int, equations, *inequalities) -> TropSystem:
    """System with zero set {a.x = b for equations, a.x >= b for each
    inequality}.

    Rows follow the H-polyhedron convention (a, b) for a.x {=,>=} b, so the
    paper's forms are M_i = a_i.x - b_i and L = a.x - b.
    """
    equations = [(linalg.fvec(a), Fraction(b)) for a, b in equations]
    if not equations:
        raise ValueError("a positive-codimension subspace needs an equation")
    polys = [_affine_poly(n, row) for row in equations]
    a1, b1 = equations[0]
    for ai, bi in inequalities:
        mons = [
            LinForm.make([0] * n, 0),
            LinForm.make(a1, -b1),
            LinForm.make(ai, -Fraction(bi)),
        ]
        polys.append(make_coeffs_nonneg(TropPoly(mons)))
    return TropSystem(n, polys)


def polyhedron_prevariety(p: HPolyhedron) -> TropSystem:
    """System whose zero set is p; requires positive codimension."""
    equations = p.affine_hull_rows()
    if not equations:
        raise ValueError("polyhedron is full-dimensional; not realizable")
    return TropSystem(p.n, dict.fromkeys(halfspace_prevariety(p.n, equations, *p.ineq).polys))


def union_prevarieties(a: TropSystem, b: TropSystem) -> TropSystem:
    """Zero set = zeros(a) union zeros(b), via pairwise tropical products."""
    if a.n != b.n:
        raise ValueError("ambient dimensions differ")
    return TropSystem(a.n, [trop_mul(f, g) for f in a.polys for g in b.polys])


def complex_prevariety(c: ComplexDescription) -> TropSystem:
    """Union of the member polyhedra as one prevariety."""
    if len(c.polyhedra) > MAX_COMPLEX_MEMBERS:
        raise ValueError(f"at most {MAX_COMPLEX_MEMBERS} polyhedra supported")
    if not c.polyhedra:
        # no members: the empty union, realized by a zero-free polynomial
        return TropSystem(c.n, [TropPoly([LinForm.make([0] * c.n, 0)])])
    system = polyhedron_prevariety(c.polyhedra[0])
    for p in c.polyhedra[1:]:
        system = union_prevarieties(system, polyhedron_prevariety(p))
    return system


def gen_grid_example(n: int, m: int) -> TropSystem:
    """n univariate polynomials whose common zeros are the m^n grid points.

    f_i = min_j {j*x_i + (m-j)^2}: the reflected strictly convex lift puts
    slope m-j on [2j-1, 2j+1], so each f_i has zeros exactly at
    x_i = 2j+1, j = 0..m-1.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    polys = []
    for i in range(n):
        mons = []
        for j in range(m + 1):
            a = [0] * n
            a[i] = j
            mons.append(LinForm.make(a, (m - j) ** 2))
        polys.append(TropPoly(mons))
    return TropSystem(n, polys)
