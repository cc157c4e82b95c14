"""Min-plus tropical polynomials over exact rational constants.

A tropical polynomial is min{L_1, ..., L_m} of affine forms with integer
variable coefficients and rational constant terms, a Laurent polynomial
when a coefficient is negative.  Zeros are the points where the minimum
is attained at least twice.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property

from . import linalg
from .arrangement import Arrangement, build_arrangement
from .exactgeom import DimensionMismatch, LiftedHull, lifted_sum_hull


class LaurentError(ValueError):
    pass


class LinForm(namedtuple("LinForm", "a b")):
    """Affine form a.x + b (a tropical monomial): a a tuple of ints, b a
    Fraction, ordered and hashed as the pair (a, b)."""

    __slots__ = ()

    @classmethod
    def make(cls, a, b) -> "LinForm":
        return cls(tuple(int(x) for x in a), Fraction(b))

    def __call__(self, x) -> Fraction:
        return linalg.dot(self.a, x) + self.b

    @property
    def degree(self) -> int:
        return sum(self.a)


class TropPoly:
    """min of a deduplicated, canonically ordered list of monomials."""

    def __init__(self, monomials):
        mons = sorted(set(m if isinstance(m, LinForm) else LinForm.make(*m) for m in monomials))
        if not mons:
            raise ValueError("a tropical polynomial needs at least one monomial")
        n = len(mons[0].a)
        if any(len(m.a) != n for m in mons):
            raise DimensionMismatch("monomials of mixed arity")
        self.monomials = tuple(mons)
        self.n = n
        self.laurent = any(c < 0 for m in mons for c in m.a)

    def __eq__(self, other):
        return isinstance(other, TropPoly) and self.monomials == other.monomials

    def __hash__(self):
        return hash(self.monomials)

    def __repr__(self):
        return f"TropPoly(min of {len(self.monomials)} monomials, n={self.n})"

    @property
    def m(self) -> int:
        return len(self.monomials)


class TropSystem:
    """Finite system of tropical polynomials in shared variables.

    It owns what its analyses share: the tie arrangement, and the hull of
    the lifted Newton sum, which gives the dual route and the dense volume.
    """

    def __init__(self, n: int, polys):
        polys = tuple(polys)
        if not polys:
            raise ValueError("a system needs at least one polynomial")
        if any(f.n != n for f in polys):
            raise DimensionMismatch("polynomial arity != system arity")
        self.n = n
        self.polys = polys

    @property
    def k(self) -> int:
        return len(self.polys)

    @property
    def max_monomials(self) -> int:
        return max(f.m for f in self.polys)

    def __eq__(self, other):
        return isinstance(other, TropSystem) and (self.n, self.polys) == (other.n, other.polys)

    def __hash__(self):
        return hash((self.n, self.polys))

    @cached_property
    def arrangement(self) -> Arrangement:
        """The tie arrangement, built once and freed with the system.

        Its faces are not cached: each ``enumerate_faces`` call walks it.
        """
        return build_arrangement(self)

    @cached_property
    def lifted_hull(self) -> LiftedHull:
        """conv(Q_1 + ... + Q_k) + cone(e) for the lifted monomials (a, b)."""
        return lifted_sum_hull([[(*m.a, m.b) for m in f.monomials] for f in self.polys])


def eval_poly(f: TropPoly, x) -> tuple[Fraction, frozenset[int]]:
    """(min value, set of monomial indices attaining it)."""
    x = linalg.fvec(x)
    if len(x) != f.n:
        raise DimensionMismatch("point arity != polynomial arity")
    vals = [mon(x) for mon in f.monomials]
    lo = min(vals)
    return lo, frozenset(i for i, v in enumerate(vals) if v == lo)


def degree(f: TropPoly) -> int:
    if f.laurent:
        raise LaurentError("degree undefined for Laurent polynomials")
    return max(mon.degree for mon in f.monomials)


def trop_mul(f: TropPoly, g: TropPoly) -> TropPoly:
    """Tropical product; its zero set is zeros(f) union zeros(g).

    Tropical addition is min, so each exponent's coefficient is the least
    constant among the monomial products with that exponent; a larger one
    never attains the minimum.
    """
    if f.n != g.n:
        raise DimensionMismatch("polynomial arities differ")
    best: dict[tuple[int, ...], Fraction] = {}
    for mf in f.monomials:
        for mg in g.monomials:
            a, b = linalg.vadd(mf.a, mg.a), mf.b + mg.b
            if a not in best or b < best[a]:
                best[a] = b
    return TropPoly([LinForm(a, b) for a, b in best.items()])


def make_coeffs_nonneg(f: TropPoly) -> TropPoly:
    """Add one linear form to all monomials so coefficients are >= 0.

    Argmin sets (hence zeros) are unchanged at every point.
    """
    shift = tuple(max(0, -min(mon.a[i] for mon in f.monomials)) for i in range(f.n))
    if all(s == 0 for s in shift):
        return f
    return TropPoly([LinForm.make(linalg.vadd(mon.a, shift), mon.b) for mon in f.monomials])
