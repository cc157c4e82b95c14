"""Exact verification of the three face/Betti upper bounds.

Dense bound: phi(V) <= (2^(r+1) - 1) * r! * Vol_r(P_1 + ... + P_k), where
P_i are the Newton polytopes and r is the dimension of their Minkowski sum
(assumed positive; r = 0 is reported as degenerate).  r and Vol_r are read
from the dual route's final hull, ``TropSystem.lifted_hull``, which projects
onto the sum.  Degree bound: b(V) <= (2^(n+1) - 1) * (k*d)^n.  Sparse bound:
phi(V) <= n * 2^n * binom(k*binom(m,2), n) for n <= k*binom(m,2); smaller
systems fall back to the essential-dimension maximum and are flagged.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exactgeom import newton_volume
from .prevariety import PrevarietyComplex, cells_via_arrangement
from .topology import BettiVector, betti_of_complex
from .tropical import LaurentError, TropSystem, degree


def _dense_scale(r: int) -> int:
    """(2^(r+1) - 1) * r!, the dense bound's factor on Vol_r."""
    return (2 ** (r + 1) - 1) * math.factorial(r)


def _max_degree(s: TropSystem) -> int:
    """d, the maximum tropical degree; LaurentError for a Laurent system."""
    return max(degree(f) for f in s.polys)


def degree_bound(s: TropSystem) -> int:
    """(2^(n+1) - 1) * (k*d)^n, d the maximum tropical degree."""
    return (2 ** (s.n + 1) - 1) * (s.k * _max_degree(s)) ** s.n


def sparse_bound(n: int, k: int, m: int) -> int:
    """n * 2^n * binom(k*binom(m,2), n), essentialized when n exceeds it."""
    ell = k * math.comb(m, 2)
    if n <= ell:
        return n * 2**n * math.comb(ell, n)
    return max((c * 2**c * math.comb(ell, c) for c in range(ell + 1)), default=0)


class BoundReport(
    namedtuple(
        "BoundReport",
        "n k m d r phi total_betti vol_r dense_bound dense_degenerate degree_bound"
        " sparse_bound sparse_degenerate betti_le_phi phi_le_dense phi_le_sparse betti_le_degree",
    )
):
    """The bounds of one system against its cells and Betti numbers.

    ``vol_r`` and ``dense_bound`` are ``RadVal``s; ``d``, ``degree_bound``
    and ``betti_le_degree`` are None for a Laurent system, and
    ``phi_le_dense`` is None when the dense bound is degenerate (r = 0).
    """

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return (
            self.betti_le_phi
            and self.phi_le_sparse
            and self.phi_le_dense is not False
            and self.betti_le_degree is not False
        )


def verify_bounds(s: TropSystem) -> BoundReport:
    complex_ = cells_via_arrangement(s)
    return bound_report(s, complex_, betti_of_complex(complex_))


def bound_report(s: TropSystem, complex_: PrevarietyComplex, betti: BettiVector) -> BoundReport:
    """The three bounds checked against a prevariety's cells and Betti numbers."""
    phi = len(complex_.cells)
    total_b = betti.total
    r, vol = newton_volume(s.lifted_hull)
    dense = vol.scaled(_dense_scale(r))
    try:
        d: int | None = _max_degree(s)
        deg_bound: int | None = degree_bound(s)
        betti_le_degree: bool | None = total_b <= deg_bound
    except LaurentError:
        d = None
        deg_bound = None
        betti_le_degree = None
    m = s.max_monomials
    sp_bound = sparse_bound(s.n, s.k, m)
    dense_degenerate = r == 0
    return BoundReport(
        n=s.n,
        k=s.k,
        m=m,
        d=d,
        r=r,
        phi=phi,
        total_betti=total_b,
        vol_r=vol,
        dense_bound=dense,
        dense_degenerate=dense_degenerate,
        degree_bound=deg_bound,
        sparse_bound=sp_bound,
        sparse_degenerate=s.n > s.k * math.comb(m, 2),
        betti_le_phi=total_b <= phi,
        phi_le_dense=None if dense_degenerate else dense >= phi,
        phi_le_sparse=phi <= sp_bound,
        betti_le_degree=betti_le_degree,
    )
