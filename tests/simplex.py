"""Exact two-phase simplex over the rationals: the tests' judge.

Variables are free; constraints are equalities a.x == b and inequalities
a.x >= b.  Bland's rule throughout, so termination is guaranteed.  It
shares no code with the package's Fourier–Motzkin ``feasible_point``,
which it judges (``test_linprog``: feasibility by the capped common slack
of the strict rows, ``relint_witness``; ``test_exactgeom``: a member's
implicit equalities as the rows whose maximum is their right-hand side),
and it stays the LP behind the oracles in ``oracles.py``.
``farkas_infeasible`` runs phase I on Farkas multipliers, which keeps the
tableau at n + 1 rows for a long system in few coordinates, as the cell
nerve of ``oracles.cell_nerve_betti`` asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    x: tuple[Fraction, ...] | None = None
    value: Fraction | None = None


def _pivot(rows, rhs, obj, obj_rhs, basis, r, c):
    inv = 1 / rows[r][c]
    rows[r] = [v * inv for v in rows[r]]
    rhs[r] *= inv
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
            rhs[i] -= f * rhs[r]
    if obj[c] != 0:
        f = obj[c]
        for j in range(len(obj)):
            obj[j] -= f * rows[r][j]
        obj_rhs[0] -= f * rhs[r]
    basis[r] = c


def _run_simplex(rows, rhs, obj, obj_rhs, basis):
    """Minimize; returns True if optimal, False if unbounded."""
    while True:
        enter = next((j for j, v in enumerate(obj) if v < 0), None)
        if enter is None:
            return True
        best = None
        for i in range(len(rows)):
            a = rows[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return False
        _pivot(rows, rhs, obj, obj_rhs, basis, best[1], enter)


def solve_lp(n, eqs, ineqs, objective=None, maximize=False) -> LPResult:
    """Solve min/max of objective.x over {eqs hold, a.x >= b for ineqs}.

    With objective None, reports feasibility (value 0 at a witness).
    """
    eq_rows = []
    for a, b in eqs:
        a = [Fraction(v) for v in a]
        b = Fraction(b)
        if all(v == 0 for v in a):
            if b != 0:
                return LPResult(LPStatus.INFEASIBLE)
            continue
        eq_rows.append((a, b, True))
    for a, b in ineqs:
        a = [Fraction(v) for v in a]
        b = Fraction(b)
        if all(v == 0 for v in a):
            if b > 0:
                return LPResult(LPStatus.INFEASIBLE)
            continue
        eq_rows.append((a, b, False))

    nslack = sum(1 for _, _, is_eq in eq_rows if not is_eq)
    nstruct = 2 * n + nslack
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    art_of_row: list[bool] = []
    basis: list[int] = []
    si = 0
    for a, b, is_eq in eq_rows:
        row = [Fraction(0)] * nstruct
        for j, v in enumerate(a):
            row[j] = v
            row[n + j] = -v
        if not is_eq:
            row[2 * n + si] = Fraction(-1)
            si += 1
        if b < 0:
            row = [-v for v in row]
            b = -b
        rows.append(row)
        rhs.append(b)
        # slack column usable as initial basis iff its coefficient is +1
        slack_col = 2 * n + si - 1 if not is_eq else None
        if slack_col is not None and rows[-1][slack_col] == 1:
            basis.append(slack_col)
            art_of_row.append(False)
        else:
            basis.append(-1)  # placeholder, artificial added below
            art_of_row.append(True)

    nart = sum(art_of_row)
    if nart:
        col = nstruct
        for i, need in enumerate(art_of_row):
            if need:
                for r2 in rows:
                    r2.append(Fraction(0))
                rows[i][col] = Fraction(1)
                basis[i] = col
                col += 1
        # phase I: minimize sum of artificials
        obj = [Fraction(0)] * (nstruct + nart)
        for j in range(nstruct, nstruct + nart):
            obj[j] = Fraction(1)
        obj_rhs = [Fraction(0)]
        for i, b in enumerate(basis):
            if b >= nstruct:
                for j in range(len(obj)):
                    obj[j] -= rows[i][j]
                obj_rhs[0] -= rhs[i]
        _run_simplex(rows, rhs, obj, obj_rhs, basis)
        if -obj_rhs[0] != 0:
            return LPResult(LPStatus.INFEASIBLE)
        # drive artificials out of the basis
        drop = []
        for i in range(len(rows)):
            if basis[i] >= nstruct:
                c = next((j for j in range(nstruct) if rows[i][j] != 0), None)
                if c is None:
                    drop.append(i)
                else:
                    _pivot(rows, rhs, obj, obj_rhs, basis, i, c)
        for i in sorted(drop, reverse=True):
            del rows[i], rhs[i], basis[i]
        rows = [r2[:nstruct] for r2 in rows]

    # phase II
    c = [Fraction(0)] * nstruct
    if objective is not None:
        sign = -1 if maximize else 1
        for j, v in enumerate(objective):
            v = Fraction(v) * sign
            c[j] = v
            c[n + j] = -v
    obj = list(c)
    obj_rhs = [Fraction(0)]
    for i, b in enumerate(basis):
        if c[b] != 0:
            f = c[b]
            for j in range(nstruct):
                obj[j] -= f * rows[i][j]
            obj_rhs[0] -= f * rhs[i]
    ok = _run_simplex(rows, rhs, obj, obj_rhs, basis)
    if not ok:
        return LPResult(LPStatus.UNBOUNDED)
    xs = [Fraction(0)] * nstruct
    for i, b in enumerate(basis):
        xs[b] = rhs[i]
    x = tuple(xs[j] - xs[n + j] for j in range(n))
    value = -obj_rhs[0]
    if maximize:
        value = -value
    return LPResult(LPStatus.OPTIMAL, x, value)


def relint_witness(n, eqs, stricts):
    """Witness of {eqs hold, a.x > b for all stricts}, or None.

    Maximizes the common slack t, capped at 1, of the strict inequalities;
    a positive optimum certifies relative-interior nonemptiness exactly.
    """
    eqs_t = [(list(a) + [0], b) for a, b in eqs]
    ineqs_t = [(list(a) + [-1], b) for a, b in stricts]
    ineqs_t.append(([0] * n + [1], 0))
    ineqs_t.append(([0] * n + [-1], -1))
    objective = [0] * n + [1]
    res = solve_lp(n + 1, eqs_t, ineqs_t, objective, maximize=True)
    if res.status is not LPStatus.OPTIMAL or res.value <= 0:
        return None
    return res.x[:n]


def farkas_infeasible(n, eqs, ineqs) -> bool:
    """Whether {a.x = b for eqs, a.x >= b for ineqs} in Q^n has no point.

    By Farkas' lemma it has none exactly when multipliers, free on the
    equalities and nonnegative on the inequalities, sum the rows to
    0.x = c with c > 0.  Scaled to c = 1 they are a point z >= 0 with
    sum_j z_j (a_j, b_j) = (0, 1), found by phase I on n + 1 rows, one
    column per inequality and two per equality, so a long system in few
    coordinates gives a short tableau.
    """
    columns = [(*a, b) for a, b in ineqs]
    for a, b in eqs:
        columns += [(*a, b), tuple(-v for v in (*a, b))]
    width = len(columns)
    # one artificial per row, the rows' right-hand sides (0, ..., 0, 1) >= 0
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(i == j) for j in range(n + 1)] for i in range(n + 1)]
    rhs = [Fraction(i == n) for i in range(n + 1)]
    basis = list(range(width, width + n + 1))
    obj = [-sum(row[j] for row in rows) for j in range(width)] + [Fraction(0)] * (n + 1)
    obj_rhs = [Fraction(-1)]
    _run_simplex(rows, rhs, obj, obj_rhs, basis)
    return obj_rhs[0] == 0
