"""Exact feasibility by Fourier–Motzkin elimination, judged by the simplex.

The two-phase simplex in ``simplex.py`` shares no code with
``feasible_point``; its own tests come first.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropbetti import linprog
from tropbetti.linalg import InvariantError
from tropbetti.linprog import feasible_point

from simplex import LPStatus, farkas_infeasible, relint_witness, solve_lp

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def test_minimize_simple():
    res = solve_lp(1, [], [([1], 3)], [1])
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 3 and res.x == (3,)


def test_maximize_simple():
    res = solve_lp(1, [], [([-1], -5)], [1], maximize=True)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 5


def test_unbounded():
    res = solve_lp(1, [], [([1], 0)], [1], maximize=True)
    assert res.status is LPStatus.UNBOUNDED


def test_infeasible():
    res = solve_lp(1, [], [([1], 1), ([-1], 0)], [1])
    assert res.status is LPStatus.INFEASIBLE


def test_equalities_and_negative_rhs():
    # x + y = -2, x >= -3, maximize y (attained at x = -3)
    res = solve_lp(2, [([1, 1], -2)], [([1, 0], -3)], [0, 1], maximize=True)
    assert res.status is LPStatus.OPTIMAL
    assert res.value == 1 and res.x == (-3, 1)


def test_feasibility_without_objective():
    res = solve_lp(2, [([1, -1], 0)], [([1, 0], 0), ([0, 1], 0)])
    assert res.status is LPStatus.OPTIMAL
    x, y = res.x
    assert x == y and x >= 0


@given(
    st.integers(min_value=1, max_value=3),
    st.data(),
)
@settings(deadline=None, max_examples=60)
def test_anchored_systems_feasible_and_exact(n, data):
    # constraints built to hold at an anchor point, so feasibility is known
    anchor = data.draw(st.lists(rationals, min_size=n, max_size=n))
    rows = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        a = data.draw(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)
        )
        slack = data.draw(st.integers(min_value=0, max_value=3))
        rows.append((a, sum(Fraction(c) * x for c, x in zip(a, anchor)) - slack))
    obj = data.draw(st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n))
    res = solve_lp(n, [], rows, obj)
    assert res.status in (LPStatus.OPTIMAL, LPStatus.UNBOUNDED)
    if res.status is LPStatus.OPTIMAL:
        assert all(
            sum(Fraction(c) * x for c, x in zip(a, res.x)) >= b for a, b in rows
        )
        anchor_value = sum(Fraction(c) * x for c, x in zip(obj, anchor))
        assert res.value <= anchor_value


def test_relint_witness_interval():
    w = relint_witness(1, [], [((1,), 0), ((-1,), -1)])
    assert w is not None and 0 < w[0] < 1


def test_relint_witness_empty():
    assert relint_witness(1, [], [((1,), 0), ((-1,), 0)]) is None


def test_relint_witness_with_equalities():
    w = relint_witness(2, [((1, -1), 0)], [((1, 0), 0)])
    assert w is not None
    x, y = w
    assert x == y and x > 0


def test_relint_witness_boundary_not_enough():
    # x > 0 and x = 0 has no relative interior point
    assert relint_witness(1, [((1,), 0)], [((1,), 0)]) is None


def test_feasible_point_examples():
    assert feasible_point(2) == (0, 0)
    (x,) = feasible_point(1, ineqs=[((1,), 3)])
    assert x >= 3
    assert feasible_point(1, ineqs=[((1,), 1), ((-1,), 0)]) is None
    (x,) = feasible_point(1, stricts=[((1,), 0), ((-1,), -1)])
    assert 0 < x < 1
    assert feasible_point(1, stricts=[((1,), 0), ((-1,), 0)]) is None
    assert feasible_point(1, eqs=[((1,), 0)], stricts=[((1,), 0)]) is None
    x, y = feasible_point(2, eqs=[((1, -1), 0)], stricts=[((1, 0), 0)])
    assert x == y > 0
    x, y = feasible_point(2, eqs=[((1, 1), -2)], ineqs=[((1, 0), -3), ((-1, 0), 3)])
    assert (x, y) == (-3, 1)


def test_feasible_point_rows_without_a_variable():
    assert feasible_point(2, eqs=[((0, 0), 1)]) is None
    assert feasible_point(2, ineqs=[((0, 0), 1)]) is None
    assert feasible_point(2, stricts=[((0, 0), 0)]) is None
    assert feasible_point(2, eqs=[((0, 0), 0)], ineqs=[((0, 0), 0)], stricts=[((0, 0), -1)]) == (0, 0)


def test_feasible_point_checks_its_point(monkeypatch):
    monkeypatch.setattr(linprog, "_solve", lambda n, eqs, ineqs, stricts: (Fraction(1, 2),))
    assert feasible_point(1, ineqs=[((1,), 0)]) == (Fraction(1, 2),)
    with pytest.raises(InvariantError, match=r"^feasible_point: \(1/2\) breaks the row \(2,\) \. x > 1$"):
        feasible_point(1, stricts=[((2,), 1)])


def _capped_slack_feasible(n, eqs, ineqs, stricts) -> bool:
    """The simplex's answer: maximise the common slack t <= 1 of the strict
    rows; feasible iff the optimum exists and, with strict rows, is > 0."""
    eqs_t = [(list(a) + [0], b) for a, b in eqs]
    ineqs_t = [(list(a) + [0], b) for a, b in ineqs] + [(list(a) + [-1], b) for a, b in stricts]
    ineqs_t += [([0] * n + [1], 0), ([0] * n + [-1], -1)]
    res = solve_lp(n + 1, eqs_t, ineqs_t, [0] * n + [1], maximize=True)
    return res.status is LPStatus.OPTIMAL and (res.value > 0 or not stricts)


@st.composite
def systems(draw):
    """Rows with small integer normals; most hold at an anchor point, with
    a slack of 0 to 2, so that the systems are often feasible but tight."""
    n = draw(st.integers(min_value=1, max_value=4))
    anchor = draw(st.lists(rationals, min_size=n, max_size=n))

    def rows(count, slack):
        out = []
        for _ in range(draw(st.integers(min_value=0, max_value=count))):
            a = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
            at_anchor = sum(Fraction(c) * x for c, x in zip(a, anchor))
            out.append((a, draw(st.one_of(st.sampled_from([at_anchor - s for s in slack]), rationals))))
        return out

    return n, rows(2, [0]), rows(6, [0, 0, 1, 2]), rows(4, [0, 1])


@given(systems())
@settings(deadline=None, max_examples=400)
def test_feasible_point_agrees_with_the_simplex(system):
    n, eqs, ineqs, stricts = system
    x = feasible_point(n, eqs, ineqs, stricts)
    assert (x is not None) == _capped_slack_feasible(n, eqs, ineqs, stricts)
    if x is not None:
        assert all(sum(Fraction(c) * v for c, v in zip(a, x)) == b for a, b in eqs)
        assert all(sum(Fraction(c) * v for c, v in zip(a, x)) >= b for a, b in ineqs)
        assert all(sum(Fraction(c) * v for c, v in zip(a, x)) > b for a, b in stricts)


def test_farkas_infeasible_examples():
    assert farkas_infeasible(1, [], [((1,), 1), ((-1,), 0)])
    assert not farkas_infeasible(1, [], [((1,), 0), ((-1,), 0)])
    assert farkas_infeasible(2, [((1, 1), 1), ((2, 2), 3)], [])
    assert farkas_infeasible(2, [((0, 0), 1)], []) and farkas_infeasible(2, [], [((0, 0), 1)])
    assert not farkas_infeasible(2, [((0, 0), 0)], [((0, 0), -1)]) and not farkas_infeasible(3, [], [])


@given(systems())
@settings(deadline=None, max_examples=300)
def test_farkas_infeasible_agrees_with_the_primal_simplex(system):
    """The multipliers' phase I and the primal simplex decide alike."""
    n, eqs, ineqs, _ = system
    assert farkas_infeasible(n, eqs, ineqs) == (solve_lp(n, eqs, ineqs).status is LPStatus.INFEASIBLE)
