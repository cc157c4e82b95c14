"""Fuzzing of the reports through the CLI, past parsing.

Valid systems with n <= 2, k <= 2 and m <= 3, whose exponents and
constants reach 10^3000 in magnitude, run through ``bounds``, ``check`` and
``cells --emit-off``.  Their volumes, vertices and bounds can leave float
range or pass Python's digit limit for printing an integer.  The only
allowed outcomes are exit code 1 with one ``error:`` line on stderr, or
exit code 0 with a JSON result on stdout.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_parse_fuzz import _exit_1_or_result, _run

E200, E3000 = 10**200, 10**3000

# small values, or powers of ten up to 10^3000 give or take a little
_huge = st.builds(lambda e, d: 10**e + d, st.integers(0, 3000), st.integers(-2, 2))
exponents = st.one_of(st.integers(0, 3), _huge)
constants = st.one_of(
    st.integers(-3, 3),
    st.tuples(st.sampled_from([1, -1]), _huge).map(lambda t: t[0] * t[1]),
    st.tuples(st.one_of(st.integers(-3, 3), _huge), st.one_of(st.integers(1, 3), _huge)).map(
        lambda t: f"{t[0]}/{t[1]}"
    ),
)


@st.composite
def system_docs(draw) -> bytes:
    n = draw(st.integers(1, 2))
    monomial = st.tuples(st.lists(exponents, min_size=n, max_size=n), constants).map(list)
    polys = draw(st.lists(st.lists(monomial, min_size=1, max_size=3), min_size=1, max_size=2))
    return json.dumps({"n": n, "polys": polys}).encode()


@given(system_docs())
# Vol_1 = sqrt(1 + 10^400): a radicand past float range, a volume within it
@example(b'{"n":2,"polys":[[[[0,0],"0"],[[1,%d],"0"]]]}' % E200)
# the one cell is the point x = 10^400, beyond float range for OFF
@example(b'{"n":1,"polys":[[[[1],"0"],[[0],"1%s"]]]}' % (b"0" * 400))
# dense bound 3, but degree_bound about 7 10^6000 is past the digit limit
@example(b'{"n":2,"polys":[[[[%d,0],"0"],[[%d,1],"0"]]]}' % (E3000, E3000))
@settings(deadline=None, max_examples=100, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
def test_reports_exit_0_or_1(tmp_path, data):
    for argv in (["bounds", "-"], ["check", "-"], ["cells", "--emit-off", str(tmp_path / "cells.off"), "-"]):
        _exit_1_or_result(*_run(argv, data))


def test_report_edge_repros(tmp_path):
    """A radicand past float range is approximated; a vertex past float
    range for OFF and an integer past the digit limit are input errors."""
    off_path = tmp_path / "cells.off"
    code, out, err = _run(["bounds", "-"], b'{"n":2,"polys":[[[[0,0],"0"],[[1,%d],"0"]]]}' % E200)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert abs(report["vol_r_approx"] / 1e200 - 1) < 1e-12
    assert abs(report["dense_bound_approx"] / 3e200 - 1) < 1e-12
    off = b'{"n":1,"polys":[[[[1],"0"],[[0],"1%s"]]]}' % (b"0" * 400)
    for argv, data in (
        (["cells", "--emit-off", str(off_path), "-"], off),
        (["bounds", "-"], b'{"n":2,"polys":[[[[%d,0],"0"],[[%d,1],"0"]]]}' % (E3000, E3000)),
        (["check", "-"], b'{"n":2,"polys":[[[[%d,0],"0"],[[%d,1],"0"]]]}' % (E3000, E3000)),
    ):
        code, out, err = _run(argv, data)
        assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert not off_path.exists()
