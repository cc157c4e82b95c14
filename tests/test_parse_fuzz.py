"""Fuzzing of the input parsers through the CLI.

Documents for ``parse_system`` (via ``tropbetti dual``) and
``parse_complex`` (via ``tropbetti realize``) are drawn malformed, with
zero denominators, bool exponents, huge integers, exponent strings and
arity mismatches, or small and valid.  The only allowed outcomes are exit
code 1 with one ``error:`` line on stderr, or exit code 0 with a JSON
result on stdout.
"""

import contextlib
import io
import json
import sys

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tropbetti.cli import main

HUGE = "9" * 5000  # past Python's 4,300-digit limit for int <-> str
DEEP = "[" * 100_000 + "]" * 100_000

# a marker string that ``_document`` replaces by the bare digits of HUGE
_HUGE_MARK = "\0huge"

def mostly(valid, invalid):
    """``valid`` about four times in five, else ``invalid``."""
    return st.sampled_from([valid] * 4 + [invalid]).flatmap(lambda s: s)


exponents = mostly(
    st.integers(min_value=0, max_value=2),
    st.one_of(st.integers(min_value=-2, max_value=-1), st.booleans(), st.just(_HUGE_MARK), st.just(10**40)),
)
constants = mostly(
    st.one_of(st.sampled_from(["0", "1/2", "-3/4", "0.25", "7"]), st.integers(min_value=-3, max_value=3)),
    st.one_of(
        st.sampled_from(["1/0", "0/0", "1e400", "1e999999999", "2E3", "x", "", "9" * 5000]),
        st.booleans(),
        st.just(_HUGE_MARK),
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False, width=16),
    ),
)
ambient = mostly(st.integers(min_value=1, max_value=2), st.sampled_from([0, -1, True, "2", None, 2.0]))


def _width(n) -> int:
    return n if type(n) is int and 1 <= n <= 2 else 1


def _vector(n):
    """Exponent vectors of length n, or one off: arity mismatches."""
    wrong = st.sampled_from([n - 1, n + 1]).flatmap(lambda k: st.lists(exponents, min_size=k, max_size=k))
    return mostly(st.lists(exponents, min_size=n, max_size=n), wrong)


@st.composite
def system_docs(draw):
    n = draw(ambient)
    monomial = mostly(st.tuples(_vector(_width(n)), constants).map(list), st.lists(constants, max_size=3))
    polys = draw(mostly(st.lists(st.lists(monomial, min_size=1, max_size=3), min_size=1, max_size=2), st.just([[]])))
    doc = {"n": n, "polys": polys}
    if draw(st.booleans()):
        doc["laurent"] = draw(mostly(st.booleans(), st.sampled_from(["false", 0, None])))
    return doc


@st.composite
def complex_docs(draw):
    n = draw(ambient)
    row = st.tuples(_vector(_width(n)), constants).map(list)
    member = mostly(
        st.fixed_dictionaries({"eq": st.lists(row, min_size=1, max_size=1)}, optional={"ineq": st.lists(row, max_size=2)}),
        st.one_of(st.integers(), st.fixed_dictionaries({}, optional={"ineq": st.lists(row, max_size=2)})),
    )
    return {"n": n, "polyhedra": draw(st.lists(member, max_size=2))}


def _document(doc) -> bytes:
    text = json.dumps(doc)
    return text.replace(json.dumps(_HUGE_MARK), HUGE).encode()


def _documents(docs: st.SearchStrategy) -> st.SearchStrategy:
    """Documents, or malformed ones: raw bytes, cut off or spliced
    documents, and deep nesting."""
    return mostly(docs.map(_document), st.one_of(
        st.binary(max_size=40),
        docs.map(_document).flatmap(lambda b: st.integers(0, len(b)).map(lambda i: b[:i])),
        st.tuples(docs.map(_document), st.binary(max_size=4)).map(lambda t: t[0][:-1] + t[1]),
        st.just(DEEP.encode()),
    ))


def _run(argv, data: bytes):
    stdin = io.TextIOWrapper(io.BytesIO(data))
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _exit_1_or_result(code, out, err):
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert code == 0 and err == "", (code, err)
        json.loads(out)


fuzz = settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])


@given(_documents(system_docs()))
@example(b'{"n":1,"polys":[[[[1],' + HUGE.encode() + b"],[[0],0]]]}")  # JSON integer past the digit limit
@example(b'{"n":1,"polys":[[[[1],"1e400"],[[0],0]]]}')  # exponent notation
@example(b'{"n":1,"polys":[[[[1],"1e999999999"],[[0],0]]]}')  # would build 10**999999999
@example(DEEP.encode())  # nesting too deep to decode
@example(b'{"n":1,"polys":[[[[true],"0"],[[0],"1/0"]]]}')  # bool exponent, zero denominator
@example(b'{"n":2,"polys":[[[[1],"0"],[[0,1],"0"]]]}')  # arity mismatch
@fuzz
def test_parse_system_fuzz(data):
    _exit_1_or_result(*_run(["dual", "-"], data))


@given(_documents(complex_docs()))
@example(b'{"n":1,"polyhedra":[{"eq":[[[1],' + HUGE.encode() + b"]]}]}")
@example(b'{"n":1,"polyhedra":[{"eq":[[[1],"1e999999999"]]}]}')
@example(DEEP.encode())
@example(b'{"n":2,"polyhedra":[{"eq":[[[1],"1/0"]], "ineq":[[[true,0],"0"]]}]}')
@fuzz
def test_parse_complex_fuzz(data):
    _exit_1_or_result(*_run(["realize", "-"], data))


def test_oversized_and_exponent_constants_exit_1():
    """A JSON integer past the digit limit, over-deep nesting and exponent
    notation are input errors; integers, p/q and plain decimals are not."""
    for data in (
        b'{"n":1,"polys":[[[[1],' + HUGE.encode() + b"],[[0],0]]]}",
        DEEP.encode(),
        b'{"n":1,"polys":[[[[1],"1e400"],[[0],0]]]}',
        b'{"n":1,"polys":[[[[1],"1E-2"],[[0],0]]]}',
    ):
        code, out, err = _run(["dual", "-"], data)
        assert code == 1 and out == "" and err.startswith("error: "), err
    code, out, _ = _run(["dual", "-"], b'{"n":1,"polys":[[[[1],"0.25"],[[0],"-3/4"]],[[[1],7],[[0],"0"]]]}')
    assert code == 0 and json.loads(out)["faces"]
