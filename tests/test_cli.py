import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropbetti.cli import (
    InputError,
    check_system,
    main,
    parse_complex,
    parse_system,
    serialize_system,
)
from tropbetti import arrangement, cli, exactgeom, linprog, topology
from tropbetti.corpus import complex_corpus, random_system, system_corpus
from tropbetti.linalg import InvariantError
from tropbetti.prevariety import DualFace, cells_via_arrangement, dual_subdivision
from tropbetti.realize import complex_prevariety, gen_grid_example
from tropbetti.topology import betti_of_complex
from tropbetti.tropical import LinForm, TropPoly, TropSystem

from cli_digests import CHECK_CORPUS, CORPUS_COUNT, CORPUS_SEED, DIGESTS, EMIT_OFF, REALIZED_CELLS
import hidim_digests

LINE_DOC = '{"n":2,"polys":[[[[1,0],"0"],[[0,1],"0"],[[0,0],"0"]]]}'
# the boundary of the unit square, acceptance criterion 6's circle
SQUARE_DOC = json.dumps(
    {
        "n": 2,
        "polyhedra": [
            {"eq": [[[0, 1], "0"]], "ineq": [[[1, 0], "0"], [[-1, 0], "-1"]]},
            {"eq": [[[0, 1], "1"]], "ineq": [[[1, 0], "0"], [[-1, 0], "-1"]]},
            {"eq": [[[1, 0], "0"]], "ineq": [[[0, 1], "0"], [[0, -1], "-1"]]},
            {"eq": [[[1, 0], "1"]], "ineq": [[[0, 1], "0"], [[0, -1], "-1"]]},
        ],
    }
)


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        buf = io.BytesIO(stdin.encode())
        monkeypatch.setattr(sys, "stdin", type("S", (), {"buffer": buf})())
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- parsing


def test_parse_system_tropical_line():
    s = parse_system(LINE_DOC.encode())
    assert s.n == 2 and s.k == 1 and s.polys[0].m == 3


def test_parse_system_univariate():
    s = parse_system(b'{"n":1,"polys":[[[[2],"0"],[[1],"1"],[[0],"3"]]]}')
    assert {(m.a, m.b) for m in s.polys[0].monomials} == {
        ((2,), 0),
        ((1,), 1),
        ((0,), 3),
    }


def test_parse_system_negative_coefficient_error():
    with pytest.raises(InputError, match=r"negative coefficient at polys\[0\]\[0\]"):
        parse_system(b'{"n":1,"polys":[[[[-1],"0"]]]}')


def test_parse_system_laurent_flag_allows_negative():
    s = parse_system(b'{"n":1,"laurent":true,"polys":[[[[-1],"0"],[[0],"0"]]]}')
    assert s.polys[0].laurent


def test_parse_system_laurent_flag_must_be_boolean(capsys, monkeypatch):
    for flag in ('"false"', '"true"', "0", "1", "null", "[]"):
        with pytest.raises(InputError, match='"laurent" must be true or false'):
            parse_system(f'{{"n":1,"laurent":{flag},"polys":[[[[0],"0"],[[1],"1"]]]}}'.encode())
    doc = '{"n":1,"laurent":"false","polys":[[[[-1],"0"],[[0],"1"]]]}'
    code, out, err = run(capsys, ["cells", "-"], doc, monkeypatch)
    assert code == 1 and out == "" and '"laurent"' in err
    assert not parse_system(b'{"n":1,"laurent":false,"polys":[[[[0],"0"],[[1],"1"]]]}').polys[0].laurent


def test_parse_system_schema_errors():
    with pytest.raises(InputError, match="invalid JSON"):
        parse_system(b"{")
    with pytest.raises(InputError, match='"n"'):
        parse_system(b'{"polys":[]}')
    with pytest.raises(InputError, match=r"zero monomials at polys\[0\]"):
        parse_system(b'{"n":1,"polys":[[]]}')
    with pytest.raises(InputError, match=r"polys\[0\]\[0\]"):
        parse_system(b'{"n":2,"polys":[[[[1],"0"]]]}')
    with pytest.raises(InputError, match="invalid rational"):
        parse_system(b'{"n":1,"polys":[[[[1],"1/0"]]]}')


def test_parse_serialize_roundtrip_seeded():
    rng = random.Random(71)
    for _ in range(25):
        s = random_system(rng)
        doc = json.dumps(serialize_system(s)).encode()
        assert parse_system(doc) == s


def test_parse_serialize_roundtrip_laurent():
    s = TropSystem(1, [TropPoly([LinForm.make((-2,), 1), LinForm.make((0,), 0)])])
    assert serialize_system(s)["laurent"] is True
    assert parse_system(json.dumps(serialize_system(s)).encode()) == s
    # the field follows the exponents, not the input's flag
    flagged = parse_system(b'{"n":1,"laurent":true,"polys":[[[[2],"0"],[[0],"0"]]]}')
    assert "laurent" not in serialize_system(flagged)


def test_parse_complex():
    c = parse_complex(
        b'{"n":2,"polyhedra":[{"eq":[[[0,1],"0"]],"ineq":[[[1,0],"0"]]}]}'
    )
    assert c.n == 2 and len(c.polyhedra) == 1
    assert c.polyhedra[0].contains((3, 0))


# --------------------------------------------------------------- commands


def test_betti_command(capsys, monkeypatch):
    code, out, _ = run(capsys, ["betti", "-"], LINE_DOC, monkeypatch)
    assert code == 0 and json.loads(out) == [1]


def test_betti_empty_prevariety(capsys, monkeypatch):
    code, out, _ = run(capsys, ["betti", "-"], '{"n":2,"polys":[[[[0,0],"5"]]]}', monkeypatch)
    assert code == 0 and json.loads(out) == []


def test_cells_command(capsys, monkeypatch):
    code, out, _ = run(capsys, ["cells", "-"], LINE_DOC, monkeypatch)
    assert code == 0
    cells = json.loads(out)["cells"]
    assert len(cells) == 4
    assert sorted(c["dim"] for c in cells) == [0, 1, 1, 1]


def test_bounds_and_check_commands(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bounds", "-"], LINE_DOC, monkeypatch)
    assert code == 0
    rep = json.loads(out)
    assert rep["phi"] == 4 and rep["dense_bound_sq"] == [49, 1]
    assert rep["sparse_bound"] == 24 and rep["degree_bound"] == 7

    code, out, _ = run(capsys, ["check", "-", "--oracle"], LINE_DOC, monkeypatch)
    assert code == 0
    rep = json.loads(out)
    assert rep["betti"] == [1] and rep["all_ok"] is True
    assert rep["cross_method_ok"] and rep["duality_ok"] and rep["oracle_ok"]


def test_bounds_on_a_laurent_system_has_no_degree_bound(capsys, monkeypatch):
    doc = '{"n":1,"laurent":true,"polys":[[[[-1],"0"],[[1],"0"]]]}'
    code, out, _ = run(capsys, ["bounds", "-"], doc, monkeypatch)
    assert code == 0
    rep = json.loads(out)
    assert rep["d"] is None and rep["degree_bound"] is None
    assert rep["betti_le_degree"] is None and rep["all_ok"] is True


def test_bounds_on_a_binomial_with_a_large_prime_gram_radicand(capsys, monkeypatch):
    """The segment's squared length 10^20 + 361 is prime: its volume stays
    exact, and trial division does not run up to its square root."""
    doc = '{"n":2,"polys":[[[[10000000000,19],"0"],[[0,0],"0"]]]}'
    code, out, _ = run(capsys, ["bounds", "-"], doc, monkeypatch)
    assert code == 0
    rep = json.loads(out)
    assert rep["r"] == 1 and rep["vol_r_sq"] == [100000000000000000361, 1]
    assert rep["dense_bound_sq"] == [9 * 100000000000000000361, 1]


def test_dual_and_components_commands(capsys, monkeypatch):
    code, out, _ = run(capsys, ["dual", "-"], LINE_DOC, monkeypatch)
    assert code == 0
    faces = json.loads(out)["faces"]
    assert len(faces) == 7 and sum(f["tropical"] for f in faces) == 4
    code, out, _ = run(capsys, ["components", "-"], LINE_DOC, monkeypatch)
    assert code == 0
    assert len(json.loads(out)["components"]) == 1


def test_gen_grid_pipeline(capsys, monkeypatch):
    code, out, _ = run(capsys, ["gen", "grid", "--n", "2", "--m", "3"])
    assert code == 0
    code, out, _ = run(capsys, ["betti", "-"], out, monkeypatch)
    assert code == 0 and json.loads(out) == [9]


def test_gen_grid_rejects_empty_sizes(capsys):
    for argv in (["--n", "0"], ["--m", "0"], ["--n", "-2", "--m", "3"]):
        code, out, err = run(capsys, ["gen", "grid", *argv])
        assert code == 1 and out == "" and err.startswith("error: need n >= 1")
        assert "Traceback" not in err


def test_gen_corpus_rejects_a_negative_count(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    for argv in (["--count", "-3"], ["--count", "-1", "--dir", str(out_dir)]):
        code, out, err = run(capsys, ["gen", "corpus", *argv])
        assert code == 1 and out == "" and err == "error: need count >= 0\n"
    assert not out_dir.exists()
    code, out, _ = run(capsys, ["gen", "corpus", "--count", "0"])
    assert code == 0 and json.loads(out) == []


def test_check_corpus_needs_a_directory(capsys, tmp_path):
    """A mistyped --corpus path must not pass as an empty corpus."""
    afile = tmp_path / "system.json"
    afile.write_text(LINE_DOC)
    for path in (tmp_path / "no" / "such" / "dir", afile):
        code, out, err = run(capsys, ["check", "--corpus", str(path)])
        assert code == 1 and out == ""
        assert err == f"error: --corpus {path} is not a directory\n"
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run(capsys, ["check", "--corpus", str(empty)])
    assert code == 0 and out == '{"all_ok":true,"count":0,"failures":[],"reports":{}}\n'


def test_realize_command(capsys, monkeypatch):
    doc = '{"n":1,"polyhedra":[{"eq":[[[1],"0"]]},{"eq":[[[1],"5"]]}]}'
    code, out, _ = run(capsys, ["realize", "-"], doc, monkeypatch)
    assert code == 0
    code, out, _ = run(capsys, ["betti", "-"], out, monkeypatch)
    assert code == 0 and json.loads(out) == [2]


@pytest.mark.parametrize("rows", ['"eq":[[[0,0],"1"]]', '"eq":[[[0,1],"0"]],"ineq":[[[0,0],"1"]]'])
def test_realize_rejects_a_member_with_a_zero_row_no_point_satisfies(capsys, monkeypatch, rows):
    doc = '{"n":2,"polyhedra":[{"eq":[[[1,0],"0"]]},{%s}]}' % rows
    code, out, err = run(capsys, ["realize", "-"], doc, monkeypatch)
    assert code == 1 and out == ""
    assert err == "error: empty polyhedron has no affine hull\n"


def test_realize_ignores_trivially_true_zero_rows(capsys, monkeypatch):
    """0 = 0 and 0 >= -1 in the square's members leave its system byte-identical."""
    padded = json.loads(SQUARE_DOC)
    padded["polyhedra"][0]["eq"].append([[0, 0], "0"])
    padded["polyhedra"][1]["ineq"].append([[0, 0], "-1"])
    padded["polyhedra"][2]["ineq"].insert(0, [[0, 0], "0"])
    outs = []
    for doc in (SQUARE_DOC, json.dumps(padded)):
        code, out, _ = run(capsys, ["realize", "-"], doc, monkeypatch)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_complex_prevariety_asks_each_member_its_affine_hull_once(monkeypatch):
    """One feasibility question per member for its point, and one more per
    inequality tight there: 4 on the square, 14 on four corpus members."""
    calls = []
    feasible = linprog.feasible_point
    monkeypatch.setattr(linprog, "feasible_point", lambda *a, **k: calls.append(a) or feasible(*a, **k))
    complex_prevariety(parse_complex(SQUARE_DOC.encode()))
    assert len(calls) == 4
    corpus = complex_corpus(7, 40)
    counts = []
    for i in (34, 39, 5, 13):
        calls.clear()
        complex_prevariety(corpus[i])
        counts.append(len(calls))
    assert counts == [4, 3, 3, 4] and sum(counts) == 14


def test_exit_code_on_invalid_input(capsys, monkeypatch):
    code, out, err = run(capsys, ["betti", "-"], '{"n":1,"polys":[[[[-1],"0"]]]}', monkeypatch)
    assert code == 1 and out == ""
    assert "negative coefficient" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, ["betti", "/nonexistent/file.json"])
    assert code == 1 and "cannot read" in err


def test_dense_bound_beyond_float_range_is_an_input_error(capsys, monkeypatch):
    # a triangle of area about 10^2200 / 2: an exact bound no float can hold
    doc = '{"n":2,"polys":[[[[%s,0],"0"],[[0,1],"0"],[[0,0],"0"]]]}' % ("9" * 2200)
    for command in ("bounds", "check"):
        code, out, err = run(capsys, [command, "-"], doc, monkeypatch)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: dense_bound_approx is beyond float range"]


def test_check_places_the_newton_sum_once(monkeypatch):
    """The dual route and the dense volume share one lifted hull: k
    polynomials make 2k - 1 placings, and the bounds add none."""
    calls = []
    place = exactgeom._place
    monkeypatch.setattr(exactgeom, "_place", lambda points, ray: calls.append(ray) or place(points, ray))
    s = gen_grid_example(3, 3)
    assert check_system(s)["all_ok"]
    assert s.k == 3 and len(calls) == 2 * 3 - 1


def test_invariant_error_exits_2(capsys, monkeypatch, tmp_path):
    """A feasible point that breaks one of its rows is caught by the
    point's own check, and realize exits 2."""
    monkeypatch.setattr(linprog, "_solve", lambda n, eqs, ineqs, stricts: (Fraction(2),) * n)
    path = tmp_path / "segment.json"
    path.write_text('{"n":2,"polyhedra":[{"eq":[[[0,1],"0"]],"ineq":[[[1,0],"0"],[[-1,0],"-1"]]}]}')
    code, out, err = run(capsys, ["realize", str(path)])
    assert code == 2 and out == ""
    assert "InvariantError: feasible_point: (2, 2) breaks the row (0, 1) . x = 0" in err


def test_check_output_same_under_python_O(tmp_path):
    system = system_corpus(20260823, 4)[3]
    assert system.n == 3
    path = tmp_path / "system.json"
    path.write_text(json.dumps(serialize_system(system)))
    square = tmp_path / "square.json"
    square.write_text(json.dumps(serialize_system(complex_prevariety(parse_complex(SQUARE_DOC.encode())))))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for command, target in (("check", path), ("bounds", path), ("betti", square), ("cells", square)):
        outs = []
        for flags in (["-O"], []):
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "tropbetti.cli", command, str(target)],
                capture_output=True,
                env=env,
                timeout=600,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1] and outs[0]


def test_output_byte_stability(capsys, monkeypatch):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, ["check", "-"], LINE_DOC, monkeypatch)
        outs.append(out)
    assert outs[0] == outs[1]


def test_check_corpus_mode(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["gen", "corpus", "--seed", "3", "--count", "4", "--dir", str(tmp_path)]
    )
    assert code == 0 and json.loads(out)["written"] == 4
    code, out, _ = run(capsys, ["check", "--corpus", str(tmp_path)])
    rep = json.loads(out)
    assert code == 0 and rep["count"] == 4 and rep["all_ok"] and rep["failures"] == []


def test_emit_off(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cells.off"
    code, _, _ = run(
        capsys, ["cells", "-", "--emit-off", str(path)], LINE_DOC, monkeypatch
    )
    assert code == 0
    text = path.read_text()
    assert text.startswith("OFF\n")


def test_emit_off_orders_a_polygon_along_its_edges(tmp_path, capsys):
    """A bounded 2-cell in the vertical plane x = 0 is written as a polygon:
    consecutive vertices share an edge, so no step crosses a diagonal."""
    square = {
        "n": 3,
        "polyhedra": [
            {
                "eq": [[[1, 0, 0], "0"]],
                "ineq": [[[0, 1, 0], "0"], [[0, -1, 0], "-1"], [[0, 0, 1], "0"], [[0, 0, -1], "-1"]],
            }
        ],
    }
    system = tmp_path / "system.json"
    realized = complex_prevariety(parse_complex(json.dumps(square).encode()))
    system.write_text(json.dumps(serialize_system(realized)))
    off = tmp_path / "cells.off"
    assert main(["cells", str(system), "--emit-off", str(off)]) == 0
    capsys.readouterr()
    lines = off.read_text().splitlines()
    nv, nf, _ = map(int, lines[1].split())
    verts = [tuple(float(c) for c in line.split()) for line in lines[2 : 2 + nv]]
    faces = [list(map(int, line.split()))[1:] for line in lines[2 + nv :]]
    assert len(faces) == nf
    edges = {frozenset(ids) for ids in faces if len(ids) == 2}
    [polygon] = [ids for ids in faces if len(ids) > 2]
    assert sorted(verts[i] for i in polygon) == [(0, y, z) for y in (0, 1) for z in (0, 1)]
    assert len(edges) == 4
    for a, b in zip(polygon, polygon[1:] + polygon[:1]):
        assert frozenset((a, b)) in edges


def test_emit_off_matches_pinned_digests(tmp_path, capsys):
    """The OFF file of every corpus system is byte-identical."""
    corpus = tmp_path / "corpus"
    argv = ["gen", "corpus", "--seed", str(CORPUS_SEED), "--count", str(CORPUS_COUNT)]
    assert main(argv + ["--dir", str(corpus)]) == 0
    paths = sorted(corpus.glob("*.json"))
    assert len(paths) == len(EMIT_OFF) == CORPUS_COUNT
    changed = []
    for path, pinned in zip(paths, EMIT_OFF):
        off = tmp_path / f"{path.stem}.off"
        assert main(["cells", str(path), "--emit-off", str(off)]) == 0
        if hashlib.sha256(off.read_bytes()).hexdigest() != pinned:
            changed.append(path.name)
    capsys.readouterr()
    assert changed == []


def test_check_and_betti_build_no_polyhedron(monkeypatch):
    """Cells, dual cells, lineality, the retract and the cells' H-representations
    (the ``cells`` report) come without H-polyhedra or LPs."""
    circle = complex_prevariety(parse_complex(SQUARE_DOC.encode()))
    systems = [gen_grid_example(3, 3)] + system_corpus(CORPUS_SEED, 10)

    def refuse(*args, **kwargs):
        raise AssertionError("built an H-polyhedron or solved an LP")

    monkeypatch.setattr(exactgeom.HPolyhedron, "__init__", refuse)
    monkeypatch.setattr(linprog, "feasible_point", refuse)
    monkeypatch.setattr(cli, "feasible_point", refuse)
    for s in systems:
        assert check_system(s)["all_ok"]
    assert betti_of_complex(cells_via_arrangement(circle)).b == (1, 1)
    for s in systems + [circle]:
        comp = cells_via_arrangement(s)
        assert all(not cli._cell_json(comp, i)["hrep"]["empty"] for i in range(len(comp.cells)))


def test_check_enumerates_faces_once_per_system(monkeypatch):
    """One covering walk per check, for the cells; when the oracle runs
    (ell <= 6), one more walk of every face, for its comparison."""
    calls = []
    enumerate_faces = arrangement.enumerate_faces

    def counted(arr, keep=None):
        calls.append(keep is not None)
        return enumerate_faces(arr, keep)

    monkeypatch.setattr(arrangement, "enumerate_faces", counted)
    line = parse_system(LINE_DOC.encode())
    oracle_runs = 0
    for s in [line] + system_corpus(CORPUS_SEED, 10):
        calls.clear()
        check_system(s)
        assert calls == [True]
        calls.clear()
        report = check_system(s, oracle=True)
        if report["oracle_ok"] is None:  # the oracle skips ell > 6
            assert calls == [True]
        else:
            assert report["oracle_ok"] and calls == [True, False]
            oracle_runs += 1
    assert oracle_runs >= 5


def test_check_oracle_judges_the_covering_walk(monkeypatch):
    """Under --oracle the cells still come from the covering walk: a covering
    walk that drops a face fails the cross-check, though the oracle's own
    walk of every face agrees with its sign vectors."""
    enumerate_faces = arrangement.enumerate_faces

    def dropping(arr, keep=None):
        faces = enumerate_faces(arr, keep)
        if keep is None:
            return faces
        drop = max(faces, key=lambda f: f.dim)
        return tuple(f for f in faces if f is not drop)

    monkeypatch.setattr(arrangement, "enumerate_faces", dropping)
    report = check_system(parse_system(LINE_DOC.encode()), oracle=True)
    assert report["oracle_ok"] is True
    assert report["cross_method_ok"] is False and report["all_ok"] is False


def test_dual_subdivision_builds_no_arrangement(monkeypatch):
    def refuse(arr, keep=None):
        raise AssertionError("the dual route enumerated arrangement faces")

    systems = [parse_system(LINE_DOC.encode())] + system_corpus(CORPUS_SEED, 10)
    want = [[(f.pattern, f.dim, f.tropical) for f in dual_subdivision(s)] for s in systems]
    monkeypatch.setattr(arrangement, "enumerate_faces", refuse)
    for s, faces in zip(systems, want):
        assert [(f.pattern, f.dim, f.tropical) for f in dual_subdivision(s)] == faces
        assert "arrangement" not in vars(s)  # not even built


def _mutated_dual_route(monkeypatch, mutate):
    """Make `check` see the dual route's faces after ``mutate(s, faces)``."""

    def mutated(s):
        faces = dual_subdivision(s)
        mutate(s, faces)
        return faces

    monkeypatch.setattr(cli, "dual_subdivision", mutated)


def _first_tropical(faces) -> int:
    return next(i for i, f in enumerate(faces) if f.tropical)


def test_check_fails_when_dual_route_drops_a_face(capsys, monkeypatch):
    _mutated_dual_route(monkeypatch, lambda s, faces: faces.pop(_first_tropical(faces)))
    report = check_system(parse_system(LINE_DOC.encode()))
    assert report["cross_method_ok"] is False and report["all_ok"] is False
    code, out, _ = run(capsys, ["check", "-"], LINE_DOC, monkeypatch)
    assert code == 2 and json.loads(out)["cross_method_ok"] is False


def test_check_fails_when_dual_route_shifts_a_pattern(capsys, monkeypatch):
    def shift(s, faces):
        # one tropical face takes the pattern (and a witness) of another
        trop = [i for i, f in enumerate(faces) if f.tropical]
        other = faces[trop[1]]
        faces[trop[0]] = DualFace(s, other.pattern, other.witness)

    _mutated_dual_route(monkeypatch, shift)
    for s in [parse_system(LINE_DOC.encode()), gen_grid_example(2, 2)]:
        report = check_system(s)
        assert not (report["cross_method_ok"] and report["duality_ok"]) and report["all_ok"] is False
    code, out, _ = run(capsys, ["check", "-"], LINE_DOC, monkeypatch)
    assert code == 2


def test_check_compares_cell_dimensions(monkeypatch):
    def misdimensioned(s):
        comp = cells_via_arrangement(s)
        comp.cells[0].dim -= 1
        return comp

    monkeypatch.setattr(cli, "cells_via_arrangement", misdimensioned)
    report = check_system(parse_system(LINE_DOC.encode()))
    # duality compares each dual face with the route-1 cell of its pattern
    assert report["duality_ok"] is False and report["cross_method_ok"] is False and report["all_ok"] is False


def test_check_duality_catches_a_misdimensioned_dual_face(monkeypatch):
    def misdimension(s, faces):
        face = faces[_first_tropical(faces)]
        face.__dict__["dim"] = face.dim + 1  # overrides the cached property

    _mutated_dual_route(monkeypatch, misdimension)
    for s in [parse_system(LINE_DOC.encode()), gen_grid_example(2, 2)]:
        report = check_system(s)
        assert report["duality_ok"] is False and report["cross_method_ok"] is False and report["all_ok"] is False


def test_check_fails_on_a_wrong_dual_witness(capsys, monkeypatch):
    def move_witness(s, faces):
        i = _first_tropical(faces)
        faces[i] = DualFace(s, faces[i].pattern, tuple(x + 7 for x in faces[i].witness))

    _mutated_dual_route(monkeypatch, move_witness)
    with pytest.raises(InvariantError, match="^dual_cell: witness"):
        check_system(parse_system(LINE_DOC.encode()))
    code, out, err = run(capsys, ["check", "-"], LINE_DOC, monkeypatch)
    assert code == 2 and out == ""
    assert "InvariantError: dual_cell" in err


def test_betti_exits_2_when_the_triangulation_drops_a_chain(capsys, monkeypatch):
    """The tropical line's retract is one vertex; without its chain the
    Betti numbers miss the Euler characteristic 1."""
    real = topology.triangulate

    def drop_longest(c, members):
        sc = real(c, members)
        longest = max(sc.simplices, key=lambda s: (len(s), sorted(s)))
        return topology.SimplicialComplex(sc.vertices, sc.simplices - {longest})

    monkeypatch.setattr(topology, "triangulate", drop_longest)
    code, out, err = run(capsys, ["betti", "-"], LINE_DOC, monkeypatch)
    assert code == 2 and out == ""
    assert "InvariantError: betti_of_complex: Betti numbers () miss the Euler characteristic 1" in err


def test_cli_stdout_matches_pinned_digests(tmp_path, capsys):
    """Every command's stdout on the 100-system corpus is byte-identical."""
    corpus = tmp_path / "corpus"
    argv = ["gen", "corpus", "--seed", str(CORPUS_SEED), "--count", str(CORPUS_COUNT)]
    assert main(argv + ["--dir", str(corpus)]) == 0
    capsys.readouterr()
    paths = sorted(corpus.glob("*.json"))
    assert len(paths) == CORPUS_COUNT

    def digest() -> str:
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    changed = []
    for command, want in DIGESTS.items():
        for path, pinned in zip(paths, want):
            assert main([command, str(path)]) == 0
            if digest() != pinned:
                changed.append(f"{command} {path.name}")
    assert main(["check", "--corpus", str(corpus)]) == 0
    if digest() != CHECK_CORPUS:
        changed.append("check --corpus")
    assert changed == []


def test_cells_on_realized_complexes_match_pinned_digests(tmp_path, capsys):
    """``cells`` stdout on realized complexes, with unbounded cells and lineality."""
    corpus = complex_corpus(7, 40)
    changed = []
    for key, pinned in REALIZED_CELLS.items():
        c = parse_complex(SQUARE_DOC.encode()) if key == "square" else corpus[key]
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(serialize_system(complex_prevariety(c))))
        assert main(["cells", str(path)]) == 0
        if hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != pinned:
            changed.append(key)
    assert changed == []


def test_check_in_dimension_4_and_5_matches_pinned_digests(tmp_path, capsys):
    """``check`` stdout on the pinned n = 4, 5 systems, each report with
    both routes agreeing and every bound met."""
    systems = hidim_digests.hidim_systems()
    changed = []
    for i, pinned in hidim_digests.CHECK.items():
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(serialize_system(systems[i])))
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert (report["all_ok"], report["cross_method_ok"], report["duality_ok"]) == (True, True, True), i
        if hashlib.sha256(out.encode()).hexdigest() != pinned:
            changed.append(i)
    assert changed == []
