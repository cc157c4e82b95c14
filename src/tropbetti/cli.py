"""Command-line driver: parse systems and complex descriptions from JSON,
dispatch computations, and emit byte-stable machine-readable reports.

Exit codes: 0 success, 1 invalid input, 2 internal invariant violation
(including any failed `check`, since the verified bounds are theorems).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import arrangement
from .bounds import BoundReport, bound_report, verify_bounds
from .corpus import system_corpus
from .exactgeom import HPolyhedron, RadVal
from .linprog import feasible_point
from .prevariety import (
    PrevarietyComplex,
    cells_via_arrangement,
    connected_components,
    dual_cell,
    dual_subdivision,
    tropical_faces,
)
from .realize import ComplexDescription, complex_prevariety, gen_grid_example
from .topology import betti_of_complex
from .tropical import LinForm, TropPoly, TropSystem


class InputError(ValueError):
    """Schema or value violation in an input document."""


# ---------------------------------------------------------------- parsing


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InputError(f"expected rational string or integer at {path}")
    # Fraction("1e999999999") would build 10**999999999 before any check
    if isinstance(value, str) and ("e" in value or "E" in value):
        raise InputError(f"exponent notation not accepted at {path}: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"invalid rational at {path}: {value!r}") from None


def _coeffs(value, n: int, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or len(value) != n:
        raise InputError(f"expected coefficient vector of length {n} at {path}")
    if any(isinstance(c, bool) or not isinstance(c, int) for c in value):
        raise InputError(f"coefficients must be integers at {path}")
    return tuple(value)


def _load_json(text: bytes):
    # besides malformed JSON and UTF-8, a plain ValueError is an integer past
    # Python's digit limit, and a RecursionError nesting too deep to decode
    try:
        return json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as e:
        raise InputError(f"invalid JSON input: {e}") from None


def _ambient(doc) -> int:
    if not isinstance(doc, dict):
        raise InputError("expected a JSON object at top level")
    n = doc.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError('field "n" must be a positive integer')
    return n


def parse_system(text: bytes) -> TropSystem:
    doc = _load_json(text)
    n = _ambient(doc)
    laurent = doc.get("laurent", False)
    if not isinstance(laurent, bool):
        raise InputError('field "laurent" must be true or false')
    polys_doc = doc.get("polys")
    if not isinstance(polys_doc, list) or not polys_doc:
        raise InputError('field "polys" must be a nonempty list')
    polys = []
    for pi, poly_doc in enumerate(polys_doc):
        if not isinstance(poly_doc, list) or not poly_doc:
            raise InputError(f"zero monomials at polys[{pi}]")
        mons = []
        for mi, mon_doc in enumerate(poly_doc):
            path = f"polys[{pi}][{mi}]"
            if not isinstance(mon_doc, list) or len(mon_doc) != 2:
                raise InputError(f"expected [coefficients, constant] at {path}")
            a = _coeffs(mon_doc[0], n, path)
            if not laurent and any(c < 0 for c in a):
                raise InputError(f"negative coefficient at {path}")
            mons.append(LinForm(a, _rational(mon_doc[1], path)))
        polys.append(TropPoly(mons))
    return TropSystem(n, polys)


def _parse_rows(value, n: int, path: str):
    if not isinstance(value, list):
        raise InputError(f"expected a list of rows at {path}")
    rows = []
    for i, row in enumerate(value):
        rp = f"{path}[{i}]"
        if not isinstance(row, list) or len(row) != 2:
            raise InputError(f"expected [normal, rhs] at {rp}")
        rows.append((_coeffs(row[0], n, rp), _rational(row[1], rp)))
    return rows


def parse_complex(text: bytes) -> ComplexDescription:
    doc = _load_json(text)
    n = _ambient(doc)
    members_doc = doc.get("polyhedra")
    if not isinstance(members_doc, list):
        raise InputError('field "polyhedra" must be a list')
    members = []
    for i, m in enumerate(members_doc):
        if not isinstance(m, dict):
            raise InputError(f"expected an object at polyhedra[{i}]")
        eqs = _parse_rows(m.get("eq", []), n, f"polyhedra[{i}].eq")
        ineqs = _parse_rows(m.get("ineq", []), n, f"polyhedra[{i}].ineq")
        members.append(HPolyhedron(n, eqs, ineqs))
    return ComplexDescription.make(n, members)


# ------------------------------------------------------------ serializing


def _digit_limit_error() -> InputError:
    return InputError(f"a report integer has more than {sys.get_int_max_str_digits()} digits")


def _rat_json(q) -> str:
    try:
        return str(Fraction(q))
    except ValueError:  # an integer past Python's digit limit for int -> str
        raise _digit_limit_error() from None


def serialize_system(s: TropSystem) -> dict:
    doc: dict = {"n": s.n}
    if any(f.laurent for f in s.polys):
        doc["laurent"] = True
    doc["polys"] = [
        [[list(mon.a), _rat_json(mon.b)] for mon in f.monomials] for f in s.polys
    ]
    return doc


def _cell_json(comp: PrevarietyComplex, i: int) -> dict:
    form = comp.hrep(i)
    return {
        "pattern": [list(p) for p in comp.cells[i].pattern],
        "dim": comp.cells[i].dim,
        "bounded": comp.lineality[i] == 0 and comp.retract[i],
        "lineality_dim": comp.lineality[i],
        "hrep": {
            "empty": False,
            "eqs": [[list(a), _rat_json(b)] for a, b in form.eqs],
            "ineqs": [[list(a), _rat_json(b)] for a, b in form.ineqs],
        },
    }


def _bound_report_json(r: BoundReport) -> dict:
    """The report's fields by name, an exact volume as ``<name>_sq`` and
    ``<name>_approx``, and ``all_ok``."""
    # vol_r <= dense_bound, so the bound's approximation overflows first
    if r.dense_bound > sys.float_info.max:
        raise InputError("dense_bound_approx is beyond float range")
    out: dict = {}
    for name, value in zip(r._fields, r):
        if isinstance(value, RadVal):
            sq = value.sq()
            out[f"{name}_sq"] = [sq.numerator, sq.denominator]
            out[f"{name}_approx"] = value.approx()
        else:
            out[name] = value
    out["all_ok"] = r.all_ok
    return out


# ---------------------------------------------------------------- checks


def sign_vectors_bruteforce(arr) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """Feasible sign vectors of an arrangement, with relint witnesses.

    All 3^ell candidates are decided by exact Fourier–Motzkin elimination
    (``feasible_point``); the face enumeration it checks steps between
    faces and decides no feasibility.
    """
    out = {}
    for sv in itertools.product((-1, 0, 1), repeat=arr.ell):
        eqs, stricts = [], []
        for h, s in zip(arr.hyperplanes, sv):
            if s == 0:
                eqs.append((h.normal, h.offset))
            else:
                stricts.append((tuple(s * c for c in h.normal), s * h.offset))
        w = feasible_point(arr.n, eqs, stricts=stricts)
        if w is not None:
            out[sv] = w
    return out


def check_system(s: TropSystem, oracle: bool = False) -> dict:
    # The two routes share no computation: the dual cells come from the
    # lower hull of the lifted Newton sum, the cells from the zero faces
    # of the tie arrangement.
    trop = tropical_faces(dual_subdivision(s))
    duals = [dual_cell(s, f) for f in trop]
    comp = cells_via_arrangement(s)
    betti = betti_of_complex(comp)
    report = _bound_report_json(bound_report(s, comp, betti))
    report["betti"] = list(betti.b)

    cross_ok = sorted((c.pattern, c.dim) for c in comp.cells) == sorted((d.pattern, d.dim) for d in duals)
    # dim F + dim G(F) = n, with dim G(F) read from route 1's cell
    dims = {c.pattern: c.dim for c in comp.cells}
    duality_ok = all(f.pattern in dims and f.dim + dims[f.pattern] == s.n for f in trop)
    report["cross_method_ok"] = cross_ok
    report["duality_ok"] = duality_ok

    # The oracle walks every face, apart from the covering walk of the cells.
    arr = s.arrangement
    oracle_ok = None
    if oracle and arr.ell <= 6:
        got = {f.signs for f in arrangement.enumerate_faces(arr)}
        oracle_ok = got == sign_vectors_bruteforce(arr).keys()
        # The n 2^n C(ell, n) bound applies to the faces carrying ties
        # (those on the hyperplane union); regions carry no zeros.
        proper = sum(1 for sv in got if 0 in sv)
        if arr.ell >= arr.n:
            oracle_ok = oracle_ok and proper <= arr.n * 2**arr.n * math.comb(arr.ell, arr.n)
    report["oracle_ok"] = oracle_ok
    report["all_ok"] = bool(
        report["all_ok"] and cross_ok and duality_ok and oracle_ok is not False
    )
    return report


# -------------------------------------------------------------- commands


def _emit_off(path: str, comp: PrevarietyComplex) -> None:
    """Cell geometry in OFF format (display convenience, non-normative)."""
    n = comp.system.n
    if n > 3:
        raise InputError("--emit-off supports ambient dimension <= 3 only")

    def lift(v):
        try:
            return tuple(float(x) for x in v) + (0.0,) * (3 - n)
        except OverflowError:
            raise InputError("--emit-off: a cell vertex is beyond float range") from None

    verts: list[tuple[float, float, float]] = []
    index: dict[tuple[float, float, float], int] = {}
    faces = []
    for cell, lineality, retract, cell_faces in zip(comp.cells, comp.lineality, comp.retract, comp.faces):
        if lineality > 0 or not retract or cell.dim > 2:
            continue
        # a bounded cell's vertices are its 0-dimensional faces
        corners = sorted((j for j in cell_faces if comp.cells[j].dim == 0), key=lambda j: comp.cells[j].witness)
        for j in corners:
            v = lift(comp.cells[j].witness)
            if v not in index:
                index[v] = len(verts)
                verts.append(v)
        if cell.dim == 2:
            corners = _boundary_cycle(comp, cell_faces, corners[0])
        ids = [index[lift(comp.cells[j].witness)] for j in corners]
        if len(ids) >= 2:
            faces.append(ids)
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [" ".join(f"{c:.6f}" for c in v) for v in verts]
    lines += [" ".join(str(x) for x in [len(ids)] + ids) for ids in faces]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _boundary_cycle(comp: PrevarietyComplex, cell_faces, first: int) -> list[int]:
    """The vertices of a bounded 2-cell in boundary order from ``first``:
    each step crosses one of its edges (its 1-dimensional faces) to the
    edge's other end, so no coordinate is compared."""
    ends: dict[int, list[int]] = {}
    for e in cell_faces:
        if comp.cells[e].dim == 1:
            a, b = (v for v in comp.faces[e] if comp.cells[v].dim == 0)
            ends.setdefault(a, []).append(b)
            ends.setdefault(b, []).append(a)
    cycle = [first]
    while len(cycle) < len(ends):
        cycle.append(next(v for v in ends[cycle[-1]] if v not in cycle[-2:]))
    return cycle


def _cmd_cells(args) -> tuple[dict, int]:
    comp = cells_via_arrangement(parse_system(_read_input(args)))
    if args.emit_off:
        _emit_off(args.emit_off, comp)
    return {"cells": [_cell_json(comp, i) for i in range(len(comp.cells))]}, 0


def _cmd_betti(args) -> tuple[list, int]:
    s = parse_system(_read_input(args))
    return list(betti_of_complex(cells_via_arrangement(s)).b), 0


def _cmd_bounds(args) -> tuple[dict, int]:
    return _bound_report_json(verify_bounds(parse_system(_read_input(args)))), 0


def _cmd_check(args) -> tuple[dict, int]:
    if args.corpus:
        if not Path(args.corpus).is_dir():
            raise InputError(f"--corpus {args.corpus} is not a directory")
        reports = {}
        for path in sorted(Path(args.corpus).glob("*.json")):
            reports[path.name] = check_system(parse_system(path.read_bytes()), args.oracle)
        failures = sorted(name for name, r in reports.items() if not r["all_ok"])
        ok = not failures
        report = {
            "count": len(reports),
            "failures": failures,
            "all_ok": ok,
            "reports": reports,
        }
        return report, 0 if ok else 2
    report = check_system(parse_system(_read_input(args)), args.oracle)
    return report, 0 if report["all_ok"] else 2


def _cmd_dual(args) -> tuple[dict, int]:
    s = parse_system(_read_input(args))
    faces = dual_subdivision(s)
    return {
        "faces": [
            {
                "pattern": [list(p) for p in f.pattern],
                "dim": f.dim,
                "tropical": f.tropical,
            }
            for f in faces
        ]
    }, 0


def _cmd_components(args) -> tuple[dict, int]:
    comp = cells_via_arrangement(parse_system(_read_input(args)))
    groups = connected_components(comp)
    return {
        "components": [
            [[list(p) for p in cell.pattern] for cell in group] for group in groups
        ]
    }, 0


def _cmd_realize(args) -> tuple[dict, int]:
    c = parse_complex(_read_input(args))
    try:
        s = complex_prevariety(c)
    except ValueError as e:
        raise InputError(str(e)) from None
    return serialize_system(s), 0


def _cmd_gen(args) -> tuple[object, int]:
    if args.kind == "grid":
        try:
            s = gen_grid_example(args.n, args.m)
        except ValueError as e:
            raise InputError(str(e)) from None
        return serialize_system(s), 0
    if args.count < 0:
        raise InputError("need count >= 0")
    docs = [serialize_system(s) for s in system_corpus(args.seed, args.count)]
    if args.dir:
        out = Path(args.dir)
        out.mkdir(parents=True, exist_ok=True)
        for i, doc in enumerate(docs):
            (out / f"system_{i:03d}.json").write_text(_dumps(doc, "json"), encoding="utf-8")
        return {"written": len(docs), "dir": str(out)}, 0
    return docs, 0


# ------------------------------------------------------------------ main


def _read_input(args) -> bytes:
    if args.input == "-":
        return sys.stdin.buffer.read()
    try:
        return Path(args.input).read_bytes()
    except OSError as e:
        raise InputError(f"cannot read input: {e}") from None


def _dumps(report, mode: str) -> str:
    try:
        if mode == "pretty":
            return json.dumps(report, sort_keys=True, indent=2) + "\n"
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError:  # an integer past Python's digit limit for int -> str
        raise _digit_limit_error() from None


def _build_parser():
    import argparse  # only the command line needs it, not the importers of cli

    parser = argparse.ArgumentParser(
        prog="tropbetti", description="Exact tropical prevariety toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, doc=True):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        if doc:
            p.add_argument("input", nargs="?", default="-", help="JSON file or - for stdin")
        p.add_argument("--output", choices=("json", "pretty"), default="json")
        return p

    p = add("cells", _cmd_cells)
    p.add_argument("--emit-off", metavar="PATH", default=None)
    add("betti", _cmd_betti)
    add("bounds", _cmd_bounds)
    p = add("check", _cmd_check)
    p.add_argument("--oracle", action="store_true", help="enable brute-force cross-checks")
    p.add_argument("--corpus", metavar="DIR", default=None, help="check every *.json in DIR")
    add("dual", _cmd_dual)
    add("components", _cmd_components)
    add("realize", _cmd_realize)
    p = add("gen", _cmd_gen, doc=False)
    p.add_argument("kind", choices=("grid", "corpus"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--dir", default=None, help="write corpus files instead of printing")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = args.func(args)
        text = _dumps(report, args.output)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        import traceback

        traceback.print_exc()
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
