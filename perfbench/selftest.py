"""Self-test of the benchmark harness.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs grid-check untraced and then traced in this process and checks that

* the two check reports are byte-identical (tracing changes no output);
* every attribute the tracer rebound is restored afterwards;
* every ``solve_lp`` call was attributed to exactly one caller.

Prints one line per failed check and exits 1 if any failed, else 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402
from tracer import LAYERS, LP, Tracer, _package_modules  # noqa: E402


def snapshot() -> dict:
    from tropbetti.exactgeom import HPolyhedron, VPolytope

    out = {}
    for mod in _package_modules():
        out.update(((mod.__name__, attr), obj) for attr, obj in vars(mod).items())
    for cls in (HPolyhedron, VPolytope):
        out.update(((cls.__qualname__, attr), obj) for attr, obj in vars(cls).items())
    return out


def grid_report() -> bytes:
    [(_, system)] = worker.prepare("grid-check", 0)
    return worker.dumps(worker.run_item("grid-check", system))


def main() -> int:
    import importlib

    for layer in LAYERS:
        importlib.import_module(f"tropbetti.{layer}")
    from tropbetti.arrangement import build_arrangement

    before = snapshot()
    plain = grid_report()
    clear = getattr(build_arrangement, "cache_clear", None)
    if clear is not None:
        clear()  # the traced pass starts cold too
    tracer = Tracer()
    tracer.install()
    try:
        traced = grid_report()
    finally:
        tracer.uninstall()
    after = snapshot()

    failures = []
    if traced != plain:
        failures.append("traced and untraced grid-check reports differ")
    changed = sorted(str(k) for k in before.keys() | after.keys() if before.get(k) is not after.get(k))
    if changed:
        failures.append("not restored: " + ", ".join(changed))
    lp_calls = tracer.metric(LP + ".calls")
    if lp_calls == 0:
        failures.append("the tracer saw no solve_lp call")
    if sum(tracer.lp_under.values()) != lp_calls:
        failures.append(f"{sum(tracer.lp_under.values())} solve_lp calls attributed of {lp_calls}")
    for failure in failures:
        print("FAIL", failure)
    if not failures:
        print(f"ok: reports identical ({len(plain)} bytes), originals restored, {lp_calls} LP calls attributed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
