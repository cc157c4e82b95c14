"""One cold pass of one workload, in the interpreter that runs this file.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/worker.py WORKLOAD --seed N [--trace] [--setup-only]

Prints one JSON line: the monotonic time at which set-up ended and the
work ended, per-item latencies and checks, peak RSS, and, with
``--trace``, the tracer's per-layer figures.  Untraced, the speed probe
(``probe.py``) runs from the start of ``main`` and the set-up, the work
and each item are also given in seconds at reference speed (``*_ref``).  ``run.py`` starts one
worker per pass so that every pass starts with empty caches, as a CLI
user's process does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from probe import SpeedProbe  # beside this file, so on sys.path

HERE = Path(__file__).resolve().parent

CORPUS_SEED = 20260823
# The first 40 systems of the 100-system north-star corpus (the generator is
# sequential, so they are the same systems), including its two slowest
# (34 and 3).  A pass over all 100 takes about 100 s; 22 runs of it, beside
# the other workloads, do not fit the benchmark's 3420 s time budget.
CORPUS_COUNT = 40

# Acceptance criterion 6's square: four unit segments, Betti numbers (1, 1).
SQUARE = {
    "n": 2,
    "polyhedra": [
        {"eq": [[[0, 1], "0"]], "ineq": [[[1, 0], "0"], [[-1, 0], "-1"]]},
        {"eq": [[[0, 1], "1"]], "ineq": [[[1, 0], "0"], [[-1, 0], "-1"]]},
        {"eq": [[[1, 0], "0"]], "ineq": [[[0, 1], "0"], [[0, -1], "-1"]]},
        {"eq": [[[1, 0], "1"]], "ineq": [[[0, 1], "0"], [[0, -1], "-1"]]},
    ],
}

WORKLOADS = ("corpus-check", "circle-betti", "grid-check")


def dumps(doc) -> bytes:
    """The CLI's byte-stable JSON encoding."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def prepare(workload: str, seed: int):
    """(name, input) items, generated, serialized and parsed as the CLI would."""
    from tropbetti.cli import parse_complex, parse_system, serialize_system

    if workload == "corpus-check":
        from tropbetti.corpus import system_corpus

        items = [
            (f"system_{i:03d}.json", parse_system(dumps(serialize_system(s))))
            for i, s in enumerate(system_corpus(CORPUS_SEED, CORPUS_COUNT))
        ]
        # The seed fixes the order in which the one caller submits systems.
        random.Random(seed).shuffle(items)
        return items
    if workload == "grid-check":
        from tropbetti.realize import gen_grid_example

        return [("grid_3_3.json", parse_system(dumps(serialize_system(gen_grid_example(3, 3)))))]
    if workload == "circle-betti":
        return [("square.json", parse_complex(dumps(SQUARE)))]
    raise ValueError(f"unknown workload {workload!r}")


def run_item(workload: str, item):
    """The measured call sequence for one input; returns its output document."""
    # Names are looked up per call, so a traced pass calls the wrappers.
    from tropbetti.cli import check_system, parse_system, serialize_system

    if workload == "circle-betti":
        from tropbetti.prevariety import cells_via_arrangement
        from tropbetti.realize import complex_prevariety
        from tropbetti.topology import betti_of_complex

        # `tropbetti realize` then `tropbetti betti` on its output.
        system = parse_system(dumps(serialize_system(complex_prevariety(item))))
        comp = cells_via_arrangement(system)
        return {"betti": list(betti_of_complex(comp).b), "cells": len(comp.cells)}
    return check_system(item)


def check_item(workload: str, name: str, out, expected: dict) -> str | None:
    """None when the output is right, else the reason it is wrong."""
    if workload == "circle-betti":
        want = {"betti": [1, 1], "cells": 8}
        return None if out == want else f"got {out}, want {want}"
    if workload == "grid-check" and (out.get("phi"), out.get("betti")) != (27, [27]):
        return f"phi={out.get('phi')} betti={out.get('betti')}, want phi=27 betti=[27]"
    bad = [key for key in ("all_ok", "cross_method_ok", "duality_ok") if out.get(key) is not True]
    if bad:
        return "false: " + ", ".join(bad)
    digest = hashlib.sha256(dumps(out)).hexdigest()
    want = expected.get(workload, {}).get(name)
    if digest != want:
        return f"report sha256 {digest}, pinned {want}"
    return None


def system_shape(workload: str, item) -> dict:
    from tropbetti.arrangement import build_arrangement

    if workload == "circle-betti":
        return {}
    return {"n": item.n, "k": item.k, "m": item.max_monomials, "ell": build_arrangement(item).ell}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Traced passes are not probed: the probe's time would land in spans.
    probe = None if args.trace else SpeedProbe()
    probe_start = probe.start() if probe else None
    try:
        result, outputs, tracer = measure(args)
    finally:
        if probe:
            probe.stop()
    if probe:
        if args.setup_only:
            probe.calibrate()  # set-up is too short to hold enough samples
        setup_end = result["setup_end"]
        result["probe_start"] = probe_start
        result["setup_scale"] = probe.scale(probe_start, setup_end)
        result["setup_ref"] = probe.seconds(probe_start, setup_end)
        if not args.setup_only:
            result["work_ref"] = probe.seconds(setup_end, result["work_end"])
            result["probe_unit_ms"] = 1000 * statistics.median(d for _, d in probe.samples)
    if args.setup_only:
        print(json.dumps(result))
        return 0

    expected = json.loads((HERE / "expected.json").read_text())
    records = []
    for name, item, t0, t1, out, error in outputs:
        if error is None:
            error = check_item(args.workload, name, out, expected)
        rec = {"name": name, "seconds": t1 - t0, "error": error}
        if probe:
            rec["ref_seconds"] = probe.seconds(t0, t1)
        rec.update(system_shape(args.workload, item))
        records.append(rec)
    result["items"] = records
    if tracer is not None:
        result["trace"] = {
            "metrics": {name: tracer.metric(name) for name in per_layer_names()},
            "table": tracer.table(),
        }
    print(json.dumps(result))
    return 0


def measure(args):
    """Set-up and, unless ``--setup-only``, the work: (result, outputs, tracer)."""
    import tropbetti  # noqa: F401  (import time is part of set-up)

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    items = prepare(args.workload, args.seed)
    result = {"setup_end": time.monotonic()}
    if args.setup_only:
        return result, [], tracer

    outputs = []
    for name, item in items:
        t0 = time.monotonic()
        try:
            out, error = run_item(args.workload, item), None
        except Exception as e:  # a failed item is counted, never dropped
            out, error = None, f"{type(e).__name__}: {e}"
        outputs.append((name, item, t0, time.monotonic(), out, error))
    result["work_end"] = time.monotonic()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    return result, outputs, tracer


def per_layer_names() -> list[str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")]


if __name__ == "__main__":
    sys.exit(main())
