#!/usr/bin/env python3
"""Generate a seeded system corpus, run the full check pipeline on every
file, and print a one-line summary per system plus totals.

Usage: python scripts/run_corpus_check.py [--seed N] [--count N]
       [--dir PATH] [--oracle]

Without --dir the corpus goes to a temporary directory that is removed
on exit.

Exits 0 when every system passes, 2 otherwise (matching `tropbetti check`).
"""

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from tropbetti.cli import check_system, parse_system, main as cli_main


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--dir", default=None, help="corpus directory, kept (default: a temporary one, removed)")
    parser.add_argument("--oracle", action="store_true", help="enable 3^ell cross-checks")
    args = parser.parse_args(argv)

    if args.dir:
        return _check(Path(args.dir), args)
    with tempfile.TemporaryDirectory(prefix="tropbetti_corpus_") as tmp:
        return _check(Path(tmp), args)


def _check(out: Path, args) -> int:
    code = cli_main(
        ["gen", "corpus", "--seed", str(args.seed), "--count", str(args.count), "--dir", str(out)]
    )
    if code != 0:
        return code

    # exactly the files `gen corpus` just wrote, not older ones in the directory
    paths = [out / f"system_{i:03d}.json" for i in range(args.count)]
    failures = 0
    start = time.monotonic()
    for path in paths:
        t0 = time.monotonic()
        report = check_system(parse_system(path.read_bytes()), oracle=args.oracle)
        dt = time.monotonic() - t0
        status = "ok" if report["all_ok"] else "FAIL"
        failures += status == "FAIL"
        print(
            f"{path.name}: {status} n={report['n']} k={report['k']} "
            f"phi={report['phi']} betti={report['betti']} ({dt:.2f}s)"
        )
        if status == "FAIL":
            print(json.dumps(report, sort_keys=True, indent=2), file=sys.stderr)
    total = time.monotonic() - start
    kept = f" (corpus in {out})" if args.dir else ""
    print(f"checked {len(paths)} systems from seed {args.seed} in {total:.1f}s, {failures} failures{kept}")
    return 0 if failures == 0 else 2


if __name__ == "__main__":
    sys.exit(run())
