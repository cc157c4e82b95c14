#!/usr/bin/env python3
"""Time realize, cells and Betti numbers on members of the realized
complex corpus, one line per member.

Usage: python scripts/time_realized.py [--seed N] [--count N] [--repeat N] MEMBER...

MEMBER indexes ``complex_corpus(seed, count)`` (default seed 7, count 40,
the corpus that ``NERVE_BETTI`` pins).  Each line gives the wall time of
``complex_prevariety``, ``cells_via_arrangement`` and ``betti_of_complex``,
then the number of tie hyperplanes ell, the number of cells and the Betti
vector.  With ``--repeat N`` each member runs N times from scratch and the
times are the medians of each stage; a single run can be off by up to 2x
on a host whose speed drifts.

On a 2-CPU x86_64 host with Python 3.11 (medians of three runs) the cells
stage of the default corpus takes about 0.2 s on member 34, 0.4 s on
member 39, 1.0-1.2 s on member 5, 1.7-2.1 s on member 13 and 9 s on
member 33; members 1, 4, 20, 21 and 28 run for more than 40 s.
"""

import argparse
import statistics
import sys
import time

from tropbetti.corpus import complex_corpus
from tropbetti.prevariety import cells_via_arrangement
from tropbetti.realize import complex_prevariety
from tropbetti.topology import betti_of_complex


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--repeat", type=int, default=1, help="runs per member; times are medians")
    parser.add_argument("members", type=int, nargs="+")
    args = parser.parse_args(argv)
    corpus = complex_corpus(args.seed, args.count)
    if any(not 0 <= i < len(corpus) for i in args.members):
        parser.error(f"members index a corpus of {len(corpus)}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for i in args.members:
        times = []  # (realize, cells, betti) per run
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            s = complex_prevariety(corpus[i])
            t1 = time.perf_counter()
            c = cells_via_arrangement(s)
            t2 = time.perf_counter()
            b = betti_of_complex(c)
            t3 = time.perf_counter()
            times.append((t1 - t0, t2 - t1, t3 - t2))
        realize, cells, betti = (statistics.median(stage) for stage in zip(*times))
        print(
            f"member {i}: realize {realize:.3f}s cells {cells:.3f}s betti {betti:.3f}s "
            f"n={s.n} k={s.k} ell={s.arrangement.ell} cells={len(c.cells)} betti={list(b.b)}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
