#!/usr/bin/env python3
"""Time realize, cells and Betti numbers on members of the realized
complex corpus, one line per member.

Usage: python scripts/time_realized.py [--seed N] [--count N] MEMBER...

MEMBER indexes ``complex_corpus(seed, count)`` (default seed 7, count 40,
the corpus that ``NERVE_BETTI`` pins).  Each line gives the wall time of
``complex_prevariety``, ``cells_via_arrangement`` and ``betti_of_complex``,
then the number of tie hyperplanes ell, the number of cells and the Betti
vector.  Member 33 of the default corpus takes about ten seconds, and
members 1, 4, 20, 21 and 28 run for more than 40 s.
"""

import argparse
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
    parser.add_argument("members", type=int, nargs="+")
    args = parser.parse_args(argv)
    corpus = complex_corpus(args.seed, args.count)
    if any(not 0 <= i < len(corpus) for i in args.members):
        parser.error(f"members index a corpus of {len(corpus)}")
    for i in args.members:
        t0 = time.perf_counter()
        s = complex_prevariety(corpus[i])
        t1 = time.perf_counter()
        c = cells_via_arrangement(s)
        t2 = time.perf_counter()
        b = betti_of_complex(c)
        t3 = time.perf_counter()
        print(
            f"member {i}: realize {t1 - t0:.3f}s cells {t2 - t1:.3f}s betti {t3 - t2:.3f}s "
            f"n={s.n} k={s.k} ell={s.arrangement.ell} cells={len(c.cells)} betti={list(b.b)}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(run())
