#!/usr/bin/env python3
"""Benchmark the 120-cell-grid sector recognizer on large level words.

Level 3 is ~1.5M letters; level 4 (~170M letters) is left out by default:
its word alone is a tuple of about 1.3 GB, so pass --max-level 4 only with
patience and RAM to spare.  Exits 1 when a level is not accepted.

Each level prints the time to build the word, then two runs of the
recognizer on it.  The first run on the automaton also builds its yield
tables; the second, warm run times the search alone.  The rate is in
letters of input per second of the warm run.  The search jumps over the
repeated subtrees of a tree walk, so the configurations a verdict counts
are mostly never built, and a count per second would not measure a step.
"""

import argparse
import sys
import time

from itpda.builders import sector_automaton, suggested_store_bound
from itpda.contour import ContourSpec, sector_contour
from itpda.grammar import cell120
from itpda.machine import SearchBounds, accepts


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=3)
    parser.add_argument("--root", default="9")
    args = parser.parse_args()

    failed = False
    system = cell120()
    automaton = sector_automaton(system, args.root)
    spec = ContourSpec(system, args.root, kind="sector")
    for level in range(1, args.max_level + 1):
        t0 = time.perf_counter()
        word = sector_contour(spec, level)
        build = time.perf_counter() - t0
        bounds = SearchBounds(suggested_store_bound(system, 1, level), None)
        runs = []
        for _ in range(2):
            t0 = time.perf_counter()
            verdict = accepts(automaton, word, bounds, memoize=False)
            runs.append(time.perf_counter() - t0)
            failed = failed or not verdict
        first, warm = runs
        rate = len(word) / warm / 1e6 if warm else float("inf")
        print(f"level {level}: {len(word):>12} letters  build {build:6.3f}s  "
              f"{verdict.status}  {verdict.configurations} configs  "
              f"first {first:6.3f}s  warm {warm:6.3f}s  "
              f"({rate:.2f}M letters/s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
