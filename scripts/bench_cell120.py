#!/usr/bin/env python3
"""Benchmark the 120-cell-grid sector recognizer on large level words.

Level 3 is ~1.5M letters; level 4 (~170M) is left out by default — pass
--max-level 4 only with patience and RAM to spare.  Exits 1 when a level
is not accepted.
"""

import argparse
import sys
import time

from itpda.builders import sector_automaton, suggested_store_bound
from itpda.contour import ContourSpec, sector_contour
from itpda.grammar import cell120, total_count
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
        total = total_count(system, args.root, level)
        t0 = time.perf_counter()
        word = sector_contour(spec, level)
        build = time.perf_counter() - t0
        bounds = SearchBounds(suggested_store_bound(system, 1, level), None)
        t0 = time.perf_counter()
        verdict = accepts(automaton, word, bounds, memoize=False)
        run = time.perf_counter() - t0
        rate = verdict.configurations / run / 1e6 if run else float("inf")
        print(f"level {level}: {total:>12} letters  build {build:6.2f}s  "
              f"{verdict.status}  {verdict.configurations} configs  "
              f"run {run:6.2f}s  ({rate:.2f}M configs/s)")
        failed = failed or not verdict
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
